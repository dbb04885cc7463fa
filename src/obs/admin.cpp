#include "obs/admin.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace appscope::obs {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

void set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

AdminServer::AdminServer(AdminOptions options) : options_(std::move(options)) {}

AdminServer::~AdminServer() { stop(); }

void AdminServer::handle(
    std::string path,
    std::function<HttpResponse(const std::string& path)> handler) {
  APPSCOPE_REQUIRE(listen_fd_ < 0, "AdminServer: handle() after start()");
  handlers_[std::move(path)] = std::move(handler);
}

void AdminServer::start() {
  if (listen_fd_ >= 0) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  APPSCOPE_REQUIRE(fd >= 0, "AdminServer: socket() failed");

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw util::InputError("AdminServer: bad bind address: " +
                           options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    throw util::InputError("AdminServer: cannot bind " +
                           options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(err));
  }
  if (::listen(fd, options_.backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw util::InputError(std::string("AdminServer: listen failed: ") +
                           std::strerror(err));
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { accept_loop(); });
}

void AdminServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown(2) on the listening socket makes the blocked accept(2) return
  // (EINVAL on Linux), which is the whole unblocking mechanism.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load(std::memory_order_relaxed)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket gone
    }
    set_io_timeout(fd, options_.io_timeout_ms);
    serve_connection(fd);
    ::close(fd);
  }
}

void AdminServer::serve_connection(int fd) {
  // Read until the end of the request head or the size cap; the admin
  // endpoints are GET-only, so the head is the whole request.
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse response;
  bool head_method = false;  // a HEAD request is answered without a body
  const std::size_t line_end = request.find("\r\n");
  const std::size_t sp1 = request.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request.find(' ', sp1 + 1);
  if (request.empty() || sp1 == std::string::npos ||
      sp2 == std::string::npos || (line_end != std::string::npos && sp2 > line_end)) {
    response = {400, "text/plain; charset=utf-8", "bad request\n"};
  } else if (request.compare(0, sp1, "GET") != 0 &&
             request.compare(0, sp1, "HEAD") != 0) {
    response = {405, "text/plain; charset=utf-8", "method not allowed\n"};
  } else {
    head_method = request.compare(0, sp1, "HEAD") == 0;
    std::string path = request.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    const auto it = handlers_.find(path);
    if (it == handlers_.end()) {
      response = {404, "text/plain; charset=utf-8", "not found\n"};
    } else {
      response = it->second(path);
    }
  }

  requests_.fetch_add(1, std::memory_order_relaxed);
  if (util::MetricsRegistry::enabled()) {
    auto& registry = util::MetricsRegistry::global();
    registry.add("obs.admin.requests");
    if (response.status >= 400) registry.add("obs.admin.errors");
  }

  // One write for head and body: a body sent separately can sit behind the
  // head (Nagle) when the close below resets the connection.
  std::string reply = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      status_text(response.status) +
                      "\r\nContent-Type: " + response.content_type +
                      "\r\nContent-Length: " +
                      std::to_string(response.body.size()) +
                      "\r\nConnection: close\r\n\r\n";
  if (!head_method) reply += response.body;
  if (!send_all(fd, reply.data(), reply.size())) return;
  // Lingering close: closing a socket with request bytes still unread (an
  // oversized head) sends a reset, which discards reply bytes not yet
  // delivered. Shut down writes (the FIN follows the reply), then drain
  // what the client still sends, at most kMaxRequestBytes more and within
  // the I/O timeout, before the caller closes.
  ::shutdown(fd, SHUT_WR);
  std::size_t drained = 0;
  while (drained < kMaxRequestBytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    drained += static_cast<std::size_t>(n);
  }
}

}  // namespace appscope::obs
