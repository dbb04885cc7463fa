// Fuzz-style robustness sweeps: random inputs must never crash, corrupt
// state, or silently accept malformed data.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "io/binary.hpp"
#include "io/format.hpp"
#include "io/serialize.hpp"
#include "io/snapshot.hpp"
#include "net/dpi.hpp"
#include "obs/admin.hpp"
#include "query/snapshot_view.hpp"
#include "support/temp_dir.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace appscope {
namespace {

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_text(util::Rng& rng, std::size_t max_len) {
  static constexpr const char* kAlphabet =
      "abcXYZ019 ,\"\n\r;:=.-_\t\\'{}[]";
  const std::size_t len = rng.uniform_index(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlphabet[rng.uniform_index(std::strlen(kAlphabet))]);
  }
  return out;
}

TEST_P(FuzzSeed, CsvParserNeverCrashesOnGarbage) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string text = random_text(rng, 300);
    try {
      const auto rows = util::CsvReader::parse(text);
      // Parsed fine: every field must round-trip through the writer.
      std::ostringstream out;
      util::CsvWriter writer(out);
      for (const auto& row : rows) {
        if (!row.empty()) writer.write_row(row);
      }
    } catch (const util::InputError&) {
      // Unbalanced quotes are a legitimate rejection.
    }
  }
}

TEST_P(FuzzSeed, CsvWriterReaderRoundTripArbitraryFields) {
  util::Rng rng(GetParam() ^ 0xABCDu);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::string> row;
    const std::size_t arity = 1 + rng.uniform_index(6);
    for (std::size_t i = 0; i < arity; ++i) {
      row.push_back(random_text(rng, 40));
    }
    // Trailing CR in a field is the one thing CSV cannot represent
    // losslessly here (tolerant CRLF handling strips it); normalize.
    for (auto& f : row) {
      while (!f.empty() && f.back() == '\r') f.pop_back();
    }
    std::ostringstream out;
    util::CsvWriter writer(out);
    writer.write_row(row);
    const auto parsed = util::CsvReader::parse(out.str());
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0], row);
  }
}

TEST_P(FuzzSeed, DpiNeverCrashesAndNeverMisclassifiesGarbage) {
  const workload::ServiceCatalog catalog =
      workload::ServiceCatalog::paper_services();
  const net::DpiEngine dpi(catalog);
  util::Rng rng(GetParam() ^ 0x5A5Au);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string fp = random_text(rng, 60);
    const auto match = dpi.classify(fp);
    if (match) {
      // Any hit must correspond to a registered fingerprint's service —
      // i.e. the garbage accidentally contains a registered pattern, which
      // for our alphabet (no full domain strings) should not happen.
      ADD_FAILURE() << "garbage classified: '" << fp << "' -> "
                    << catalog[match->service].name;
    }
  }
}

TEST_P(FuzzSeed, RngStreamsNeverRepeatShortCycles) {
  util::Rng rng(GetParam());
  // A weak sanity net against state-update regressions: 64-bit outputs in a
  // short window are all distinct with overwhelming probability.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(seen.insert(rng.next_u64()).second) << i;
  }
}

// --- Snapshot mutation sweep ------------------------------------------------
//
// Each trial mutates one seeded target of a sealed test-scale snapshot: a
// header field, a section-table entry, a payload byte or the v1.0/v1.1
// config tail. Half of the table, payload and tail mutations recompute the
// checksums they break (and the config hash, for the config section), so
// the mutant reaches the bounds checks and the decoders instead of stopping
// at a CRC. Both read paths must then either open the file or throw
// util::InputError.

/// A little-endian field of the snapshot image, as (offset, width).
struct Field {
  std::size_t at;
  std::size_t width;
};
// Header fields (see io/snapshot_writer.cpp): version, config hash, seed,
// the five dimensions, section count, file size and table CRC.
constexpr Field kHeaderFields[] = {
    {8, 4},  {12, 8}, {20, 8}, {28, 4}, {32, 4}, {36, 4},
    {40, 4}, {44, 4}, {48, 4}, {52, 8}, {60, 4},
};
constexpr Field kConfigHash = {12, 8};
constexpr Field kSectionCount = {48, 4};
constexpr Field kTableCrc = {60, 4};
// Section-table entry fields, relative to the entry: id, kind, offset,
// payload bytes and CRC.
constexpr Field kEntryFields[] = {{0, 4}, {4, 4}, {8, 8}, {16, 8}, {24, 4}};
constexpr Field kEntryId = {0, 4};
constexpr Field kEntryOffset = {8, 8};
constexpr Field kEntryBytes = {16, 8};
constexpr Field kEntryCrc = {24, 4};

/// `f` of the image, or of section-table entry `entry` when one is given.
std::size_t field_at(Field f, std::optional<std::size_t> entry) {
  return entry ? io::kHeaderBytes + *entry * io::kSectionEntryBytes + f.at
               : f.at;
}

std::uint64_t get(const std::vector<std::byte>& image, Field f,
                  std::optional<std::size_t> entry = {}) {
  const std::size_t at = field_at(f, entry);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width; ++i) {
    v |= static_cast<std::uint64_t>(image[at + i]) << (8 * i);
  }
  return v;
}

void put(std::vector<std::byte>& image, Field f, std::uint64_t v,
         std::optional<std::size_t> entry = {}) {
  const std::size_t at = field_at(f, entry);
  for (std::size_t i = 0; i < f.width; ++i) {
    image[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

/// Replaces `f` with one flipped bit, an off-by-one either way, zero, all
/// ones or random bits.
void mutate(util::Rng& rng, std::vector<std::byte>& image, Field f,
            std::optional<std::size_t> entry = {}) {
  const std::uint64_t v = get(image, f, entry);
  const std::uint64_t mask = f.width == 8
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (8 * f.width)) - 1;
  std::uint64_t out = 0;
  switch (rng.uniform_index(5)) {
    case 0:
      out = v ^ (std::uint64_t{1} << rng.uniform_index(8 * f.width));
      break;
    case 1:
      out = (rng.uniform_index(2) == 0 ? v + 1 : v - 1) & mask;
      break;
    case 2:
      break;
    case 3:
      out = mask;
      break;
    default:
      out = rng.next_u64() & mask;
  }
  put(image, f, out, entry);
}

/// Recomputes the table CRC in the header.
void reseal_table(std::vector<std::byte>& image) {
  const auto table = std::span(image).subspan(
      io::kHeaderBytes, io::kMaxSections * io::kSectionEntryBytes);
  put(image, kTableCrc, io::crc32(table));
}

/// Recomputes what a mutation of entry `i` or its payload broke: the
/// payload CRC when the entry's range still lies inside the file (and the
/// config hash, for the config section), then the table CRC.
void reseal(std::vector<std::byte>& image, std::size_t i) {
  const std::uint64_t offset = get(image, kEntryOffset, i);
  const std::uint64_t bytes = get(image, kEntryBytes, i);
  if (offset <= image.size() && bytes <= image.size() - offset) {
    const auto payload = std::span(image).subspan(
        static_cast<std::size_t>(offset), static_cast<std::size_t>(bytes));
    put(image, kEntryCrc, io::crc32(payload), i);
    if (get(image, kEntryId, i) ==
        static_cast<std::uint32_t>(io::SectionId::kConfig)) {
      put(image, kConfigHash, io::fnv1a64(payload));
    }
  }
  reseal_table(image);
}

/// A sealed test-scale snapshot, saved once per process.
const std::vector<std::byte>& sealed_snapshot() {
  static const std::vector<std::byte> image = [] {
    const std::string path =
        test_support::temp_path("sealed.snapshot").string();
    core::TrafficDataset::generate(synth::ScenarioConfig::test_scale())
        .save(path);
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> chars((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    std::vector<std::byte> bytes(chars.size());
    std::memcpy(bytes.data(), chars.data(), chars.size());
    return bytes;
  }();
  return image;
}

/// Opens `path` through both read paths, the view with every column and
/// the catalog touched; each must succeed or throw util::InputError.
void expect_opens_or_input_error(const std::string& path,
                                 const std::string& what) {
  try {
    (void)io::read_snapshot(path);
  } catch (const util::InputError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": read_snapshot threw a non-input error: "
                  << e.what();
  }
  try {
    const query::SnapshotView view(path);
    double sum = 0.0;
    for (const io::SectionId id :
         {io::SectionId::kNationalSeries, io::SectionId::kCommuneTotals,
          io::SectionId::kUrbanizationSeries}) {
      for (const double v : view.column(id)) sum += v;
    }
    (void)view.catalog().size();
    (void)sum;
  } catch (const util::InputError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": SnapshotView threw a non-input error: "
                  << e.what();
  }
}

TEST_P(FuzzSeed, SnapshotMutantsOpenOrThrowInputError) {
  const std::vector<std::byte>& sealed = sealed_snapshot();
  const auto sections = static_cast<std::size_t>(get(sealed, kSectionCount));
  std::size_t config = 0;
  while (config < sections &&
         get(sealed, kEntryId, config) !=
             static_cast<std::uint32_t>(io::SectionId::kConfig)) {
    ++config;
  }
  ASSERT_LT(config, sections);
  const auto config_at =
      static_cast<std::size_t>(get(sealed, kEntryOffset, config));
  const auto config_bytes =
      static_cast<std::size_t>(get(sealed, kEntryBytes, config));
  // The v1.1 tail: the region string (u32 length + bytes) and the f64 tilt.
  const std::size_t tail_bytes =
      4 + 8 +
      io::decode_config(std::span(sealed).subspan(config_at, config_bytes))
          .region.size();

  util::Rng rng(GetParam() ^ 0x5EA1u);
  const std::string path = test_support::temp_path("mutant.snapshot").string();
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::byte> image = sealed;
    const bool resealed = rng.uniform_index(2) == 0;
    std::ostringstream what;
    what << "trial " << trial << (resealed ? " (resealed): " : ": ");
    switch (trial % 4) {
      case 0: {
        const Field f =
            kHeaderFields[rng.uniform_index(std::size(kHeaderFields))];
        mutate(rng, image, f);
        what << "header field at " << f.at;
        break;
      }
      case 1: {
        const std::size_t i = rng.uniform_index(sections);
        const Field f =
            kEntryFields[rng.uniform_index(std::size(kEntryFields))];
        mutate(rng, image, f, i);
        if (resealed && f.at == kEntryCrc.at) {
          reseal_table(image);
        } else if (resealed) {
          reseal(image, i);
        }
        what << "table entry " << i << " field at " << f.at;
        break;
      }
      case 2: {
        // Half of the positions fall in a section's first 32 bytes, where
        // the encoded sections keep their element counts.
        const std::size_t i = rng.uniform_index(sections);
        const auto bytes = static_cast<std::size_t>(get(image, kEntryBytes, i));
        const std::size_t window = rng.uniform_index(2) == 0
                                       ? std::min<std::size_t>(bytes, 32)
                                       : bytes;
        const std::size_t at = rng.uniform_index(window);
        mutate(rng, image,
               {static_cast<std::size_t>(get(image, kEntryOffset, i)) + at, 1});
        if (resealed) reseal(image, i);
        what << "byte " << at << " of section entry " << i;
        break;
      }
      default: {
        // Shorten the config by up to the whole tail (all of it leaves a
        // v1.0 encoding), lengthen it into the padding, or change a tail
        // byte.
        const std::size_t cut = 1 + rng.uniform_index(tail_bytes);
        switch (rng.uniform_index(3)) {
          case 0:
            put(image, kEntryBytes, config_bytes - cut, config);
            break;
          case 1:
            put(image, kEntryBytes, config_bytes + 1 + rng.uniform_index(16),
                config);
            break;
          default:
            mutate(rng, image, {config_at + config_bytes - cut, 1});
        }
        if (resealed) reseal(image, config);
        what << "config tail, length " << get(image, kEntryBytes, config);
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(image.size()));
      ASSERT_TRUE(out.good()) << path;
    }
    expect_opens_or_input_error(path, what.str());
  }
}

// --- Admin request-head sweep -----------------------------------------------
//
// Each trial mutates a clean "GET /healthz" head: truncations, byte flips,
// NULs, bare LFs, missing spaces, heads past the read cap, unknown methods,
// long paths with a query string, and two pipelined requests. The server
// must answer each with one well-formed response (or nothing) and keep
// serving.

constexpr const char* kCleanHead = "GET /healthz HTTP/1.1\r\n\r\n";

std::string mutate_head(util::Rng& rng) {
  std::string head = kCleanHead;
  const auto at = [&](const std::string& s) {
    return static_cast<std::size_t>(rng.uniform_index(s.size()));
  };
  switch (rng.uniform_index(9)) {
    case 0:
      head.resize(at(head));
      break;
    case 1:
      for (std::size_t n = 1 + rng.uniform_index(3); n > 0; --n) {
        head[at(head)] ^= static_cast<char>(1u << rng.uniform_index(8));
      }
      break;
    case 2:
      for (std::size_t n = 1 + rng.uniform_index(3); n > 0; --n) {
        head.insert(at(head), 1, '\0');
      }
      break;
    case 3:
      for (std::size_t cr; (cr = head.find('\r')) != std::string::npos;) {
        head.erase(cr, 1);
      }
      break;
    case 4:
      head.erase(head.find(' ', rng.uniform_index(2) == 0 ? 0 : 4), 1);
      break;
    case 5:
      head = "GET /" +
             std::string(obs::AdminServer::kMaxRequestBytes +
                             rng.uniform_index(4096),
                         'a') +
             " HTTP/1.1\r\n\r\n";
      break;
    case 6: {
      static constexpr const char* kMethods[] = {
          "POST", "PUT", "DELETE", "get", "HEADER", "GETX", "", "\x01GET"};
      head.replace(0, 3, kMethods[rng.uniform_index(std::size(kMethods))]);
      break;
    }
    case 7:
      head = "GET /healthz?" +
             std::string(rng.uniform_index(
                             2 * obs::AdminServer::kMaxRequestBytes),
                         'q') +
             " HTTP/1.1\r\n\r\n";
      break;
    default:
      head += rng.uniform_index(2) == 0 ? kCleanHead
                                        : "GET /nope HTTP/1.1\r\n\r\n";
  }
  return head;
}

/// Sends `request`, half-closes so an unterminated head ends at once, and
/// reads the reply to EOF. The server may reset a connection whose request
/// it did not read to the end; whatever arrived is the reply.
std::string exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

/// Empty, or one HTTP/1.1 response with an expected status whose
/// Content-Length is its body's length. Returns what is wrong, or "".
std::string check_reply(const std::string& reply) {
  if (reply.empty()) return "";
  const std::size_t head_end = reply.find("\r\n\r\n");
  if (head_end == std::string::npos) return "no end of head";
  const std::string head = reply.substr(0, head_end);
  const std::string status = head.substr(0, head.find("\r\n"));
  if (status != "HTTP/1.1 200 OK" && status != "HTTP/1.1 400 Bad Request" &&
      status != "HTTP/1.1 404 Not Found" &&
      status != "HTTP/1.1 405 Method Not Allowed") {
    return "status line '" + status + "'";
  }
  const std::string key = "\r\nContent-Length: ";
  const std::size_t length_at = head.find(key);
  if (length_at == std::string::npos) return "no Content-Length";
  const std::size_t body = reply.size() - head_end - 4;
  const std::string length =
      head.substr(length_at + key.size(),
                  head.find("\r\n", length_at + key.size()) -
                      (length_at + key.size()));
  if (length != std::to_string(body)) {
    return "Content-Length " + length + " for a body of " +
           std::to_string(body) + " bytes";
  }
  if (reply.find("HTTP/1.1", 1) != std::string::npos) return "two responses";
  return "";
}

TEST_P(FuzzSeed, AdminRequestHeadsAnswerOrClose) {
  obs::AdminServer server;
  server.handle("/healthz", [](const std::string&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "ok\n"};
  });
  server.start();
  util::Rng rng(GetParam() ^ 0xAD31u);
  constexpr int kTrials = 64;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string head = mutate_head(rng);
    const std::string reply = exchange(server.port(), head);
    const std::string wrong = check_reply(reply);
    EXPECT_TRUE(wrong.empty())
        << "trial " << trial << ": " << wrong << "\nrequest ("
        << head.size() << " bytes): "
        << testing::PrintToString(head.substr(0, 64)) << "\nreply: "
        << testing::PrintToString(reply.substr(0, 200));
  }
  const std::string clean = exchange(server.port(), kCleanHead);
  EXPECT_EQ(clean.substr(0, clean.find("\r\n")), "HTTP/1.1 200 OK");
  EXPECT_TRUE(clean.ends_with("\r\n\r\nok\n")) << clean;
  EXPECT_EQ(server.requests(), kTrials + 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace appscope
