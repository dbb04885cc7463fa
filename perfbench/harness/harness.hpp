// Shared pieces of the appscope benchmark harness: run options, the
// outcome every workload reports, seed derivation, the harness's own span
// recorder, and small I/O helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "stats.hpp"
#include "synth/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Worker threads any workload may use (router + shards + reader, or the
/// global pool): the benchmark's load fits a 4-core box.
inline constexpr std::size_t kThreadBudget = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for sealed/published snapshots (inside the checkout).
  std::string work_dir;
};

/// An end-to-end figure under the name the workload's users know it by
/// (study_s, ingest_eps, visible_p50_ms, ...), printed on its own line.
struct Figure {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few violation messages

  // Untraced run: the contract metrics plus the named figures.
  std::vector<double> setup_s;     // one sample per set-up
  std::vector<double> latency_ms;  // one sample per headline operation
  std::string latency_name;        // what a latency sample is, for the log
  std::vector<Figure> figures;

  // Traced run: per-layer values (idle layers stay 0) and the tracing
  // overhead, traced minus untraced headline median.
  std::map<std::string, double> layers;

  void fail(const std::string& message);
};

/// Per-layer metrics every traced run prints, with their units. Layers a
/// workload does not exercise report 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Deterministic sub-seed for one purpose (`salt`) of a run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// `config` with its traffic seed derived from the run seed. Geography and
/// population keep the preset's seeds, so every seed of a workload runs the
/// same territory size and subscriber base over different traffic.
appscope::synth::ScenarioConfig seeded(appscope::synth::ScenarioConfig config,
                                       std::uint64_t seed, std::uint64_t salt);

/// In-memory span recorder for the harness's own calls into the library.
/// Spans are aggregated after each repetition; nothing is written while a
/// repetition runs. A Scope on a null Tracer* records nothing. Not
/// thread-safe: one thread records into a Tracer.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    double seconds = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer), name_(name), start_(tracer ? Clock::now() : Clock::time_point{}) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->spans_.push_back({name_, start_, seconds_between(start_, Clock::now())});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    Clock::time_point start_;
  };

  /// Summed duration of every span named `name`.
  double total(const std::string& name) const;
  /// Durations of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// Output stream that keeps only an FNV-1a hash of what is written to it: a
/// discarded report whose bytes can still be compared.
class HashStream : public std::ostream {
 public:
  HashStream() : std::ostream(&buf_) {}
  std::uint64_t hash() const noexcept { return buf_.hash; }

 private:
  struct Buf : std::streambuf {
    std::uint64_t hash = 1469598103934665603ULL;
    void put(char c) { hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL; }
    int_type overflow(int_type c) override {
      if (c != traits_type::eof()) put(static_cast<char>(c));
      return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      for (std::streamsize i = 0; i < n; ++i) put(s[i]);
      return n;
    }
  };
  Buf buf_;
};

/// FNV-1a of a whole file's bytes.
std::uint64_t file_hash(const std::string& path);

/// Fresh, empty directory under the work dir, unique within the process.
std::string fresh_dir(const Options& options, const std::string& stem);
void remove_tree(const std::string& path);

/// Flushes the page cache to disk, so the next timed run starts on an idle
/// disk instead of behind the previous run's writeback. Called outside the
/// timed region only.
void settle_disk();

double peak_rss_mb();

Outcome run_study(const Options& options);
Outcome run_serve(const Options& options);
Outcome run_follow(const Options& options);
Outcome run_region(const Options& options);

}  // namespace perfbench
