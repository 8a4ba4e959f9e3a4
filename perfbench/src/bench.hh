// Shared pieces of the end-to-end benchmark: command-line arguments, the
// per-run outcome (metrics plus attempted/failed counts), the value checker
// every timed result passes through, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every problem so a run finishes in well under a second (the
  /// smoke test).
  bool tiny = false;
  /// When > 0, every k-th value check compares against a deliberately
  /// corrupted reference, so the checker must report it as a failure.
  int corrupt_every = 0;
  /// Where the traced run writes its Chrome trace ("" = nowhere).
  std::string trace_dir;
  std::string git_commit = "unknown";
};

/// What one workload run reports. Metric values are keyed by the names in
/// BENCHMARK.json; `samples` is the count of checked results behind each.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the benchmark's own references disagree with each other
  /// (a benchmark bug, not a program failure).
  bool refs_ok = true;
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;
  /// Workload-specific run metadata (sizes, engine, backend).
  std::map<std::string, std::string> meta;

  void set(const std::string& name, double value, std::size_t n) {
    values[name] = value;
    samples[name] = n;
  }
};

/// Checks results against references and counts every check as one
/// attempted operation. Failures are logged to stderr; the caller discards
/// the sample.
class Verifier {
 public:
  Verifier(Outcome& out, int corrupt_every)
      : out_(out), corrupt_every_(corrupt_every) {}

  /// |got - want| <= rtol * |want|; rtol == 0 demands identical bits.
  bool check(double got, double want, double rtol, const std::string& what);

  /// An operation that threw or returned no result.
  void fail(const std::string& what, const std::string& why);

 private:
  Outcome& out_;
  int corrupt_every_;
  std::uint64_t checks_ = 0;
};

double median(std::vector<double> v);
/// Linear-interpolation quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

/// Which of `chunks` equal slices of a `seconds`-long run the moment
/// `elapsed` falls in; moments past the end count in the last chunk.
std::size_t chunk_of(double elapsed, double seconds, std::size_t chunks);

/// A run's end-to-end figure from its per-chunk values (a chunk is an equal
/// slice of --seconds): the lower decile over chunks for a time, the upper
/// decile for a rate or speed-up. Other tenants of a shared host slow
/// stretches of a run by tens of percent, and a 4-rank wavefront on 4 cores
/// feels each of them; the decile reports the run's quiet stretches, so a
/// slow spell covering most of a run does not move it. Empty chunks (a run
/// shorter than planned) are skipped.
double quiet_decile(const std::vector<std::vector<double>>& chunks,
                    const std::function<double(const std::vector<double>&)>& stat,
                    bool higher_is_better);

/// Maximum resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A deterministic 64-bit generator owned by the benchmark, so the inputs a
/// seed produces never depend on code under test.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

Outcome run_sw_dp(const Args& args);
Outcome run_sweep3d_tasks(const Args& args);
Outcome run_service_mix(const Args& args);

}  // namespace perfbench
