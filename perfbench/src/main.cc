// perfbench_e2e: the end-to-end wall-clock benchmark binary.
//
//   perfbench_e2e --workload sw-dp|sweep3d-tasks|service-mix --seed N
//                 --seconds S --trace 0|1 [--size full|tiny]
//                 [--corrupt-every K] [--trace-dir DIR] [--git-commit C]
//
// Prints one metadata line and then, as the last line of stdout, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Metric
// names and units are the ones in BENCHMARK.json. Run it through
// perfbench/run.py, which builds it first.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hh"

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool Verifier::check(double got, double want, double rtol,
                     const std::string& what) {
  ++out_.attempted;
  ++checks_;
  if (corrupt_every_ > 0 && checks_ % static_cast<std::uint64_t>(corrupt_every_) == 0)
    want += 1.0 + std::abs(want);
  const bool ok = rtol == 0.0
                      ? std::bit_cast<std::uint64_t>(got) ==
                            std::bit_cast<std::uint64_t>(want)
                      : std::abs(got - want) <= rtol * std::abs(want);
  if (!ok) {
    ++out_.failed;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.17g, expected %.17g", got, want);
    std::cerr << "check failed: " << what << " returned " << buf << "\n";
  }
  return ok;
}

void Verifier::fail(const std::string& what, const std::string& why) {
  ++out_.attempted;
  ++out_.failed;
  std::cerr << "check failed: " << what << " threw: " << why << "\n";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::size_t chunk_of(double elapsed, double seconds, std::size_t chunks) {
  if (!(seconds > 0.0) || elapsed >= seconds) return chunks - 1;
  return std::min(chunks - 1, static_cast<std::size_t>(
                                  std::max(0.0, elapsed / seconds) *
                                  static_cast<double>(chunks)));
}

double quiet_decile(const std::vector<std::vector<double>>& chunks,
                    const std::function<double(const std::vector<double>&)>& stat,
                    bool higher_is_better) {
  std::vector<double> per;
  for (const auto& c : chunks)
    if (!c.empty()) per.push_back(stat(c));
  return quantile(std::move(per), higher_is_better ? 0.9 : 0.1);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"solve_s_p50", "s"},
    {"speedup_vs_serial", "x"}, {"latency_s_p50", "s"},
    {"latency_s_p90", "s"},     {"jobs_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"apps.construct_s", "s"},
    {"exec.fill_s", "s"},
    {"exec.fill_cells_per_s", "cells/s"},
    {"exec.reduce_s", "s"},
    {"comm.wait_s", "s"},
    {"comm.messages", "count"},
    {"comm.bytes", "bytes"},
    {"comm.engine_overhead_s", "s"},
    {"sched.build_s", "s"},
    {"sched.run_s", "s"},
    {"sched.tasks_per_s", "1/s"},
    {"sched.steal_ratio", "ratio"},
    {"sched.blocked_waits", "count"},
    {"service.submit_hit_s_p50", "s"},
    {"service.submit_miss_s_p50", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.round_s_p50", "s"},
    {"service.queue_wait_s_p50", "s"},
    {"service.jobs_per_round", "jobs/round"},
    {"service.rank_occupancy", "ratio"},
    {"bench.serial_s_p50", "s"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unaccounted_share", "ratio"},
};

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

/// The traced run's spans must cover every rank body to within this share
/// of the solve's wall time.
constexpr double kAccountingTolerance = 0.02;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_e2e: " << why
            << "\nusage: perfbench_e2e --workload sw-dp|sweep3d-tasks|"
               "service-mix --seed N --seconds S --trace 0|1 [--size "
               "full|tiny] [--corrupt-every K] [--trace-dir DIR] "
               "[--git-commit C]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--size") {
        if (v != "full" && v != "tiny") usage("--size takes full or tiny");
        a.tiny = v == "tiny";
      } else if (flag == "--corrupt-every") {
        a.corrupt_every = std::stoi(v);
      } else if (flag == "--trace-dir") {
        a.trace_dir = v;
      } else if (flag == "--git-commit") {
        a.git_commit = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds >= 0.0)) usage("--seconds must be >= 0");
  return a;
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += (c == '\n' ? ' ' : c);
  }
  return q + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  now_s();  // start the clock
  const Args args = parse(argc, argv);

  Outcome out;
  try {
    if (args.workload == "sw-dp") {
      out = run_sw_dp(args);
    } else if (args.workload == "sweep3d-tasks") {
      out = run_sweep3d_tasks(args);
    } else if (args.workload == "service-mix") {
      out = run_service_mix(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_e2e: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (!args.trace) out.set("peak_rss_mb", peak_rss_mb(), 1);

  std::ostringstream metrics, samples;
  bool first = true;
  auto emit = [&](const MetricDef& d) {
    const auto it = out.values.find(d.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    const std::size_t n = it == out.values.end() ? 0 : out.samples[d.name];
    metrics << (first ? "" : ", ") << quoted(d.name) << ": {\"value\": "
            << number(v) << ", \"unit\": " << quoted(d.unit) << "}";
    samples << (first ? "" : ", ") << quoted(d.name) << ": " << n;
    first = false;
  };
  if (args.trace) {
    // Layers a workload does not run report 0 with 0 samples.
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (!out.values.count(d.name)) {
        std::cerr << "perfbench_e2e: " << args.workload << " did not measure "
                  << d.name << "\n";
        return 1;
      }
      emit(d);
    }
  }

  const auto unaccounted = out.values.find("bench.unaccounted_share");
  if (unaccounted != out.values.end() &&
      unaccounted->second > kAccountingTolerance)
    std::cerr << "warning: traced spans leave " << unaccounted->second
              << " of the solve wall time unaccounted (tolerance "
              << kAccountingTolerance << ")\n";

  std::ostringstream meta;
  meta << "{\"meta\": {\"workload\": " << quoted(args.workload)
       << ", \"seed\": " << args.seed
       << ", \"seed_used\": " << quoted(out.meta["seed_used"])
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"size\": " << quoted(args.tiny ? "tiny" : "full")
       << ", \"seconds\": " << number(args.seconds)
       << ", \"nproc\": " << nproc()
       << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << quoted(kCompiler)
       << ", \"git_commit\": " << quoted(args.git_commit)
       << ", \"engine\": \"parallel\""
       << ", \"executor\": " << quoted(out.meta["executor"])
       << ", \"problem\": " << quoted(out.meta["problem"])
       << ", \"accounting_tolerance\": " << number(kAccountingTolerance)
       << ", \"error_rate\": "
       << number(out.attempted ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 0.0)
       << ", \"samples\": {" << samples.str() << "}}}";
  std::cout << meta.str() << "\n";

  const bool correct = out.refs_ok && out.failed == 0 && out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
