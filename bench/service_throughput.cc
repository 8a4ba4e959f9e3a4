// The sweep service under load: what multi-tenancy and plan caching buy.
//
// Four sections, all written to BENCH_service.json:
//
//   1. submit latency — the same job stream submitted cold (every key
//      distinct: full lowering) and hot (every key cached). The cache-hit
//      speedup is a CI gate: a hit must skip lowering, so its p50 submit
//      latency must be >= 5x faster than a cold submit's.
//
//   2. throughput — the same batch of p=2 jobs drained on a 2-rank pool
//      (one job at a time, fully sequential) and on a wider pool that
//      runs four at a time. Real wall seconds under the parallel engine
//      with a free cost model, so concurrency is physical: on a host with
//      >= 4 cores the packed drain must not be slower than the sequential
//      one (core-count-aware CI gate; the JSON records cores).
//
//   3. open-loop latency — jobs arrive on a fixed-interval clock
//      regardless of service progress (open loop: arrivals do not wait),
//      and each job's latency is completion minus arrival. Reports
//      p50/p99 latency and achieved throughput.
//
//   4. mixed durations — a closed loop keeping 4 jobs outstanding on a
//      4-rank parallel pool, cycling sor (n = 512) and sweep3d (n = 24) at
//      p = 2 with smith-waterman-2d at p = 4: jobs of unequal length, so
//      ranks that finish early take the next queued job. Reports jobs/s
//      and jobs per session (no gate).
#include <algorithm>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hh"
#include "support/options.hh"
#include "support/table.hh"
#include "support/timer.hh"

using namespace wavepipe;

namespace {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

CostModel modelled_costs() {
  CostModel cm;
  cm.alpha = 40.0;
  cm.beta = 0.5;
  return cm;
}

struct SubmitStats {
  double cold_p50_us = 0.0, cold_p99_us = 0.0;
  double hit_p50_us = 0.0, hit_p99_us = 0.0;
  double hit_speedup() const {
    return hit_p50_us > 0.0 ? cold_p50_us / hit_p50_us : 0.0;
  }
};

// Submit `keys` distinct jobs twice into one service (never run): first
// pass lowers every plan, second pass hits the cache on every key.
SubmitStats measure_submit(int keys) {
  ServiceConfig cfg;
  cfg.ranks = 8;
  cfg.costs = modelled_costs();
  cfg.max_queue = static_cast<std::size_t>(keys) * 2 + 8;
  cfg.cache_capacity = static_cast<std::size_t>(keys) + 8;
  SweepService svc(cfg);

  std::vector<double> cold, hit;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < keys; ++k) {
      JobParams params;
      params.app = "smith-waterman";
      params.n = 192 + k;  // distinct key per k; same key across passes
      params.p = 4;
      Timer t;
      svc.submit(params);
      (pass == 0 ? cold : hit).push_back(t.microseconds());
    }
  }
  SubmitStats s;
  s.cold_p50_us = percentile(cold, 0.50);
  s.cold_p99_us = percentile(cold, 0.99);
  s.hit_p50_us = percentile(hit, 0.50);
  s.hit_p99_us = percentile(hit, 0.99);
  return s;
}

struct ThroughputStats {
  int jobs = 0;
  double sequential_s = 0.0;
  double concurrent_s = 0.0;
  double sequential_jps() const { return jobs / sequential_s; }
  double concurrent_jps() const { return jobs / concurrent_s; }
  double speedup() const { return sequential_s / concurrent_s; }
};

// Drains `jobs` identical p=2 jobs on a `pool`-rank parallel-engine
// service and returns the drain's wall seconds (best of reps).
double drain_wall(int jobs, int pool, Coord n, int reps) {
  ServiceConfig cfg;
  cfg.ranks = pool;
  cfg.engine.kind = EngineKind::kParallel;
  // Free cost model: wall time is real compute + real mailbox traffic.
  cfg.costs = CostModel{};
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    SweepService svc(cfg);
    JobParams params;
    params.app = "smith-waterman";
    params.n = n;
    params.p = 2;
    params.b = 8;  // fixed grain: b* degenerates under a free model
    for (int j = 0; j < jobs; ++j) svc.submit(params);
    Timer t;
    svc.drain();
    const double wall = t.seconds();
    best = rep == 0 ? wall : std::min(best, wall);
  }
  return best;
}

struct LatencyStats {
  int arrivals = 0;
  double interarrival_ms = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0;
  double throughput_jps = 0.0;
};

// Open loop: arrival k is due at k * interarrival on the wall clock,
// whether or not the service has kept up. The loop submits every due
// arrival, then serves one wait() at a time, stamping completions.
LatencyStats measure_open_loop(int arrivals, Coord n) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = modelled_costs();
  cfg.max_queue = static_cast<std::size_t>(arrivals) + 8;
  SweepService svc(cfg);

  // Calibrate the arrival interval to ~70% of one job's service time so
  // the queue stays busy but stable (rho < 1 with two jobs at a time).
  JobParams params;
  params.app = "tomcatv";
  params.n = n;
  params.p = 2;
  Timer cal;
  svc.wait(svc.submit(params));
  const double interarrival = 0.7 * cal.seconds();

  std::vector<JobId> ids;
  std::vector<double> arrive(static_cast<std::size_t>(arrivals)),
      complete(static_cast<std::size_t>(arrivals));
  std::vector<bool> stamped(static_cast<std::size_t>(arrivals), false);
  int next = 0;
  std::size_t served = 0;
  Timer clock;
  while (served < static_cast<std::size_t>(arrivals)) {
    while (next < arrivals &&
           clock.seconds() >= interarrival * static_cast<double>(next)) {
      ids.push_back(svc.submit(params));
      arrive[static_cast<std::size_t>(next)] = clock.seconds();
      ++next;
    }
    bool progressed = false;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (stamped[k]) continue;
      progressed = !svc.done(ids[k]);
      svc.wait(ids[k]);  // runs a session if needed; takes the result
      complete[k] = clock.seconds();
      stamped[k] = true;
      ++served;
      break;  // re-check the arrival clock between waits
    }
    if (!progressed && served < static_cast<std::size_t>(arrivals) &&
        next < arrivals) {
      // Queue empty, next arrival still in the future: idle until due.
      const double due = interarrival * static_cast<double>(next);
      const double now = clock.seconds();
      if (due > now)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(due - now));
    }
  }
  const double span = clock.seconds();

  std::vector<double> lat;
  for (std::size_t k = 0; k < arrive.size(); ++k)
    lat.push_back((complete[k] - arrive[k]) * 1e3);
  LatencyStats s;
  s.arrivals = arrivals;
  s.interarrival_ms = interarrival * 1e3;
  s.p50_ms = percentile(lat, 0.50);
  s.p99_ms = percentile(lat, 0.99);
  s.throughput_jps = static_cast<double>(arrivals) / span;
  return s;
}

struct MixedStats {
  int jobs = 0;
  double seconds = 0.0;
  int sessions = 0;
  double jobs_per_s() const { return jobs / seconds; }
  double jobs_per_session() const {
    return sessions > 0 ? static_cast<double>(jobs) / sessions : 0.0;
  }
};

// Closed loop with 4 jobs outstanding (submit 4, then wait on the oldest
// and submit the next) over three kinds of unequal length. The plans are
// cached before the clock starts.
MixedStats measure_mixed(int jobs) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.engine.kind = EngineKind::kParallel;
  cfg.costs = CostModel{};
  SweepService svc(cfg);
  struct Kind {
    const char* app;
    Coord n;
    int p;
    Coord b;
    int iters;
  };
  const Kind kinds[] = {{"sor", 512, 2, 16, 4},
                        {"sweep3d", 24, 2, 4, 1},
                        {"smith-waterman-2d", 768, 4, 32, 1}};
  auto params = [&](int k) {
    const Kind& kind = kinds[k % 3];
    JobParams jp;
    jp.app = kind.app;
    jp.n = kind.n;
    jp.p = kind.p;
    jp.b = kind.b;
    jp.iters = kind.iters;
    return jp;
  };
  for (int k = 0; k < 3; ++k) svc.submit(params(k));
  svc.drain();
  const int sessions0 = svc.rounds();

  std::deque<JobId> inflight;
  int submitted = 0;
  Timer t;
  for (; submitted < std::min(4, jobs); ++submitted)
    inflight.push_back(svc.submit(params(submitted)));
  while (!inflight.empty()) {
    svc.wait(inflight.front());
    inflight.pop_front();
    if (submitted < jobs) inflight.push_back(svc.submit(params(submitted++)));
  }
  MixedStats m;
  m.seconds = t.seconds();
  m.jobs = jobs;
  m.sessions = svc.rounds() - sessions0;
  return m;
}

void write_json(const std::string& path, unsigned cores,
                const SubmitStats& sub, const ThroughputStats& tp,
                const LatencyStats& lat, const MixedStats& mix) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"cores\": " << cores << ",\n  \"submit\": {"
     << "\"cold_p50_us\": " << sub.cold_p50_us
     << ", \"cold_p99_us\": " << sub.cold_p99_us
     << ", \"hit_p50_us\": " << sub.hit_p50_us
     << ", \"hit_p99_us\": " << sub.hit_p99_us
     << ", \"hit_speedup\": " << sub.hit_speedup() << "},\n"
     << "  \"throughput\": {\"jobs\": " << tp.jobs
     << ", \"p\": 2, \"pool_sequential\": 2, \"pool_concurrent\": 8"
     << ", \"sequential_s\": " << tp.sequential_s
     << ", \"concurrent_s\": " << tp.concurrent_s
     << ", \"sequential_jobs_per_s\": " << tp.sequential_jps()
     << ", \"concurrent_jobs_per_s\": " << tp.concurrent_jps()
     << ", \"speedup\": " << tp.speedup() << "},\n"
     << "  \"latency\": {\"arrivals\": " << lat.arrivals
     << ", \"interarrival_ms\": " << lat.interarrival_ms
     << ", \"p50_ms\": " << lat.p50_ms << ", \"p99_ms\": " << lat.p99_ms
     << ", \"throughput_jobs_per_s\": " << lat.throughput_jps << "},\n"
     << "  \"mixed\": {\"jobs\": " << mix.jobs
     << ", \"outstanding\": 4, \"pool\": 4, \"seconds\": " << mix.seconds
     << ", \"jobs_per_s\": " << mix.jobs_per_s()
     << ", \"sessions\": " << mix.sessions
     << ", \"jobs_per_session\": " << mix.jobs_per_session() << "}\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int keys = static_cast<int>(opts.get_int("keys", 128));
  const int jobs = static_cast<int>(opts.get_int("jobs", 12));
  const int reps = static_cast<int>(opts.get_int("reps", 3));
  const int arrivals = static_cast<int>(opts.get_int("arrivals", 24));
  const int mixed_jobs = static_cast<int>(opts.get_int("mixed-jobs", 60));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  const SubmitStats sub = measure_submit(keys);
  Table ts("Service submit latency: cold lowering vs plan-cache hit (" +
           std::to_string(keys) + " keys)");
  ts.set_header({"path", "p50 us", "p99 us"});
  ts.add_row({"cold", fmt(sub.cold_p50_us), fmt(sub.cold_p99_us)});
  ts.add_row({"hit", fmt(sub.hit_p50_us), fmt(sub.hit_p99_us)});
  ts.add_note("cache-hit submit is " + fmt_speedup(sub.hit_speedup()) +
              " faster at p50 (CI gate: >= 5x)");
  ts.print(std::cout);

  ThroughputStats tp;
  tp.jobs = jobs;
  tp.sequential_s = drain_wall(jobs, /*pool=*/2, /*n=*/256, reps);
  tp.concurrent_s = drain_wall(jobs, /*pool=*/8, /*n=*/256, reps);
  Table tt("Service throughput: " + std::to_string(jobs) +
           " p=2 jobs, sequential pool (2 ranks) vs packed pool (8 ranks), "
           "parallel engine, best of " + std::to_string(reps));
  tt.set_header({"pool", "drain s", "jobs/s"});
  tt.add_row({"2 (sequential)", fmt(tp.sequential_s),
              fmt(tp.sequential_jps())});
  tt.add_row({"8 (4 jobs at a time)", fmt(tp.concurrent_s),
              fmt(tp.concurrent_jps())});
  tt.add_note("host has " + std::to_string(cores) +
              " core(s); the >= 1x gate applies at >= 4 cores");
  tt.print(std::cout);

  const LatencyStats lat = measure_open_loop(arrivals, /*n=*/48);
  Table tl("Open-loop service latency (" + std::to_string(lat.arrivals) +
           " arrivals every " + fmt(lat.interarrival_ms) + " ms)");
  tl.set_header({"p50 ms", "p99 ms", "jobs/s"});
  tl.add_row({fmt(lat.p50_ms), fmt(lat.p99_ms), fmt(lat.throughput_jps)});
  tl.print(std::cout);

  const MixedStats mix = measure_mixed(mixed_jobs);
  Table tm("Mixed-duration closed loop (" + std::to_string(mix.jobs) +
           " jobs, 4 outstanding, sor/sweep3d at p=2 + smith-waterman-2d "
           "at p=4, 4-rank parallel pool)");
  tm.set_header({"jobs/s", "sessions", "jobs/session"});
  tm.add_row({fmt(mix.jobs_per_s()), std::to_string(mix.sessions),
              fmt(mix.jobs_per_session())});
  tm.print(std::cout);

  write_json("BENCH_service.json", cores, sub, tp, lat, mix);
  return 0;
}
