// The sweep service under load: what multi-tenancy and plan caching buy.
//
// Three sections, all written to BENCH_service.json:
//
//   1. submit latency — the same job stream submitted cold (every key
//      distinct: full lowering) and hot (every key cached). The cache-hit
//      speedup is a CI gate: a hit must skip lowering, so its p50 submit
//      latency must be >= 5x faster than a cold submit's.
//
//   2. throughput — the same batch of p=2 jobs drained on a 2-rank pool
//      (one job per round, fully sequential) and on a wider pool that
//      packs four jobs per round. Real wall seconds under the parallel
//      engine with a free cost model, so concurrency is physical: on a
//      host with >= 4 cores the packed drain must not be slower than the
//      sequential one (core-count-aware CI gate; the JSON records cores).
//
//   3. open-loop latency — jobs arrive on a fixed-interval clock
//      regardless of service progress (open loop: arrivals do not wait),
//      and each job's latency is completion minus arrival. Reports
//      p50/p99 latency and achieved throughput.
#include <algorithm>
#include <cstdlib>
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
  // the queue stays busy but stable (rho < 1 with two jobs per round).
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
      svc.wait(ids[k]);  // runs exactly the rounds needed; takes the result
      complete[k] = clock.seconds();
      stamped[k] = true;
      ++served;
      break;  // re-check the arrival clock between rounds
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

void write_json(const std::string& path, unsigned cores,
                const SubmitStats& sub, const ThroughputStats& tp,
                const LatencyStats& lat) {
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
     << ", \"throughput_jobs_per_s\": " << lat.throughput_jps << "}\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int keys = static_cast<int>(opts.get_int("keys", 128));
  const int jobs = static_cast<int>(opts.get_int("jobs", 12));
  const int reps = static_cast<int>(opts.get_int("reps", 3));
  const int arrivals = static_cast<int>(opts.get_int("arrivals", 24));
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
  tt.add_row({"8 (4 jobs/round)", fmt(tp.concurrent_s),
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

  write_json("BENCH_service.json", cores, sub, tp, lat);
  return 0;
}
