// Real wall-clock pipelining speedup under the parallel engine
// (WAVEPIPE_ENGINE=parallel): the six suite apps, naive vs pipelined, at
// p in {2, 4, 8} OS threads. Unlike every other bench in this directory —
// which reports *virtual* time under a calibrated cost model and is
// therefore host-independent — this one measures elapsed seconds of real
// threads moving real bytes through the lock-free SPSC mailboxes, so its
// numbers depend on the host. The JSON records the host's core count for
// exactly that reason: CI's speedup gate only applies where the hardware
// can physically deliver parallelism (cores >= 2).
//
// On exit the binary always writes BENCH_parallel.json with per-(app, p)
// naive/pipelined wall seconds (best of `reps` runs) and the wall-clock
// speedup, after cross-checking that naive and pipelined computed the
// same application value.
//
// A second section races the two scheduled-graph backends against each
// other on the same engine: the SPMD walk (one rank per thread, program
// order) vs the work-stealing tasks executor (ready tasks from any rank on
// any thread). Values are cross-checked; the JSON's "scheduled" array
// carries the wall seconds and speedup_tasks for the CI gate.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/suite.hh"
#include "apps/sweep3d.hh"
#include "bench_util.hh"
#include "comm/machine.hh"
#include "sched/executor.hh"

using namespace wavepipe;

namespace {

struct Point {
  std::string app;
  int p = 0;
  Coord n = 0;
  Coord block = 0;
  double wall_naive = 0.0;      // seconds, best of reps
  double wall_pipelined = 0.0;  // seconds, best of reps
  double speedup() const { return wall_naive / wall_pipelined; }
};

// Best-of-reps wall seconds for one configuration; verifies the value
// against `expect` (NaN = first run, returns the value instead).
double best_wall(const SuiteApp& app, int p, const CostModel& costs, Coord n,
                 int iters, Coord block, int reps, double& value) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto res = app.run(p, costs, n, iters, block);
    if (rep == 0) {
      best = res.wall_seconds;
      value = *app.last_value;
    } else {
      best = std::min(best, res.wall_seconds);
    }
  }
  return best;
}

// One scheduled-graph configuration raced spmd vs tasks on the same
// parallel-engine machine.
struct SchedPoint {
  std::string app;
  int p = 0;
  Coord n = 0;
  double wall_spmd = 0.0;   // seconds, best of reps
  double wall_tasks = 0.0;  // seconds, best of reps
  double speedup() const { return wall_spmd / wall_tasks; }
};

// Best-of-reps wall seconds for one scheduled body under one backend; the
// body extracts its application value (rank 0) for the cross-check.
double best_sched_wall(
    int p, int reps, SchedBackend backend,
    const std::function<void(Communicator&, const SchedOptions&, double&)>&
        body,
    double& value) {
  EngineConfig ec;
  ec.kind = EngineKind::kParallel;
  SchedOptions so;
  so.backend = backend;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Machine m(p, CostModel{}, TraceConfig{}, ec);
    double v = 0.0;
    const RunResult res = m.run([&](Communicator& comm) { body(comm, so, v); });
    if (rep == 0) {
      best = res.wall_seconds;
      value = v;
    } else {
      best = std::min(best, res.wall_seconds);
    }
  }
  return best;
}

void write_parallel_json(const std::string& path, unsigned cores, int reps,
                         const std::vector<Point>& points,
                         const std::vector<SchedPoint>& sched_points) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"engine\": \"parallel\", \"cores\": " << cores
     << ", \"reps\": " << reps << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    os << "    {\"app\": \"" << pt.app << "\", \"p\": " << pt.p
       << ", \"n\": " << pt.n << ", \"block\": " << pt.block
       << ", \"wall_naive\": " << pt.wall_naive
       << ", \"wall_pipelined\": " << pt.wall_pipelined
       << ", \"speedup_wallclock\": " << pt.speedup() << "}"
       << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"scheduled\": [\n";
  for (std::size_t i = 0; i < sched_points.size(); ++i) {
    const SchedPoint& pt = sched_points[i];
    os << "    {\"app\": \"" << pt.app << "\", \"p\": " << pt.p
       << ", \"n\": " << pt.n << ", \"wall_spmd\": " << pt.wall_spmd
       << ", \"wall_tasks\": " << pt.wall_tasks
       << ", \"speedup_tasks\": " << pt.speedup() << "}"
       << (i + 1 < sched_points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int iterations = static_cast<int>(opts.get_int("iterations", 1));
  const int reps = static_cast<int>(opts.get_int("reps", 3));

  // Real threads, real time: select the parallel engine for every run the
  // suite adapters make, and use a free cost model so no virtual charges
  // shape the schedule — what remains is genuine compute and the SPSC
  // mailbox traffic.
  ::setenv("WAVEPIPE_ENGINE", "parallel", 1);
  const CostModel costs;  // free: alpha = beta = 0

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  Table t("Wavefront suite: wall-clock naive vs pipelined (parallel engine, " +
          std::to_string(cores) + " core" + (cores == 1 ? "" : "s") +
          ", best of " + std::to_string(reps) + ")");
  t.set_header({"app", "p", "n", "b", "naive s", "pipelined s", "speedup"});

  std::vector<Point> points;
  const auto suite = wavefront_suite();
  for (const int p : {2, 4, 8}) {
    for (const auto& app : suite) {
      const Coord n = app.default_n;
      // Equation 1 degenerates to b=1 under a free cost model (alpha = 0),
      // but real per-message overhead here is allocation + futex traffic,
      // not a modeled alpha — a moderate fixed block keeps the message
      // count sane without giving up pipelining.
      const Coord block = app.name == "sweep3d" ? 6 : 8;
      double naive_value = 0.0, pipe_value = 0.0;
      Point pt;
      pt.app = app.name;
      pt.p = p;
      pt.n = n;
      pt.block = block;
      pt.wall_naive =
          best_wall(app, p, costs, n, iterations, 0, reps, naive_value);
      pt.wall_pipelined =
          best_wall(app, p, costs, n, iterations, block, reps, pipe_value);
      if (std::abs(pipe_value - naive_value) >
          1e-9 * (std::abs(naive_value) + 1.0)) {
        std::cerr << "value mismatch for " << app.name << " at p=" << p << "\n";
        return 1;
      }
      t.add_row({app.name, std::to_string(p), std::to_string(n),
                 std::to_string(block), fmt(pt.wall_naive, 4),
                 fmt(pt.wall_pipelined, 4), fmt_speedup(pt.speedup())});
      points.push_back(pt);
    }
  }
  t.add_note("wall-clock seconds of real OS threads; host has " +
             std::to_string(cores) + " core(s)");
  if (cores < 2)
    t.add_note("single-core host: pipelined > naive wall-clock speedup is "
               "not physically achievable here");
  t.print(std::cout);

  // Scheduled-graph backends: the same TaskGraph run twice per point, once
  // as the per-rank SPMD walk and once under the work-stealing tasks
  // executor. Where ranks finish their local wavefront at different times,
  // idle workers steal cross-rank tasks — that slack is the speedup.
  Table st("Scheduled graphs: spmd walk vs work-stealing tasks backend "
           "(parallel engine, best of " + std::to_string(reps) + ")");
  st.set_header({"app", "p", "n", "spmd s", "tasks s", "speedup"});
  std::vector<SchedPoint> sched_points;

  Sweep3dConfig s3cfg;
  s3cfg.n = 16;
  s3cfg.angles = 2;
  s3cfg.iterations = 1;
  WaveOptions s3opts;
  s3opts.block = 4;
  AltSweepConfig ascfg;
  ascfg.n = 96;
  ascfg.iterations = 3;
  WaveOptions asopts;
  asopts.block = 8;
  asopts.overlap = true;

  for (const int p : {2, 4, 8}) {
    // SWEEP3D, all eight octants: corner-anchored wavefronts whose idle
    // phases rotate around the grid, so every rank has stealable slack.
    {
      const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
      const auto body = [&](Communicator& comm, const SchedOptions& so,
                            double& value) {
        const Real v = sweep3d_spmd_scheduled(comm, s3cfg, grid, s3opts, so);
        if (comm.rank() == 0) value = v;
      };
      SchedPoint pt;
      pt.app = "sweep3d";
      pt.p = p;
      pt.n = s3cfg.n;
      double v_spmd = 0.0, v_tasks = 0.0;
      pt.wall_spmd =
          best_sched_wall(p, reps, SchedBackend::kSpmd, body, v_spmd);
      pt.wall_tasks =
          best_sched_wall(p, reps, SchedBackend::kTasks, body, v_tasks);
      if (v_spmd != v_tasks) {
        std::cerr << "scheduled value mismatch for sweep3d at p=" << p << "\n";
        return 1;
      }
      st.add_row({pt.app, std::to_string(p), std::to_string(pt.n),
                  fmt(pt.wall_spmd, 4), fmt(pt.wall_tasks, 4),
                  fmt_speedup(pt.speedup())});
      sched_points.push_back(pt);
    }
    // Alternating sweep, chained iterations: downward wavefronts feeding
    // northbound updates, the paper's bidirectional-pipeline case.
    {
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
      const auto body = [&](Communicator& comm, const SchedOptions& so,
                            double& value) {
        AltSweep app(ascfg, grid, comm.rank());
        app.iterate_scheduled(comm, ascfg.iterations, asopts, so);
        const Real v = app.checksum(comm);
        if (comm.rank() == 0) value = v;
      };
      SchedPoint pt;
      pt.app = "alt_sweep";
      pt.p = p;
      pt.n = ascfg.n;
      double v_spmd = 0.0, v_tasks = 0.0;
      pt.wall_spmd =
          best_sched_wall(p, reps, SchedBackend::kSpmd, body, v_spmd);
      pt.wall_tasks =
          best_sched_wall(p, reps, SchedBackend::kTasks, body, v_tasks);
      if (v_spmd != v_tasks) {
        std::cerr << "scheduled value mismatch for alt_sweep at p=" << p
                  << "\n";
        return 1;
      }
      st.add_row({pt.app, std::to_string(p), std::to_string(pt.n),
                  fmt(pt.wall_spmd, 4), fmt(pt.wall_tasks, 4),
                  fmt_speedup(pt.speedup())});
      sched_points.push_back(pt);
    }
  }
  st.add_note("same TaskGraph both columns; tasks backend steals ready "
              "cross-rank tasks onto idle workers");
  st.print(std::cout);

  write_parallel_json("BENCH_parallel.json", cores, reps, points,
                      sched_points);
  return 0;
}
