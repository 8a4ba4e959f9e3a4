// sweep3d-tasks: SWEEP3D (n = 24, 8 angles per octant, 8 source
// iterations, b = 2) on 4 ranks through the lowered TaskGraph with 4 phi
// slots on the work-stealing tasks backend. The problem is fixed, so the
// seed is ignored: every seed runs the same inputs.
#include <memory>

#include "apps/sweep3d.hh"
#include "reference.hh"
#include "sched/executor.hh"
#include "solve.hh"

namespace perfbench {

Outcome run_sweep3d_tasks(const Args& args) {
  using namespace wavepipe;
  const int p = 4;
  const int slots = 4;

  Sweep3dConfig cfg;
  cfg.n = args.tiny ? 8 : 24;
  cfg.angles = args.tiny ? 2 : 8;
  cfg.iterations = args.tiny ? 2 : 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  WaveOptions opts;
  opts.block = 2;
  SchedOptions sched;  // set in code: the environment does not pick it
  sched.backend = SchedBackend::kTasks;

  SolveSpec spec;
  spec.ranks = p;
  spec.rtol = kSweep3dRtol;
  spec.reference_serial_s = args.tiny ? 1e-4 : 0.04;
  spec.serial = [=] {
    return sweep3d_total_flux(cfg.n, cfg.angles, cfg.iterations);
  };
  spec.solve = [=](Communicator& comm) {
    return sweep3d_spmd_scheduled(comm, cfg, grid, opts, sched, slots);
  };
  // sweep3d_spmd_scheduled spelled out: per source iteration, build the
  // graph, run it, then mirror the last slot and reduce the flux.
  spec.traced = [=](Communicator& comm, TraceCtx& t) {
    std::unique_ptr<Sweep3d> app;
    t.ph.construct += t.span("apps.construct", [&] {
      app = std::make_unique<Sweep3d>(cfg, grid, comm.rank());
    });
    t.barrier(comm);
    TaskGraph g;
    double flux = 0.0;
    for (int it = 0; it < cfg.iterations; ++it) {
      t.ph.build += t.span("sched.build",
                           [&] { g = app->build_sweep_graph(opts, slots); });
      t.barrier(comm);
      SchedReport rep;
      t.ph.run += t.span("sched.run", [&] { rep = run_graph(g, comm, sched); });
      t.ph.tasks += static_cast<double>(rep.tasks);
      t.ph.steals += static_cast<double>(rep.steals);
      t.ph.blocked_waits += static_cast<double>(rep.blocked_waits);
      t.barrier(comm);
      t.ph.reduce += t.span("exec.reduce", [&] {
        app->mirror_last_slot();
        flux = app->total_flux(comm);
      });
      t.barrier(comm);
    }
    t.ph.construct += t.span("apps.destroy", [&] {
      g = TaskGraph();
      app.reset();
    });
    return flux;
  };

  Outcome out = run_solve_workload(args, spec);
  out.meta["problem"] = "sweep3d n=" + std::to_string(cfg.n) +
                        " angles=" + std::to_string(cfg.angles) +
                        " iterations=" + std::to_string(cfg.iterations) +
                        " p=" + std::to_string(p) + " b=2 slots=4";
  out.meta["executor"] = "lowered TaskGraph, tasks backend";
  out.meta["seed_used"] = "no (fixed problem)";
  return out;
}

}  // namespace perfbench
