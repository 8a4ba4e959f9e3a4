// sw-dp: one long Smith-Waterman wavefront, la = lb = 4096 on a 1D chain
// of 4 ranks with b = 32, through the hand-written run_wavefront loop. The
// seed picks the two sequences.
#include <memory>

#include "apps/smith_waterman.hh"
#include "reference.hh"
#include "solve.hh"

namespace perfbench {

Outcome run_sw_dp(const Args& args) {
  using namespace wavepipe;
  const Coord n = args.tiny ? 256 : 4096;
  const int p = 4;

  SmithWatermanConfig cfg;
  cfg.la = n;
  cfg.lb = n;
  cfg.seed = args.seed;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  WaveOptions opts;
  opts.block = args.tiny ? 16 : 32;

  SolveSpec spec;
  spec.ranks = p;
  spec.rtol = 0.0;  // integer scores: bit for bit
  spec.reference_serial_s = args.tiny ? 3e-4 : 0.08;
  spec.serial = [=] { return sw_best_score(cfg.seed, cfg.la, cfg.lb); };
  spec.solve = [=](Communicator& comm) {
    return smith_waterman_spmd(comm, cfg, grid, opts);
  };
  spec.traced = [=](Communicator& comm, TraceCtx& t) {
    std::unique_ptr<SmithWaterman> app;
    t.ph.construct += t.span("apps.construct", [&] {
      app = std::make_unique<SmithWaterman>(cfg, grid, comm.rank());
    });
    t.ph.owned_cells = static_cast<double>(
        app->cells().intersect(app->layout().owned(comm.rank())).size());
    t.barrier(comm);
    t.ph.fill += t.span("exec.fill", [&] { app->fill(comm, opts); });
    t.barrier(comm);
    double v = 0.0;
    t.ph.reduce += t.span("exec.reduce", [&] { v = app->best_score(comm); });
    t.barrier(comm);
    t.ph.construct += t.span("apps.destroy", [&] { app.reset(); });
    return v;
  };

  Outcome out = run_solve_workload(args, spec);
  out.meta["problem"] = "smith-waterman la=lb=" + std::to_string(n) +
                        " p=" + std::to_string(p) + " grid=1D b=" +
                        std::to_string(opts.block);
  out.meta["executor"] = "run_wavefront";
  out.meta["seed_used"] = "sequences";
  return out;
}

}  // namespace perfbench
