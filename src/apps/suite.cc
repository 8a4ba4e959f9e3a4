#include "apps/suite.hh"

#include "apps/simple_hydro.hh"
#include "apps/smith_waterman.hh"
#include "apps/sor.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"

namespace wavepipe {

namespace {

WaveOptions wave_opts(Coord block) {
  WaveOptions o;
  o.block = block;
  return o;
}

// The 2D entry's mesh: a factored pr x pc grid when p allows one, else
// (p prime, p == 1) the 1D chain — the suite must run at any p.
ProcGrid<2> sw2d_grid(int p) {
  try {
    return ProcGrid<2>::factored(p, {0, 1});
  } catch (const ConfigError&) {
    return ProcGrid<2>::along_dim(p, 0);
  }
}

}  // namespace

void wire_run(SuiteApp& app) {
  auto body = app.run_on;
  auto value = app.last_value;
  app.run = [body, value](int p, const CostModel& costs, Coord n, int iters,
                          Coord block) {
    return Machine::run(p, costs, [&](Communicator& comm) {
      const Real v = body(comm, n, iters, wave_opts(block));
      if (comm.rank() == 0) *value = v;
    });
  };
}

std::vector<SuiteApp> wavefront_suite() {
  std::vector<SuiteApp> suite;

  {
    SuiteApp app;
    app.name = "tomcatv";
    app.wavefront_note = "2 waves/iter: forward elim (N->S) + back subst (S->N)";
    app.default_n = 128;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      TomcatvConfig cfg;
      cfg.n = n;
      cfg.iterations = iters;
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(comm.size(), 0);
      return tomcatv_spmd(comm, cfg, grid, opts);
    };
    app.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  {
    SuiteApp app;
    app.name = "simple";
    app.wavefront_note = "2 waves/step: conduction elim + back subst";
    app.default_n = 128;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      SimpleConfig cfg;
      cfg.n = n;
      cfg.iterations = iters;
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(comm.size(), 0);
      return simple_spmd(comm, cfg, grid, opts);
    };
    app.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  {
    SuiteApp app;
    app.name = "sweep3d";
    app.wavefront_note = "8 octant sweeps/iter, rank-3 wavefronts";
    app.default_n = 24;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      Sweep3dConfig cfg;
      cfg.n = n;
      cfg.iterations = iters;
      const ProcGrid<3> grid = ProcGrid<3>::along_dim(comm.size(), 0);
      return sweep3d_spmd(comm, cfg, grid, opts);
    };
    app.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  {
    SuiteApp app;
    app.name = "smith-waterman";
    app.wavefront_note = "single DP fill, diagonal dependence";
    app.default_n = 256;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      SmithWatermanConfig cfg;
      cfg.la = n;
      cfg.lb = n;
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(comm.size(), 0);
      Real v = 0.0;
      for (int it = 0; it < iters; ++it)
        v = smith_waterman_spmd(comm, cfg, grid, opts);
      return v;
    };
    app.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  {
    SuiteApp app;
    app.name = "smith-waterman-2d";
    app.wavefront_note =
        "same DP fill on a factored pr x pc mesh: 2D frontier, north+west "
        "inflow faces, tiles pipelined along both axes";
    app.default_n = 256;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      SmithWatermanConfig cfg;
      cfg.la = n;
      cfg.lb = n;
      const ProcGrid<2> grid = sw2d_grid(comm.size());
      WaveOptions o = opts;
      o.block_w = o.block;  // pipeline both frontier axes at the same grain
      Real v = 0.0;
      for (int it = 0; it < iters; ++it)
        v = smith_waterman_spmd(comm, cfg, grid, o);
      return v;
    };
    app.grid_shape = [](int p) {
      const auto g = sw2d_grid(p);
      return std::array<int, 2>{g.dim(0), g.dim(1)};
    };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  {
    SuiteApp app;
    app.name = "sor";
    app.wavefront_note = "natural-ordering Gauss-Seidel sweeps";
    app.default_n = 128;
    app.last_value = std::make_shared<double>(0.0);
    app.run_on = [](Communicator& comm, Coord n, int iters,
                    const WaveOptions& opts) {
      SorConfig cfg;
      cfg.n = n;
      cfg.iterations = iters;
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(comm.size(), 0);
      return sor_spmd(comm, cfg, grid, opts);
    };
    app.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
    wire_run(app);
    suite.push_back(std::move(app));
  }

  return suite;
}

}  // namespace wavepipe
