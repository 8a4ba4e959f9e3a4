// Application tests: SWEEP3D — per-octant wavefront structure, physical
// sanity (positivity, source bounds), and executor equivalence.
#include <gtest/gtest.h>

#include <string>

#include "apps/sweep3d.hh"

namespace wavepipe {
namespace {

TEST(Sweep3d, FluxIsPositiveAndBounded) {
  Sweep3dConfig cfg;
  cfg.n = 10;
  Machine::run(1, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, ProcGrid<3>({1, 1, 1}), 0);
    const Real flux = app.sweep_all_scheduled(comm);
    EXPECT_GT(flux, 0.0);
    // The attenuation factor keeps phi below src's max / removal rate.
    for_each(app.cells(), [&](const Idx<3>& i) {
      EXPECT_GE(app.flux()(i), 0.0);
      EXPECT_LT(app.flux()(i), 10.0);
    });
  });
}

TEST(Sweep3d, EachOctantWavesAlongDim0) {
  // On a rank line along dim 0 every octant's instance is a tile chain fed
  // by the rank upwind along dim 0: rank 0 for +x travel, rank 1 for -x.
  Sweep3dConfig cfg;
  cfg.n = 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(2, 0);
  WaveOptions opts;
  opts.block = 2;
  for (int r = 0; r < 2; ++r) {
    Sweep3d app(cfg, grid, r);
    const TaskGraph g = app.build_sweep_graph(opts, 8);
    for (int o = 0; o < 8; ++o) {
      SCOPED_TRACE("rank " + std::to_string(r) + " octant " +
                   std::to_string(o));
      const std::string prefix = "sweep[o" + std::to_string(o) + ",a0][";
      const int upwind = (o & 1) ? 1 : 0;
      int tiles = 0;
      for (TaskId t = 0; t < static_cast<TaskId>(g.size()); ++t) {
        const TaskGraph::Task& task = g.task(t);
        if (task.label.rfind(prefix, 0) != 0) continue;
        ++tiles;
        if (r == upwind) {
          EXPECT_TRUE(task.inflows.empty()) << task.label;
        } else {
          ASSERT_EQ(task.inflows.size(), 1u) << task.label;
          EXPECT_EQ(task.inflows[0].src, upwind) << task.label;
        }
      }
      EXPECT_EQ(tiles, 4);  // 8 cells along the tile dimension, b = 2
    }
  }
}

TEST(Sweep3d, OppositeOctantsMirrorOnSymmetricSource) {
  // The source is centro-symmetric, so octant o and its mirror 7-o give
  // mirrored phi fields; total flux per octant pair must agree closely.
  // One angle over 8 slots: slot o ends up holding octant o's phi.
  Sweep3dConfig cfg;
  cfg.n = 9;  // odd => symmetric about the central cell
  Machine::run(1, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, ProcGrid<3>({1, 1, 1}), 0);
    app.sweep_all_scheduled(comm, {}, SchedOptions{}, nullptr, 8);
    std::array<Real, 8> phi_sum{};
    for (int o = 0; o < 8; ++o) {
      Real s = 0.0;
      const DenseArray<Real, 3>& phi = app.slot_phi(o);
      for_each(app.cells(), [&](const Idx<3>& i) { s += phi(i); });
      phi_sum[static_cast<std::size_t>(o)] = s;
    }
    EXPECT_GT(phi_sum[0], 0.0);
    for (int o = 0; o < 4; ++o) {
      EXPECT_NEAR(phi_sum[static_cast<std::size_t>(o)],
                  phi_sum[static_cast<std::size_t>(7 - o)],
                  1e-9 * std::abs(phi_sum[0]));
    }
  });
}

class Sweep3dDistributed
    : public ::testing::TestWithParam<std::tuple<int, Coord>> {};

TEST_P(Sweep3dDistributed, MatchesSerial) {
  const int p = std::get<0>(GetParam());
  const Coord block = std::get<1>(GetParam());
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.iterations = 1;

  Real serial_flux = 0.0;
  Machine::run(1, {}, [&](Communicator& comm) {
    serial_flux = sweep3d_spmd(comm, cfg, ProcGrid<3>({1, 1, 1}), {});
  });

  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  Machine::run(p, {}, [&](Communicator& comm) {
    WaveOptions opts;
    opts.block = block;
    const Real flux = sweep3d_spmd(comm, cfg, grid, opts);
    if (comm.rank() == 0) {
      EXPECT_NEAR(flux, serial_flux, 1e-10 * std::abs(serial_flux));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GridsAndBlocks, Sweep3dDistributed,
                         ::testing::Values(std::make_tuple(2, Coord{0}),
                                           std::make_tuple(2, Coord{2}),
                                           std::make_tuple(4, Coord{0}),
                                           std::make_tuple(4, Coord{3})));

TEST(Sweep3d, MoreIterationsAccumulateFlux) {
  Sweep3dConfig cfg;
  cfg.n = 6;
  Machine::run(1, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, ProcGrid<3>({1, 1, 1}), 0);
    const Real f1 = app.sweep_all_scheduled(comm);
    const Real f2 = app.sweep_all_scheduled(comm);
    EXPECT_GT(f2, f1);
  });
}

TEST(Sweep3d, QuadratureIsNormalized) {
  for (int angles : {1, 2, 4, 8}) {
    const auto q = make_quadrature(angles);
    ASSERT_EQ(q.size(), static_cast<std::size_t>(angles));
    Real wsum = 0.0;
    for (const auto& o : q) {
      EXPECT_GT(o.mu, 0.0);
      EXPECT_GT(o.eta, 0.0);
      EXPECT_GT(o.xi, 0.0);
      EXPECT_NEAR(o.mu * o.mu + o.eta * o.eta + o.xi * o.xi, 1.0, 1e-12);
      wsum += o.weight;
    }
    EXPECT_NEAR(wsum, 0.125, 1e-12);  // one octant's share
  }
}

TEST(Sweep3d, MultiAngleFluxPositiveAndSymmetric) {
  Sweep3dConfig cfg;
  cfg.n = 7;
  cfg.angles = 3;
  Machine::run(1, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, ProcGrid<3>({1, 1, 1}), 0);
    const Real flux = app.sweep_all_scheduled(comm);
    EXPECT_GT(flux, 0.0);
    // Centro-symmetry of the full angular integral survives quadrature.
    const Coord n = cfg.n;
    for_each(app.cells(), [&](const Idx<3>& i) {
      const Idx<3> m{{n + 1 - i.v[0], n + 1 - i.v[1], n + 1 - i.v[2]}};
      EXPECT_NEAR(app.flux()(i), app.flux()(m),
                  1e-9 * std::abs(app.flux()(i)));
    });
  });
}

TEST(Sweep3d, MultiAngleDistributedMatchesSerial) {
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 2;
  Real serial_flux = 0.0;
  Machine::run(1, {}, [&](Communicator& comm) {
    serial_flux = sweep3d_spmd(comm, cfg, ProcGrid<3>({1, 1, 1}), {});
  });
  Machine::run(4, {}, [&](Communicator& comm) {
    WaveOptions opts;
    opts.block = 2;
    const Real flux =
        sweep3d_spmd(comm, cfg, ProcGrid<3>::along_dim(4, 0), opts);
    if (comm.rank() == 0) {
      EXPECT_NEAR(flux, serial_flux, 1e-10 * std::abs(serial_flux));
    }
  });
}

TEST(Sweep3d, MoreAnglesRefineTheFlux) {
  // Richer quadratures change the flux by less and less (convergence of
  // the angular integral).
  auto flux_with = [](int angles) {
    Sweep3dConfig cfg;
    cfg.n = 6;
    cfg.angles = angles;
    Real out = 0.0;
    Machine::run(1, {}, [&](Communicator& comm) {
      out = sweep3d_spmd(comm, cfg, ProcGrid<3>({1, 1, 1}), {});
    });
    return out;
  };
  const Real f1 = flux_with(1);
  const Real f4 = flux_with(4);
  const Real f8 = flux_with(8);
  EXPECT_GT(f1, 0.0);
  EXPECT_LT(std::abs(f8 - f4), std::abs(f4 - f1) + 1e-12);
}

}  // namespace
}  // namespace wavepipe
