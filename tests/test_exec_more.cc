// Further distributed-execution tests: rank-1 and rank-3 wavefronts on
// multi-dimensional grids, ZPL's WYSIWYG communication guarantees, failure
// injection, and virtual-time properties of whole programs.
#include <gtest/gtest.h>

#include "array/io.hh"
#include "sched/lower.hh"

namespace wavepipe {
namespace {

TEST(MoreExec, Rank1WavefrontDistributed) {
  // A 1-D recurrence u(i) = 0.5*u'(i-1) + 1 across 4 ranks: pure relay
  // pipeline (no tile dimension exists; each rank is one "tile").
  const Coord n = 41;
  const ProcGrid<1> grid = ProcGrid<1>::along_dim(4, 0);
  Machine::run(4, {}, [&](Communicator& comm) {
    const Region<1> global({{1}}, {{n}});
    const Region<1> reg({{2}}, {{n}});
    const Layout<1> layout(global, grid, Idx<1>{{1}});
    DistArray<Real, 1> u("u", layout, comm.rank());
    u.local().fill(1.0);
    const Direction<1> back{{-1}};
    auto plan = scan(reg, u.local() <<= 0.5 * prime(u.local(), back) + 1.0)
                    .compile();
    const auto rep = run_wavefront(plan, layout, comm, {});
    EXPECT_TRUE(rep.waved);
    EXPECT_EQ(rep.tiles, 1);
    auto g = gather_to_root(u, comm);
    if (comm.rank() == 0) {
      // Closed form: u_i = 2 - 2^{-(i-1)} with u_1 = 1.
      for (Coord i = 1; i <= n; ++i) {
        const Real expect = 2.0 - std::pow(0.5, static_cast<double>(i - 1));
        EXPECT_NEAR((*g)(Idx<1>{{i}}), expect, 1e-12);
      }
    }
  });
}

TEST(MoreExec, Rank3WavefrontWithParallelDimsDistributed) {
  // WSV (-,0,0): dims 1 and 2 are completely parallel and may both be
  // distributed — a 2x2x1... here 2 along dim0 (wave) and 2 along dim1.
  const Coord n = 12;
  const ProcGrid<3> grid({2, 2, 1});
  Machine::run(4, {}, [&](Communicator& comm) {
    const Region<3> global({{1, 1, 1}}, {{n, n, n}});
    const Region<3> reg({{2, 1, 1}}, {{n, n, n}});
    const Layout<3> layout(global, grid, Idx<3>{{1, 0, 0}});
    DistArray<Real, 3> u("u", layout, comm.rank());
    u.local().fill_fn([](const Idx<3>& i) {
      return 0.25 + 0.01 * static_cast<Real>((i.v[0] + i.v[1] * 3 + i.v[2] * 7) % 13);
    });
    const Direction<3> up{{-1, 0, 0}};
    auto plan =
        scan(reg, u.local() <<= 0.5 * prime(u.local(), up) + 0.125).compile();
    EXPECT_EQ(plan.role(1), DimRole::kParallel);
    WaveOptions opts;
    opts.block = 3;
    const auto rep = run_wavefront(plan, layout, comm, opts);
    EXPECT_TRUE(rep.waved);
    auto g = gather_to_root(u, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 3> r("r", global.expanded(Idx<3>{{1, 0, 0}}));
      r.fill_fn([](const Idx<3>& i) {
        return 0.25 + 0.01 * static_cast<Real>((i.v[0] + i.v[1] * 3 + i.v[2] * 7) % 13);
      });
      auto rp = scan(reg, r <<= 0.5 * prime(r, up) + 0.125).compile();
      run_serial(rp);
      Real max_diff = 0.0;
      for_each(global, [&](const Idx<3>& i) {
        max_diff = std::max(max_diff, std::abs((*g)(i)-r(i)));
      });
      EXPECT_EQ(max_diff, 0.0);
    }
  });
}

TEST(MoreExec, WysiwygNoShiftNoMessages) {
  // ZPL's WYSIWYG model: a statement without @ or prime induces zero
  // communication beyond what the caller asked for.
  const Coord n = 16;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  auto res = Machine::run(4, {}, [&](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{n, n}}), grid, {});
    DistArray<Real, 2> a("a", layout, comm.rank());
    DistArray<Real, 2> b("b", layout, comm.rank());
    a.local().fill(3.0);
    b.local().fill(0.0);
    auto plan =
        scan(Region<2>({{1, 1}}, {{n, n}}), b.local() <<= a.local() * 2.0)
            .compile();
    run_wavefront(plan, layout, comm, {});
  });
  EXPECT_EQ(res.total.messages_sent, 0u);
}

TEST(MoreExec, WysiwygShiftCountsAreExact) {
  // One @north read of an unwritten array on a p=4 column: exactly one
  // ghost message per internal boundary, in one direction.
  const Coord n = 16;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  auto res = Machine::run(4, {}, [&](Communicator& comm) {
    const Layout<2> layout(Region<2>({{1, 1}}, {{n, n}}), grid,
                           Idx<2>{{1, 0}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    DistArray<Real, 2> b("b", layout, comm.rank());
    a.local().fill(3.0);
    b.local().fill(0.0);
    auto plan = scan(Region<2>({{2, 1}}, {{n, n}}),
                     b.local() <<= at(a.local(), kNorth) * 2.0)
                    .compile();
    run_wavefront(plan, layout, comm, {});
  });
  // exchange_ghosts sends both directions across each of the 3 internal
  // boundaries for the read array only: 6 messages.
  EXPECT_EQ(res.total.messages_sent, 6u);
}

TEST(MoreExec, RankFailureDuringWavefrontTearsDownMachine) {
  // Rank 1 dies mid-wave; ranks blocked in recv must be released and the
  // original error must surface.
  const Coord n = 16;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  EXPECT_THROW(
      Machine::run(4, {},
                   [&](Communicator& comm) {
                     const Region<2> global({{1, 1}}, {{n, n}});
                     const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
                     DistArray<Real, 2> u("u", layout, comm.rank());
                     u.local().fill(1.0);
                     if (comm.rank() == 1)
                       throw ConfigError("injected failure in rank 1");
                     auto plan = scan(Region<2>({{2, 2}}, {{n - 1, n - 1}}),
                                      u.local() <<= prime(u.local(), kNorth) *
                                                    0.5)
                                     .compile();
                     run_wavefront(plan, layout, comm, {});
                   }),
      ConfigError);
}

TEST(MoreExec, PreExchangeCanBeDisabledWhenCallerExchanged) {
  const Coord n = 12;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(3, 0);
  Machine::run(3, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> reg({{2, 1}}, {{n, n}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 0}});
    DistArray<Real, 2> u("u", layout, comm.rank());
    // Fill owned AND fluff consistently from the global function, so the
    // pre-exchange is genuinely redundant.
    u.local().fill_fn([](const Idx<2>& i) {
      return 1.0 + 0.125 * static_cast<Real>((i.v[0] * 5 + i.v[1]) % 7);
    });
    auto plan =
        scan(reg, u.local() <<= 0.5 * prime(u.local(), kNorth) + 1.0).compile();
    // Lowered and run directly: no ghost pre-exchange.
    WaveOptions opts;
    opts.block = 4;
    TaskGraph graph;
    lower_wavefront(graph, plan, layout, comm.rank(),
                    TagRange{500, wavefront_tag_span<2>()}, "wave", opts);
    run_graph(graph, comm, SchedOptions{.adaptive = false});
    auto g = gather_to_root(u, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> r("r", global);
      r.fill_fn([](const Idx<2>& i) {
        return 1.0 + 0.125 * static_cast<Real>((i.v[0] * 5 + i.v[1]) % 7);
      });
      auto rp = scan(reg, r <<= 0.5 * prime(r, kNorth) + 1.0).compile();
      run_serial(rp);
      EXPECT_DOUBLE_EQ(max_abs_difference(*g, r), 0.0);
    }
  });
}

TEST(MoreExec, RepeatedWavefrontsOnOneMachineStayConsistent) {
  // The same plan executed many times over one machine must keep producing
  // the serial trajectory (tag reuse, mailbox reuse, FIFO ordering).
  const Coord n = 12;
  const int p = 3;
  const int sweeps = 8;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);

  DenseArray<Real, 2> ref("ref", Region<2>({{0, 0}}, {{n + 1, n + 1}}));
  ref.fill(1.0);
  auto ref_plan = scan(Region<2>({{1, 1}}, {{n, n}}),
                       ref <<= 0.9 * prime(ref, kNorth) + 0.1)
                      .compile();
  for (int s = 0; s < sweeps; ++s) run_serial(ref_plan);

  Machine m(p);
  m.run([&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 0}});
    DistArray<Real, 2> u("u", layout, comm.rank());
    u.local().fill(1.0);
    auto plan = scan(global, u.local() <<= 0.9 * prime(u.local(), kNorth) + 0.1)
                    .compile();
    for (int s = 0; s < sweeps; ++s) {
      WaveOptions opts;
      opts.block = 2;
      run_wavefront(plan, layout, comm, opts);
    }
    auto g = gather_to_root(u, comm);
    if (comm.rank() == 0) {
      Real max_diff = 0.0;
      for_each(global, [&](const Idx<2>& i) {
        max_diff = std::max(max_diff, std::abs((*g)(i)-ref(i)));
      });
      EXPECT_EQ(max_diff, 0.0);
    }
  });
  EXPECT_EQ(m.pending_messages(), 0u);
}

}  // namespace
}  // namespace wavepipe
