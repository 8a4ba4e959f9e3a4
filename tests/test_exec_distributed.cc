// Distributed wavefront execution must be bit-identical to serial
// execution: naive and pipelined schedules, both travel directions,
// diagonal dependences, 2-D grids, and the error paths. The rank-line
// configurations also run as a hand-lowered TaskGraph, which must match
// run_wavefront byte for byte and message for message.
#include <gtest/gtest.h>

#include <bit>
#include <functional>

#include "array/io.hh"
#include "exec/driver.hh"
#include "exec/pipelined.hh"
#include "sched/sched.hh"

namespace wavepipe {
namespace {

Real fill_value(const Idx<2>& i) {
  return 1.0 + 0.125 * static_cast<Real>((i.v[0] * 31 + i.v[1] * 17) % 23);
}

// Runs the two-array Tomcatv-ish block serially over the full region.
void serial_reference(Coord n, DenseArray<Real, 2>& a, DenseArray<Real, 2>& b) {
  a.fill_fn(fill_value);
  b.fill_fn([](const Idx<2>& i) { return fill_value(i) + 0.5; });
  const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
  auto plan = scan(reg, a <<= 0.5 * prime(a, kNorth) + b,
                   b <<= b - 0.25 * a + 0.125 * at(a, kSouth))
                  .compile();
  run_serial(plan);
}

// Runs the same block on p ranks (grid) with the given block size and
// gathers the results; compares against the serial reference on rank 0.
void expect_distributed_matches(Coord n, const ProcGrid<2>& grid,
                                Coord block) {
  const int p = grid.size();
  Machine::run(p, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    DistArray<Real, 2> b("b", layout, comm.rank());
    // Fill owned AND exterior fluff from the same global function the
    // serial reference uses (interior fluff comes from the exchanges).
    a.local().fill_fn(fill_value);
    b.local().fill_fn([](const Idx<2>& i) { return fill_value(i) + 0.5; });

    auto plan = scan(reg, a.local() <<= 0.5 * prime(a.local(), kNorth) + b.local(),
                     b.local() <<= b.local() - 0.25 * a.local() +
                                   0.125 * at(a.local(), kSouth))
                    .compile();
    WaveOptions opts;
    opts.block = block;
    const auto report = run_wavefront(plan, layout, comm, opts);
    if (grid.distributed(0) && block > 0) {
      EXPECT_TRUE(report.waved);
    }

    auto ga = gather_to_root(a, comm, 910);
    auto gb = gather_to_root(b, comm, 920);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> ra("ra", global), rb("rb", global);
      serial_reference(n, ra, rb);
      // Compare on the scan region plus untouched boundary.
      Real max_diff = 0.0;
      for_each(global, [&](const Idx<2>& i) {
        max_diff = std::max(max_diff, std::abs((*ga)(i)-ra(i)));
        max_diff = std::max(max_diff, std::abs((*gb)(i)-rb(i)));
      });
      EXPECT_EQ(max_diff, 0.0) << "grid " << grid.describe() << " block "
                               << block;
    }
  });
}

TEST(Distributed, NaiveMatchesSerialP2) {
  expect_distributed_matches(16, ProcGrid<2>::along_dim(2, 0), 0);
}

TEST(Distributed, NaiveMatchesSerialP5Uneven) {
  expect_distributed_matches(17, ProcGrid<2>::along_dim(5, 0), 0);
}

TEST(Distributed, PipelinedBlock1) {
  expect_distributed_matches(16, ProcGrid<2>::along_dim(4, 0), 1);
}

TEST(Distributed, PipelinedBlock3) {
  expect_distributed_matches(16, ProcGrid<2>::along_dim(4, 0), 3);
}

TEST(Distributed, PipelinedBlockLargerThanExtent) {
  expect_distributed_matches(16, ProcGrid<2>::along_dim(4, 0), 1000);
}

TEST(Distributed, TwoDimensionalGrid) {
  // Wavefront dim 0 distributed over 2, parallel dim 1 over 2: each grid
  // column pipelines independently (the paper's Fig 4 configuration).
  expect_distributed_matches(16, ProcGrid<2>({2, 2}), 2);
}

TEST(Distributed, TwoDimensionalGridUneven) {
  expect_distributed_matches(19, ProcGrid<2>({3, 2}), 4);
}

TEST(Distributed, SingleRankDegenerates) {
  expect_distributed_matches(12, ProcGrid<2>({1, 1}), 3);
}

TEST(Distributed, SouthTravelMirrors) {
  const Coord n = 14;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(3, 0);
  Machine::run(3, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    a.local().fill_fn(fill_value);
    auto plan =
        scan(reg, a.local() <<= 0.5 * prime(a.local(), kSouth) + 1.0).compile();
    EXPECT_EQ(plan.travel(), -1);
    WaveOptions opts;
    opts.block = 2;
    run_wavefront(plan, layout, comm, opts);
    auto g = gather_to_root(a, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> r("r", global);
      r.fill_fn(fill_value);
      auto rp = scan(reg, r <<= 0.5 * prime(r, kSouth) + 1.0).compile();
      run_serial(rp);
      EXPECT_DOUBLE_EQ(max_abs_difference(*g, r), 0.0);
    }
  });
}

TEST(Distributed, DiagonalDependenceSmithWatermanShape) {
  const Coord n = 15;
  for (Coord block : {1, 2, 4, 100}) {
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(3, 0);
    Machine::run(3, {}, [&](Communicator& comm) {
      const Region<2> global({{0, 0}}, {{n, n}});
      const Region<2> reg({{1, 1}}, {{n, n}});
      const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
      DistArray<Real, 2> h("h", layout, comm.rank());
      h.local().fill(0.0);
      auto plan = scan(reg, h.local() <<= max_e(0.0,
                                               prime(h.local(), kNorthWest) +
                                                   0.25) +
                                          0.125 * prime(h.local(), kNorth) +
                                          0.0625 * prime(h.local(), kWest))
                      .compile();
      EXPECT_EQ(plan.lateral_halo, 1);
      WaveOptions opts;
      opts.block = block;
      run_wavefront(plan, layout, comm, opts);
      auto g = gather_to_root(h, comm);
      if (comm.rank() == 0) {
        DenseArray<Real, 2> r("r", global);
        r.fill(0.0);
        auto rp = scan(reg, r <<= max_e(0.0, prime(r, kNorthWest) + 0.25) +
                                  0.125 * prime(r, kNorth) +
                                  0.0625 * prime(r, kWest))
                      .compile();
        run_serial(rp);
        EXPECT_DOUBLE_EQ(max_abs_difference(*g, r), 0.0)
            << "block " << block;
      }
    });
  }
}

TEST(Distributed, AntiDependenceOnlyIsFullyParallel) {
  // Fig 3(a) distributed: unprimed a@north is an anti-dependence; the
  // plan has no wavefront and the executor needs only the pre-exchange.
  const Coord n = 12;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  auto res = Machine::run(4, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 0}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    a.local().fill_fn(fill_value);
    auto plan = scan(Region<2>({{2, 1}}, {{n, n}}),
                     a.local() <<= 2.0 * at(a.local(), kNorth))
                    .compile();
    EXPECT_FALSE(plan.has_wavefront());
    const auto report = run_wavefront(plan, layout, comm, {});
    EXPECT_FALSE(report.waved);
    auto g = gather_to_root(a, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> r("r", global);
      r.fill_fn(fill_value);
      auto rp = scan(Region<2>({{2, 1}}, {{n, n}}), r <<= 2.0 * at(r, kNorth))
                    .compile();
      run_serial(rp);
      EXPECT_DOUBLE_EQ(max_abs_difference(*g, r), 0.0);
    }
  });
  (void)res;
}

TEST(Distributed, SerialDimensionMayNotBeDistributed) {
  // Opposing diagonal dependences give dim 1 a ± WSV component: serial, so
  // no frontier (1D or 2D) can distribute it. WSV (-,-) pipeline
  // dimensions, by contrast, ARE distributable now — they become the
  // second axis of a 2D processor-grid frontier (see the TwoD tests).
  EXPECT_THROW(
      Machine::run(2, {},
                   [&](Communicator& comm) {
                     const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 1);
                     const Layout<2> layout(Region<2>({{0, 0}}, {{9, 9}}),
                                            grid, Idx<2>{{1, 1}});
                     DistArray<Real, 2> a("a", layout, comm.rank());
                     auto plan =
                         scan(Region<2>({{1, 1}}, {{9, 8}}),
                              a.local() <<= prime(a.local(), kNorthWest) +
                                            prime(a.local(), kNorthEast))
                             .compile();
                     run_wavefront(plan, layout, comm, {});
                   }),
      ContractError);
}

TEST(Distributed, RightmostChoiceDistributesDim1) {
  // The same (-,-) block with the rightmost policy waves along dim 1, so
  // distributing dim 1 is now legal.
  const Coord n = 12;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(3, 1);
  Machine::run(3, {}, [&](Communicator& comm) {
    const Region<2> global({{0, 0}}, {{n, n}});
    const Region<2> reg({{1, 1}}, {{n, n}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    a.local().fill_fn(fill_value);
    auto plan = scan_with_choice(reg, WavefrontChoice::kRightmost,
                                 a.local() <<= 0.5 * prime(a.local(), kNorth) +
                                               0.25 * prime(a.local(), kWest))
                    .compile();
    EXPECT_EQ(plan.wdim(), 1u);
    WaveOptions opts;
    opts.block = 3;
    const auto rep = run_wavefront(plan, layout, comm, opts);
    EXPECT_TRUE(rep.waved);
    EXPECT_EQ(rep.tile_dim, 0u);  // tiles run along the serialized dim 0
    auto g = gather_to_root(a, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> r("r", global);
      r.fill_fn(fill_value);
      auto rp = scan_with_choice(reg, WavefrontChoice::kRightmost,
                                 r <<= 0.5 * prime(r, kNorth) +
                                       0.25 * prime(r, kWest))
                    .compile();
      run_serial(rp);
      EXPECT_DOUBLE_EQ(max_abs_difference(*g, r), 0.0);
    }
  });
}

TEST(Distributed, Rank3OctantMatchesSerial) {
  const Coord n = 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(2, 0);
  Machine::run(2, {}, [&](Communicator& comm) {
    const Region<3> global({{1, 1, 1}}, {{n, n, n}});
    const Layout<3> layout(global, grid, Idx<3>{{1, 1, 1}});
    DistArray<Real, 3> phi("phi", layout, comm.rank());
    phi.local().fill(0.0);
    phi.fill_owned([](const Idx<3>& i) {
      return 0.01 * static_cast<Real>(i.v[0] + i.v[1] + i.v[2]);
    });
    const Direction<3> ux{{-1, 0, 0}}, uy{{0, -1, 0}}, uz{{0, 0, -1}};
    auto plan = scan(global, phi.local() <<= 0.4 * prime(phi.local(), ux) +
                                             0.3 * prime(phi.local(), uy) +
                                             0.2 * prime(phi.local(), uz) +
                                             1.0)
                    .compile();
    WaveOptions opts;
    opts.block = 3;
    run_wavefront(plan, layout, comm, opts);
    auto g = gather_to_root(phi, comm);
    if (comm.rank() == 0) {
      DenseArray<Real, 3> r("r", global.expanded(Idx<3>{{1, 1, 1}}));
      r.fill(0.0);
      for_each(global, [&](const Idx<3>& i) {
        r(i) = 0.01 * static_cast<Real>(i.v[0] + i.v[1] + i.v[2]);
      });
      auto rp = scan(global, r <<= 0.4 * prime(r, ux) + 0.3 * prime(r, uy) +
                                   0.2 * prime(r, uz) + 1.0)
                    .compile();
      run_serial(rp);
      Real max_diff = 0.0;
      for_each(global, [&](const Idx<3>& i) {
        max_diff = std::max(max_diff, std::abs((*g)(i)-r(i)));
      });
      EXPECT_EQ(max_diff, 0.0);
    }
  });
}

TEST(Distributed, ReportCountsTiles) {
  const Coord n = 18;  // interior extent 16 along the tile dim
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  Machine::run(2, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    a.local().fill(1.0);
    auto plan = scan(reg, a.local() <<= prime(a.local(), kNorth) * 0.5)
                    .compile();
    WaveOptions opts;
    opts.block = 5;
    const auto rep = run_wavefront(plan, layout, comm, opts);
    EXPECT_TRUE(rep.waved);
    EXPECT_EQ(rep.block, 5);
    EXPECT_EQ(rep.tiles, (16 + 4) / 5);  // ceil(16/5) = 4
    EXPECT_EQ(rep.tile_dim, 1u);
  });
}

TEST(Distributed, MessageCountsScaleWithTiles) {
  const Coord n = 34;  // interior 32
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  auto run_with_block = [&](Coord block) {
    return Machine::run(2, {}, [&](Communicator& comm) {
      const Region<2> global({{1, 1}}, {{n, n}});
      const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
      const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
      DistArray<Real, 2> a("a", layout, comm.rank());
      a.local().fill(1.0);
      auto plan = scan(reg, a.local() <<= prime(a.local(), kNorth) * 0.5)
                      .compile();
      // Lowered and run directly, without run_wavefront's ghost
      // pre-exchange: only the wave messages are counted.
      WaveOptions opts;
      opts.block = block;
      TaskGraph g;
      lower_wavefront(g, plan, layout, comm.rank(),
                      TagRange{500, wavefront_tag_span<2>()}, "wave", opts);
      run_graph(g, comm, SchedOptions{.adaptive = false});
    });
  };
  const auto res_naive = run_with_block(0);
  const auto res_pipe = run_with_block(4);
  EXPECT_EQ(res_naive.total.messages_sent, 1u);
  EXPECT_EQ(res_pipe.total.messages_sent, 8u);  // 32/4 tiles
}

TEST(Distributed, ApplyDistributedReportsTagsConsumed) {
  // The tag span is a flat 2*R per statement — all read arrays' halos
  // travel bundled, one message per neighbour per dimension — and it must
  // agree on every rank so statement sequences can chain their tag bases.
  const Coord n = 12;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  Machine::run(2, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> interior({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    DistArray<Real, 2> b("b", layout, comm.rank());
    DistArray<Real, 2> c("c", layout, comm.rank());
    a.local().fill(1.0);
    b.local().fill(2.0);
    c.local().fill(3.0);
    // Three distinct read arrays (a twice), bundled: still 2*2 = 4 tags.
    const int used = apply_distributed(
        interior,
        c.local() <<= at(a.local(), kNorth) + at(a.local(), kSouth) +
                      at(b.local(), kWest) + c.local(),
        layout, comm, 300);
    EXPECT_EQ(used, 4);
    // A statement with no halo traffic reserves the span too, keeping the
    // accounting structural.
    const int used1 =
        apply_distributed(interior, a.local() <<= b.local() * 2.0, layout,
                          comm, 300 + used);
    EXPECT_EQ(used1, 4);
  });
}

TEST(Distributed, StatementSequencesCannotCollideOnTags) {
  // Regression: apply_distributed_all used a flat stride of 64 tags per
  // statement, so a statement whose exchanges consumed more could bleed
  // into the next statement's tag space. The stride is now derived from
  // the statement; a chain of halo-using statements must stay correct.
  const Coord n = 14;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  Machine::run(2, {}, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> interior({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    DistArray<Real, 2> b("b", layout, comm.rank());
    DistArray<Real, 2> c("c", layout, comm.rank());
    auto init = [](const Idx<2>& i) {
      return 1.0 + 0.5 * static_cast<Real>((i.v[0] * 7 + i.v[1] * 3) % 5);
    };
    a.local().fill_fn(init);
    b.local().fill_fn([&](const Idx<2>& i) { return init(i) + 1.0; });
    c.local().fill(0.0);
    apply_distributed_all(
        interior, layout, comm,
        c.local() <<= at(a.local(), kNorth) + at(b.local(), kSouth),
        a.local() <<= at(c.local(), kWest) + at(b.local(), kEast),
        b.local() <<= at(a.local(), kNorthWest) + c.local());

    auto ga = gather_to_root(a, comm, 930);
    auto gb = gather_to_root(b, comm, 940);
    auto gc = gather_to_root(c, comm, 950);
    if (comm.rank() == 0) {
      DenseArray<Real, 2> ra("ra", global.expanded(Idx<2>{{1, 1}}));
      DenseArray<Real, 2> rb("rb", global.expanded(Idx<2>{{1, 1}}));
      DenseArray<Real, 2> rc("rc", global.expanded(Idx<2>{{1, 1}}));
      ra.fill_fn(init);
      rb.fill_fn([&](const Idx<2>& i) { return init(i) + 1.0; });
      rc.fill(0.0);
      apply_statement(interior,
                      rc <<= at(ra, kNorth) + at(rb, kSouth));
      apply_statement(interior, ra <<= at(rc, kWest) + at(rb, kEast));
      apply_statement(interior, rb <<= at(ra, kNorthWest) + rc);
      Real max_diff = 0.0;
      for_each(interior, [&](const Idx<2>& i) {
        max_diff = std::max(max_diff, std::abs((*ga)(i)-ra(i)));
        max_diff = std::max(max_diff, std::abs((*gb)(i)-rb(i)));
        max_diff = std::max(max_diff, std::abs((*gc)(i)-rc(i)));
      });
      EXPECT_EQ(max_diff, 0.0);
    }
  });
}

// ---------------------------------------------------------------------------
// Lowered vs run_wavefront on rank lines: run_wavefront and a graph
// lowered by hand and run by the SPMD executor under static FIFO walk the
// same tile grid, so the arrays must be byte-identical and every rank must
// send and receive the same messages and bytes. Lowering does no ghost
// pre-exchange, so the lowered side does run_wavefront's (tags 500..) up
// front.

template <Rank R>
void execute(const WavefrontPlan<R>& plan, const Layout<R>& layout,
             Communicator& comm, Coord block, bool lowered) {
  if (!lowered) {
    WaveOptions opts;
    opts.block = block;
    run_wavefront(plan, layout, comm, opts);
    return;
  }
  exchange_plan_ghosts(plan, layout, comm, 500);
  TaskGraph g;
  TagAllocator ta(500);
  const TagRange tags = ta.alloc(wavefront_tag_span<R>(1), "chain");
  WaveOptions lo;
  lo.block = block;
  const auto lw = lower_wavefront(g, plan, layout, comm.rank(), tags, "w", lo);
  EXPECT_EQ(lw.wtiles, 1);
  EXPECT_EQ(lw.block_w, 0);
  SchedOptions so;
  so.backend = SchedBackend::kSpmd;
  so.adaptive = false;
  run_graph(g, comm, so);
}

template <Rank R>
std::vector<std::uint64_t> owned_bits(const DistArray<Real, R>& a) {
  std::vector<std::uint64_t> out;
  for_each(a.owned(), [&](const Idx<R>& i) {
    out.push_back(std::bit_cast<std::uint64_t>(a.local()(i)));
  });
  return out;
}

// One rank's body: builds the configuration, runs it, returns its owned
// values as bit patterns.
using ChainBody =
    std::function<std::vector<std::uint64_t>(Communicator&, bool lowered)>;

struct ChainCase {
  const char* name;
  int p;
  ChainBody body;
};

// Prints the case by name: the default byte dump of a std::function would
// put pointer values into the registered test names.
void PrintTo(const ChainCase& c, std::ostream* os) { *os << c.name; }

// The two-array Tomcatv-ish block of expect_distributed_matches.
ChainCase tomcatv_case(const char* name, Coord n, ProcGrid<2> grid,
                       Coord block) {
  return {name, grid.size(), [=](Communicator& comm, bool lowered) {
            const Region<2> global({{1, 1}}, {{n, n}});
            const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
            const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
            DistArray<Real, 2> a("a", layout, comm.rank());
            DistArray<Real, 2> b("b", layout, comm.rank());
            a.local().fill_fn(fill_value);
            b.local().fill_fn(
                [](const Idx<2>& i) { return fill_value(i) + 0.5; });
            auto plan = scan(reg,
                             a.local() <<= 0.5 * prime(a.local(), kNorth) +
                                           b.local(),
                             b.local() <<= b.local() - 0.25 * a.local() +
                                           0.125 * at(a.local(), kSouth))
                            .compile();
            execute(plan, layout, comm, block, lowered);
            auto bits = owned_bits(a);
            const auto bb = owned_bits(b);
            bits.insert(bits.end(), bb.begin(), bb.end());
            return bits;
          }};
}

ChainCase south_travel_case() {
  return {"SouthTravel", 3, [](Communicator& comm, bool lowered) {
            const Coord n = 14;
            const Region<2> global({{1, 1}}, {{n, n}});
            const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
            const Layout<2> layout(global, ProcGrid<2>::along_dim(3, 0),
                                   Idx<2>{{1, 1}});
            DistArray<Real, 2> a("a", layout, comm.rank());
            a.local().fill_fn(fill_value);
            auto plan =
                scan(reg, a.local() <<= 0.5 * prime(a.local(), kSouth) + 1.0)
                    .compile();
            execute(plan, layout, comm, 2, lowered);
            return owned_bits(a);
          }};
}

ChainCase diagonal_case(const char* name, Coord block) {
  return {name, 3, [=](Communicator& comm, bool lowered) {
            const Coord n = 15;
            const Region<2> global({{0, 0}}, {{n, n}});
            const Region<2> reg({{1, 1}}, {{n, n}});
            const Layout<2> layout(global, ProcGrid<2>::along_dim(3, 0),
                                   Idx<2>{{1, 1}});
            DistArray<Real, 2> h("h", layout, comm.rank());
            h.local().fill(0.0);
            auto plan =
                scan(reg, h.local() <<= max_e(0.0,
                                              prime(h.local(), kNorthWest) +
                                                  0.25) +
                                        0.125 * prime(h.local(), kNorth) +
                                        0.0625 * prime(h.local(), kWest))
                    .compile();
            execute(plan, layout, comm, block, lowered);
            return owned_bits(h);
          }};
}

ChainCase rightmost_case() {
  return {"RightmostDim1", 3, [](Communicator& comm, bool lowered) {
            const Coord n = 12;
            const Region<2> global({{0, 0}}, {{n, n}});
            const Region<2> reg({{1, 1}}, {{n, n}});
            const Layout<2> layout(global, ProcGrid<2>::along_dim(3, 1),
                                   Idx<2>{{1, 1}});
            DistArray<Real, 2> a("a", layout, comm.rank());
            a.local().fill_fn(fill_value);
            auto plan = scan_with_choice(
                            reg, WavefrontChoice::kRightmost,
                            a.local() <<= 0.5 * prime(a.local(), kNorth) +
                                          0.25 * prime(a.local(), kWest))
                            .compile();
            execute(plan, layout, comm, 3, lowered);
            return owned_bits(a);
          }};
}

ChainCase rank3_octant_case() {
  return {"Rank3Octant", 2, [](Communicator& comm, bool lowered) {
            const Coord n = 8;
            const Region<3> global({{1, 1, 1}}, {{n, n, n}});
            const Layout<3> layout(global, ProcGrid<3>::along_dim(2, 0),
                                   Idx<3>{{1, 1, 1}});
            DistArray<Real, 3> phi("phi", layout, comm.rank());
            phi.local().fill(0.0);
            phi.fill_owned([](const Idx<3>& i) {
              return 0.01 * static_cast<Real>(i.v[0] + i.v[1] + i.v[2]);
            });
            const Direction<3> ux{{-1, 0, 0}}, uy{{0, -1, 0}},
                uz{{0, 0, -1}};
            auto plan = scan(global, phi.local() <<=
                                     0.4 * prime(phi.local(), ux) +
                                     0.3 * prime(phi.local(), uy) +
                                     0.2 * prime(phi.local(), uz) + 1.0)
                            .compile();
            execute(plan, layout, comm, 3, lowered);
            return owned_bits(phi);
          }};
}

ChainCase rank3_parallel_dims_case() {
  return {"Rank3ParallelDims", 4, [](Communicator& comm, bool lowered) {
            const Coord n = 12;
            const Region<3> global({{1, 1, 1}}, {{n, n, n}});
            const Region<3> reg({{2, 1, 1}}, {{n, n, n}});
            const Layout<3> layout(global, ProcGrid<3>({2, 2, 1}),
                                   Idx<3>{{1, 0, 0}});
            DistArray<Real, 3> u("u", layout, comm.rank());
            u.local().fill_fn([](const Idx<3>& i) {
              return 0.25 + 0.01 * static_cast<Real>(
                                       (i.v[0] + i.v[1] * 3 + i.v[2] * 7) % 13);
            });
            const Direction<3> up{{-1, 0, 0}};
            auto plan =
                scan(reg, u.local() <<= 0.5 * prime(u.local(), up) + 0.125)
                    .compile();
            execute(plan, layout, comm, 3, lowered);
            return owned_bits(u);
          }};
}

// R = 1: the tile dimension is the wavefront dimension (one tile per rank).
ChainCase rank1_case() {
  return {"Rank1Relay", 4, [](Communicator& comm, bool lowered) {
            const Coord n = 41;
            const Region<1> global({{1}}, {{n}});
            const Region<1> reg({{2}}, {{n}});
            const Layout<1> layout(global, ProcGrid<1>::along_dim(4, 0),
                                   Idx<1>{{1}});
            DistArray<Real, 1> u("u", layout, comm.rank());
            u.local().fill(1.0);
            const Direction<1> back{{-1}};
            auto plan =
                scan(reg, u.local() <<= 0.5 * prime(u.local(), back) + 1.0)
                    .compile();
            execute(plan, layout, comm, 0, lowered);
            return owned_bits(u);
          }};
}

class LoweredVsBlocking : public ::testing::TestWithParam<ChainCase> {};

TEST_P(LoweredVsBlocking, ByteIdenticalWithEqualTraffic) {
  const ChainCase& c = GetParam();
  auto run = [&](bool lowered) {
    std::vector<std::vector<std::uint64_t>> owned(
        static_cast<std::size_t>(c.p));
    const RunResult r = Machine::run(c.p, {}, [&](Communicator& comm) {
      owned[static_cast<std::size_t>(comm.rank())] = c.body(comm, lowered);
    });
    return std::make_pair(r, owned);
  };
  const auto [blocking, blocking_data] = run(false);
  const auto [lowered, lowered_data] = run(true);
  for (int r = 0; r < c.p; ++r) {
    const auto k = static_cast<std::size_t>(r);
    EXPECT_EQ(lowered_data[k], blocking_data[k]) << "data rank " << r;
    const CommStats& s = lowered.stats[k];
    const CommStats& t = blocking.stats[k];
    EXPECT_EQ(s.messages_sent, t.messages_sent) << "rank " << r;
    EXPECT_EQ(s.bytes_sent, t.bytes_sent) << "rank " << r;
    EXPECT_EQ(s.messages_received, t.messages_received) << "rank " << r;
    EXPECT_EQ(s.bytes_received, t.bytes_received) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankLines, LoweredVsBlocking,
    ::testing::Values(
        tomcatv_case("NaiveP2", 16, ProcGrid<2>::along_dim(2, 0), 0),
        tomcatv_case("NaiveP5Uneven", 17, ProcGrid<2>::along_dim(5, 0), 0),
        tomcatv_case("Block1", 16, ProcGrid<2>::along_dim(4, 0), 1),
        tomcatv_case("Block3", 16, ProcGrid<2>::along_dim(4, 0), 3),
        tomcatv_case("BlockLargerThanExtent", 16,
                     ProcGrid<2>::along_dim(4, 0), 1000),
        tomcatv_case("TwoDimensionalGrid", 16, ProcGrid<2>({2, 2}), 2),
        tomcatv_case("TwoDimensionalGridUneven", 19, ProcGrid<2>({3, 2}), 4),
        tomcatv_case("SingleRank", 12, ProcGrid<2>({1, 1}), 3),
        south_travel_case(), diagonal_case("DiagonalBlock1", 1),
        diagonal_case("DiagonalBlock4", 4),
        diagonal_case("DiagonalBlock100", 100), rightmost_case(),
        rank3_octant_case(), rank3_parallel_dims_case(), rank1_case()),
    [](const ::testing::TestParamInfo<ChainCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace wavepipe
