// Application tests: Smith-Waterman — DSL result against the quadratic
// reference DP, distributed equivalence, and score properties.
#include <gtest/gtest.h>

#include "apps/smith_waterman.hh"

namespace wavepipe {
namespace {

TEST(SmithWaterman, SerialMatchesReferenceDp) {
  SmithWatermanConfig cfg;
  cfg.la = 40;
  cfg.lb = 33;
  Machine::run(1, {}, [&](Communicator& comm) {
    SmithWaterman app(cfg, ProcGrid<2>({1, 1}), 0);
    app.fill(comm);
    EXPECT_DOUBLE_EQ(app.best_score(comm), app.reference_best_score());
  });
}

TEST(SmithWaterman, IdenticalSequencesScorePerfectly) {
  SmithWatermanConfig cfg;
  cfg.la = 12;
  cfg.lb = 12;
  cfg.alphabet = 1;  // every symbol matches
  Machine::run(1, {}, [&](Communicator& comm) {
    SmithWaterman app(cfg, ProcGrid<2>({1, 1}), 0);
    app.fill(comm);
    EXPECT_DOUBLE_EQ(app.best_score(comm), cfg.match * 12.0);
  });
}

TEST(SmithWaterman, ScoresAreNonNegative) {
  SmithWatermanConfig cfg;
  cfg.la = 20;
  cfg.lb = 20;
  cfg.mismatch = -100.0;  // harsh mismatches: max(0, ...) must clamp
  Machine::run(1, {}, [&](Communicator& comm) {
    SmithWaterman app(cfg, ProcGrid<2>({1, 1}), 0);
    app.fill(comm);
    for_each(app.cells(), [&](const Idx<2>& i) {
      EXPECT_GE(app.h()(i), 0.0);
    });
  });
}

class SwDistributed : public ::testing::TestWithParam<std::tuple<int, Coord>> {
};

TEST_P(SwDistributed, MatchesReference) {
  const int p = std::get<0>(GetParam());
  const Coord block = std::get<1>(GetParam());
  SmithWatermanConfig cfg;
  cfg.la = 30;
  cfg.lb = 26;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  Machine::run(p, {}, [&](Communicator& comm) {
    WaveOptions opts;
    opts.block = block;
    const Real score = smith_waterman_spmd(comm, cfg, grid, opts);
    if (comm.rank() == 0) {
      SmithWaterman ref(cfg, ProcGrid<2>({1, 1}), 0);
      EXPECT_DOUBLE_EQ(score, ref.reference_best_score());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(GridsAndBlocks, SwDistributed,
                         ::testing::Values(std::make_tuple(2, Coord{0}),
                                           std::make_tuple(2, Coord{1}),
                                           std::make_tuple(3, Coord{4}),
                                           std::make_tuple(5, Coord{0}),
                                           std::make_tuple(5, Coord{3})));

TEST(SmithWaterman, GapPenaltyReducesScores) {
  SmithWatermanConfig cheap;
  cheap.la = cheap.lb = 24;
  cheap.gap = 0.5;
  SmithWatermanConfig costly = cheap;
  costly.gap = 5.0;
  Machine::run(1, {}, [&](Communicator& comm) {
    SmithWaterman a(cheap, ProcGrid<2>({1, 1}), 0);
    SmithWaterman b(costly, ProcGrid<2>({1, 1}), 0);
    a.fill(comm);
    b.fill(comm);
    EXPECT_GE(a.best_score(comm), b.best_score(comm));
  });
}

TEST(SmithWaterman, DeterministicSequences) {
  SmithWatermanConfig cfg;
  cfg.la = cfg.lb = 10;
  SmithWaterman a(cfg, ProcGrid<2>({1, 1}), 0);
  SmithWaterman b(cfg, ProcGrid<2>({1, 1}), 0);
  for (Coord i = 1; i <= 10; ++i) {
    EXPECT_EQ(a.symbol_a(i), b.symbol_a(i));
    EXPECT_EQ(a.symbol_b(i), b.symbol_b(i));
  }
}

TEST(SmithWaterman, ManySeedsMatchReference) {
  // Property sweep: across seeds, shapes and penalty mixes, the DSL fill
  // must equal the quadratic reference DP exactly.
  for (std::uint64_t seed : {1ull, 7ull, 1234ull, 999983ull}) {
    SmithWatermanConfig cfg;
    cfg.seed = seed;
    cfg.la = 17 + static_cast<Coord>(seed % 19);
    cfg.lb = 23 + static_cast<Coord>(seed % 11);
    cfg.gap = 0.5 + 0.25 * static_cast<Real>(seed % 4);
    cfg.mismatch = -0.5 - static_cast<Real>(seed % 3);
    Machine::run(1, {}, [&](Communicator& comm) {
      SmithWaterman app(cfg, ProcGrid<2>({1, 1}), 0);
      app.fill(comm);
      EXPECT_DOUBLE_EQ(app.best_score(comm), app.reference_best_score())
          << "seed " << seed;
    });
  }
}

TEST(SmithWaterman, UnfusedAgreesWithFused) {
  SmithWatermanConfig cfg;
  cfg.la = cfg.lb = 18;
  SmithWaterman a(cfg, ProcGrid<2>({1, 1}), 0);
  SmithWaterman b(cfg, ProcGrid<2>({1, 1}), 0);
  a.fill_fused();
  b.fill_unfused();
  EXPECT_DOUBLE_EQ(max_abs_difference(a.h(), b.h()), 0.0);
}

TEST(SmithWaterman, ResidentElementsAreHPlusTwoSymbolVectors) {
  // No la x lb similarity matrix: beside H's allocated block a rank keeps
  // only a's symbols for its rows and b's for its columns.
  SmithWatermanConfig cfg;
  cfg.la = 61;
  cfg.lb = 47;
  for (const ProcGrid<2>& grid :
       {ProcGrid<2>::along_dim(4, 0), ProcGrid<2>({2, 2})}) {
    for (int r = 0; r < grid.size(); ++r) {
      SmithWaterman app(cfg, grid, r);
      const Region<2> alloc = app.layout().allocated(r);
      const auto h = static_cast<std::size_t>(alloc.size());
      EXPECT_EQ(app.resident_elements(),
                h + static_cast<std::size_t>(alloc.extent(0) + alloc.extent(1)))
          << "rank " << r;
      EXPECT_LE(app.resident_elements(),
                h + static_cast<std::size_t>(2 * (cfg.la + cfg.lb)))
          << "rank " << r;
    }
  }
}

EngineConfig engine(EngineKind kind) {
  EngineConfig cfg;
  cfg.kind = kind;
  return cfg;
}

/// Every cell this rank owns, bitwise against a serial fill of the whole
/// problem (each rank builds its own 1x1 oracle — no gather needed).
void expect_cells_match_serial(const SmithWatermanConfig& cfg,
                               SmithWaterman& app, Communicator& comm) {
  SmithWaterman ref(cfg, ProcGrid<2>({1, 1}), 0);
  ref.fill_fused();
  const Region<2> mine =
      app.cells().intersect(app.layout().owned(comm.rank()));
  for_each(mine, [&](const Idx<2>& i) {
    ASSERT_EQ(app.h()(i), ref.h()(i))
        << "cell (" << i.v[0] << "," << i.v[1] << ") on rank " << comm.rank();
  });
}

// 2D processor-grid frontier: both dimensions distributed, every interior
// rank consumes north+west faces and emits south+east faces.
class SwTwoD : public ::testing::TestWithParam<
                   std::tuple<std::array<int, 2>, Coord, Coord, EngineKind>> {
};

TEST_P(SwTwoD, PerCellBitwiseMatchesSerial) {
  const auto [dims, block, block_w, kind] = GetParam();
  const int p = dims[0] * dims[1];
  SmithWatermanConfig cfg;
  cfg.la = 37;
  cfg.lb = 29;
  const ProcGrid<2> grid({dims[0], dims[1]});
  Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
    SmithWaterman app(cfg, grid, comm.rank());
    WaveOptions opts;
    opts.block = block;
    opts.block_w = block_w;
    const auto rep = app.fill(comm, opts);
    EXPECT_TRUE(rep.waved);
    EXPECT_EQ(rep.axes, 2);
    expect_cells_match_serial(cfg, app, comm);
    const Real score = app.best_score(comm);
    if (comm.rank() == 0) {
      EXPECT_DOUBLE_EQ(score, app.reference_best_score());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    GridsEnginesBlocks, SwTwoD,
    ::testing::Values(
        std::make_tuple(std::array<int, 2>{2, 2}, Coord{0}, Coord{0},
                        EngineKind::kFibers),
        std::make_tuple(std::array<int, 2>{2, 2}, Coord{4}, Coord{3},
                        EngineKind::kFibers),
        std::make_tuple(std::array<int, 2>{2, 2}, Coord{4}, Coord{3},
                        EngineKind::kParallel),
        std::make_tuple(std::array<int, 2>{4, 2}, Coord{3}, Coord{2},
                        EngineKind::kFibers),
        std::make_tuple(std::array<int, 2>{4, 2}, Coord{0}, Coord{2},
                        EngineKind::kParallel),
        std::make_tuple(std::array<int, 2>{2, 4}, Coord{2}, Coord{5},
                        EngineKind::kFibers)));

// The same 2D frontier lowered into a TaskGraph and run on the scheduler:
// multi-inflow tasks (north + west faces) in both modes and on both
// backends (static FIFO runs on the SPMD backend only), plus the rank-line
// case (one tile row, north faces only).
class SwTwoDScheduled
    : public ::testing::TestWithParam<
          std::tuple<std::array<int, 2>, SchedBackend, bool>> {};

TEST_P(SwTwoDScheduled, PerCellBitwiseMatchesSerial) {
  const auto [dims, backend, adaptive] = GetParam();
  const int p = dims[0] * dims[1];
  SmithWatermanConfig cfg;
  cfg.la = 33;
  cfg.lb = 31;
  const ProcGrid<2> grid({dims[0], dims[1]});
  const EngineKind kind = backend == SchedBackend::kTasks
                              ? EngineKind::kParallel
                              : EngineKind::kFibers;
  Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
    SmithWaterman app(cfg, grid, comm.rank());
    WaveOptions w;
    w.block = 4;
    w.block_w = 5;
    SchedOptions so;
    so.backend = backend;
    so.adaptive = adaptive;
    const auto rep = app.fill_scheduled(comm, w, so);
    EXPECT_GT(rep.tasks, 1u);
    expect_cells_match_serial(cfg, app, comm);
  });
}

INSTANTIATE_TEST_SUITE_P(
    BackendsPolicies, SwTwoDScheduled,
    ::testing::Values(
        std::make_tuple(std::array<int, 2>{2, 2}, SchedBackend::kSpmd, false),
        std::make_tuple(std::array<int, 2>{2, 2}, SchedBackend::kSpmd, true),
        std::make_tuple(std::array<int, 2>{2, 2}, SchedBackend::kTasks, true),
        std::make_tuple(std::array<int, 2>{4, 2}, SchedBackend::kSpmd, true),
        std::make_tuple(std::array<int, 2>{4, 2}, SchedBackend::kTasks, true),
        std::make_tuple(std::array<int, 2>{2, 4}, SchedBackend::kSpmd, false),
        std::make_tuple(std::array<int, 2>{2, 4}, SchedBackend::kTasks, true),
        // Rank lines: the one-row case of the same tile grid.
        std::make_tuple(std::array<int, 2>{4, 1}, SchedBackend::kSpmd, false),
        std::make_tuple(std::array<int, 2>{4, 1}, SchedBackend::kTasks,
                        true)));

// Score-only Smith-Waterman (SmithWatermanScore, smith_waterman_spmd): H
// contracted with a fused max live-out. The score must equal the plain
// loop's and the full-H fill's bit for bit; on a tiled rank line H keeps
// allocated rows x (block + 1) columns, elsewhere its whole allocated
// block; and each rank sends exactly the full run's traffic less H's
// ghost pre-exchange, which contraction drops.
class SwContracted
    : public ::testing::TestWithParam<
          std::tuple<std::array<int, 2>, StorageOrder, EngineKind>> {};

TEST_P(SwContracted, ScoreStorageAndTrafficMatchFullH) {
  const auto [dims, order, kind] = GetParam();
  const int p = dims[0] * dims[1];
  SmithWatermanConfig cfg;
  cfg.la = 97;
  cfg.lb = 131;
  cfg.order = order;
  const ProcGrid<2> grid({dims[0], dims[1]});
  const Layout<2> layout(Region<2>({{0, 0}}, {{cfg.la, cfg.lb}}), grid,
                         Idx<2>{{1, 1}});
  const bool rank_line = p > 1 && dims[1] == 1;
  const Real reference =
      SmithWaterman(cfg, ProcGrid<2>({1, 1}), 0).reference_best_score();
  const auto n = static_cast<std::size_t>(p);

  for (const Coord block : {Coord{1}, Coord{5}, Coord{32}, Coord{0}}) {
    SCOPED_TRACE("block " + std::to_string(block));
    WaveOptions opts;
    opts.block = block;
    opts.block_w = block;
    std::vector<Real> full_score(n), spmd_score(n), score(n);
    const RunResult full =
        Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
          SmithWaterman app(cfg, grid, comm.rank());
          app.fill(comm, opts);
          full_score[static_cast<std::size_t>(comm.rank())] =
              app.best_score(comm);
        });
    const RunResult spmd =
        Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
          spmd_score[static_cast<std::size_t>(comm.rank())] =
              smith_waterman_spmd(comm, cfg, grid, opts);
        });
    Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
      SmithWatermanScore app(cfg, grid, comm.rank());
      score[static_cast<std::size_t>(comm.rank())] = app.run(comm, opts);
      const Region<2> alloc = layout.allocated(comm.rank());
      const Region<2>& h = app.h().region();
      if (!rank_line) {
        EXPECT_EQ(h, alloc) << "rank " << comm.rank();
        return;
      }
      const Coord bj = block > 0 ? std::min(block, cfg.lb) : cfg.lb;
      EXPECT_EQ(h.extent(0), alloc.extent(0)) << "rank " << comm.rank();
      EXPECT_EQ(h.extent(1), bj + 1) << "rank " << comm.rank();
      EXPECT_EQ(app.h().raw().size(),
                static_cast<std::size_t>(alloc.extent(0) * (bj + 1)));
    });
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(spmd_score[r], reference) << "rank " << r;
      EXPECT_EQ(spmd_score[r], full_score[r]) << "rank " << r;
      EXPECT_EQ(score[r], reference) << "rank " << r;
    }

    if (kind != EngineKind::kFibers) continue;
    const RunResult exchange =
        Machine::run(p, {}, engine(kind), [&](Communicator& comm) {
          DenseArray<Real, 2> h("H", layout.allocated(comm.rank()), order);
          exchange_ghosts(h, layout, comm.rank(), comm, Idx<2>{{1, 1}},
                          opts.tag_base);
        });
    for (std::size_t r = 0; r < n; ++r) {
      CommStats expect = spmd.stats[r];
      expect += exchange.stats[r];
      EXPECT_TRUE(full.stats[r] == expect)
          << "rank " << r << ": full sent " << full.stats[r].messages_sent
          << " msgs / " << full.stats[r].bytes_sent << " B, contracted "
          << spmd.stats[r].messages_sent << " / " << spmd.stats[r].bytes_sent
          << ", H's pre-exchange " << exchange.stats[r].messages_sent << " / "
          << exchange.stats[r].bytes_sent;
    }
    if (p > 1) {
      EXPECT_GT(exchange.total.messages_sent, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankLinesAndFrontier, SwContracted,
    ::testing::Combine(
        ::testing::Values(std::array<int, 2>{1, 1}, std::array<int, 2>{2, 1},
                          std::array<int, 2>{3, 1}, std::array<int, 2>{4, 1},
                          std::array<int, 2>{2, 2}),
        ::testing::Values(StorageOrder::kColMajor, StorageOrder::kRowMajor),
        ::testing::Values(EngineKind::kFibers, EngineKind::kParallel)));

TEST(BandedSw, SerialMatchesOracle) {
  BandedSwConfig cfg;
  cfg.n = 500;
  cfg.band = 16;
  cfg.block = 64;
  Machine::run(1, {}, [&](Communicator& comm) {
    BandedSmithWaterman app(cfg, ProcGrid<2>({1, 1}), 0);
    EXPECT_EQ(app.fill(comm), app.reference_best_score());
  });
}

TEST(BandedSw, GridsMatchOracleBitwise) {
  for (const auto dims : {std::array<int, 2>{2, 2}, std::array<int, 2>{4, 2},
                          std::array<int, 2>{2, 4}, std::array<int, 2>{4, 1},
                          std::array<int, 2>{1, 4}}) {
    BandedSwConfig cfg;
    cfg.n = 1000;
    cfg.band = 24;
    cfg.block = 57;  // deliberately not dividing the local row counts
    const int p = dims[0] * dims[1];
    const ProcGrid<2> grid({dims[0], dims[1]});
    Machine::run(p, {}, [&](Communicator& comm) {
      BandedSmithWaterman app(cfg, grid, comm.rank());
      const Real score = app.fill(comm);
      if (comm.rank() == 0) {
        EXPECT_EQ(score, app.reference_best_score())
            << "grid " << dims[0] << "x" << dims[1];
      }
    });
  }
}

TEST(BandedSw, GenomeScaleRunsInBandBoundedMemory) {
  // n = 100k: the full DP matrix would be 10^10 cells; the banded
  // streaming fill touches ~n * (2 band + 1) cells and keeps only
  // O(band + block) elements resident per rank.
  BandedSwConfig cfg;
  cfg.n = 100000;
  cfg.band = 64;
  cfg.block = 256;
  const ProcGrid<2> grid({2, 2});
  Machine::run(4, {}, [&](Communicator& comm) {
    BandedSmithWaterman app(cfg, grid, comm.rank());
    const Real score = app.fill(comm);
    EXPECT_LE(app.resident_elements(),
              static_cast<std::size_t>(8 * (cfg.band + cfg.block)));
    if (comm.rank() == 0) {
      EXPECT_EQ(score, app.reference_best_score());
    }
  });
}

}  // namespace
}  // namespace wavepipe
