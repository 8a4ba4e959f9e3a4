// Array contraction: the candidate analysis over compiled scan blocks, the
// legality rule for a block that declares an array contracted
// (ScanBlock::contract), and a random differential test of contracted
// storage against full storage on rank lines, through run_wavefront and
// through lowered graphs. Reseed the random test with WAVEPIPE_SEED=<n>.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "apps/smith_waterman.hh"
#include "lang/contraction.hh"
#include "lang/scan_block.hh"
#include "sched/executor.hh"
#include "sched/lower.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

class Contraction : public ::testing::Test {
 protected:
  static constexpr Coord n = 10;
  Contraction()
      : all_({{1, 1}}, {{n, n}}),
        reg_({{2, 2}}, {{n - 1, n - 1}}),
        r_("r", all_),
        aa_("aa", all_),
        d_("d", all_),
        dd_("dd", all_),
        rx_("rx", all_) {
    r_.fill(0.0);
    aa_.fill(-1.0);
    d_.fill(0.25);
    dd_.fill(4.0);
    rx_.fill(1.0);
  }
  Region<2> all_, reg_;
  DenseArray<Real, 2> r_, aa_, d_, dd_, rx_;
};

TEST_F(Contraction, TomcatvRIsTheCandidate) {
  // The paper's motivating case: r is a promoted scalar; d and rx carry
  // state across iterations (primed reads) and are not contractible.
  auto plan = scan(reg_,
                   r_ <<= aa_ * prime(d_, kNorth),
                   d_ <<= 1.0 / (dd_ - at(aa_, kNorth) * r_),
                   rx_ <<= rx_ - prime(rx_, kNorth) * r_)
                  .compile();
  const auto report = contraction_candidates(plan);
  ASSERT_EQ(report.candidates.size(), 1u);
  EXPECT_TRUE(report.contractible(r_));
  EXPECT_FALSE(report.contractible(d_));
  EXPECT_FALSE(report.contractible(rx_));
  EXPECT_EQ(report.bytes, r_.raw().size() * sizeof(Real));
}

TEST_F(Contraction, SelfReadingStatementNotContractible) {
  // r := r + ... reads the previous iteration's r.
  auto plan = scan(reg_,
                   r_ <<= r_ + prime(d_, kNorth),
                   d_ <<= dd_ - r_)
                  .compile();
  const auto report = contraction_candidates(plan);
  EXPECT_FALSE(report.contractible(r_));
}

TEST_F(Contraction, ShiftedReadNotContractible) {
  auto plan = scan(reg_,
                   r_ <<= aa_ * prime(d_, kNorth),
                   d_ <<= dd_ - at(r_, kWest))
                  .compile();
  const auto report = contraction_candidates(plan);
  EXPECT_FALSE(report.contractible(r_));
}

TEST_F(Contraction, ReadBeforeWriteNotContractible) {
  // d reads r BEFORE the statement that writes r: the read sees the
  // previous iteration's value.
  auto plan = scan(reg_,
                   d_ <<= dd_ - r_ + prime(d_, kNorth),
                   r_ <<= aa_ * d_)
                  .compile();
  const auto report = contraction_candidates(plan);
  EXPECT_FALSE(report.contractible(r_));
}

TEST_F(Contraction, MultipleWritersNotContractible) {
  auto plan = scan(reg_,
                   r_ <<= aa_ * prime(d_, kNorth),
                   d_ <<= dd_ - r_,
                   r_ <<= r_ * 0.5)
                  .compile();
  const auto report = contraction_candidates(plan);
  EXPECT_FALSE(report.contractible(r_));
}

TEST_F(Contraction, WriteOnlyArrayIsContractible) {
  // Written, never read in the block: trivially dead per iteration (the
  // caller decides whether it is dead after the block too).
  auto plan = scan(reg_,
                   r_ <<= aa_ * prime(d_, kNorth),
                   d_ <<= dd_ * 0.25 + prime(d_, kNorth))
                  .compile();
  const auto report = contraction_candidates(plan);
  EXPECT_TRUE(report.contractible(r_));
  EXPECT_FALSE(report.contractible(d_));
}

TEST_F(Contraction, ReadOnlyArraysNeverListed) {
  auto plan = scan(reg_, d_ <<= dd_ + prime(d_, kNorth)).compile();
  const auto report = contraction_candidates(plan);
  EXPECT_FALSE(report.contractible(dd_));
  EXPECT_TRUE(report.candidates.empty());
}


// ---------------------------------------------------------------------------
// Declared contraction: what compile() accepts and rejects

// Compiles `sb`; returns the LegalityError's text, or "" when it compiles.
std::string legality_error(const ScanBlock<2>& sb) {
  try {
    sb.compile();
  } catch (const LegalityError& e) {
    return e.what();
  }
  return {};
}

TEST(ContractedBlock, SmithWatermanBlockCompilesWithHContracted) {
  SmithWatermanConfig cfg;
  cfg.la = 9;
  cfg.lb = 7;
  const Region<2> cells({{1, 1}}, {{cfg.la, cfg.lb}});
  DenseArray<Real, 2> h("H", Region<2>({{0, 0}}, {{cfg.la, cfg.lb}}));
  DenseArray<Real, 2> sym_a("sym_a", Region<2>({{0, 0}}, {{cfg.la, 0}}));
  DenseArray<Real, 2> sym_b("sym_b", Region<2>({{0, 0}}, {{0, cfg.lb}}));
  const auto plan = smith_waterman_block(cfg, cells, h, sym_a, sym_b)
                        .contract(h)
                        .live_max(h)
                        .compile();
  ASSERT_EQ(plan.contracted.size(), 1u);
  EXPECT_EQ(plan.contracted[0].array, &h);
  EXPECT_TRUE(plan.contracted[0].live_max);
  EXPECT_TRUE(plan.is_contracted(h.id()));
  EXPECT_FALSE(plan.is_contracted(sym_a.id()));
  // The same block without the declaration carries nothing contracted.
  EXPECT_TRUE(
      smith_waterman_block(cfg, cells, h, sym_a, sym_b).compile().contracted
          .empty());
}

TEST_F(Contraction, ContractedArrayWithTwoWritersIsALegalityError) {
  auto sb = scan(reg_, d_ <<= dd_ + prime(d_, kNorth),
                 d_ <<= 0.5 * prime(d_, kNorth));
  EXPECT_EQ(legality_error(sb), "");
  EXPECT_NE(legality_error(sb.contract(d_)).find("2 writers"),
            std::string::npos);
}

TEST_F(Contraction, ContractedArrayWithAnUnprimedReadIsALegalityError) {
  // Unshifted and shifted: either reads a value the window may not hold.
  for (const Direction<2>& dir : {Direction<2>{}, kSouth}) {
    auto sb = scan(reg_, d_ <<= dd_ + prime(d_, kNorth),
                   r_ <<= 2.0 * at(d_, dir));
    EXPECT_EQ(legality_error(sb), "");
    EXPECT_NE(legality_error(sb.contract(d_)).find("unprimed read at " +
                                                   to_string(dir)),
              std::string::npos);
  }
}

TEST_F(Contraction, FloodReadContractedArrayIsALegalityError) {
  DenseArray<Real, 2> col("col", Region<2>({{1, 1}}, {{n, 1}}));
  // Flood-read only: the contraction check names the flood.
  auto sb = scan(reg_, d_ <<= flood(col, {1}) + prime(d_, kNorth));
  EXPECT_EQ(legality_error(sb), "");
  EXPECT_NE(legality_error(sb.contract(col)).find("is flood-read"),
            std::string::npos);
  // Flood-read and written: already illegal without the declaration.
  EXPECT_THROW(scan(reg_, d_ <<= flood(col, {1}) + prime(d_, kNorth),
                    col <<= 2.0 * prime(col, kNorth))
                   .contract(col)
                   .compile(),
               LegalityError);
}

TEST_F(Contraction, PrimedReadReachingIntoALaterTileIsALegalityError) {
  // d'@west fixes the inner loop ascending along dim 1, so d'@northeast
  // reads a cell one column ahead: on a rank line tiled along dim 1 it can
  // sit in the next tile. d'@northwest reads behind and is fine.
  auto ahead = scan(reg_, d_ <<= dd_ + prime(d_, kWest) +
                                     0.5 * prime(d_, kNorthEast));
  ASSERT_EQ(legality_error(ahead), "");
  EXPECT_NE(legality_error(ahead.contract(d_)).find("reaching forward"),
            std::string::npos);
  auto behind = scan(reg_, d_ <<= dd_ + prime(d_, kWest) +
                                      0.5 * prime(d_, kNorthWest));
  EXPECT_EQ(legality_error(behind.contract(d_)), "");
}

TEST_F(Contraction, LiveMaxNeedsAContractedArrayDeclaredOnce) {
  auto sb = scan(reg_, d_ <<= dd_ + prime(d_, kNorth));
  EXPECT_THROW(sb.live_max(d_), LegalityError);
  EXPECT_NE(legality_error(sb.contract(d_).contract(d_)).find("twice"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Contracted storage against full storage, on random blocks
//
// Random rank-2 and rank-3 blocks in which u is written once and read
// primed only. One twin declares u contracted with a live-out max; the
// other keeps u whole, starting at 0 like the contracted u. Both run on
// the same random rank line and block size: w and v must come out
// byte-identical, and the live-out max must equal the max of the full
// twin's u over the scan region, bit for bit. The contracted twin runs
// again as a lowered graph on the adaptive scheduler — and, on the
// parallel engine, on the work-stealing tasks backend, whose workers share
// the instance's store — under the same three checks.

std::uint64_t fuzz_seed() { return test_seed(2020); }

template <Rank R>
Real hashed(std::uint64_t salt, const Idx<R>& i) {
  std::uint64_t h = salt;
  for (Rank d = 0; d < R; ++d)
    h = h * 1000003ULL + static_cast<std::uint64_t>(i.v[d] + 64);
  SplitMix64 g(h);
  return g.uniform(-1.0, 1.0);
}

template <Rank R>
bool same_bytes(const DenseArray<Real, R>& a, const DenseArray<Real, R>& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(Real)) == 0;
}

template <Rank R>
Direction<R> random_direction(SplitMix64& rng) {
  Direction<R> d{};
  while (d.is_zero())
    for (Rank k = 0; k < R; ++k) d.v[k] = rng.uniform_int(-1, 1);
  return d;
}

constexpr int kFuzzShapes = 4;

// u may be contracted in every shape; w is the output the twins compare.
// Only w reads along d2, so it may oppose u's reads along the tile
// dimension and leave the rank line untiled.
template <Rank R>
ScanBlock<R> fuzz_block(int shape, const Region<R>& reg,
                        DenseArray<Real, R>& u, DenseArray<Real, R>& v,
                        DenseArray<Real, R>& w, const Direction<R>& d0,
                        const Direction<R>& d1, const Direction<R>& d2) {
  switch (shape) {
    case 0:  // one recurrence; w reads it primed
      return scan(reg, u <<= 0.3 + 0.45 * prime(u, d0) + 0.1 * v,
                  w <<= 0.5 * w + 0.25 * prime(u, d1));
    case 1:  // SW's shape, next to a second wave array
      return scan(reg,
                  u <<= max_e(0.0, max_e(prime(u, d0) + v - 0.25,
                                         prime(u, d1) - 0.5)),
                  w <<= 0.5 * prime(w, d2) + 0.25 * prime(u, d0) + v);
    case 2:  // a shifted input read, so the pre-exchange still runs for v
      return scan(reg, u <<= 0.5 * v * prime(u, d0) + 0.125,
                  w <<= 1.0 / (2.5 - at(v, d1) * prime(u, d1)));
    default:  // u read before its writer
      return scan(reg, w <<= 0.5 * prime(u, d0) + v,
                  u <<= 0.3 + 0.45 * prime(u, d1) + 0.2 * w);
  }
}

struct FuzzCoverage {
  bool slid = false;       // a window moved between tiles
  bool back_halo = false;  // ... carrying a slab of cells behind the tile
  bool backward = false;   // ... on tiles travelling down their dimension
  bool full = false;       // a waved rank line that kept u whole
};

template <Rank R>
void run_contraction_fuzz(int trials, FuzzCoverage& seen) {
  const std::uint64_t seed = fuzz_seed();
  SplitMix64 rng(seed + 100 * R);
  Idx<R> one{};
  for (Rank d = 0; d < R; ++d) one.v[d] = 1;
  std::mutex mu;
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    const int shape = static_cast<int>(rng.uniform_int(0, kFuzzShapes - 1));
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = rng.uniform_int(-3, 3);
      hi.v[d] = lo.v[d] + (R == 3 ? rng.uniform_int(7, 9)
                                  : rng.uniform_int(7, 13));
    }
    const Region<R> reg(lo, hi);
    const Region<R> global = reg.expanded(one);
    const std::uint64_t salt = rng.next();

    // Draw directions until the contracted block is legal and waves.
    Direction<R> d0{}, d1{}, d2{};
    std::optional<Rank> wdim;
    DenseArray<Real, R> pu("u", global, order), pv("v", global, order),
        pw("w", global, order);
    for (int attempt = 0; attempt < 64 && !wdim; ++attempt) {
      d0 = random_direction<R>(rng);
      d1 = random_direction<R>(rng);
      d2 = random_direction<R>(rng);
      try {
        const auto plan = fuzz_block<R>(shape, reg, pu, pv, pw, d0, d1, d2)
                              .contract(pu)
                              .live_max(pu)
                              .compile();
        if (plan.has_wavefront()) wdim = plan.wdim();
      } catch (const LegalityError&) {
      }
    }
    ASSERT_TRUE(wdim.has_value()) << "no legal block for shape " << shape;
    const int p = static_cast<int>(rng.uniform_int(2, 4));
    WaveOptions opts;
    opts.block = rng.uniform_int(0, 6);  // 0: one tile per rank
    const Layout<R> layout(global, ProcGrid<R>::along_dim(p, *wdim), one);
    const std::string what =
        "seed " + std::to_string(seed) + " rank " + std::to_string(R) +
        " trial " + std::to_string(t) + " shape " + std::to_string(shape) +
        " p " + std::to_string(p) + " block " + std::to_string(opts.block) +
        " d0 " + to_string(d0) + " d1 " + to_string(d1) + " d2 " +
        to_string(d2);

    Machine::run(p, {}, [&](Communicator& comm) {
      const Region<R> alloc = layout.allocated(comm.rank());
      auto input = [&](DenseArray<Real, R>& a, std::uint64_t s) {
        a.fill_fn([&](const Idx<R>& i) { return hashed(salt + s, i); });
      };
      // The contracted twin's u starts as one cell: run_wavefront sizes it.
      DenseArray<Real, R> cu("u", Region<R>(alloc.lo(), alloc.lo()), order),
          cv("v", alloc, order), cw("w", alloc, order);
      DenseArray<Real, R> fu("u", alloc, order), fv("v", alloc, order),
          fw("w", alloc, order);
      for (auto* a : {&cv, &fv}) input(*a, 1);
      for (auto* a : {&cw, &fw}) input(*a, 2);
      const auto cplan = fuzz_block<R>(shape, reg, cu, cv, cw, d0, d1, d2)
                             .contract(cu)
                             .live_max(cu)
                             .compile();
      const auto fplan =
          fuzz_block<R>(shape, reg, fu, fv, fw, d0, d1, d2).compile();

      WaveOptions o = opts;
      const WaveReport<R> crep = run_wavefront(cplan, layout, comm, o);
      o.tag_base += 100;
      const WaveReport<R> frep = run_wavefront(fplan, layout, comm, o);

      Real local = -std::numeric_limits<Real>::infinity();
      for_each(frep.local_region,
               [&](const Idx<R>& i) { local = std::max(local, fu(i)); });
      const Real full_max = comm.allreduce_max(local);
      const Real live_max = comm.allreduce_max(crep.maxima().at(0));
      EXPECT_EQ(std::memcmp(&full_max, &live_max, sizeof(Real)), 0)
          << what << ": " << full_max << " vs " << live_max;
      EXPECT_TRUE(same_bytes(cw, fw)) << what;
      EXPECT_TRUE(same_bytes(cv, fv)) << what;

      // The contracted twin through lower_wavefront + run_graph. Lowering
      // does no pre-exchange, so each run does run_wavefront's own first.
      std::vector<SchedOptions> modes(1);  // adaptive, SPMD backend
      modes[0].backend = SchedBackend::kSpmd;
      if (comm.machine().engine() == EngineKind::kParallel) {
        modes.emplace_back();
        modes.back().backend = SchedBackend::kTasks;
      }
      for (const SchedOptions& so : modes) {
        DenseArray<Real, R> lu("u", Region<R>(alloc.lo(), alloc.lo()), order),
            lv("v", alloc, order), lw("w", alloc, order);
        input(lv, 1);
        input(lw, 2);
        const auto lplan = fuzz_block<R>(shape, reg, lu, lv, lw, d0, d1, d2)
                               .contract(lu)
                               .live_max(lu)
                               .compile();
        o.tag_base += 100;
        exchange_plan_ghosts(lplan, layout, comm, o.tag_base);
        TaskGraph g;
        TagAllocator ta(o.tag_base);
        const auto lowered = lower_wavefront(
            g, lplan, layout, comm.rank(),
            ta.alloc(wavefront_tag_span<R>(1), "fuzz"), "fuzz", o);
        run_graph(g, comm, so);
        const Real lowered_max = comm.allreduce_max(lowered.maxima().at(0));
        const std::string how = what + " lowered on " + to_string(so.backend);
        EXPECT_EQ(std::memcmp(&full_max, &lowered_max, sizeof(Real)), 0)
            << how << ": " << full_max << " vs " << lowered_max;
        EXPECT_TRUE(same_bytes(lw, fw)) << how;
        EXPECT_TRUE(same_bytes(lv, fv)) << how;
      }

      // u's storage: a window one tile wide, or the whole block.
      const WaveTiling<R> tiling = wave_tiling(cplan, layout, comm.rank());
      ASSERT_TRUE(crep.waved) << what;
      std::lock_guard<std::mutex> lock(mu);
      if (tiling.tdim == tiling.w) {
        EXPECT_EQ(cu.region(), alloc) << what;
        seen.full = true;
        return;
      }
      const Coord back = cplan.find_use(cu.id())->prime_halo.v[tiling.tdim];
      EXPECT_EQ(cu.region().extent(tiling.tdim), crep.block + back) << what;
      for (Rank d = 0; d < R; ++d) {
        if (d == tiling.tdim) continue;
        EXPECT_EQ(cu.region().extent(d), alloc.extent(d)) << what;
      }
      if (crep.tiles < 2) return;
      seen.slid = true;
      seen.back_halo = seen.back_halo || back > 0;
      seen.backward = seen.backward || (back > 0 && tiling.tsign < 0);
    });
  }
}

TEST(ContractionFuzz, WindowsMatchFullStorageBytewise2d) {
  FuzzCoverage seen;
  run_contraction_fuzz<2>(120, seen);
  EXPECT_TRUE(seen.full);
  EXPECT_TRUE(seen.slid);
  EXPECT_TRUE(seen.back_halo);
  EXPECT_TRUE(seen.backward);
}

TEST(ContractionFuzz, WindowsMatchFullStorageBytewise3d) {
  FuzzCoverage seen;
  run_contraction_fuzz<3>(60, seen);
  EXPECT_TRUE(seen.slid);
  EXPECT_TRUE(seen.back_halo);
}

}  // namespace
}  // namespace wavepipe
