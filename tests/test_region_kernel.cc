// Region-bound fused kernels and register carries.
//
// Random rank 1-3 scan blocks run through the fused region kernel
// (scan(...)) and, on a twin set of arrays, through per-index
// Statement::eval_at (the same statements added with ScanBlock::add, which
// leaves the plan without a fused kernel). Both twins run the same random
// tiles of the block's region in the same order, so the results must be
// byte-identical. A tile that starts mid-pencil seeds its carries from the
// previous tile's values, so the sweep checks the seed as well as the
// carried recurrence. The sweep covers both storage orders, every loop
// step sign, inner extents of 1, a cross-statement carry (Tomcatv's
// `r <<= aa*d'@north; d <<= ...`), a read after the writer (never
// carried), an array written twice (never carried) and blocks with no
// carry at all.
//
// A second sweep does the same for skewed strips (run_fused): rank-2/3
// blocks with directions in {-2..2}^R and pencils long enough to strip,
// where some reads cross the skew and the plan must refuse strips. It
// asserts that strips ran, were refused by the plan's rule and by the
// length gate, and left remainder pencils in a row.
//
// Also here: the carry rule itself on Tomcatv's block, the strip rule on
// hand-built reads, DenseArray::fill over a region and fill_outside, and
// the fluff checks whose messages are built only on failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exec/driver.hh"
#include "sched/lower.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

std::uint64_t sweep_seed() { return test_seed(1515); }

template <Rank R>
Real hashed(std::uint64_t salt, const Idx<R>& i, Real lo, Real hi) {
  std::uint64_t h = salt;
  for (Rank d = 0; d < R; ++d)
    h = h * 1000003ULL + static_cast<std::uint64_t>(i.v[d] + 64);
  SplitMix64 g(h);
  return g.uniform(lo, hi);
}

template <Rank R>
bool same_bytes(const DenseArray<Real, R>& a, const DenseArray<Real, R>& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(Real)) == 0;
}

template <Rank R>
struct Arrays {
  Arrays(const Region<R>& all, StorageOrder order, std::uint64_t salt)
      : u("u", all, order), v("v", all, order), w("w", all, order) {
    u.fill_fn([&](const Idx<R>& i) { return hashed(salt, i, -1.0, 1.0); });
    v.fill_fn([&](const Idx<R>& i) { return hashed(salt + 1, i, 0.0, 1.0); });
    w.fill_fn([&](const Idx<R>& i) { return hashed(salt + 2, i, -1.0, 1.0); });
  }
  DenseArray<Real, R> u, v, w;
};

constexpr int kShapes = 6;       // the shapes of the +-1 sweep
constexpr int kStripShapes = 7;  // and of the strip sweep

// The statement shapes of the sweep; `fused` picks scan(...) or add().
template <Rank R>
WavefrontPlan<R> build(int shape, Arrays<R>& x, const Region<R>& reg,
                       const Direction<R>& d0, const Direction<R>& d1,
                       bool fused) {
  auto& u = x.u;
  auto& v = x.v;
  auto& w = x.w;
  auto make = [&](const auto&... specs) {
    if (fused) return scan(reg, specs...).compile();
    ScanBlock<R> sb(reg);
    (sb.add(to_statement(specs)), ...);
    return sb.compile();
  };
  switch (shape) {
    case 0:  // one statement, primed self-read
      return make(u <<= 0.3 + 0.45 * prime(u, d0) + 0.1 * v);
    case 1:  // two primed self-reads, possibly both carried
      return make(u <<= 0.5 * prime(u, d0) + 0.25 * prime(u, d1) + v);
    case 2:  // Tomcatv's shape: w is read primed before its writer
      return make(u <<= v * prime(w, d0),
                  w <<= 1.0 / (2.5 - at(v, d0) * u));
    case 3:  // the second read of u comes after its writer: memory
      return make(u <<= v + 0.5 * prime(u, d0),
                  w <<= 0.5 * w + 0.25 * prime(u, d0));
    case 4:  // u written twice: memory (two writers are never carried)
      return make(u <<= v + 0.5 * prime(u, d0),
                  u <<= 0.5 * u + 0.25 * prime(u, d0));
    case 5:  // select and unary nodes, three primed leaves
      return make(u <<= 0.5 * select_e(v - 0.5, abs_e(prime(u, d0)),
                                       -prime(u, d1)) +
                        sqrt_e(v) * exp_e(-v) + min_e(v, 0.25) -
                        0.25 * max_e(prime(u, d0), 0.1));
    default:  // SOR's shape: u read primed at d0 and unprimed at d1
      return make(u <<= 0.5 * prime(u, d0) + 0.25 * at(u, d1) + v);
  }
}

// The carry slot of every non-flood read, statement by statement: the
// rule run_fused applies when it binds the plan's block.
template <Rank R>
std::vector<std::vector<int>> carry_slots(const WavefrontPlan<R>& plan) {
  std::vector<DenseArray<Real, R>*> lhs;
  for (const auto& st : plan.statements) lhs.push_back(st.lhs);
  const Rank inner = plan.loops.order[R - 1];
  Direction<R> back{};
  back.v[inner] = -plan.loops.step[inner];
  unsigned used = 0;
  std::vector<std::vector<int>> out;
  for (std::size_t s = 0; s < lhs.size(); ++s) {
    const CarryRule<R> rule{lhs, static_cast<int>(s), back, &used};
    out.emplace_back();
    for (const auto& acc : plan.statements[s].reads)
      out.back().push_back(rule.slot(acc.array, acc.dir, acc.primed));
  }
  return out;
}

template <Rank R>
Direction<R> random_direction(SplitMix64& rng, Rank favoured) {
  Direction<R> d{};
  if (rng.bernoulli(0.5)) {
    d.v[favoured] = rng.bernoulli(0.5) ? 1 : -1;
    return d;
  }
  while (d.is_zero())
    for (Rank k = 0; k < R; ++k) d.v[k] = rng.uniform_int(-1, 1);
  return d;
}

// Splits [lo..hi] into 1-3 consecutive pieces at random cut points.
std::vector<std::pair<Coord, Coord>> pieces(SplitMix64& rng, Coord lo,
                                            Coord hi) {
  std::vector<Coord> cuts{lo};
  const int extra = static_cast<int>(rng.uniform_int(0, 2));
  for (int c = 0; c < extra; ++c) cuts.push_back(rng.uniform_int(lo, hi + 1));
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(hi + 1);
  std::vector<std::pair<Coord, Coord>> out;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k)
    if (cuts[k] < cuts[k + 1]) out.push_back({cuts[k], cuts[k + 1] - 1});
  return out;
}

// Random tiles of `reg` in the order the plan's loop nest visits them.
template <Rank R>
std::vector<Region<R>> random_tiles(SplitMix64& rng, const Region<R>& reg,
                                    const LoopStructure<R>& loops) {
  std::array<std::vector<std::pair<Coord, Coord>>, R> cut;
  Idx<R> hi{};
  for (Rank d = 0; d < R; ++d) {
    cut[d] = pieces(rng, reg.lo(d), reg.hi(d));
    if (loops.step[d] < 0) std::reverse(cut[d].begin(), cut[d].end());
    hi.v[d] = static_cast<Coord>(cut[d].size()) - 1;
  }
  // Walk the tile grid as the plan walks cells: same order, same steps.
  LoopStructure<R> grid_loops = loops;
  for (Rank d = 0; d < R; ++d) grid_loops.step[d] = +1;
  std::vector<Region<R>> tiles;
  iterate_pencils(Region<R>(Idx<R>{}, hi), grid_loops,
                  [&](Idx<R> t, Rank inner, Coord, Coord count) {
                    for (Coord k = 0; k < count; ++k, ++t.v[inner]) {
                      Idx<R> lo{}, up{};
                      for (Rank d = 0; d < R; ++d) {
                        const auto& [a, b] =
                            cut[d][static_cast<std::size_t>(t.v[d])];
                        lo.v[d] = a;
                        up.v[d] = b;
                      }
                      tiles.emplace_back(lo, up);
                    }
                  });
  return tiles;
}

struct Coverage {
  bool row_major = false, col_major = false;
  bool neg_inner = false, neg_outer = false;
  bool inner_one = false;
  bool carried = false, cross_statement = false, uncarried = false;
  bool after_writer = false, written_twice = false;
};

template <Rank R>
void run_sweep(int trials, Coverage& seen) {
  const std::uint64_t seed = sweep_seed();
  SplitMix64 rng(seed + R);
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    const int shape = static_cast<int>(rng.uniform_int(0, kShapes - 1));
    const Rank contiguous = contiguous_dim(order, R);
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = rng.uniform_int(-3, 3);
      hi.v[d] = lo.v[d] + rng.uniform_int(0, R == 3 ? 5 : 9);
    }
    const Region<R> reg(lo, hi);
    Idx<R> one{};
    for (Rank d = 0; d < R; ++d) one.v[d] = 1;
    const Region<R> all = reg.expanded(one);  // every shift reads inside
    const std::uint64_t salt = rng.next();

    // Draw directions until the block is legal.
    Direction<R> d0{}, d1{};
    std::optional<WavefrontPlan<R>> probe;
    Arrays<R> trial(all, order, salt);
    for (int attempt = 0; attempt < 64 && !probe; ++attempt) {
      d0 = random_direction<R>(rng, contiguous);
      d1 = random_direction<R>(rng, contiguous);
      try {
        probe = build<R>(shape, trial, reg, d0, d1, true);
      } catch (const LegalityError&) {
      }
    }
    ASSERT_TRUE(probe.has_value()) << "no legal block for shape " << shape;

    Arrays<R> a(all, order, salt), b(all, order, salt);
    const auto fused = build<R>(shape, a, reg, d0, d1, true);
    const auto per_index = build<R>(shape, b, reg, d0, d1, false);
    ASSERT_TRUE(static_cast<bool>(fused.fused_kernel));
    ASSERT_FALSE(static_cast<bool>(per_index.fused_kernel));
    ASSERT_EQ(fused.loops, per_index.loops);
    validate_coverage(fused, reg);

    const auto tiles = random_tiles(rng, reg, fused.loops);
    for (const auto& tile : tiles) {
      run_serial_on(fused, tile);
      run_serial_on(per_index, tile);
    }

    const std::string what =
        "seed " + std::to_string(seed) + " rank " + std::to_string(R) +
        " trial " + std::to_string(t) + " shape " + std::to_string(shape) +
        " tiles " + std::to_string(tiles.size()) + "\n" + fused.describe();
    EXPECT_TRUE(same_bytes(a.u, b.u)) << what;
    EXPECT_TRUE(same_bytes(a.w, b.w)) << what;
    EXPECT_TRUE(same_bytes(a.v, b.v)) << what;

    (order == StorageOrder::kRowMajor ? seen.row_major : seen.col_major) =
        true;
    const Rank inner = fused.loops.order[R - 1];
    for (Rank level = 0; level < R; ++level) {
      if (fused.loops.step[fused.loops.order[level]] > 0) continue;
      (level == R - 1 ? seen.neg_inner : seen.neg_outer) = true;
    }
    for (const auto& tile : tiles)
      if (tile.extent(inner) == 1) seen.inner_one = true;
    const auto slots = carry_slots(fused);
    bool any = false;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      for (const int slot : slots[s]) {
        if (slot < 0) continue;
        any = true;
        if (slot > static_cast<int>(s)) seen.cross_statement = true;
      }
    }
    (any ? seen.carried : seen.uncarried) = true;
    // The reads of shapes 3 and 4 that must stay in memory.
    if (shape == 3 && slots[0].back() >= 0) {
      EXPECT_LT(slots[1].back(), 0) << what;
      seen.after_writer = true;
    }
    if (shape == 4) {
      for (const auto& st : slots)
        for (const int slot : st) EXPECT_LT(slot, 0) << what;
      seen.written_twice = true;
    }
  }
}

void expect_full(const Coverage& seen) {
  EXPECT_TRUE(seen.row_major && seen.col_major);
  EXPECT_TRUE(seen.neg_inner);
  EXPECT_TRUE(seen.inner_one);
  EXPECT_TRUE(seen.carried);
  EXPECT_TRUE(seen.uncarried);
}

TEST(RegionKernel, FusedMatchesPerIndexBytewise1d) {
  Coverage seen;
  run_sweep<1>(120, seen);
  expect_full(seen);
  EXPECT_TRUE(seen.cross_statement);
  EXPECT_TRUE(seen.after_writer);
}

TEST(RegionKernel, FusedMatchesPerIndexBytewise2d) {
  Coverage seen;
  run_sweep<2>(200, seen);
  expect_full(seen);
  EXPECT_TRUE(seen.neg_outer);
  EXPECT_TRUE(seen.cross_statement);
  EXPECT_TRUE(seen.after_writer);
  EXPECT_TRUE(seen.written_twice);
}

TEST(RegionKernel, FusedMatchesPerIndexBytewise3d) {
  Coverage seen;
  run_sweep<3>(120, seen);
  expect_full(seen);
  EXPECT_TRUE(seen.neg_outer);
  EXPECT_TRUE(seen.cross_statement);
}

// ---------------------------------------------------------------------------
// Skewed strips

template <Rank R>
Direction<R> wide_direction(SplitMix64& rng) {
  Direction<R> d{};
  while (d.is_zero())
    for (Rank k = 0; k < R; ++k) d.v[k] = rng.uniform_int(-2, 2);
  return d;
}

// A read that may cross the skew: one step along `row`, two along
// `inner`, signs at random (whether it crosses depends on the loop steps).
template <Rank R>
Direction<R> crossing_candidate(SplitMix64& rng, Rank row, Rank inner) {
  Direction<R> d{};
  d.v[row] = rng.bernoulli(0.5) ? 1 : -1;
  d.v[inner] = rng.bernoulli(0.5) ? 2 : -2;
  return d;
}

struct StripCoverage {
  bool row_major = false, col_major = false;
  bool neg_inner = false, neg_outer = false;
  bool ran = false, refused_by_rule = false, refused_by_length = false;
  bool remainder = false;
};

template <Rank R>
void run_strip_sweep(int trials, StripCoverage& seen) {
  const std::uint64_t seed = sweep_seed();
  SplitMix64 rng(seed + 100 + R);
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    const int shape = static_cast<int>(rng.uniform_int(0, kStripShapes - 1));
    const Rank contiguous = contiguous_dim(order, R);
    // Long along the contiguous dimension (the pencil, when the
    // dependences allow it), a few pencils per row elsewhere.
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = rng.uniform_int(-3, 3);
      hi.v[d] = lo.v[d] + (d == contiguous ? rng.uniform_int(10, 40)
                                           : rng.uniform_int(2, R == 3 ? 8 : 12));
    }
    const Region<R> reg(lo, hi);
    Idx<R> two{};
    for (Rank d = 0; d < R; ++d) two.v[d] = 2;
    const Region<R> all = reg.expanded(two);  // every shift reads inside
    const std::uint64_t salt = rng.next();

    // d0 mostly one step along the contiguous dimension (a carry), d1 a
    // skew-crossing candidate or any direction in {-2..2}^R.
    Direction<R> d0{}, d1{};
    std::optional<WavefrontPlan<R>> probe;
    Arrays<R> trial(all, order, salt);
    for (int attempt = 0; attempt < 64 && !probe; ++attempt) {
      if (rng.bernoulli(0.7)) {
        d0 = Direction<R>{};
        d0.v[contiguous] = rng.bernoulli(0.5) ? 1 : -1;
      } else {
        d0 = wide_direction<R>(rng);
      }
      Rank row = static_cast<Rank>(rng.uniform_int(0, R - 2));
      if (row >= contiguous) ++row;
      d1 = rng.bernoulli(0.6) ? crossing_candidate<R>(rng, row, contiguous)
                              : wide_direction<R>(rng);
      try {
        probe = build<R>(shape, trial, reg, d0, d1, true);
      } catch (const LegalityError&) {
      }
    }
    ASSERT_TRUE(probe.has_value()) << "no legal block for shape " << shape;

    Arrays<R> a(all, order, salt), b(all, order, salt);
    const auto fused = build<R>(shape, a, reg, d0, d1, true);
    const auto per_index = build<R>(shape, b, reg, d0, d1, false);
    ASSERT_EQ(fused.loops, per_index.loops);
    validate_coverage(fused, reg);

    const auto tiles = random_tiles(rng, reg, fused.loops);
    for (const auto& tile : tiles) {
      run_serial_on(fused, tile);
      run_serial_on(per_index, tile);
    }

    const std::string what =
        "seed " + std::to_string(seed) + " rank " + std::to_string(R) +
        " trial " + std::to_string(t) + " shape " + std::to_string(shape) +
        " d0 " + to_string(d0) + " d1 " + to_string(d1) + " strips " +
        std::to_string(fused.strips) + " tiles " +
        std::to_string(tiles.size()) + "\n" + fused.describe();
    EXPECT_TRUE(same_bytes(a.u, b.u)) << what;
    EXPECT_TRUE(same_bytes(a.w, b.w)) << what;
    EXPECT_TRUE(same_bytes(a.v, b.v)) << what;

    (order == StorageOrder::kRowMajor ? seen.row_major : seen.col_major) =
        true;
    for (Rank level = 0; level < R; ++level) {
      if (fused.loops.step[fused.loops.order[level]] > 0) continue;
      (level == R - 1 ? seen.neg_inner : seen.neg_outer) = true;
    }
    bool carried = false;
    for (const auto& st : carry_slots(fused))
      for (const int slot : st) carried = carried || slot >= 0;
    if (!carried) continue;
    const Rank inner = fused.loops.order[R - 1];
    const Rank row = fused.loops.order[R - 2];
    for (const auto& tile : tiles) {
      const Coord n = tile.extent(inner), m = tile.extent(row);
      if (m < kStripLanes) continue;
      if (n < kStripMinLength) {
        if (fused.strips) seen.refused_by_length = true;
      } else if (!fused.strips) {
        seen.refused_by_rule = true;
      } else {
        seen.ran = true;
        if (m % kStripLanes != 0) seen.remainder = true;
      }
    }
  }
}

void expect_strip_coverage(const StripCoverage& seen) {
  EXPECT_TRUE(seen.row_major && seen.col_major);
  EXPECT_TRUE(seen.neg_inner);
  EXPECT_TRUE(seen.neg_outer);
  EXPECT_TRUE(seen.ran);
  EXPECT_TRUE(seen.refused_by_rule);
  EXPECT_TRUE(seen.refused_by_length);
  EXPECT_TRUE(seen.remainder);
}

TEST(RegionKernel, StripsMatchPerIndexBytewise2d) {
  StripCoverage seen;
  run_strip_sweep<2>(240, seen);
  expect_strip_coverage(seen);
}

TEST(RegionKernel, StripsMatchPerIndexBytewise3d) {
  StripCoverage seen;
  run_strip_sweep<3>(200, seen);
  expect_strip_coverage(seen);
}

// The strip rule on single reads, in loop coordinates (a pencils along the
// row, b elements along the pencil) on a column-major block whose pencils
// run down dim 0 and whose rows step dim 1, both ascending: u'@north is
// the carry, and `extra` is the read under test.
struct StripCase {
  Direction<2> dir;
  bool primed;
  bool strips;
};

// `fused` picks scan(...) or add(), as build() does.
WavefrontPlan<2> strip_case_plan(DenseArray<Real, 2>& u, DenseArray<Real, 2>& v,
                                 const Region<2>& reg, const StripCase& c,
                                 bool fused) {
  const ArrayRef<2> extra = c.primed ? prime(u, c.dir) : at(u, c.dir);
  const auto spec = u <<= 0.5 * prime(u, kNorth) + 0.25 * extra + v;
  if (fused) return scan(reg, spec).compile();
  ScanBlock<2> sb(reg);
  sb.add(to_statement(spec));
  return sb.compile();
}

TEST(RegionKernel, StripRuleRefusesReadsAcrossTheSkew) {
  // dir = (b, a): dim 0 is the pencil, dim 1 the row.
  const StripCase cases[] = {
      {Direction<2>{{2, -1}}, true, false},   // primed (a, b) = (-1, +2)
      {Direction<2>{{-2, 1}}, false, false},  // unprimed (+1, -2)
      {Direction<2>{{1, -1}}, true, true},    // primed (-1, +1): same step
      {Direction<2>{{2, -2}}, true, true},    // primed (-2, +2)
      {Direction<2>{{-1, -1}}, true, true},   // primed (-1, -1)
      {Direction<2>{{-1, 1}}, false, true},   // unprimed (+1, -1)
      {Direction<2>{{0, 1}}, false, true},    // unprimed (+1, 0)
      {Direction<2>{{2, 0}}, false, true},    // unprimed (0, +2)
  };
  const Region<2> all({{-1, -1}}, {{40, 14}});
  const Region<2> reg({{1, 1}}, {{38, 12}});  // 38-cell pencils, 12 per row
  for (const StripCase& c : cases) {
    DenseArray<Real, 2> u("u", all), v("v", all), ur("u", all), vr("v", all);
    for (auto* x : {&u, &ur})
      x->fill_fn([](const Idx<2>& i) { return hashed(5, i, -1.0, 1.0); });
    for (auto* x : {&v, &vr})
      x->fill_fn([](const Idx<2>& i) { return hashed(6, i, 0.0, 1.0); });
    auto plan = strip_case_plan(u, v, reg, c, true);
    const std::string what = to_string(c.dir) + (c.primed ? " primed" : "");
    ASSERT_EQ(plan.loops.order, (std::array<Rank, 2>{1, 0})) << what;
    ASSERT_EQ(plan.loops.step, (std::array<int, 2>{1, 1})) << what;
    EXPECT_EQ(plan.strips, c.strips) << what;

    // Whatever the rule says, the fused kernel matches per-index eval_at.
    run_serial_on(plan, reg);
    run_serial_on(strip_case_plan(ur, vr, reg, c, false), reg);
    EXPECT_TRUE(same_bytes(u, ur)) << what;

    // A refused plan run in strips anyway reads across the skew: the rule
    // is what keeps those bytes right.
    if (!c.strips) {
      u.fill_fn([](const Idx<2>& i) { return hashed(5, i, -1.0, 1.0); });
      plan.strips = true;
      run_serial_on(plan, reg);
      EXPECT_FALSE(same_bytes(u, ur)) << what;
    }
  }
}

TEST(RegionKernel, StripRuleIgnoresReadsIntoOtherRows) {
  // Rank 3, pencils down dim 0, rows along dim 1: a read that also moves
  // along the outer dim 2 reaches another row and never blocks strips;
  // the same (a, b) within the row does.
  const Region<3> reg({{1, 1, 1}}, {{20, 6, 3}});
  const Region<3> all = reg.expanded(Idx<3>{{2, 2, 2}});
  DenseArray<Real, 3> u("u", all), v("v", all);
  const Direction<3> carry{{-1, 0, 0}};
  const auto other_row = scan(reg, u <<= 0.5 * prime(u, carry) +
                                         0.25 * prime(u, Direction<3>{{2, -1, -1}}) + v)
                             .compile();
  ASSERT_EQ(other_row.loops.order, (std::array<Rank, 3>{2, 1, 0}));
  EXPECT_TRUE(other_row.strips);
  const auto same_row = scan(reg, u <<= 0.5 * prime(u, carry) +
                                        0.25 * prime(u, Direction<3>{{2, -1, 0}}) + v)
                            .compile();
  ASSERT_EQ(same_row.loops.order, (std::array<Rank, 3>{2, 1, 0}));
  EXPECT_FALSE(same_row.strips);
}

// ---------------------------------------------------------------------------
// The carry rule on Tomcatv's forward block

TEST(RegionKernel, TomcatvCarriesEachRecurrenceFromItsOnlyWriter) {
  const Region<2> all({{0, 0}}, {{9, 7}});
  const Region<2> reg({{2, 1}}, {{8, 6}});
  for (StorageOrder order : {StorageOrder::kColMajor, StorageOrder::kRowMajor}) {
    DenseArray<Real, 2> r("r", all, order), aa("aa", all, order),
        d("d", all, order), dd("dd", all, order), rx("rx", all, order),
        ry("ry", all, order);
    const auto plan = scan(reg, r <<= aa * prime(d, kNorth),
                           d <<= 1.0 / (dd - at(aa, kNorth) * r),
                           rx <<= rx - prime(rx, kNorth) * r,
                           ry <<= ry - prime(ry, kNorth) * r)
                          .compile();
    const auto slots = carry_slots(plan);
    if (order == StorageOrder::kColMajor) {
      // North runs along the pencil: d'@north (statement 0) comes from
      // statement 1, rx' and ry' from their own statements; the unprimed
      // aa@north and every unshifted read stay in memory.
      ASSERT_EQ(plan.loops.order[1], 0);
      EXPECT_EQ(slots, (std::vector<std::vector<int>>{
                           {-1, 1}, {-1, -1, -1}, {-1, 2, -1}, {-1, 3, -1}}));
    } else {
      // Pencils run along dim 1: nothing recurs along them.
      for (const auto& st : slots)
        for (const int slot : st) EXPECT_EQ(slot, -1);
    }
  }
}

// ---------------------------------------------------------------------------
// Region fills

template <Rank R>
void check_fills(SplitMix64& rng, StorageOrder order) {
  Idx<R> lo{}, hi{};
  for (Rank d = 0; d < R; ++d) {
    lo.v[d] = rng.uniform_int(-3, 3);
    hi.v[d] = lo.v[d] + rng.uniform_int(0, 6);
  }
  const Region<R> box(lo, hi);
  // A keep region that may stick out of the box or miss it entirely.
  Idx<R> klo{}, khi{};
  for (Rank d = 0; d < R; ++d) {
    klo.v[d] = rng.uniform_int(lo.v[d] - 2, hi.v[d] + 1);
    khi.v[d] = klo.v[d] + rng.uniform_int(-1, 5);
  }
  const Region<R> keep(klo, khi);
  auto f = [](const Idx<R>& i) { return hashed(21, i, -1.0, 1.0); };

  DenseArray<Real, R> a("a", box, order), b("b", box, order);
  a.fill_fn(f);
  b.fill_fn(f);
  fill_outside(a, keep, 0.0);
  for_each(box, [&](const Idx<R>& i) {
    if (!keep.contains(i)) b(i) = 0.0;
  });
  EXPECT_TRUE(same_bytes(a, b)) << to_string(box) << " keep "
                                << to_string(keep);

  const Region<R> sub = keep.intersect(box);
  a.fill_fn(f);
  b.fill_fn(f);
  a.fill(sub, -2.5);
  for_each(sub, [&](const Idx<R>& i) { b(i) = -2.5; });
  EXPECT_TRUE(same_bytes(a, b)) << to_string(sub);
}

TEST(RegionFill, FillAndFillOutsideMatchPerIndexWrites) {
  SplitMix64 rng(sweep_seed() + 7);
  for (int t = 0; t < 60; ++t) {
    for (StorageOrder order :
         {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
      check_fills<1>(rng, order);
      check_fills<2>(rng, order);
      check_fills<3>(rng, order);
    }
  }
}

// ---------------------------------------------------------------------------
// Fluff checks: the same errors, built only on failure

TEST(FluffChecks, GhostExchangeNamesArrayWidthAndDimension) {
  const Layout<2> layout(Region<2>({{1, 1}}, {{8, 4}}), ProcGrid<2>({2, 1}),
                         Idx<2>{{1, 0}});
  std::mutex mu;
  std::vector<std::string> errors;
  Machine::run(2, {}, [&](Communicator& comm) {
    DenseArray<Real, 2> a("a", layout.allocated(comm.rank()));
    try {
      exchange_ghosts(a, layout, comm.rank(), comm, Idx<2>{{2, 0}});
    } catch (const ContractError& e) {
      std::lock_guard<std::mutex> l(mu);
      errors.push_back(e.condition());
    }
  });
  ASSERT_EQ(errors.size(), 2u);
  for (const auto& e : errors)
    EXPECT_EQ(e,
              "array 'a' allocates too little fluff for a ghost exchange of "
              "width 2 along dimension 0");
}

TEST(FluffChecks, WaveInflowFaceNamesTheArray) {
  // u has no fluff, so the second rank cannot unpack its inflow face.
  const Region<2> global({{1, 1}}, {{8, 4}});
  const Region<2> interior({{2, 1}}, {{8, 4}});
  const Layout<2> layout(global, ProcGrid<2>({2, 1}), Idx<2>{});
  std::mutex mu;
  std::vector<std::string> errors;
  Machine::run(2, {}, [&](Communicator& comm) {
    DenseArray<Real, 2> u("u", layout.owned(comm.rank()));
    DenseArray<Real, 2> v("v", layout.owned(comm.rank()), StorageOrder::kColMajor,
                          1.0);
    const auto plan = scan(interior, u <<= 0.5 * prime(u, kNorth) + v).compile();
    // Lowered and run without run_wavefront's ghost pre-exchange: the
    // inflow face, not the halo, must fail.
    WaveOptions opts;
    opts.block = 2;
    TaskGraph g;
    lower_wavefront(g, plan, layout, comm.rank(),
                    TagRange{500, wavefront_tag_span<2>()}, "wave", opts);
    try {
      run_graph(g, comm, SchedOptions{.adaptive = false});
    } catch (const ContractError& e) {
      std::lock_guard<std::mutex> l(mu);
      errors.push_back(e.condition());
    }
  });
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            "array 'u' allocates too little fluff for the wave inflow face");
}

}  // namespace
}  // namespace wavepipe
