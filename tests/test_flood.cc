// Flood references (expr.hh): ZPL-style reads of an array of extent 1
// along the flooded dimensions, at every index of those dimensions.
//
// Cursor vs eval: a FloodRef's pencil cursor against its per-index eval,
// and both against the clamp formula, on random 2D/3D regions in both
// storage orders with every flood mask, inner dimension and step sign.
// Scan blocks: random blocks reading two flood vectors through eq_e and
// select_e run fused (cursors) and per index (eval_at) on twin arrays and
// must be byte-identical; the sweep records that it saw a flooded inner
// dimension (stride-0 cursor), a flooded outer dimension and negative loop
// steps. Compiler: a flood contributes no halo and no wave face; a block
// that writes or primes a flooded array is a LegalityError; an
// under-allocated flood vector is a ContractError from validate_coverage.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "exec/serial.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

std::uint64_t sweep_seed() { return test_seed(1414); }

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

// flood() takes its dimensions as a braced list; this maps a mask onto one.
template <Rank R>
FloodRef<R> flood_mask(DenseArray<Real, R>& a, FloodMask m) {
  switch (m) {
    case 1: return flood(a, {0});
    case 2: return flood(a, {1});
    case 3: return flood(a, {0, 1});
    case 4: return flood(a, {2});
    case 5: return flood(a, {0, 2});
    case 6: return flood(a, {1, 2});
    default: return flood(a, {0, 1, 2});
  }
}

// `cover` collapsed onto one random coordinate along every flooded
// dimension (not necessarily inside `cover`: a flood reads its array's lo
// wherever that is).
template <Rank R>
Region<R> flood_region(const Region<R>& cover, FloodMask m, SplitMix64& rng) {
  Idx<R> lo = cover.lo(), hi = cover.hi();
  for (Rank d = 0; d < R; ++d)
    if (is_flooded(m, d)) lo.v[d] = hi.v[d] = rng.uniform_int(-6, 6);
  return Region<R>(lo, hi);
}

template <Rank R>
FloodMask random_mask(SplitMix64& rng) {
  return static_cast<FloodMask>(rng.uniform_int(1, (1 << R) - 1));
}

// ---------------------------------------------------------------------------
// FloodRef cursor vs eval vs the clamp formula

template <Rank R>
void run_ref_sweep(int trials) {
  const std::uint64_t seed = sweep_seed();
  SplitMix64 rng(seed + 10 * R);
  bool saw_flooded_inner = false, saw_plain_inner = false;
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = rng.uniform_int(-4, 4);
      hi.v[d] = lo.v[d] + rng.uniform_int(3, 9);
    }
    const Region<R> cover(lo, hi);
    const FloodMask m = random_mask<R>(rng);
    const std::uint64_t salt = rng.next();
    DenseArray<Real, R> a("f", flood_region(cover, m, rng), order);
    a.fill_fn([&](const Idx<R>& i) { return hashed(salt, i); });
    const FloodRef<R> f = flood_mask(a, m);

    const Rank inner = static_cast<Rank>(rng.uniform_int(0, R - 1));
    const Coord step = rng.bernoulli(0.5) ? 1 : -1;
    Idx<R> start{};
    for (Rank d = 0; d < R; ++d)
      start.v[d] = rng.uniform_int(cover.lo(d), cover.hi(d));
    const Coord count =
        1 + (step > 0 ? cover.hi(inner) - start.v[inner]
                      : start.v[inner] - cover.lo(inner));
    (is_flooded(m, inner) ? saw_flooded_inner : saw_plain_inner) = true;

    const auto c = cursor(f, start, inner, step);
    Idx<R> i = start;
    for (Coord k = 0; k < count; ++k, i.v[inner] += step) {
      Idx<R> clamped = i;
      for (Rank d = 0; d < R; ++d)
        if (is_flooded(m, d)) clamped.v[d] = a.region().lo(d);
      const Real want = hashed(salt, clamped);
      const Real got_eval = f.eval(i), got_cursor = c(k);
      ASSERT_EQ(std::memcmp(&got_eval, &want, sizeof(Real)), 0)
          << "seed " << seed << " trial " << t << " mask " << m << " at "
          << to_string(i);
      ASSERT_EQ(std::memcmp(&got_cursor, &want, sizeof(Real)), 0)
          << "seed " << seed << " trial " << t << " mask " << m << " inner "
          << inner << " step " << step << " k " << k;
    }
  }
  EXPECT_TRUE(saw_flooded_inner && saw_plain_inner);
}

TEST(FloodRef, CursorMatchesEvalAndClamp2d) { run_ref_sweep<2>(200); }
TEST(FloodRef, CursorMatchesEvalAndClamp3d) { run_ref_sweep<3>(200); }

TEST(FloodRef, RecordsAFloodAccessWithNoShift) {
  DenseArray<Real, 2> a("a", Region<2>({{0, 3}}, {{5, 3}}));
  std::vector<Access<2>> acc;
  flood(a, {1}).collect(acc);
  ASSERT_EQ(acc.size(), 1u);
  EXPECT_EQ(acc[0].array, &a);
  EXPECT_TRUE(acc[0].dir.is_zero());
  EXPECT_FALSE(acc[0].primed);
  EXPECT_EQ(acc[0].flood, FloodMask{2});
}

TEST(FloodRef, BuilderRejectsBadDimensions) {
  DenseArray<Real, 2> a("a", Region<2>({{0, 3}}, {{5, 3}}));
  EXPECT_THROW(flood(a, {}), ContractError);
  EXPECT_THROW(flood(a, {0}), ContractError);  // extent 6 along dim 0
  EXPECT_THROW(flood(a, {2}), ContractError);  // no dim 2 in a rank-2 array
  EXPECT_NO_THROW(flood(a, {1}));
}

// ---------------------------------------------------------------------------
// eq_e

TEST(EqExpr, IsOneWhereEqualAndZeroElsewhere) {
  const Region<2> reg({{0, 0}}, {{4, 5}});
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    DenseArray<Real, 2> x("x", reg, order), y("y", reg, order);
    x.fill_fn([](const Idx<2>& i) { return Real((i.v[0] + i.v[1]) % 3); });
    y.fill_fn([](const Idx<2>& i) { return Real(i.v[1] % 3); });
    const auto e = eq_e(x, y);
    const auto s = eq_e(x, 2.0);
    for (Rank inner : {Rank{0}, Rank{1}}) {
      for (Coord step : {Coord{1}, Coord{-1}}) {
        const Idx<2> start{{step > 0 ? 0 : 4, step > 0 ? 0 : 5}};
        const auto ce = cursor(e, start, inner, step);
        const auto cs = cursor(s, start, inner, step);
        Idx<2> i = start;
        for (Coord k = 0; k <= reg.hi(inner); ++k, i.v[inner] += step) {
          const Real want = x(i) == y(i) ? 1.0 : 0.0;
          EXPECT_EQ(e.eval(i), want);
          EXPECT_EQ(ce(k), want);
          EXPECT_EQ(s.eval(i), x(i) == 2.0 ? 1.0 : 0.0);
          EXPECT_EQ(cs(k), s.eval(i));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scan blocks reading flood vectors: fused cursors vs per-index eval_at

template <Rank R>
struct FloodArrays {
  FloodArrays(const Region<R>& all, FloodMask mf, FloodMask mg,
              StorageOrder order, std::uint64_t salt, SplitMix64 shape_rng)
      : u("u", all, order),
        v("v", all, order),
        f("f", flood_region(all, mf, shape_rng), order),
        g("g", flood_region(all, mg, shape_rng), order) {
    u.fill_fn([&](const Idx<R>& i) { return hashed(salt, i); });
    v.fill_fn([&](const Idx<R>& i) { return hashed(salt + 1, i); });
    // Symbols in {0, 1, 2}, so eq_e(f, g) takes both values.
    auto sym = [](Real x) { return Real(static_cast<int>((x + 1.0) * 1.5)); };
    f.fill_fn([&](const Idx<R>& i) { return sym(hashed(salt + 2, i)); });
    g.fill_fn([&](const Idx<R>& i) { return sym(hashed(salt + 3, i)); });
  }
  DenseArray<Real, R> u, v, f, g;
};

template <Rank R>
WavefrontPlan<R> build_flood_block(FloodArrays<R>& x, const Region<R>& reg,
                                   FloodMask mf, FloodMask mg,
                                   const Direction<R>& d, bool fused) {
  const auto ff = flood_mask(x.f, mf);
  const auto fg = flood_mask(x.g, mg);
  const auto spec = x.u <<= 0.5 * prime(x.u, d) +
                            select_e(eq_e(ff, fg), 0.75 * x.v, -0.25) +
                            0.125 * ff * fg;
  if (fused) return scan(reg, spec).compile();
  ScanBlock<R> sb(reg);
  sb.add(to_statement(spec));
  return sb.compile();
}

template <Rank R>
std::vector<Direction<R>> primed_dirs();
template <>
std::vector<Direction<2>> primed_dirs<2>() {
  return {{{-1, 0}}, {{1, 0}}, {{0, -1}}, {{0, 1}}, {{1, 1}}, {{-1, 1}}};
}
template <>
std::vector<Direction<3>> primed_dirs<3>() {
  return {{{-1, 0, 0}}, {{0, 1, 0}}, {{0, 0, -1}}, {{1, 1, 1}}, {{0, -1, 1}}};
}

template <Rank R>
void run_block_sweep(int trials) {
  const std::uint64_t seed = sweep_seed();
  SplitMix64 rng(seed + 100 * R);
  const auto dirs = primed_dirs<R>();
  bool row_major = false, col_major = false, flooded_inner = false,
       flooded_outer = false, neg_inner = false, neg_outer = false;
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    const Direction<R> d = dirs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dirs.size()) - 1))];
    const FloodMask mf = random_mask<R>(rng), mg = random_mask<R>(rng);
    Idx<R> lo{}, hi{};
    for (Rank k = 0; k < R; ++k) {
      lo.v[k] = rng.uniform_int(-4, 4);
      hi.v[k] = lo.v[k] + rng.uniform_int(R == 2 ? 5 : 4, R == 2 ? 12 : 7);
    }
    const Region<R> all(lo, hi);
    Idx<R> rlo = lo, rhi = hi;
    for (Rank k = 0; k < R; ++k) {
      rlo.v[k] += 1;
      rhi.v[k] -= 1;
    }
    const Region<R> reg(rlo, rhi);
    const std::uint64_t salt = rng.next();
    const std::uint64_t shape_salt = rng.next();

    FloodArrays<R> a(all, mf, mg, order, salt, SplitMix64(shape_salt));
    FloodArrays<R> b(all, mf, mg, order, salt, SplitMix64(shape_salt));
    const auto fused = build_flood_block(a, reg, mf, mg, d, true);
    const auto per_index = build_flood_block(b, reg, mf, mg, d, false);
    ASSERT_EQ(fused.loops, per_index.loops);
    run_serial(fused);
    run_serial(per_index);
    const std::string what = "seed " + std::to_string(seed) + " trial " +
                             std::to_string(t) + " masks " +
                             std::to_string(mf) + "/" + std::to_string(mg) +
                             "\n" + fused.describe();
    EXPECT_TRUE(same_bytes(a.u, b.u)) << what;

    (order == StorageOrder::kRowMajor ? row_major : col_major) = true;
    const Rank inner = fused.loops.order[R - 1];
    if (is_flooded(mf, inner) || is_flooded(mg, inner)) flooded_inner = true;
    for (Rank level = 0; level + 1 < R; ++level) {
      const Rank k = fused.loops.order[level];
      if (is_flooded(mf, k) || is_flooded(mg, k)) flooded_outer = true;
    }
    for (Rank level = 0; level < R; ++level) {
      if (fused.loops.step[fused.loops.order[level]] > 0) continue;
      (level == R - 1 ? neg_inner : neg_outer) = true;
    }
  }
  EXPECT_TRUE(row_major && col_major);
  EXPECT_TRUE(flooded_inner && flooded_outer);
  EXPECT_TRUE(neg_inner && neg_outer);
}

TEST(FloodScan, FusedMatchesPerIndexEvalBytewise2d) { run_block_sweep<2>(160); }
TEST(FloodScan, FusedMatchesPerIndexEvalBytewise3d) { run_block_sweep<3>(80); }

TEST(FloodScan, SymbolVectorsReproduceAMaterialisedMatrix) {
  // The Smith-Waterman shape: S(i,j) = a_i == b_j ? 2 : -1, read once from
  // a materialised S and once through two flood vectors.
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    const Region<2> all({{0, 0}}, {{9, 12}});
    const Region<2> cells({{1, 1}}, {{9, 12}});
    DenseArray<Real, 2> h1("h1", all, order), h2("h2", all, order),
        s("s", all, order), sa("sa", Region<2>({{0, 0}}, {{9, 0}}), order),
        sb("sb", Region<2>({{0, 0}}, {{0, 12}}), order);
    auto a_sym = [](Coord i) { return Real((i * 7) % 3); };
    auto b_sym = [](Coord j) { return Real((j * 5) % 3); };
    sa.fill_fn([&](const Idx<2>& i) { return a_sym(i.v[0]); });
    sb.fill_fn([&](const Idx<2>& i) { return b_sym(i.v[1]); });
    s.fill_fn([&](const Idx<2>& i) {
      return a_sym(i.v[0]) == b_sym(i.v[1]) ? 2.0 : -1.0;
    });
    run_serial(scan(cells, h1 <<= max_e(0.0, max_e(prime(h1, kNorthWest) + s,
                                                   prime(h1, kNorth) - 1.0)))
                   .compile());
    run_serial(
        scan(cells,
             h2 <<= max_e(0.0, max_e(prime(h2, kNorthWest) +
                                         select_e(eq_e(flood(sa, {1}),
                                                       flood(sb, {0})),
                                                  2.0, -1.0),
                                     prime(h2, kNorth) - 1.0)))
            .compile());
    EXPECT_TRUE(same_bytes(h1, h2));
  }
}

// ---------------------------------------------------------------------------
// What the compiler concludes about a flood

TEST(FloodCompile, ContributesNoHaloAndNoWaveFace) {
  const Region<2> all({{0, 0}}, {{8, 8}});
  const Region<2> cells({{1, 1}}, {{8, 8}});
  DenseArray<Real, 2> h("h", all), sa("sa", Region<2>({{0, 0}}, {{8, 0}})),
      sb("sb", Region<2>({{0, 0}}, {{0, 8}}));
  const auto plan =
      scan(cells, h <<= prime(h, kNorthWest) + flood(sa, {1}) * flood(sb, {0}))
          .compile();
  for (const DenseArray<Real, 2>* a : {&sa, &sb}) {
    const ArrayUse<2>* use = plan.find_use(a->id());
    ASSERT_NE(use, nullptr) << a->name();
    EXPECT_FALSE(use->written);
    EXPECT_FALSE(use->primed_read);
    EXPECT_EQ(use->halo, Idx<2>{}) << a->name();
    EXPECT_EQ(use->prime_halo, Idx<2>{}) << a->name();
    EXPECT_EQ(use->wave_depth, 0) << a->name();
  }
  ASSERT_EQ(plan.wave_arrays().size(), 1u);
  EXPECT_EQ(plan.wave_arrays()[0].array, &h);
  // Only h's primed read constrains the loop nest.
  EXPECT_EQ(plan.constraints.size(), 1u);
}

TEST(FloodCompile, WrittenFloodArrayIsALegalityError) {
  const Region<2> reg({{0, 0}}, {{5, 5}});
  DenseArray<Real, 2> u("u", reg), f("f", Region<2>({{0, 0}}, {{5, 0}}));
  try {
    scan(reg, u <<= prime(u, kNorth) + flood(f, {1}), f <<= 2.0 * u)
        .compile();
    FAIL() << "expected LegalityError";
  } catch (const LegalityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("also written"), std::string::npos) << what;
    EXPECT_NE(what.find("read-only"), std::string::npos) << what;
  }
}

TEST(FloodCompile, PrimedFloodArrayIsALegalityError) {
  const Region<2> reg({{0, 0}}, {{5, 5}});
  DenseArray<Real, 2> u("u", reg), f("f", Region<2>({{0, 0}}, {{5, 0}}));
  try {
    scan(reg, u <<= prime(u, kNorth) + prime(f, kNorth) + flood(f, {1}))
        .compile();
    FAIL() << "expected LegalityError";
  } catch (const LegalityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("also primed"), std::string::npos) << what;
    EXPECT_NE(what.find("read-only"), std::string::npos) << what;
  }
}

TEST(FloodCompile, UnderAllocatedFloodVectorIsAContractError) {
  const Region<2> all({{0, 0}}, {{6, 6}});
  const Region<2> cells({{1, 1}}, {{6, 6}});
  DenseArray<Real, 2> h("h", all);
  // sa misses row 6 of the scan region; sb covers every column.
  DenseArray<Real, 2> sa("sa", Region<2>({{0, 0}}, {{5, 0}})),
      sb("sb", Region<2>({{0, 0}}, {{0, 6}}));
  const auto plan = scan(cells, h <<= prime(h, kNorth) + flood(sa, {1}) +
                                      flood(sb, {0}))
                        .compile();
  try {
    run_serial(plan);
    FAIL() << "expected ContractError";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("'sa'"), std::string::npos)
        << e.what();
  }
  // The flooded dimension needs no coverage: sb's single row 0 lies
  // outside the scan rows [1..6], and a full-height sa passes.
  DenseArray<Real, 2> sa_full("sa", Region<2>({{1, 3}}, {{6, 3}}));
  EXPECT_NO_THROW(run_serial(scan(cells, h <<= prime(h, kNorth) +
                                              flood(sa_full, {1}) +
                                              flood(sb, {0}))
                                 .compile()));
}

}  // namespace
}  // namespace wavepipe
