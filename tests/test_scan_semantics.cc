// The paper's Fig 3 golden semantics: array statements with and without the
// prime operator, and the Fig 2 Tomcatv scan block against a hand-coded
// Fortran-style loop nest.
#include <gtest/gtest.h>

#include "exec/serial.hh"
#include "exec/unfused.hh"

namespace wavepipe {
namespace {

// Fig 3(a)/(d): arrays over [1..n, 1..n], statement over [2..n, 1..n].
class Fig3 : public ::testing::Test {
 protected:
  static constexpr Coord n = 5;
  Fig3() : a_("a", Region<2>({{1, 1}}, {{n, n}})) { a_.fill(1.0); }
  DenseArray<Real, 2> a_;
  const Region<2> region_{{{2, 1}}, {{n, n}}};
};

TEST_F(Fig3, UnprimedReferenceKeepsArraySemantics) {
  // [2..n,1..n] a := 2 * a@north — every element sees the OLD northern
  // value, so the result is all 2s below the first row (Fig 3(c)).
  auto plan = scan(region_, a_ <<= 2.0 * at(a_, kNorth)).compile();
  EXPECT_FALSE(plan.has_wavefront());
  EXPECT_EQ(plan.loops.step[0], -1);  // i-loop from high to low (Fig 3(b))
  run_serial(plan);
  for (Coord j = 1; j <= n; ++j) {
    EXPECT_DOUBLE_EQ(a_(1, j), 1.0);
    for (Coord i = 2; i <= n; ++i) EXPECT_DOUBLE_EQ(a_(i, j), 2.0);
  }
}

TEST_F(Fig3, PrimedReferenceCarriesTrueDependence) {
  // [2..n,1..n] a := 2 * a'@north — each row doubles the NEW value above:
  // rows become 1, 2, 4, 8, 16 (Fig 3(f)).
  auto plan = scan(region_, a_ <<= 2.0 * prime(a_, kNorth)).compile();
  ASSERT_TRUE(plan.has_wavefront());
  EXPECT_EQ(plan.wdim(), 0u);
  EXPECT_EQ(plan.travel(), +1);
  EXPECT_EQ(plan.loops.step[0], +1);  // i-loop from low to high (Fig 3(e))
  run_serial(plan);
  Real expect = 1.0;
  for (Coord i = 1; i <= n; ++i) {
    for (Coord j = 1; j <= n; ++j) EXPECT_DOUBLE_EQ(a_(i, j), expect);
    expect *= 2.0;
  }
}

TEST_F(Fig3, UnfusedExecutorAgreesOnBothCases) {
  DenseArray<Real, 2> b("b", Region<2>({{1, 1}}, {{n, n}}));

  b.fill(1.0);
  a_.fill(1.0);
  auto plan_unprimed = scan(region_, a_ <<= 2.0 * at(a_, kNorth)).compile();
  auto plan_b = scan(region_, b <<= 2.0 * at(b, kNorth)).compile();
  run_serial(plan_unprimed);
  run_unfused(plan_b);
  EXPECT_DOUBLE_EQ(max_abs_difference(a_, b), 0.0);

  b.fill(1.0);
  a_.fill(1.0);
  auto plan_primed = scan(region_, a_ <<= 2.0 * prime(a_, kNorth)).compile();
  auto plan_bp = scan(region_, b <<= 2.0 * prime(b, kNorth)).compile();
  run_serial(plan_primed);
  run_unfused(plan_bp);
  EXPECT_DOUBLE_EQ(max_abs_difference(a_, b), 0.0);
}

// The Fig 2(b) Tomcatv fragment against a direct transliteration of the
// Fig 1(a) Fortran 77 loop nest.
TEST(Fig2, TomcatvScanBlockMatchesFortranLoops) {
  const Coord n = 12;
  const Region<2> all({{1, 1}}, {{n, n}});
  const Region<2> scan_region({{2, 2}}, {{n - 1, n - 2}});  // [2..n-1,2..n-2]

  auto init = [n](DenseArray<Real, 2>& arr, Real scale, Real offset) {
    arr.fill_fn([=](const Idx<2>& i) {
      return offset + scale * std::sin(0.13 * static_cast<Real>(i.v[0]) +
                                       0.29 * static_cast<Real>(i.v[1]));
    });
  };

  DenseArray<Real, 2> aa("aa", all), dd("dd", all), d("d", all), r("r", all),
      rx("rx", all), ry("ry", all);
  init(aa, 0.2, -1.0);
  init(dd, 0.3, 4.0);
  init(rx, 1.0, 0.0);
  init(ry, 1.0, 1.0);
  d.fill(0.25);
  r.fill(0.0);

  // Reference arrays with identical contents.
  DenseArray<Real, 2> aa2("aa2", all), dd2("dd2", all), d2("d2", all),
      r2("r2", all), rx2("rx2", all), ry2("ry2", all);
  init(aa2, 0.2, -1.0);
  init(dd2, 0.3, 4.0);
  init(rx2, 1.0, 0.0);
  init(ry2, 1.0, 1.0);
  d2.fill(0.25);
  r2.fill(0.0);

  // DSL version (Fig 2(b)) — note [i,j] here corresponds to the Fortran's
  // (j,i): the wavefront runs over the first region dimension.
  auto plan = scan(scan_region,
                   r <<= aa * prime(d, kNorth),
                   d <<= 1.0 / (dd - at(aa, kNorth) * r),
                   rx <<= rx - prime(rx, kNorth) * r,
                   ry <<= ry - prime(ry, kNorth) * r)
                  .compile();
  run_serial(plan);

  // Fortran 77 version (Fig 1(a)): DO i / DO j with explicit recurrences.
  for (Coord i = 2; i <= n - 1; ++i) {
    for (Coord j = 2; j <= n - 2; ++j) {
      const Real rr = aa2(i, j) * d2(i - 1, j);
      r2(i, j) = rr;
      d2(i, j) = 1.0 / (dd2(i, j) - aa2(i - 1, j) * rr);
      rx2(i, j) = rx2(i, j) - rx2(i - 1, j) * rr;
      ry2(i, j) = ry2(i, j) - ry2(i - 1, j) * rr;
    }
  }

  EXPECT_LT(max_abs_difference(d, d2), 1e-14);
  EXPECT_LT(max_abs_difference(rx, rx2), 1e-14);
  EXPECT_LT(max_abs_difference(ry, ry2), 1e-14);
  EXPECT_LT(max_abs_difference(r, r2), 1e-14);
}

TEST(ScanBlock, MultiStatementPrimedCrossReference) {
  // Primed references see values written by ANY statement of the block in
  // earlier iterations: b reads a' even though a is written by the other
  // statement.
  const Coord n = 6;
  DenseArray<Real, 2> a("a", Region<2>({{1, 1}}, {{n, n}}));
  DenseArray<Real, 2> b("b", Region<2>({{1, 1}}, {{n, n}}));
  a.fill(1.0);
  b.fill(0.0);
  const Region<2> reg({{2, 1}}, {{n, n}});
  auto plan = scan(reg,
                   a <<= b + 1.0,               // row i: a = b(i) + 1
                   b <<= prime(a, kNorth) * 2.0)  // row i: b = 2*a(i-1) (new)
                  .compile();
  run_serial(plan);
  // Row 2: a = 0+1 = 1, b = 2*a(1) = 2. Row 3: a = b(3)_old+1 = 1,
  // b = 2*a(2) = 2 ... wait: b(i) read by statement 1 is b's OLD value at
  // row i (b is written later in the same iteration by statement 2).
  // Hand-run: row i: a(i) = b_old(i) + 1 = 1; b(i) = 2 * a_new(i-1).
  // a_new(i-1) = 1 for i-1 >= 2, a(1) = 1 initially too => b rows 2..n = 2.
  for (Coord j = 1; j <= n; ++j) {
    for (Coord i = 2; i <= n; ++i) {
      EXPECT_DOUBLE_EQ(a(i, j), 1.0);
      EXPECT_DOUBLE_EQ(b(i, j), 2.0);
    }
  }
}

TEST(ScanBlock, FusedAndFallbackPathsAgree) {
  // A block built by scan(...) has the fused pencil; the same statements
  // added via add() run through the per-index fallback. Results must match.
  const Coord n = 9;
  const Region<2> all({{1, 1}}, {{n, n}});
  const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});

  DenseArray<Real, 2> a("a", all), b("b", all);
  DenseArray<Real, 2> c("c", all), e("e", all);
  auto fill = [](DenseArray<Real, 2>& x, Real s) {
    x.fill_fn([s](const Idx<2>& i) {
      return s + 0.01 * static_cast<Real>(i.v[0] * 7 + i.v[1] * 3);
    });
  };
  fill(a, 1.0);
  fill(b, 2.0);
  fill(c, 1.0);
  fill(e, 2.0);

  auto fused = scan(reg, a <<= 0.5 * prime(a, kNorth) + b,
                    b <<= b + 0.25 * a);
  auto plan_fused = fused.compile();
  EXPECT_TRUE(static_cast<bool>(plan_fused.fused_kernel));
  run_serial(plan_fused);

  ScanBlock<2> manual(reg);
  manual.add(c <<= 0.5 * prime(c, kNorth) + e);
  manual.add(e <<= e + 0.25 * c);
  auto plan_manual = manual.compile();
  EXPECT_FALSE(static_cast<bool>(plan_manual.fused_kernel));
  run_serial(plan_manual);

  EXPECT_LT(max_abs_difference(a, c), 1e-15);
  EXPECT_LT(max_abs_difference(b, e), 1e-15);
}

}  // namespace
}  // namespace wavepipe
