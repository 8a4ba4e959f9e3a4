// Pencil cursors and storage-order helpers.
//
// Cursor kernels: random scan blocks run through the fused cursor pencil
// (scan(...)) and, on a twin set of arrays, through per-index
// Statement::eval_at (the same statements added with ScanBlock::add, which
// leaves the plan without a fused pencil). Both walk the same loop nest
// with the same arithmetic, so the results must be byte-identical. The
// sweep covers both storage orders, negative loop steps (inner and outer),
// multi-statement blocks, a primed self-read of the LHS, and select/unary
// nodes.
//
// Storage-order helpers: fill_fn, for_each_pencil, copy_from,
// max_abs_difference and global_max_abs on 2D and 3D arrays in both
// orders, with negative values, offset region origins and ranks whose local
// region is empty.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <vector>

#include "exec/driver.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

std::uint64_t sweep_seed() { return test_seed(1212); }

// A pure function of (salt, index) in [lo, hi): both twins of a case, and
// the checks, recompute the same value for the same index.
template <Rank R>
Real hashed(std::uint64_t salt, const Idx<R>& i, Real lo, Real hi) {
  std::uint64_t h = salt;
  for (Rank d = 0; d < R; ++d)
    h = h * 1000003ULL + static_cast<std::uint64_t>(i.v[d] + 64);
  SplitMix64 g(h);
  return g.uniform(lo, hi);
}

template <typename T, Rank R>
bool same_bytes(const DenseArray<T, R>& a, const DenseArray<T, R>& b) {
  return a.raw().size() == b.raw().size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.raw().size() * sizeof(T)) == 0;
}

// ---------------------------------------------------------------------------
// Cursor kernels against per-index eval_at

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
    case 0:  // one statement, primed self-read of the LHS
      return make(u <<= 0.3 + 0.45 * prime(u, d0) + 0.1 * v);
    case 1:  // two statements; w is read primed before it is written
      return make(u <<= 0.5 * prime(u, d0) + 0.25 * prime(w, d1) + v,
                  w <<= w * 0.5 + 0.25 * u);
    default:  // select and unary nodes
      return make(u <<= 0.5 * select_e(v - 0.5, abs_e(prime(u, d0)),
                                       -prime(u, d1)) +
                        sqrt_e(v) * exp_e(-v) +
                        min_e(v, 0.25) - max_e(prime(u, d0), 0.1));
  }
}

// Legal primed-direction pairs; several force descending loops.
template <Rank R>
std::vector<std::pair<Direction<R>, Direction<R>>> direction_pairs();

template <>
std::vector<std::pair<Direction<2>, Direction<2>>> direction_pairs<2>() {
  return {{{{-1, 0}}, {{-1, 0}}}, {{{1, 0}}, {{1, 1}}},
          {{{0, 1}}, {{0, 1}}},   {{{0, -1}}, {{-1, -1}}},
          {{{-1, 0}}, {{0, -1}}}, {{{1, 0}}, {{0, 1}}},
          {{{-1, 1}}, {{-2, 0}}}, {{{0, 1}}, {{1, 1}}},
          {{{2, -1}}, {{1, 0}}}};
}

template <>
std::vector<std::pair<Direction<3>, Direction<3>>> direction_pairs<3>() {
  return {{{{-1, 0, 0}}, {{0, -1, 0}}},
          {{{0, 0, 1}}, {{1, 0, 1}}},
          {{{1, 1, 1}}, {{0, 1, 0}}},
          {{{0, 0, -1}}, {{0, 0, -1}}},
          {{{0, 1, 0}}, {{0, 2, -1}}}};
}

struct Coverage {
  bool row_major = false, col_major = false;
  bool neg_inner = false, neg_outer = false;
};

template <Rank R>
void run_cursor_sweep(int trials, Coverage& seen) {
  const std::uint64_t seed = sweep_seed();
  SplitMix64 rng(seed + R);
  const auto pairs = direction_pairs<R>();
  for (int t = 0; t < trials; ++t) {
    const StorageOrder order =
        rng.bernoulli(0.5) ? StorageOrder::kRowMajor : StorageOrder::kColMajor;
    const int shape = static_cast<int>(rng.uniform_int(0, 2));
    const auto& [d0, d1] =
        pairs[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(pairs.size()) - 1))];
    // Arrays over an offset box; the block stays 2 cells inside it so
    // every shift of the pool reads allocated memory.
    Idx<R> lo{}, hi{};
    for (Rank d = 0; d < R; ++d) {
      lo.v[d] = rng.uniform_int(-4, 4);
      hi.v[d] = lo.v[d] + rng.uniform_int(R == 2 ? 6 : 5, R == 2 ? 13 : 8);
    }
    const Region<R> all(lo, hi);
    Idx<R> rlo = lo, rhi = hi;
    for (Rank d = 0; d < R; ++d) {
      rlo.v[d] += 2;
      rhi.v[d] -= 2;
    }
    const Region<R> reg(rlo, rhi);
    const std::uint64_t salt = rng.next();

    Arrays<R> a(all, order, salt), b(all, order, salt);
    const auto fused = build<R>(shape, a, reg, d0, d1, true);
    const auto per_index = build<R>(shape, b, reg, d0, d1, false);
    ASSERT_TRUE(static_cast<bool>(fused.fused_pencil));
    ASSERT_FALSE(static_cast<bool>(per_index.fused_pencil));
    ASSERT_EQ(fused.loops, per_index.loops);
    run_serial(fused);
    run_serial(per_index);

    const std::string what = "seed " + std::to_string(seed) + " rank " +
                             std::to_string(R) + " trial " +
                             std::to_string(t) + " shape " +
                             std::to_string(shape) + "\n" + fused.describe();
    EXPECT_TRUE(same_bytes(a.u, b.u)) << what;
    EXPECT_TRUE(same_bytes(a.w, b.w)) << what;
    EXPECT_TRUE(same_bytes(a.v, b.v)) << what;

    (order == StorageOrder::kRowMajor ? seen.row_major : seen.col_major) =
        true;
    for (Rank level = 0; level < R; ++level) {
      if (fused.loops.step[fused.loops.order[level]] > 0) continue;
      (level == R - 1 ? seen.neg_inner : seen.neg_outer) = true;
    }
  }
}

TEST(PencilCursor, ScanBlocksMatchPerIndexEvalBytewise2d) {
  Coverage seen;
  run_cursor_sweep<2>(160, seen);
  EXPECT_TRUE(seen.row_major && seen.col_major);
  EXPECT_TRUE(seen.neg_inner);
  EXPECT_TRUE(seen.neg_outer);
}

TEST(PencilCursor, ScanBlocksMatchPerIndexEvalBytewise3d) {
  Coverage seen;
  run_cursor_sweep<3>(60, seen);
  EXPECT_TRUE(seen.row_major && seen.col_major);
  EXPECT_TRUE(seen.neg_inner);
  EXPECT_TRUE(seen.neg_outer);
}

TEST(PencilCursor, CursorMatchesEvalAlongNegativeStrides) {
  // Every node's cursor at element k equals eval at start + k*step*e_inner.
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    Arrays<2> x(Region<2>({{-2, 3}}, {{7, 11}}), order, 99);
    const auto e = select_e(x.v - 0.5, abs_e(at(x.u, kNorth)),
                            -prime(x.w, kSouthEast)) /
                   (1.0 + x.v);
    for (Rank inner : {Rank{0}, Rank{1}}) {
      for (Coord step : {Coord{1}, Coord{-1}}) {
        const Idx<2> start{{step > 0 ? -1 : 6, step > 0 ? 4 : 10}};
        const auto c = e.cursor(start, inner, step);
        Idx<2> i = start;
        for (Coord k = 0; k < 6; ++k, i.v[inner] += step)
          EXPECT_EQ(c(k), e.eval(i)) << "inner " << inner << " step " << step;
      }
    }
  }
}

TEST(PencilCursor, ApplyStatementKeepsArraySemantics) {
  // apply_statement's cursor pencils against per-index evaluation of the
  // old values, with (self-read at a shift) and without a temporary.
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    const Region<2> all({{-3, 2}}, {{6, 12}});
    const Region<2> reg({{-2, 3}}, {{5, 11}});
    Arrays<2> x(all, order, 7), y(all, order, 7);
    const auto with_temp = x.u <<= 0.5 * at(x.u, kEast) + at(x.u, kNorth) * x.v;
    const auto no_temp = x.w <<= 2.0 * x.v + at(x.v, kSouthWest);
    apply_statement(reg, with_temp);
    apply_statement(reg, no_temp);
    const auto ref_u = y.u <<= 0.5 * at(y.u, kEast) + at(y.u, kNorth) * y.v;
    const auto ref_w = y.w <<= 2.0 * y.v + at(y.v, kSouthWest);
    std::vector<Real> rhs;
    for_each(reg, [&](const Idx<2>& i) { rhs.push_back(ref_u.expr.eval(i)); });
    std::size_t k = 0;
    for_each(reg, [&](const Idx<2>& i) { y.u(i) = rhs[k++]; });
    for_each(reg, [&](const Idx<2>& i) { y.w(i) = ref_w.expr.eval(i); });
    EXPECT_TRUE(same_bytes(x.u, y.u));
    EXPECT_TRUE(same_bytes(x.w, y.w));
  }
}

// ---------------------------------------------------------------------------
// Storage-order helpers

template <Rank R>
void check_fill_fn(const Region<R>& box, StorageOrder order) {
  DenseArray<Real, R> a("a", box, order);
  std::vector<Idx<R>> visits;
  a.fill_fn([&](const Idx<R>& i) {
    visits.push_back(i);
    return hashed(5, i, -3.0, 2.0);
  });
  // Storage order: the k-th call writes raw()[k].
  ASSERT_EQ(visits.size(), a.raw().size());
  for (std::size_t k = 0; k < visits.size(); ++k)
    ASSERT_EQ(a.offset(visits[k]), k) << to_string(visits[k]);
  // Same values as a per-index fill.
  DenseArray<Real, R> b("b", box, order);
  for_each(box, [&](const Idx<R>& i) { b(i) = hashed(5, i, -3.0, 2.0); });
  EXPECT_TRUE(same_bytes(a, b));
}

TEST(StorageOrder, FillFnWritesEachElementInMemoryOrder) {
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    check_fill_fn(Region<1>({{-4}}, {{9}}), order);
    check_fill_fn(Region<2>({{-3, 7}}, {{4, 12}}), order);
    check_fill_fn(Region<3>({{2, -5, 1}}, {{5, -1, 7}}), order);
  }
}

TEST(StorageOrder, PencilsTileASubRegionInMemoryOrder) {
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    const DenseArray<Real, 3> a("a", Region<3>({{-2, 0, 3}}, {{4, 5, 9}}), order);
    const Region<3> sub({{-1, 2, 4}}, {{3, 4, 6}});
    std::size_t elements = 0;
    std::size_t last = 0;
    a.for_each_pencil(sub, [&](const Idx<3>& start, Coord count) {
      EXPECT_EQ(count, sub.extent(contiguous_dim(order, 3)));
      EXPECT_TRUE(sub.contains(start));
      if (elements > 0) {
        EXPECT_GT(a.offset(start), last);
      }
      last = a.offset(start);
      elements += static_cast<std::size_t>(count);
    });
    EXPECT_EQ(elements, static_cast<std::size_t>(sub.size()));
    int calls = 0;
    a.for_each_pencil(Region<3>(), [&](const Idx<3>&, Coord) { ++calls; });
    EXPECT_EQ(calls, 0);
  }
}

TEST(StorageOrder, CopyAndDifferenceAcrossOrders) {
  const Region<2> box({{-3, 2}}, {{5, 9}});
  const Region<2> where({{-1, 3}}, {{4, 7}});
  DenseArray<Real, 2> row("row", box, StorageOrder::kRowMajor);
  DenseArray<Real, 2> col("col", box, StorageOrder::kColMajor);
  auto f = [](const Idx<2>& i) { return hashed(11, i, -2.0, 2.0); };
  col.fill_fn(f);
  row.fill(-7.0);
  row.copy_from(col, where);
  for_each(box, [&](const Idx<2>& i) {
    EXPECT_EQ(row(i), where.contains(i) ? f(i) : -7.0) << to_string(i);
  });
  // Largest gap, seen from either side and either order.
  Real expect = 0.0;
  for_each(box, [&](const Idx<2>& i) {
    const Real d = row(i) < col(i) ? col(i) - row(i) : row(i) - col(i);
    if (d > expect) expect = d;
  });
  DenseArray<Real, 2> col2("col2", box, StorageOrder::kColMajor);
  col2.copy_from(row, box);
  EXPECT_EQ(max_abs_difference(row, col), expect);
  EXPECT_EQ(max_abs_difference(col, row), expect);
  EXPECT_EQ(max_abs_difference(col2, col), expect);
  EXPECT_EQ(max_abs_difference(col2, row), 0.0);
}

template <Rank R>
void check_global_max_abs(const Region<R>& global, const ProcGrid<R>& grid,
                          const Region<R>& region, StorageOrder order) {
  const Layout<R> layout(global, grid, Idx<R>{});
  auto f = [](const Idx<R>& i) { return hashed(17, i, -4.0, 3.0); };
  Real expect = 0.0;
  for_each(region, [&](const Idx<R>& i) {
    const Real v = f(i) < 0 ? -f(i) : f(i);
    if (v > expect) expect = v;
  });
  ASSERT_GT(expect, 0.0);
  int empty_ranks = 0;
  std::mutex mu;
  Machine::run(grid.size(), {}, [&](Communicator& comm) {
    DenseArray<Real, R> a("a", layout.allocated(comm.rank()), order);
    a.fill_fn(f);
    if (region.intersect(layout.owned(comm.rank())).empty()) {
      std::lock_guard<std::mutex> l(mu);
      ++empty_ranks;
    }
    EXPECT_EQ(global_max_abs(a, region, layout, comm), expect);
  });
  EXPECT_GT(empty_ranks, 0);
}

TEST(StorageOrder, GlobalMaxAbsWithEmptyLocalRegions) {
  for (StorageOrder order : {StorageOrder::kRowMajor, StorageOrder::kColMajor}) {
    // Only rank 0's rows intersect the region: ranks 1..3 reduce nothing.
    check_global_max_abs(Region<2>({{-3, 4}}, {{12, 13}}),
                         ProcGrid<2>::along_dim(4, 0),
                         Region<2>({{-3, 5}}, {{0, 12}}), order);
    // 3D, 2x2 grid over dims 1 and 2, region in the low half of dim 1.
    check_global_max_abs(Region<3>({{1, -2, 3}}, {{6, 5, 9}}),
                         ProcGrid<3>({1, 2, 2}),
                         Region<3>({{2, -2, 3}}, {{5, 0, 9}}), order);
  }
}

}  // namespace
}  // namespace wavepipe
