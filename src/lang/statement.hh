// Array statements: the unit a scan block is built from.
//
// `lhs <<= expr` captures one array assignment as a typed StatementSpec.
// Adding a spec to a ScanBlock type-erases it into a Statement carrying the
// access metadata (for dependence analysis) and three evaluators:
//   * eval_at      — one index (reference executor, fallback paths);
//   * eval_pencil  — a 1-D run of indices along a chosen inner dimension,
//                    assigning in place;
//   * rhs_pencil   — the same run, but writing RHS values to a buffer
//                    (array-language temporary semantics, used by the
//                    unfused baseline executor of the cache study).
//
// The typed specs additionally let the variadic scan(...) builder compile a
// *fused* region kernel (run_fused) that interleaves all statements per
// index at native speed — the single-loop-nest code the paper's compiler
// generates. It binds every statement to the whole region walk once
// (expr.hh), walks the pencils stepping the bound pointers, and keeps
// carried recurrences (CarryRule) in registers — four pencils at a time,
// skewed, where the plan allows it.
#pragma once

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lang/expr.hh"

namespace wavepipe {

/// A typed statement: lhs array plus right-hand-side expression tree.
template <typename E>
struct StatementSpec {
  static constexpr Rank rank = E::rank;
  DenseArray<Real, E::rank>* lhs;
  E expr;

  /// The statement bound to a region walk (see bind() in expr.hh): b(k,
  /// q, regs) assigns step k of strip lane q (element k of the current
  /// pencil for q = 0), lhs = expr there, and returns the stored value.
  struct Bound {
    Real* out;
    std::array<Coord, rank> delta;
    Coord lane;  // lane_stride(delta)
    typename E::Bound rhs;

    template <typename Regs>
    Real operator()(Coord k, Coord q, const Regs& regs) const {
      const Real v = rhs(k, q, regs);
      out[k * delta[rank - 1] + q * lane] = v;
      return v;
    }
    void advance(Rank level) {
      out += delta[level];
      rhs.advance(level);
    }
    /// lhs one element before the pencil: what a carried read sees first.
    Real before() const { return out[-delta[rank - 1]]; }
  };

  Bound bind(const PencilWalk<rank>& w, const CarryRule<rank>& rule) const {
    const auto delta = w.deltas(*lhs);
    return {&(*lhs)(w.start), delta, lane_stride<rank>(delta),
            expr.bind(w, rule)};
  }
};

/// Calls row(m, n) for every row of `w` — the m pencils of n elements that
/// loop level R-2 steps through; one pencil when R == 1 — and, between two
/// rows, advance(level) with the loop level that steps. row() leaves the
/// walk at its last pencil, advancing level R-2 itself.
template <Rank R, typename Row, typename Advance>
void walk_rows(const PencilWalk<R>& w, Row&& row, Advance&& advance) {
  if constexpr (R == 1) {
    row(Coord{1}, w.count[0]);
  } else {
    auto level = [&]<Rank L>(auto& self, std::integral_constant<Rank, L>) {
      if constexpr (L + 2 == R) {
        row(w.count[R - 2], w.count[R - 1]);
      } else {
        for (Coord c = 1;; ++c) {
          self(self, std::integral_constant<Rank, L + 1>{});
          if (c == w.count[L]) return;
          advance(L);
        }
      }
    };
    level(level, std::integral_constant<Rank, 0>{});
  }
}

/// Calls pencil(count) for every pencil of `w` in loop order and, between
/// two pencils, advance(level) with the loop level that steps.
template <Rank R, typename Pencil, typename Advance>
void walk_pencils(const PencilWalk<R>& w, Pencil&& pencil, Advance&& advance) {
  walk_rows(
      w,
      [&](Coord m, Coord n) {
        for (Coord c = 1;; ++c) {
          pencil(n);
          if (c == m) return;
          if constexpr (R >= 2) advance(R - 2);
        }
      },
      advance);
}

/// A skewed strip's lanes, and the shortest pencil it runs: shorter
/// pencils (SWEEP3D's 6 cells) keep the one-pencil loop, which has no
/// prologue and epilogue to amortise. Fixed at compile time.
inline constexpr Coord kStripLanes = 4;
inline constexpr Coord kStripMinLength = 16;

/// The fused region kernel: runs `specs` over every pencil of `w` (none
/// when `w` is empty), interleaved per element in program order. Each
/// statement is bound once for the whole walk. When a read qualifies for a
/// register carry (CarryRule), every pencil seeds the carried statements'
/// registers from memory — the element before the pencil, fluff or an
/// earlier tile — and then keeps each carried value in a local; the loop
/// is a scalar recurrence. Otherwise every read goes to memory and the
/// loop stays vectorizable. Both give the same bytes: a carried value is
/// exactly the double the writer stored.
///
/// A carried recurrence is one dependence chain per pencil. With `strips`
/// (WavefrontPlan::strips: no read of the block crosses the skew) and
/// pencils of at least kStripMinLength elements, each row instead runs
/// kStripLanes pencils at a time as one small wavefront: at step s, lane q
/// computes element s - q of the strip's q-th pencil, lanes in ascending
/// order, so the lanes' chains overlap. A strip reads every operand from
/// memory, where the value a lane stored one step earlier is forwarded
/// to its load. Pencils left over at the end of a row run singly.
template <Rank R, typename... Es>
void run_fused(const PencilWalk<R>& w, bool strips,
               const StatementSpec<Es>&... specs) {
  constexpr std::size_t S = sizeof...(Es);
  static_assert(S <= 32, "a fused block holds at most 32 statements");
  for (const Coord c : w.count)
    if (c <= 0) return;  // an empty walk binds and seeds nothing
  const std::array<DenseArray<Real, R>*, S> lhs{specs.lhs...};
  Direction<R> back{};
  back.v[w.inner()] = -w.step[R - 1];
  unsigned used = 0;
  auto bound = [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::tuple{specs.bind(
        w, CarryRule<R>{lhs, static_cast<int>(I), back, &used})...};
  }(std::index_sequence_for<Es...>{});

  auto advance = [&bound](Rank level) {
    std::apply([level](auto&... b) { (b.advance(level), ...); }, bound);
  };
  if (used == 0) {
    walk_pencils(
        w,
        [&bound](Coord n) {
          std::apply(
              [n](const auto&... b) {
                for (Coord k = 0; k < n; ++k) (b(k, 0, NoCarry{}), ...);
              },
              bound);
        },
        advance);
    return;
  }
  auto pencil = [&bound, used](Coord n) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      CarryRegs<S> regs{};
      ((regs[I] = (used >> I) & 1u ? std::get<I>(bound).before() : 0.0),
       ...);
      for (Coord k = 0; k < n; ++k)
        ((regs[I] = std::get<I>(bound)(k, 0, regs)), ...);
    }(std::index_sequence_for<Es...>{});
  };
  if constexpr (R >= 2) {
    if (strips && w.count[R - 1] >= kStripMinLength &&
        w.count[R - 2] >= kStripLanes) {
      // Flattened: with a lane or a statement left out of line, the bound
      // pointers go through memory every cell (Tomcatv's backward block
      // ran 1.9x slower than single pencils).
      auto strip = [&bound](Coord n) __attribute__((flatten)) {
        // One step of every lane, or (guarded) of the lanes with an
        // element at step s: the first and last kStripLanes-1 steps.
        auto step = [&]<bool Guarded, std::size_t... Q>(
                        Coord s, std::bool_constant<Guarded>,
                        std::index_sequence<Q...>) {
          const auto lane = [&](Coord q) {
            if (Guarded && (s < q || s - q >= n)) return;
            std::apply([s, q](const auto&... b) { (b(s, q, NoCarry{}), ...); },
                       bound);
          };
          (lane(Coord{Q}), ...);
        };
        constexpr auto lanes =
            std::make_index_sequence<static_cast<std::size_t>(kStripLanes)>{};
        for (Coord s = 0; s < kStripLanes - 1; ++s)
          step(s, std::true_type{}, lanes);
        for (Coord s = kStripLanes - 1; s < n; ++s)
          step(s, std::false_type{}, lanes);
        for (Coord s = n; s < n + kStripLanes - 1; ++s)
          step(s, std::true_type{}, lanes);
      };
      walk_rows(
          w,
          [&](Coord m, Coord n) {
            for (Coord j = 0; j < m;) {
              if (j > 0) advance(R - 2);
              if (m - j >= kStripLanes) {
                strip(n);
                for (Coord q = 1; q < kStripLanes; ++q) advance(R - 2);
                j += kStripLanes;
              } else {
                pencil(n);
                ++j;
              }
            }
          },
          advance);
      return;
    }
  }
  walk_pencils(w, pencil, advance);
}

/// Builds a StatementSpec from `lhs <<= rhs_expression`. The operator is
/// chosen for its low precedence: `a <<= b + c * at(d, north)` parses the
/// whole right-hand side as the expression.
template <typename E>
  requires is_wp_expr_v<E>
StatementSpec<E> operator<<=(DenseArray<Real, E::rank>& lhs, const E& rhs) {
  return StatementSpec<E>{&lhs, rhs};
}

/// `a <<= b;` — whole-array copy as a statement.
template <Rank R>
StatementSpec<ArrayRef<R>> operator<<=(DenseArray<Real, R>& lhs,
                                       DenseArray<Real, R>& rhs) {
  return StatementSpec<ArrayRef<R>>{&lhs, ref(rhs)};
}

/// `a <<= fill(0.0);` — scalar fill as a statement.
template <Rank R>
StatementSpec<ScalarExpr<R>> fill_stmt(DenseArray<Real, R>& lhs, Real v) {
  return StatementSpec<ScalarExpr<R>>{&lhs, ScalarExpr<R>(v)};
}

/// The type-erased statement stored in scan blocks and plans.
template <Rank R>
struct Statement {
  DenseArray<Real, R>* lhs = nullptr;
  std::vector<Access<R>> reads;

  std::function<void(const Idx<R>&)> eval_at;
  std::function<void(Idx<R> start, Rank inner, Coord step, Coord count)>
      eval_pencil;
  std::function<void(Idx<R> start, Rank inner, Coord step, Coord count,
                     Real* out)>
      rhs_pencil;

  const std::string& lhs_name() const { return lhs->name(); }
};

/// Type-erases a spec into a Statement.
template <typename E>
Statement<E::rank> to_statement(const StatementSpec<E>& spec) {
  constexpr Rank R = E::rank;
  Statement<R> st;
  st.lhs = spec.lhs;
  spec.expr.collect(st.reads);

  DenseArray<Real, R>* lp = spec.lhs;
  E expr = spec.expr;  // captured by value: statements outlive expressions

  st.eval_at = [lp, expr](const Idx<R>& i) { (*lp)(i) = expr.eval(i); };

  st.eval_pencil = [spec](Idx<R> i, Rank inner, Coord step, Coord count) {
    run_fused(PencilWalk<R>::pencil(i, inner, step, count), false, spec);
  };

  st.rhs_pencil = [expr](Idx<R> i, Rank inner, Coord step, Coord count,
                         Real* out) {
    const auto rhs = cursor(expr, i, inner, step);
    for (Coord k = 0; k < count; ++k) out[k] = rhs(k);
  };

  return st;
}

}  // namespace wavepipe
