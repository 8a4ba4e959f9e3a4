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
// *fused* pencil that interleaves all statements per index at native speed
// — the single-loop-nest code the paper's compiler generates. Both pencil
// evaluators and the fused pencil run on expression cursors (expr.hh).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "lang/expr.hh"

namespace wavepipe {

/// A typed statement: lhs array plus right-hand-side expression tree.
template <typename E>
struct StatementSpec {
  static constexpr Rank rank = E::rank;
  DenseArray<Real, E::rank>* lhs;
  E expr;

  /// Binds the statement to a pencil (see the cursors of expr.hh): the
  /// returned callable assigns element k of the pencil, lhs(start +
  /// k*step*e_inner) = expr there.
  auto cursor(const Idx<rank>& start, Rank inner, Coord step) const {
    Real* out = &(*lhs)(start);
    const Coord s = lhs->stride(inner) * step;
    return [out, s, rhs = expr.cursor(start, inner, step)](Coord k) {
      out[k * s] = rhs(k);
    };
  }
};

/// Runs bound statement cursors over a pencil of `count` elements,
/// interleaved per element in the order given.
template <typename... Cs>
void run_pencil(Coord count, const Cs&... cs) {
  for (Coord k = 0; k < count; ++k) (cs(k), ...);
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
    run_pencil(count, spec.cursor(i, inner, step));
  };

  st.rhs_pencil = [expr](Idx<R> i, Rank inner, Coord step, Coord count,
                         Real* out) {
    const auto rhs = expr.cursor(i, inner, step);
    for (Coord k = 0; k < count; ++k) out[k] = rhs(k);
  };

  return st;
}

}  // namespace wavepipe
