// Expression templates for wavepipe array statements.
//
// This is the embedded analogue of ZPL's array expressions:
//
//   ZPL:      r  = aa * d'@north;
//   wavepipe: r <<= aa * prime(d, north);
//
//   ZPL:      d  = 1.0 / (dd - aa@north * r);
//   wavepipe: d <<= 1.0 / (dd - at(aa, north) * r);
//
// `at(a, dir)` is the @ (shift) operator; `prime(a, dir)` is the paper's
// prime operator applied to a shifted reference. Plain array operands are
// unshifted references. Expressions record every access's (array,
// direction, primed) triple, from which scan blocks derive wavefront
// summary vectors, legality, and loop structure.
//
// Every node evaluates two ways. eval(i) computes one index from scratch
// (the reference semantics). cursor(start, inner, step) binds the node to a
// pencil — the run start, start + step*e_inner, ... — once, and returns a
// callable c with c(k) == eval(start + k*step*e_inner): array leaves turn
// into a base pointer and a fixed element stride, so an executor's inner
// loop is plain strided loads and the node's arithmetic, with no index
// arithmetic. Cursors read through the array on every call (nothing is
// cached), so a primed read of the left-hand side sees what the previous
// iteration of the same pencil stored.
#pragma once

#include <cmath>
#include <type_traits>

#include "lang/access.hh"

namespace wavepipe {

// ---------------------------------------------------------------------------
// Leaf nodes

/// A (possibly shifted, possibly primed) reference to an array.
template <Rank R>
class ArrayRef {
 public:
  static constexpr Rank rank = R;

  explicit ArrayRef(DenseArray<Real, R>& a, Direction<R> dir = {},
                    bool primed = false)
      : a_(&a), dir_(dir), primed_(primed) {}

  /// Applies an additional @-shift (shifts compose by vector addition).
  ArrayRef at(const Direction<R>& d) const {
    Direction<R> nd = dir_;
    for (Rank k = 0; k < R; ++k) nd.v[k] += d.v[k];
    return ArrayRef(*a_, nd, primed_);
  }

  /// Marks the reference primed.
  ArrayRef primed() const { return ArrayRef(*a_, dir_, true); }

  Real eval(const Idx<R>& i) const { return (*a_)(i + dir_); }

  auto cursor(const Idx<R>& start, Rank inner, Coord step) const {
    const Real* p = &(*a_)(start + dir_);
    const Coord s = a_->stride(inner) * step;
    return [p, s](Coord k) { return p[k * s]; };
  }

  void collect(std::vector<Access<R>>& out) const {
    out.push_back(Access<R>{a_, dir_, primed_});
  }

 private:
  DenseArray<Real, R>* a_;
  Direction<R> dir_;
  bool primed_;
};

/// A scalar constant promoted into an expression.
template <Rank R>
class ScalarExpr {
 public:
  static constexpr Rank rank = R;
  explicit ScalarExpr(Real v) : v_(v) {}
  Real eval(const Idx<R>&) const { return v_; }
  auto cursor(const Idx<R>&, Rank, Coord) const {
    return [v = v_](Coord) { return v; };
  }
  void collect(std::vector<Access<R>>&) const {}

 private:
  Real v_;
};

// ---------------------------------------------------------------------------
// Expression traits

template <typename E>
struct is_wp_expr : std::false_type {};
template <Rank R>
struct is_wp_expr<ArrayRef<R>> : std::true_type {};
template <Rank R>
struct is_wp_expr<ScalarExpr<R>> : std::true_type {};

template <typename L, typename Rt, typename Op>
class BinExpr;
template <typename E, typename Op>
class UnExpr;
template <typename L, typename Rt, typename Op>
struct is_wp_expr<BinExpr<L, Rt, Op>> : std::true_type {};
template <typename E, typename Op>
struct is_wp_expr<UnExpr<E, Op>> : std::true_type {};

template <typename E>
inline constexpr bool is_wp_expr_v = is_wp_expr<std::decay_t<E>>::value;

template <typename X>
struct is_wp_array : std::false_type {};
template <Rank R>
struct is_wp_array<DenseArray<Real, R>> : std::true_type {};
template <typename X>
inline constexpr bool is_wp_array_v = is_wp_array<std::decay_t<X>>::value;

/// An operand an operator accepts: expression, array, or arithmetic scalar.
template <typename X>
inline constexpr bool is_wp_operand_v =
    is_wp_expr_v<X> || is_wp_array_v<X> ||
    std::is_arithmetic_v<std::decay_t<X>>;

/// Rank carried by an operand (arrays and expressions only).
template <typename X>
struct wp_rank_of {
  static constexpr Rank value = std::decay_t<X>::rank;
};
template <Rank R>
struct wp_rank_of<DenseArray<Real, R>> {
  static constexpr Rank value = R;
};

template <typename A, typename B>
constexpr Rank operand_rank() {
  if constexpr (is_wp_expr_v<A> || is_wp_array_v<A>)
    return wp_rank_of<std::decay_t<A>>::value;
  else
    return wp_rank_of<std::decay_t<B>>::value;
}

/// Normalizes an operand into an expression node of rank R.
template <Rank R, typename X>
auto make_operand(X&& x) {
  using D = std::decay_t<X>;
  if constexpr (is_wp_expr_v<D>) {
    return x;  // already an expression (copied; nodes are small)
  } else if constexpr (is_wp_array_v<D>) {
    return ArrayRef<R>(const_cast<DenseArray<Real, R>&>(x));
  } else {
    static_assert(std::is_arithmetic_v<D>);
    return ScalarExpr<R>(static_cast<Real>(x));
  }
}

// ---------------------------------------------------------------------------
// Interior nodes

template <typename L, typename Rt, typename Op>
class BinExpr {
 public:
  static constexpr Rank rank = L::rank;
  static_assert(L::rank == Rt::rank, "operand ranks must match");

  BinExpr(L l, Rt r) : l_(std::move(l)), r_(std::move(r)) {}

  Real eval(const Idx<rank>& i) const { return Op::apply(l_.eval(i), r_.eval(i)); }

  auto cursor(const Idx<rank>& start, Rank inner, Coord step) const {
    return [l = l_.cursor(start, inner, step),
            r = r_.cursor(start, inner, step)](Coord k) {
      return Op::apply(l(k), r(k));
    };
  }

  void collect(std::vector<Access<rank>>& out) const {
    l_.collect(out);
    r_.collect(out);
  }

 private:
  L l_;
  Rt r_;
};

template <typename E, typename Op>
class UnExpr {
 public:
  static constexpr Rank rank = E::rank;

  explicit UnExpr(E e) : e_(std::move(e)) {}

  Real eval(const Idx<rank>& i) const { return Op::apply(e_.eval(i)); }

  auto cursor(const Idx<rank>& start, Rank inner, Coord step) const {
    return [e = e_.cursor(start, inner, step)](Coord k) {
      return Op::apply(e(k));
    };
  }

  void collect(std::vector<Access<rank>>& out) const { e_.collect(out); }

 private:
  E e_;
};

namespace ops {
struct Add { static Real apply(Real a, Real b) { return a + b; } };
struct Sub { static Real apply(Real a, Real b) { return a - b; } };
struct Mul { static Real apply(Real a, Real b) { return a * b; } };
struct Div { static Real apply(Real a, Real b) { return a / b; } };
struct Min { static Real apply(Real a, Real b) { return a < b ? a : b; } };
struct Max { static Real apply(Real a, Real b) { return a < b ? b : a; } };
struct Neg { static Real apply(Real a) { return -a; } };
struct Abs { static Real apply(Real a) { return a < 0 ? -a : a; } };
struct Sqrt { static Real apply(Real a) { return std::sqrt(a); } };
struct Exp { static Real apply(Real a) { return std::exp(a); } };
}  // namespace ops

// ---------------------------------------------------------------------------
// Builder functions (the public DSL surface)

/// Plain (unshifted, unprimed) reference.
template <Rank R>
ArrayRef<R> ref(DenseArray<Real, R>& a) {
  return ArrayRef<R>(a);
}

/// The @ operator: reference shifted by a direction.
template <Rank R>
ArrayRef<R> at(DenseArray<Real, R>& a, const Direction<R>& d) {
  return ArrayRef<R>(a, d, false);
}

/// The prime operator applied to a shifted reference: a'@d.
template <Rank R>
ArrayRef<R> prime(DenseArray<Real, R>& a, const Direction<R>& d) {
  return ArrayRef<R>(a, d, true);
}

/// The prime operator alone; shift it afterwards: prime(a).at(d).
template <Rank R>
ArrayRef<R> prime(DenseArray<Real, R>& a) {
  return ArrayRef<R>(a, {}, true);
}

template <typename L, typename Rt, typename Op>
BinExpr<L, Rt, Op> make_bin(L l, Rt r, Op) {
  return BinExpr<L, Rt, Op>(std::move(l), std::move(r));
}

#define WAVEPIPE_BINARY_OP(symbol, op_type)                                  \
  template <typename A, typename B>                                         \
    requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&                    \
             (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||     \
              is_wp_array_v<B>))                                            \
  auto operator symbol(const A& a, const B& b) {                            \
    constexpr Rank R = operand_rank<A, B>();                                \
    return make_bin(make_operand<R>(a), make_operand<R>(b), op_type{});     \
  }

WAVEPIPE_BINARY_OP(+, ops::Add)
WAVEPIPE_BINARY_OP(-, ops::Sub)
WAVEPIPE_BINARY_OP(*, ops::Mul)
WAVEPIPE_BINARY_OP(/, ops::Div)
#undef WAVEPIPE_BINARY_OP

template <typename A, typename B>
  requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||
            is_wp_array_v<B>))
auto min_e(const A& a, const B& b) {
  constexpr Rank R = operand_rank<A, B>();
  return make_bin(make_operand<R>(a), make_operand<R>(b), ops::Min{});
}

template <typename A, typename B>
  requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||
            is_wp_array_v<B>))
auto max_e(const A& a, const B& b) {
  constexpr Rank R = operand_rank<A, B>();
  return make_bin(make_operand<R>(a), make_operand<R>(b), ops::Max{});
}

/// Element-wise selection (ZPL's masked computation, expression form):
/// cond > 0 picks `a`, otherwise `b`.
template <typename C, typename L, typename Rt>
class SelectExpr {
 public:
  static constexpr Rank rank = C::rank;
  static_assert(C::rank == L::rank && L::rank == Rt::rank);

  SelectExpr(C c, L l, Rt r)
      : c_(std::move(c)), l_(std::move(l)), r_(std::move(r)) {}

  Real eval(const Idx<rank>& i) const {
    return c_.eval(i) > 0.0 ? l_.eval(i) : r_.eval(i);
  }

  auto cursor(const Idx<rank>& start, Rank inner, Coord step) const {
    return [c = c_.cursor(start, inner, step), l = l_.cursor(start, inner, step),
            r = r_.cursor(start, inner, step)](Coord k) {
      return c(k) > 0.0 ? l(k) : r(k);
    };
  }

  void collect(std::vector<Access<rank>>& out) const {
    c_.collect(out);
    l_.collect(out);
    r_.collect(out);
  }

 private:
  C c_;
  L l_;
  Rt r_;
};

template <typename C, typename L, typename Rt>
struct is_wp_expr<SelectExpr<C, L, Rt>> : std::true_type {};

/// select_e(cond, a, b): where cond > 0 take a, else b.
template <typename C, typename A, typename B>
  requires(is_wp_operand_v<C> && is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<C> || is_wp_array_v<C> || is_wp_expr_v<A> ||
            is_wp_array_v<A> || is_wp_expr_v<B> || is_wp_array_v<B>))
auto select_e(const C& c, const A& a, const B& b) {
  constexpr Rank R = [] {
    if constexpr (is_wp_expr_v<C> || is_wp_array_v<C>)
      return wp_rank_of<std::decay_t<C>>::value;
    else
      return operand_rank<A, B>();
  }();
  return SelectExpr(make_operand<R>(c), make_operand<R>(a), make_operand<R>(b));
}

template <typename E, typename Op>
UnExpr<E, Op> make_un(E e, Op) {
  return UnExpr<E, Op>(std::move(e));
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto operator-(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Neg{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto abs_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Abs{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto sqrt_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Sqrt{});
}

template <typename A>
  requires(is_wp_expr_v<A> || is_wp_array_v<A>)
auto exp_e(const A& a) {
  constexpr Rank R = wp_rank_of<std::decay_t<A>>::value;
  return make_un(make_operand<R>(a), ops::Exp{});
}

}  // namespace wavepipe
