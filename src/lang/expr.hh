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
// prime operator applied to a shifted reference; `flood(a, dims)` is a
// read-only reference to an array of extent 1 along `dims`, replicated
// along them (ZPL's flood dimensions). Plain array operands are unshifted
// references. Expressions record every access's (array, direction, primed,
// flood mask), from which scan blocks derive wavefront summary vectors,
// legality, halos and loop structure.
//
// Every node evaluates two ways. eval(i) computes one index from scratch
// (the reference semantics). bind(walk, rule) binds the node to a whole
// region walk (PencilWalk: the pencils of a region under a loop nest) once:
// array leaves turn into a base pointer plus one element stride per loop
// level, so an executor's inner loop is plain strided loads and the node's
// arithmetic, and moving to the next pencil adds one precomputed stride per
// leaf — no index arithmetic per element or per pencil. A bound node b
// reads element k of the current pencil as b(k, carries), and
// b.advance(level) moves it to the next pencil when loop `level` steps.
//
// Bound reads go to memory on every call (nothing is cached), so a primed
// read of the left-hand side sees what the previous iteration of the same
// pencil stored — except for a register carry (CarryRule): a primed read
// one step back along the pencil of an array the block writes once, at or
// after the reading statement, reads the value the writer stored last,
// held in a local by the fused kernel (statement.hh) instead of reloaded.
// cursor(e, start, inner, step) is the one-pencil, memory-only binding.
#pragma once

#include <array>
#include <cmath>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "lang/access.hh"

namespace wavepipe {

// ---------------------------------------------------------------------------
// Region walks and register carries

/// The pencils of a region under a loop nest, as a bound node sees them:
/// the first index, and per loop level (outermost first) the dimension,
/// its step (+1 or -1) and its trip count. Level R-1 is the pencil.
template <Rank R>
struct PencilWalk {
  Idx<R> start{};
  std::array<Rank, R> dim{};
  std::array<Coord, R> step{};
  std::array<Coord, R> count{};

  PencilWalk() = default;

  /// The walk over `region` in loop order `order` (outermost first) with
  /// per-dimension steps `dstep` — a LoopStructure's fields. An empty
  /// region gives a zero count.
  template <typename Step>
  PencilWalk(const Region<R>& region, const std::array<Rank, R>& order,
             const std::array<Step, R>& dstep) {
    for (Rank l = 0; l < R; ++l) {
      const Rank d = order[l];
      dim[l] = d;
      step[l] = dstep[d];
      count[l] = region.extent(d);
      start.v[d] = dstep[d] > 0 ? region.lo(d) : region.hi(d);
    }
  }

  /// The one pencil start, start + step*e_inner, ... of `count` elements.
  static PencilWalk pencil(const Idx<R>& start, Rank inner, Coord step,
                           Coord count) {
    PencilWalk w;
    w.start = start;
    Rank l = 0;
    for (Rank d = 0; d < R; ++d) {
      if (d == inner) continue;
      w.dim[l] = d;
      w.step[l] = 1;
      w.count[l++] = 1;
    }
    w.dim[R - 1] = inner;
    w.step[R - 1] = step;
    w.count[R - 1] = count;
    return w;
  }

  Rank inner() const { return dim[R - 1]; }

  /// Element offsets in `a` per loop level: [R-1] is the stride along the
  /// pencil; [l] for l < R-1 moves from the last pencil of one level-l
  /// iteration to the first pencil of the next (the odometer's jump: one
  /// step at level l, the deeper outer levels back to their start).
  /// Bit d of `frozen` marks a dimension the reference does not move along
  /// (a flood's), which contributes no offset.
  std::array<Coord, R> deltas(const DenseArray<Real, R>& a,
                              FloodMask frozen = 0) const {
    std::array<Coord, R> st{};
    for (Rank l = 0; l < R; ++l)
      st[l] = is_flooded(frozen, dim[l]) ? 0 : a.stride(dim[l]) * step[l];
    std::array<Coord, R> out{};
    out[R - 1] = st[R - 1];
    Coord rewind = 0;  // sum over deeper outer levels of (count-1)*st
    for (Rank l = R - 1; l-- > 0;) {
      out[l] = st[l] - rewind;
      rewind += (count[l] - 1) * st[l];
    }
    return out;
  }
};

/// Carry registers of a fused kernel: the value statement s stored last in
/// the current pencil sits in slot s. A memory-only evaluation passes
/// NoCarry.
struct NoCarry {};
template <std::size_t S>
using CarryRegs = std::array<Real, S>;

/// Reads slot `slot` of the registers with constant indices only, so the
/// compiler keeps them in registers.
template <std::size_t S>
Real pick(const CarryRegs<S>& regs, int slot) {
  if constexpr (S == 1) {
    return regs[0];
  } else {
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      Real v = regs[0];
      ((slot == static_cast<int>(I) ? (v = regs[I], 0) : 0), ...);
      return v;
    }(std::make_index_sequence<S>{});
  }
}

/// Which reads of a fused block a bound leaf may take from a carry
/// register instead of memory. A primed read A'@d is carried when
///   * d is -step along the pencil and zero elsewhere (element k reads
///     what the pencil stored at k-1),
///   * exactly one statement of the block writes A, and
///   * that writer is the reading statement or a later one,
/// because then the value the writer stored last in this pencil is exactly
/// A(i + d): no other statement writes A, and the writer has not yet
/// stored element k when the reader runs. (With two writers the carry
/// would have to come from the later one; the rule keeps to one.) The
/// default rule (no statements) carries nothing.
template <Rank R>
struct CarryRule {
  std::span<DenseArray<Real, R>* const> lhs;  // the block, program order
  int reader = 0;                             // statement being bound
  Direction<R> back{};                        // -step * e_inner
  unsigned* used = nullptr;                   // bit s: slot s is read

  /// The slot the read takes its value from, or -1 for memory.
  int slot(const DenseArray<Real, R>* a, const Direction<R>& dir,
           bool primed) const {
    if (!primed || dir != back) return -1;
    int writer = -1;
    for (std::size_t s = 0; s < lhs.size(); ++s) {
      if (lhs[s]->id() != a->id()) continue;
      if (writer >= 0) return -1;  // more than one writer: not carried
      writer = static_cast<int>(s);
    }
    if (writer < reader) return -1;
    *used |= 1u << writer;
    return writer;
  }
};

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

  struct Bound {
    const Real* p;
    std::array<Coord, R> delta;
    int slot;  // carry register, or -1 for memory

    template <typename Regs>
    Real operator()(Coord k, const Regs& regs) const {
      if constexpr (!std::is_same_v<Regs, NoCarry>)
        if (slot >= 0) return pick(regs, slot);
      return p[k * delta[R - 1]];
    }
    void advance(Rank level) { p += delta[level]; }
  };

  Bound bind(const PencilWalk<R>& w, const CarryRule<R>& rule) const {
    return {&(*a_)(w.start + dir_), w.deltas(*a_),
            rule.slot(a_, dir_, primed_)};
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

  struct Bound {
    Real v;
    template <typename Regs>
    Real operator()(Coord, const Regs&) const { return v; }
    void advance(Rank) {}
  };
  Bound bind(const PencilWalk<R>&, const CarryRule<R>&) const { return {v_}; }
  void collect(std::vector<Access<R>>&) const {}

 private:
  Real v_;
};

/// A flood reference: `a` has extent 1 along every flooded dimension, and
/// every index of those dimensions reads that one element — the flooded
/// coordinates clamp to a's lo. A pencil along a flooded dimension reads
/// one element over and over (stride 0); along any other dimension it is
/// an ordinary strided read. Never carried. Read-only: ScanBlock::compile rejects a block
/// that also writes or primes a flooded array.
template <Rank R>
class FloodRef {
 public:
  static constexpr Rank rank = R;

  FloodRef(DenseArray<Real, R>& a, FloodMask mask) : a_(&a), mask_(mask) {}

  Real eval(const Idx<R>& i) const { return (*a_)(clamp(i)); }

  struct Bound {
    const Real* p;
    std::array<Coord, R> delta;
    template <typename Regs>
    Real operator()(Coord k, const Regs&) const {
      return p[k * delta[R - 1]];
    }
    void advance(Rank level) { p += delta[level]; }
  };

  Bound bind(const PencilWalk<R>& w, const CarryRule<R>&) const {
    return {&(*a_)(clamp(w.start)), w.deltas(*a_, mask_)};
  }

  void collect(std::vector<Access<R>>& out) const {
    out.push_back(Access<R>{a_, {}, false, mask_});
  }

 private:
  Idx<R> clamp(Idx<R> i) const {
    for (Rank d = 0; d < R; ++d)
      if (is_flooded(mask_, d)) i.v[d] = a_->region().lo(d);
    return i;
  }

  DenseArray<Real, R>* a_;
  FloodMask mask_;
};

// ---------------------------------------------------------------------------
// Expression traits

template <typename E>
struct is_wp_expr : std::false_type {};
template <Rank R>
struct is_wp_expr<ArrayRef<R>> : std::true_type {};
template <Rank R>
struct is_wp_expr<ScalarExpr<R>> : std::true_type {};
template <Rank R>
struct is_wp_expr<FloodRef<R>> : std::true_type {};

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

  struct Bound {
    typename L::Bound l;
    typename Rt::Bound r;
    template <typename Regs>
    Real operator()(Coord k, const Regs& regs) const {
      return Op::apply(l(k, regs), r(k, regs));
    }
    void advance(Rank level) {
      l.advance(level);
      r.advance(level);
    }
  };
  Bound bind(const PencilWalk<rank>& w, const CarryRule<rank>& rule) const {
    return {l_.bind(w, rule), r_.bind(w, rule)};
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

  struct Bound {
    typename E::Bound e;
    template <typename Regs>
    Real operator()(Coord k, const Regs& regs) const {
      return Op::apply(e(k, regs));
    }
    void advance(Rank level) { e.advance(level); }
  };
  Bound bind(const PencilWalk<rank>& w, const CarryRule<rank>& rule) const {
    return {e_.bind(w, rule)};
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
struct Eq { static Real apply(Real a, Real b) { return a == b ? 1.0 : 0.0; } };
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

/// ZPL's flood: reads `a`, of extent 1 along every dimension in `dims`, at
/// every index of those dimensions. Throws ContractError when `dims` is
/// empty or names a dimension out of range or of extent other than 1.
template <Rank R>
FloodRef<R> flood(DenseArray<Real, R>& a, std::initializer_list<Rank> dims) {
  require(dims.size() > 0, "flood of '" + a.name() + "' names no dimension");
  FloodMask mask = 0;
  for (const Rank d : dims) {
    require(d < R && a.region().extent(d) == 1,
            "flood of '" + a.name() + "' along dimension " +
                std::to_string(d) + " needs extent 1 there");
    mask |= FloodMask{1} << d;
  }
  return FloodRef<R>(a, mask);
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

/// Element-wise equality: 1.0 where a == b, else 0.0 (a select_e
/// condition).
template <typename A, typename B>
  requires(is_wp_operand_v<A> && is_wp_operand_v<B> &&
           (is_wp_expr_v<A> || is_wp_array_v<A> || is_wp_expr_v<B> ||
            is_wp_array_v<B>))
auto eq_e(const A& a, const B& b) {
  constexpr Rank R = operand_rank<A, B>();
  return make_bin(make_operand<R>(a), make_operand<R>(b), ops::Eq{});
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

  struct Bound {
    typename C::Bound c;
    typename L::Bound l;
    typename Rt::Bound r;
    template <typename Regs>
    Real operator()(Coord k, const Regs& regs) const {
      return c(k, regs) > 0.0 ? l(k, regs) : r(k, regs);
    }
    void advance(Rank level) {
      c.advance(level);
      l.advance(level);
      r.advance(level);
    }
  };
  Bound bind(const PencilWalk<rank>& w, const CarryRule<rank>& rule) const {
    return {c_.bind(w, rule), l_.bind(w, rule), r_.bind(w, rule)};
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

/// Binds `e` to the one pencil start, start + step*e_inner, ... and returns
/// a callable c with c(k) == e.eval(start + k*step*e_inner), reading
/// memory only.
template <typename E>
  requires is_wp_expr_v<E>
auto cursor(const E& e, const Idx<E::rank>& start, Rank inner, Coord step) {
  constexpr Rank R = E::rank;
  return [b = e.bind(PencilWalk<R>::pencil(start, inner, step, 1),
                     CarryRule<R>{})](Coord k) { return b(k, NoCarry{}); };
}

}  // namespace wavepipe
