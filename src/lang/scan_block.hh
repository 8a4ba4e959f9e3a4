// ScanBlock: the paper's new compound statement.
//
// Statements added to a scan block may use the prime operator to reference
// values written by *any* statement of the block in earlier iterations of
// the implementing loop nest. compile() performs the static checks the
// paper lists (§2.2, "Legality"):
//
//   (i)   primed arrays must also be defined in the block;
//   (ii)  the primed directions may not over-constrain the wavefront;
//   (iii) all statements have the same rank       — enforced by the type;
//   (iv)  all statements share one covering region — enforced by
//         construction (the block carries the region);
//   (v)   parallel operators other than shift may not be primed — enforced
//         by construction (the expression language only builds shift
//         references).
//
// plus two conditions the paper leaves implicit: a primed reference must
// carry a nonzero direction, and the derived loop structure must exist.
#pragma once

#include <set>

#include "lang/plan.hh"

namespace wavepipe {

template <Rank R>
class ScanBlock {
 public:
  explicit ScanBlock(const Region<R>& region,
                     WavefrontChoice choice = WavefrontChoice::kLeftmost)
      : region_(region), choice_(choice) {
    require(!region.empty(), "scan block needs a non-empty region");
  }

  /// Adds a statement (in program order, which is preserved).
  ScanBlock& add(Statement<R> st) {
    statements_.push_back(std::move(st));
    return *this;
  }

  /// Adds a typed statement spec (`lhs <<= expr`).
  template <typename E>
  ScanBlock& add(const StatementSpec<E>& spec) {
    static_assert(E::rank == R, "statement rank must match the block");
    return add(to_statement(spec));
  }

  /// Installs the fused pencil evaluator (set by the scan(...) builder).
  void set_fused_pencil(
      std::function<void(Idx<R>, Rank, Coord, Coord)> fused) {
    fused_pencil_ = std::move(fused);
  }

  std::size_t size() const { return statements_.size(); }
  const Region<R>& region() const { return region_; }

  /// Runs the compilation pipeline and returns the executable plan.
  /// Throws LegalityError when a static check fails.
  WavefrontPlan<R> compile() const {
    require(!statements_.empty(), "scan block has no statements");

    WavefrontPlan<R> plan;
    plan.region = region_;
    plan.statements = statements_;
    plan.fused_pencil = fused_pencil_;

    // Which arrays are defined (written) in the block.
    std::set<const void*> written;
    for (const auto& st : statements_) written.insert(st.lhs->id());

    // Collect primed directions and execute-before constraints.
    std::vector<Direction<R>> primed_dirs;
    for (const auto& st : statements_) {
      for (const auto& acc : st.reads) {
        if (acc.primed) {
          if (written.count(acc.array->id()) == 0) {
            throw LegalityError("primed array '" + acc.array->name() +
                                "' is not defined in the scan block "
                                "(legality condition i)");
          }
          if (acc.dir.is_zero()) {
            throw LegalityError(
                "primed reference to '" + acc.array->name() +
                "' has a zero direction; prime references values from "
                "earlier iterations, so the direction must be nonzero");
          }
          primed_dirs.push_back(acc.dir);
          plan.constraints.push_back(execute_before_vector(acc.dir, true));
        } else if (!acc.dir.is_zero() && written.count(acc.array->id()) > 0) {
          plan.constraints.push_back(execute_before_vector(acc.dir, false));
        }
      }
    }

    // Wavefront summary vector and dimension roles.
    plan.wsv = wavefront_summary<R>(primed_dirs);
    auto analysis = analyze_wsv<R>(plan.wsv, choice_);
    if (!analysis) {
      throw LegalityError(
          "scan block is over-constrained: wavefront summary vector " +
          to_string(plan.wsv) +
          " admits no wavefront dimension (legality condition ii)");
    }
    plan.analysis = *analysis;

    // Loop structure from the unconstrained distance vectors, preferring
    // the storage-contiguous dimension innermost and forcing the loop along
    // the wavefront dimension to follow the travel direction.
    const Rank preferred_inner =
        contiguous_dim(statements_.front().lhs->order(), R);
    std::optional<LoopStructure<R>> loops;
    if (plan.has_wavefront()) {
      loops = derive_loop_structure<R>(plan.constraints, preferred_inner,
                                       plan.wdim(), plan.travel());
      if (!loops) {
        // The dependences may still admit a (non-pipelinable) loop nest
        // whose direction along the wavefront dimension disagrees with the
        // travel direction; accept it but demote the plan to serial.
        loops = derive_loop_structure<R>(plan.constraints, preferred_inner);
        if (loops) {
          plan.analysis.wavefront_dim.reset();
          plan.analysis.travel = 0;
        }
      }
    } else {
      loops = derive_loop_structure<R>(plan.constraints, preferred_inner);
    }
    if (!loops) {
      throw LegalityError(
          "scan block is over-constrained: no loop nest respects the "
          "dependences of the primed references (legality condition ii)");
    }
    plan.loops = *loops;

    // Halo widths and inflow sizing.
    build_array_uses(plan);
    if (plan.has_wavefront()) {
      const Rank w = plan.wdim();
      for (const auto& d : primed_dirs) {
        plan.inflow_depth = std::max<Coord>(plan.inflow_depth,
                                            d.v[w] < 0 ? -d.v[w] : d.v[w]);
        for (Rank k = 0; k < R; ++k) {
          if (k == w) continue;
          plan.lateral_halo = std::max<Coord>(plan.lateral_halo,
                                              d.v[k] < 0 ? -d.v[k] : d.v[k]);
        }
      }
      // Per-array wave-face depth: max |d_w| over primed reads of it.
      for (const auto& st : statements_) {
        for (const auto& acc : st.reads) {
          if (!acc.primed) continue;
          const Coord mag = acc.dir.v[w] < 0 ? -acc.dir.v[w] : acc.dir.v[w];
          for (auto& u : plan.arrays) {
            if (u.array->id() == acc.array->id())
              u.wave_depth = std::max(u.wave_depth, mag);
          }
        }
      }
    }
    return plan;
  }

 private:
  void build_array_uses(WavefrontPlan<R>& plan) const {
    auto find_or_add = [&plan](DenseArray<Real, R>* a) -> ArrayUse<R>& {
      for (auto& u : plan.arrays)
        if (u.array->id() == a->id()) return u;
      plan.arrays.push_back(ArrayUse<R>{a, false, false, {}});
      return plan.arrays.back();
    };
    for (const auto& st : statements_) {
      find_or_add(st.lhs).written = true;
      for (const auto& acc : st.reads) {
        ArrayUse<R>& use = find_or_add(acc.array);
        use.primed_read = use.primed_read || acc.primed;
        for (Rank d = 0; d < R; ++d) {
          const Coord mag = acc.dir.v[d] < 0 ? -acc.dir.v[d] : acc.dir.v[d];
          use.halo.v[d] = std::max(use.halo.v[d], mag);
          if (acc.primed)
            use.prime_halo.v[d] = std::max(use.prime_halo.v[d], mag);
        }
      }
    }
  }

  Region<R> region_;
  WavefrontChoice choice_;
  std::vector<Statement<R>> statements_;
  std::function<void(Idx<R>, Rank, Coord, Coord)> fused_pencil_;
};

/// Adds typed statement specs to `sb` and installs the fused pencil: every
/// statement bound to the pencil once, then evaluated interleaved per
/// element in program order.
template <Rank R, typename... Es>
ScanBlock<R> with_fused_pencil(ScanBlock<R> sb,
                               const StatementSpec<Es>&... specs) {
  static_assert(sizeof...(Es) > 0, "scan() needs at least one statement");
  static_assert(((Es::rank == R) && ...), "statement ranks must match");
  (sb.add(specs), ...);
  sb.set_fused_pencil(
      [specs...](Idx<R> i, Rank inner, Coord step, Coord count) {
        run_pencil(count, specs.cursor(i, inner, step)...);
      });
  return sb;
}

/// Builds a scan block from typed statement specs and installs the fused
/// pencil — the preferred way to write a block:
///
///   auto sb = scan(Rn, r <<= aa * prime(d, north),
///                      d <<= 1.0 / (dd - at(aa, north) * r));
template <Rank R, typename... Es>
ScanBlock<R> scan(const Region<R>& region, const StatementSpec<Es>&... specs) {
  return with_fused_pencil(ScanBlock<R>(region), specs...);
}

/// scan() with an explicit wavefront-dimension choice policy.
template <Rank R, typename... Es>
ScanBlock<R> scan_with_choice(const Region<R>& region, WavefrontChoice choice,
                              const StatementSpec<Es>&... specs) {
  return with_fused_pencil(ScanBlock<R>(region, choice), specs...);
}

/// Convenience for the tests and the programmer-reasoning examples of the
/// paper (§2.2, Examples 1-4): checks whether a set of primed directions is
/// legal and, if so, what the WSV and roles are — without building arrays
/// or statements.
template <Rank R>
struct WavefrontCheck {
  bool legal = false;
  std::string reason;
  Wsv<R> wsv{};
  WsvAnalysis<R> analysis{};
  LoopStructure<R> loops{};
};

template <Rank R>
WavefrontCheck<R> check_wavefront(
    const std::vector<Direction<R>>& primed_dirs,
    WavefrontChoice choice = WavefrontChoice::kLeftmost) {
  WavefrontCheck<R> out;
  out.wsv = wavefront_summary<R>(primed_dirs);
  auto analysis = analyze_wsv<R>(out.wsv, choice);
  if (!analysis) {
    out.reason = "WSV " + to_string(out.wsv) + " admits no wavefront";
    return out;
  }
  out.analysis = *analysis;
  std::vector<Udv<R>> constraints;
  for (const auto& d : primed_dirs) {
    if (d.is_zero()) {
      out.reason = "primed direction must be nonzero";
      return out;
    }
    constraints.push_back(execute_before_vector(d, true));
  }
  auto loops = derive_loop_structure<R>(constraints, R - 1);
  if (!loops) {
    out.reason = "no loop nest respects the dependences";
    return out;
  }
  out.loops = *loops;
  out.legal = true;
  return out;
}

}  // namespace wavepipe
