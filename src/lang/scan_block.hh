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
// A flood reference (expr.hh) is read-only: an array the block reads
// through one may not also be written or primed in the block. An array
// the block declares contracted (contract(), with an optional fused
// live_max()) must be written once and read only primed, never forward
// along a non-wavefront dimension (contraction_error).
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

  /// Declares `a` contracted: nothing reads its values after the block,
  /// so run_wavefront may keep a window of it instead of the whole array
  /// (DESIGN.md §21). Cells outside the scan region read as 0.
  /// compile() checks that the block allows it (see contraction_error).
  ScanBlock& contract(DenseArray<Real, R>& a) {
    contracted_.push_back({&a, false});
    return *this;
  }

  /// Declares a fused max live-out over the contracted array `a`: the
  /// executor folds max(a) over the scan region's cells per tile and
  /// reports this rank's value (WaveReport::maxima()).
  ScanBlock& live_max(DenseArray<Real, R>& a) {
    for (auto& c : contracted_) {
      if (c.array->id() != a.id()) continue;
      c.live_max = true;
      return *this;
    }
    throw LegalityError("live_max('" + a.name() +
                        "') needs the array to be contracted first");
  }

  /// Installs the fused region kernel (set by the scan(...) builder).
  void set_fused_kernel(FusedKernel<R> fused) {
    fused_kernel_ = std::move(fused);
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
    plan.fused_kernel = fused_kernel_;

    // Which arrays are defined (written) in the block, and which primed.
    std::set<const void*> written, primed;
    for (const auto& st : statements_) written.insert(st.lhs->id());
    for (const auto& st : statements_)
      for (const auto& acc : st.reads)
        if (acc.primed) primed.insert(acc.array->id());

    // Flood references read operands that stay fixed for the whole block.
    for (const auto& st : statements_) {
      for (const auto& acc : st.reads) {
        if (acc.flood == 0) continue;
        const void* id = acc.array->id();
        if (written.count(id) > 0 || primed.count(id) > 0) {
          throw LegalityError("flooded array '" + acc.array->name() +
                              "' is also " +
                              (written.count(id) > 0 ? "written" : "primed") +
                              " in the scan block; flood references are "
                              "read-only");
        }
      }
    }

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
    for (const auto& c : contracted_) {
      const std::string why = contraction_error(c.array, plan);
      if (!why.empty())
        throw LegalityError("contracted array '" + c.array->name() + "' " +
                            why);
    }
    plan.contracted = contracted_;

    // Halo widths and inflow sizing.
    build_array_uses(plan);
    plan.strips = strips_keep_order(plan);
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
  /// Why `a` may not be contracted in this block, or "" when it may. It
  /// needs exactly one writer and primed reads only: an unprimed or flood
  /// read would see values the window no longer holds, and a pre-exchange
  /// would be needed to serve it. No primed read may reach forward along
  /// a non-wavefront dimension's loop direction either: that cell can lie
  /// in a later tile, which a window one tile wide does not hold.
  std::string contraction_error(const DenseArray<Real, R>* a,
                                const WavefrontPlan<R>& plan) const {
    int declared = 0;
    for (const auto& c : contracted_) declared += c.array->id() == a->id();
    if (declared > 1) return "is declared twice";
    int writers = 0;
    for (const auto& st : statements_) {
      writers += st.lhs->id() == a->id();
      for (const auto& acc : st.reads) {
        if (acc.array->id() != a->id()) continue;
        if (acc.flood != 0) return "is flood-read";
        if (!acc.primed) {
          std::string why = "has an unprimed read at ";
          why += to_string(acc.dir);
          return why;
        }
        for (Rank d = 0; d < R; ++d) {
          if (plan.has_wavefront() && d == plan.wdim()) continue;
          if (acc.dir.v[d] * plan.loops.step[d] <= 0) continue;
          std::string why = "has a primed read at ";
          why += to_string(acc.dir);
          why += " reaching forward along dimension ";
          why += std::to_string(d);
          why += ", into a later tile";
          return why;
        }
      }
    }
    if (writers != 1) {
      std::string why = "has ";
      why += std::to_string(writers);
      why += " writers; contraction needs exactly one";
      return why;
    }
    return {};
  }

  /// Whether skewed strips (run_fused) compute every cell of a row on the
  /// same side of each cell it reads as the loop nest does. In loop
  /// coordinates — a pencils along level R-2, b elements along the pencil
  /// — a strip computes cell (q+a, e+b) before (q, e) when a+b < 0, or
  /// a+b == 0 and a < 0 (lanes ascend within a step); the loop nest when
  /// a < 0, or a == 0 and b < 0. The two disagree exactly when a and a+b
  /// have opposite signs: a primed read with a < 0 < a+b would see a value
  /// not yet stored, an unprimed one with a+b < 0 < a one already
  /// overwritten. Reads that move along an outer level reach another row,
  /// which both orders finish (or leave) whole. Every +-1 direction
  /// passes; only reads 2 or more cells along the pencil can fail.
  static bool strips_keep_order(const WavefrontPlan<R>& plan) {
    if constexpr (R < 2) {
      return false;
    } else {
      const LoopStructure<R>& ls = plan.loops;
      for (const auto& st : plan.statements) {
        for (const auto& acc : st.reads) {
          if (acc.flood != 0) continue;  // never of a written array
          const ArrayUse<R>* use = plan.find_use(acc.array->id());
          if (use == nullptr || !use->written) continue;
          bool other_row = false;
          for (Rank l = 0; l + 2 < R; ++l)
            other_row = other_row || acc.dir.v[ls.order[l]] != 0;
          if (other_row) continue;
          const Rank row = ls.order[R - 2], inner = ls.order[R - 1];
          const Coord a = acc.dir.v[row] * ls.step[row];
          const Coord ab = a + acc.dir.v[inner] * ls.step[inner];
          if ((a < 0 && ab > 0) || (a > 0 && ab < 0)) return false;
        }
      }
      return true;
    }
  }

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
        // A flood reads only this rank's copy at unshifted non-flooded
        // coordinates: no neighbour's values, so no halo (and, never being
        // primed, no wave face).
        if (acc.flood != 0) continue;
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
  FusedKernel<R> fused_kernel_;
  std::vector<Contracted<R>> contracted_;
};

/// Adds typed statement specs to `sb` and installs the fused region
/// kernel: one call per tile or region binds every statement to the
/// region's pencil walk once and runs them interleaved per element in
/// program order (run_fused).
template <Rank R, typename... Es>
ScanBlock<R> with_fused_kernel(ScanBlock<R> sb,
                               const StatementSpec<Es>&... specs) {
  static_assert(sizeof...(Es) > 0, "scan() needs at least one statement");
  static_assert(((Es::rank == R) && ...), "statement ranks must match");
  (sb.add(specs), ...);
  sb.set_fused_kernel(
      [specs...](const Region<R>& sub, const LoopStructure<R>& loops,
                 bool strips) {
        run_fused(PencilWalk<R>(sub, loops.order, loops.step), strips,
                  specs...);
      });
  return sb;
}

/// Builds a scan block from typed statement specs and installs the fused
/// region kernel — the preferred way to write a block:
///
///   auto sb = scan(Rn, r <<= aa * prime(d, north),
///                      d <<= 1.0 / (dd - at(aa, north) * r));
template <Rank R, typename... Es>
ScanBlock<R> scan(const Region<R>& region, const StatementSpec<Es>&... specs) {
  return with_fused_kernel(ScanBlock<R>(region), specs...);
}

/// scan() with an explicit wavefront-dimension choice policy.
template <Rank R, typename... Es>
ScanBlock<R> scan_with_choice(const Region<R>& region, WavefrontChoice choice,
                              const StatementSpec<Es>&... specs) {
  return with_fused_kernel(ScanBlock<R>(region, choice), specs...);
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
