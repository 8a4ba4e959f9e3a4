// Serial execution of compiled scan blocks (the fused, interchanged loop
// nest the paper's compiler generates), plus array-semantics application of
// single statements for the non-wavefront phases of programs.
#pragma once

#include <algorithm>

#include "lang/scan_block.hh"

namespace wavepipe {

/// Calls `fn(start, inner, step, count)` for every pencil of `region` under
/// the loop structure: `inner` is the innermost dimension, pencils iterate
/// it `count` times with stride `step`; outer dimensions advance in the
/// structure's order and directions.
template <Rank R, typename Fn>
void iterate_pencils(const Region<R>& region, const LoopStructure<R>& ls,
                     Fn&& fn) {
  if (region.empty()) return;
  const Rank inner = ls.order[R - 1];
  const Coord count = region.extent(inner);
  const Coord istep = ls.step[inner];

  Idx<R> idx{};
  for (Rank d = 0; d < R; ++d)
    idx.v[d] = ls.step[d] > 0 ? region.lo(d) : region.hi(d);

  if constexpr (R == 1) {
    fn(idx, inner, istep, count);
    return;
  }

  while (true) {
    fn(idx, inner, istep, count);
    // Advance the outer levels, innermost outer level first.
    Rank level = R - 1;
    bool done = false;
    while (true) {
      if (level == 0) {
        done = true;
        break;
      }
      --level;
      const Rank d = ls.order[level];
      idx.v[d] += ls.step[d];
      const bool inside = ls.step[d] > 0 ? idx.v[d] <= region.hi(d)
                                         : idx.v[d] >= region.lo(d);
      if (inside) break;
      idx.v[d] = ls.step[d] > 0 ? region.lo(d) : region.hi(d);
    }
    if (done) break;
  }
}

/// Checks that every array of the plan covers the index sets its accesses
/// read/write over `region`. A flood reference reads `region` projected
/// onto its non-flooded dimensions (the flooded ones collapse to the
/// array's lo). Throws ContractError on under-allocation.
template <Rank R>
void validate_coverage(const WavefrontPlan<R>& plan, const Region<R>& region) {
  for (const auto& st : plan.statements) {
    require(st.lhs->region().contains(region),
            "array '" + st.lhs->name() + "' does not cover scan region " +
                to_string(region));
    for (const auto& acc : st.reads) {
      const Region<R>& a = acc.array->region();
      if (acc.flood != 0) {
        Idx<R> lo = region.lo(), hi = region.hi();
        for (Rank d = 0; d < R; ++d)
          if (is_flooded(acc.flood, d)) lo.v[d] = hi.v[d] = a.lo(d);
        require(a.contains(Region<R>(lo, hi)),
                "flood array '" + acc.array->name() + "' does not cover " +
                    to_string(region) +
                    " projected onto its non-flooded dimensions");
        continue;
      }
      require(a.contains(region.shifted(acc.dir)),
              "array '" + acc.array->name() + "' does not cover " +
                  to_string(region) + " shifted by " + to_string(acc.dir));
    }
  }
}

/// Runs the plan's statements over `sub` as one fused loop nest in the
/// derived loop order. `sub` must be contained in the plan's region (tiles,
/// local portions) — dependence legality was established for the whole
/// region and is inherited by sub-regions processed in wave order.
template <Rank R>
void run_serial_on(const WavefrontPlan<R>& plan, const Region<R>& sub) {
  if (plan.fused_kernel) {
    plan.fused_kernel(sub, plan.loops, plan.strips);
    return;
  }
  iterate_pencils(sub, plan.loops,
                  [&plan](Idx<R> i, Rank inner, Coord step, Coord count) {
                    for (Coord k = 0; k < count; ++k) {
                      for (const auto& st : plan.statements) st.eval_at(i);
                      i.v[inner] += step;
                    }
                  });
}

/// Runs the whole plan serially (single processor), validating coverage.
template <Rank R>
void run_serial(const WavefrontPlan<R>& plan) {
  validate_coverage(plan, plan.region);
  run_serial_on(plan, plan.region);
}

/// Applies one statement over `region` with array-language semantics: the
/// right-hand side is evaluated before any element is assigned. A
/// temporary is used only when the statement reads its own left-hand side
/// at a nonzero shift (the case where in-place evaluation would be wrong).
template <typename E>
void apply_statement(const Region<E::rank>& region,
                     const StatementSpec<E>& spec) {
  constexpr Rank R = E::rank;
  if (region.empty()) return;
  std::vector<Access<R>> reads;
  spec.expr.collect(reads);
  bool needs_temp = false;
  for (const auto& acc : reads) {
    if (acc.array->id() == spec.lhs->id() && !acc.dir.is_zero())
      needs_temp = true;
    require(!acc.primed,
            "primed references are only meaningful inside scan blocks");
  }

  // A parallel statement has no dependences, so iterate in storage order
  // (contiguous dimension innermost) — what any competent compiler emits.
  LoopStructure<R> ls;
  {
    const Rank inner = contiguous_dim(spec.lhs->order(), R);
    Rank level = 0;
    for (Rank d = 0; d < R; ++d) {
      if (d == inner) continue;
      ls.order[level++] = d;
    }
    ls.order[R - 1] = inner;
    for (Rank d = 0; d < R; ++d) ls.step[d] = +1;
  }

  const PencilWalk<R> walk(region, ls.order, ls.step);
  if (!needs_temp) {
    run_fused(walk, false, spec);
    return;
  }
  std::vector<Real> tmp(static_cast<std::size_t>(region.size()));
  Real* pos = tmp.data();
  auto rhs = spec.expr.bind(walk, {});
  walk_pencils(
      walk,
      [&](Coord count) {
        for (Coord k = 0; k < count; ++k) pos[k] = rhs(k, 0, NoCarry{});
        pos += count;
      },
      [&rhs](Rank level) { rhs.advance(level); });
  pos = tmp.data();
  iterate_pencils(region, ls,
                  [&](Idx<R> i, Rank, Coord, Coord count) {
                    // Storage order: every pencil is contiguous in the lhs.
                    std::copy_n(pos, count, &(*spec.lhs)(i));
                    pos += count;
                  });
}

/// Applies several statements in order, each with array semantics.
template <Rank R, typename... Es>
void apply_all(const Region<R>& region, const StatementSpec<Es>&... specs) {
  (apply_statement(region, specs), ...);
}

}  // namespace wavepipe
