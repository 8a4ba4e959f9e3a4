// Distributed drivers for the non-wavefront parts of programs: parallel
// array statements with ghost exchange, and global reductions. Together
// with run_wavefront these are everything an application (Tomcatv, SIMPLE,
// SWEEP3D, ...) needs to run SPMD.
#pragma once

#include "array/ghost.hh"
#include "exec/pipelined.hh"

namespace wavepipe {

/// Applies a parallel (no-prime) statement across the machine: exchanges
/// the ghost cells its shifted reads touch, then applies the statement with
/// array semantics on this rank's portion of `region`. Collective.
///
/// Returns the number of tags the call consumed, starting at `tag_base`
/// (a flat 2*R: all read arrays' halos travel bundled, one message per
/// neighbour per dimension). Callers issuing several statements must
/// advance their tag base by at least this much; apply_distributed_all
/// does so automatically.
template <typename E>
int apply_distributed(const Region<E::rank>& region,
                      const StatementSpec<E>& spec,
                      const Layout<E::rank>& layout, Communicator& comm,
                      int tag_base = 300, bool charge = true) {
  constexpr Rank R = E::rank;
  const double t0 = comm.vtime();
  std::vector<Access<R>> reads;
  spec.expr.collect(reads);

  // Union halo widths per distinct array, keeping the expression's
  // first-appearance order. (Ordering by array address would let two ranks
  // — which each allocate their own arrays — assign different tags to the
  // same logical array and cross their exchanges.)
  std::vector<std::pair<DenseArray<Real, R>*, Idx<R>>> halos;
  for (const auto& acc : reads) {
    require(!acc.primed,
            "primed references are only meaningful inside scan blocks");
    auto it = halos.begin();
    for (; it != halos.end(); ++it)
      if (it->first->id() == acc.array->id()) break;
    if (it == halos.end())
      it = halos.insert(halos.end(), {acc.array, Idx<R>{}});
    for (Rank d = 0; d < R; ++d) {
      const Coord mag = acc.dir.v[d] < 0 ? -acc.dir.v[d] : acc.dir.v[d];
      it->second.v[d] = std::max(it->second.v[d], mag);
    }
  }
  std::vector<GhostHalo<Real, R>> bundle;
  bundle.reserve(halos.size());
  for (auto& [array, width] : halos) {
    bool any = false;
    for (Rank d = 0; d < R; ++d) any = any || width.v[d] > 0;
    if (any) bundle.push_back({array, width});
  }
  if (!bundle.empty())
    exchange_ghosts(std::span<const GhostHalo<Real, R>>(bundle), layout,
                    comm.rank(), comm, tag_base);

  const Region<R> local = region.intersect(layout.owned(comm.rank()));
  apply_statement(local, spec);
  if (charge) comm.compute(static_cast<double>(local.size()));
  {
    // The tasks backend may run two of a rank's statement chunks on two
    // workers at once; the trace ring is part of the lock-guarded state.
    auto l = comm.lock_ops();
    comm.tracer().record(TraceEventType::kStatement, t0, comm.vtime(), -1,
                         tag_base, static_cast<std::uint64_t>(local.size()));
  }
  return 2 * static_cast<int>(R);
}

/// Applies several parallel statements in order (each is a separate
/// collective exchange + local apply). Each statement consumes a flat 2*R
/// tags (its arrays' halos are bundled per neighbour), so consecutive
/// statements' exchanges cannot collide.
template <Rank R, typename... Es>
void apply_distributed_all(const Region<R>& region,
                           const Layout<R>& layout, Communicator& comm,
                           const StatementSpec<Es>&... specs) {
  int tag = 300;
  ((tag += apply_distributed(region, specs, layout, comm, tag)), ...);
}

/// Global max |a(i)| over each rank's portion of `region`. Collective.
/// A max is exact in any order, so the local part walks a's storage order.
template <Rank R>
Real global_max_abs(const DenseArray<Real, R>& a, const Region<R>& region,
                    const Layout<R>& layout, Communicator& comm) {
  const Region<R> local = region.intersect(layout.owned(comm.rank()));
  Real m = 0;
  a.for_each_pencil(local, [&](const Idx<R>& i, Coord count) {
    const Real* p = &a(i);
    for (Coord k = 0; k < count; ++k) {
      const Real v = p[k] < 0 ? -p[k] : p[k];
      if (v > m) m = v;
    }
  });
  return comm.allreduce_max(m);
}

/// Global sum of a(i) over `region`. Collective. Keeps for_each's element
/// order: reordering a floating-point sum would change its value.
template <Rank R>
Real global_sum(const DenseArray<Real, R>& a, const Region<R>& region,
                const Layout<R>& layout, Communicator& comm) {
  const Region<R> local = region.intersect(layout.owned(comm.rank()));
  Real s = 0;
  for_each(local, [&](const Idx<R>& i) { s += a(i); });
  return comm.allreduce_sum(s);
}

}  // namespace wavepipe
