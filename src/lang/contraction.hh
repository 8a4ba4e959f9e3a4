// Array contraction analysis (paper §2.1: "the scalar variable r is
// promoted to an array in the array codes, [but] we have previously
// demonstrated compiler techniques by which this overhead may be
// eliminated via array contraction" — Lewis/Lin/Snyder, PLDI'98).
//
// An array written in a scan block can be contracted to a per-iteration
// scalar when no value of it outlives the iteration that computes it:
//
//   * it is written by exactly one statement of the block;
//   * every read of it inside the block is unshifted and unprimed (a
//     shifted or primed read consumes another iteration's value);
//   * every read occurs in a statement *after* the defining one (a read in
//     or before the defining statement sees the previous iteration's value,
//     which contraction would destroy).
//
// This analysis only reports: the executors still store a candidate in
// full, and ContractionReport::bytes says how much storage that is. It
// tells a code generator — or a user sizing buffers — which arrays are
// really scalars. Storage is contracted only where a block declares it
// (ScanBlock::contract): a wavefront's own primed recurrence array, which
// is never a candidate here, kept by run_wavefront as a window one tile
// wide on a rank line (exec/contracted.hh).
#pragma once

#include "lang/plan.hh"

namespace wavepipe {

template <Rank R>
struct ContractionReport {
  std::vector<DenseArray<Real, R>*> candidates;
  /// Bytes of per-rank storage the candidates occupy (what contraction
  /// would save, fluff included).
  std::size_t bytes = 0;

  bool contractible(const DenseArray<Real, R>& a) const {
    for (const auto* c : candidates)
      if (c->id() == a.id()) return true;
    return false;
  }
};

/// Runs the contraction analysis over a compiled plan. Only arrays whose
/// values are dead outside the block may actually be contracted; that
/// liveness is the caller's knowledge, so the report lists *candidates*.
template <Rank R>
ContractionReport<R> contraction_candidates(const WavefrontPlan<R>& plan) {
  ContractionReport<R> report;
  for (const auto& use : plan.arrays) {
    if (!use.written) continue;
    DenseArray<Real, R>* a = use.array;

    // Which statements write it, and is every read clean and late enough?
    std::ptrdiff_t writer = -1;
    bool multiple_writers = false;
    bool reads_ok = true;
    for (std::size_t s = 0; s < plan.statements.size(); ++s) {
      const auto& st = plan.statements[s];
      if (st.lhs->id() == a->id()) {
        if (writer >= 0)
          multiple_writers = true;
        else
          writer = static_cast<std::ptrdiff_t>(s);
      }
      for (const auto& acc : st.reads) {
        if (acc.array->id() != a->id()) continue;
        if (acc.primed || !acc.dir.is_zero()) reads_ok = false;
        // Reads before (or in) the defining statement see the previous
        // iteration's value: not contractible. A read before the write has
        // writer == -1 at this point only if the write comes later, so
        // check positions after the scan below.
      }
    }
    if (writer < 0 || multiple_writers || !reads_ok) continue;

    bool read_before_write = false;
    for (std::size_t s = 0; s <= static_cast<std::size_t>(writer); ++s) {
      for (const auto& acc : plan.statements[s].reads)
        if (acc.array->id() == a->id()) read_before_write = true;
    }
    if (read_before_write) continue;

    report.candidates.push_back(a);
    report.bytes += a->raw().size() * sizeof(Real);
  }
  return report;
}

}  // namespace wavepipe
