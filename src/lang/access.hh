// Access metadata recorded by the expression templates.
//
// Every array reference in a statement contributes one Access: which array,
// at which @-shift direction, and whether the reference is primed (reads
// values written by earlier iterations of the implementing loop nest — the
// paper's new operator). A flood reference also records which dimensions
// it floods.
#pragma once

#include <vector>

#include "array/dense.hh"

namespace wavepipe {

/// The element type of the array language. Wavefront codes in the paper are
/// floating-point scientific kernels; fixing Real keeps statements
/// type-erasable so scan blocks, plans and executors stay non-templated
/// over element type.
using Real = double;

/// Dimensions a flood reference (expr.hh) replicates its array along: bit
/// d set means every index of dimension d reads the array at its lo(d).
using FloodMask = unsigned;

inline bool is_flooded(FloodMask mask, Rank d) { return (mask >> d) & 1u; }

template <Rank R>
struct Access {
  DenseArray<Real, R>* array = nullptr;
  Direction<R> dir{};
  bool primed = false;
  /// Nonzero for a flood reference: read-only, never shifted or primed.
  FloodMask flood = 0;
};

}  // namespace wavepipe
