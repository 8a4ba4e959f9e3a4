// Wavefront summary vectors (paper §2.2, "Assumptions and Definitions").
//
// The WSV summarizes the directions appearing with primed references. Its
// per-dimension components come from the paper's function f over the
// four-point lattice {0, +, -, ±}:
//
//   f(i,j) = 0  if i = j = 0
//            ±  if i*j < 0
//            +  if i*j >= 0 and (i > 0 or j > 0)
//            -  if i*j >= 0 and (i < 0 or j < 0)
//
// extended n-ary by folding. A WSV is *simple* when no component is ±;
// simple WSVs are always legal. The WSV also drives the paper's
// wavefront-dimension rules (cases i-iii).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "index/index.hh"

namespace wavepipe {

enum class WComp : std::uint8_t { kZero, kPlus, kMinus, kBoth };

/// The paper's f(i, j) for a single dimension of two directions.
WComp wsv_combine2(Coord i, Coord j);

/// Folds one more coordinate into an accumulated component.
WComp wsv_fold(WComp acc, Coord c);

std::string to_string(WComp c);

template <Rank R>
using Wsv = std::array<WComp, R>;

/// Builds the WSV of a set of primed directions. An empty set yields the
/// all-zero WSV (no wavefront).
template <Rank R>
Wsv<R> wavefront_summary(const std::vector<Direction<R>>& primed_dirs) {
  Wsv<R> w;
  w.fill(WComp::kZero);
  for (const auto& d : primed_dirs)
    for (Rank k = 0; k < R; ++k) w[k] = wsv_fold(w[k], d.v[k]);
  return w;
}

template <Rank R>
bool is_simple(const Wsv<R>& w) {
  for (Rank k = 0; k < R; ++k)
    if (w[k] == WComp::kBoth) return false;
  return true;
}

template <Rank R>
bool all_zero(const Wsv<R>& w) {
  for (Rank k = 0; k < R; ++k)
    if (w[k] != WComp::kZero) return false;
  return true;
}

template <Rank R>
std::string to_string(const Wsv<R>& w) {
  std::string s = "(";
  for (Rank k = 0; k < R; ++k) {
    if (k) s += ',';
    s += to_string(w[k]);
  }
  return s + ")";
}

/// How a dimension participates in a wavefront computation, per the paper's
/// three WSV cases:
///   (i)  WSV has a 0 entry: +/- dims get pipelined parallelism, 0 dims are
///        completely parallel;
///   (ii) no 0 entries, some ±: all but the ± dims benefit from pipelining;
///   (iii) only +/-: one dimension is chosen as the wavefront (the paper
///        arbitrarily selects the leftmost); the rest are serialized.
enum class DimRole : std::uint8_t {
  kParallel,   // WSV component 0: completely parallel
  kWavefront,  // the chosen pipelined dimension
  kPipeline,   // +/- component not chosen as primary wavefront (case i: also
               // pipelinable; cases ii/iii: serialized in this plan)
  kSerial      // ± component: serialized, cannot be distributed
};

/// Policy for picking the wavefront dimension among the +/- candidates.
enum class WavefrontChoice { kLeftmost, kRightmost };

template <Rank R>
struct WsvAnalysis {
  Wsv<R> wsv{};
  std::array<DimRole, R> roles{};
  /// The chosen wavefront dimension; nullopt when the WSV is all zero
  /// (fully parallel statement, no wavefront).
  std::optional<Rank> wavefront_dim;
  /// Direction of travel along the wavefront dimension: +1 when the WSV
  /// component is '-' (dependences point to lower indices, computation
  /// ascends), -1 when '+'.
  int travel = 0;
};

/// Classifies dimensions per the paper's rules. Returns nullopt when the
/// wavefront is over-constrained at the WSV level (every component is 0 or
/// ±, with at least one ± — e.g. the paper's Example 4, WSV (0, ±)).
template <Rank R>
std::optional<WsvAnalysis<R>> analyze_wsv(
    const Wsv<R>& w, WavefrontChoice choice = WavefrontChoice::kLeftmost) {
  WsvAnalysis<R> out;
  out.wsv = w;
  std::vector<Rank> candidates;
  for (Rank k = 0; k < R; ++k) {
    switch (w[k]) {
      case WComp::kZero:
        out.roles[k] = DimRole::kParallel;
        break;
      case WComp::kBoth:
        out.roles[k] = DimRole::kSerial;
        break;
      case WComp::kPlus:
      case WComp::kMinus:
        out.roles[k] = DimRole::kPipeline;
        candidates.push_back(k);
        break;
    }
  }
  if (candidates.empty()) {
    if (all_zero(w)) return out;  // no wavefront: fully parallel
    return std::nullopt;          // only 0/± entries: over-constrained
  }
  const Rank chosen = choice == WavefrontChoice::kLeftmost
                          ? candidates.front()
                          : candidates.back();
  out.wavefront_dim = chosen;
  out.roles[chosen] = DimRole::kWavefront;
  out.travel = (w[chosen] == WComp::kMinus) ? +1 : -1;
  return out;
}

}  // namespace wavepipe
