// WavefrontPlan: the compiled form of a scan block.
//
// Compilation (ScanBlock::compile) runs the paper's pipeline: collect access
// metadata -> build the wavefront summary vector -> check legality ->
// derive loop structure from unconstrained distance vectors -> classify
// dimensions and size halos. Executors consume the plan; it contains
// everything needed to run the block serially, naively distributed, or
// pipelined.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lang/statement.hh"
#include "lang/udv.hh"
#include "lang/wsv.hh"

namespace wavepipe {

std::string to_string(DimRole role);

/// Per-array facts aggregated over all statements of a block.
template <Rank R>
struct ArrayUse {
  DenseArray<Real, R>* array = nullptr;
  bool written = false;      // appears as an lhs
  bool primed_read = false;  // appears under the prime operator
  /// Per-dimension max |offset| over every read of this array: the fluff
  /// the array must allocate and the widths a pre-exchange fills.
  Idx<R> halo{};
  /// Max |d_w| over primed reads of this array: the depth of the face this
  /// array contributes to wave messages (0 when not primed-read).
  Coord wave_depth = 0;
  /// Per-dimension max |offset| over *primed* reads only: the face depth
  /// this array contributes along each candidate frontier axis (2D
  /// frontiers tile two distributed dimensions, so one scalar wave_depth is
  /// not enough). prime_halo.v[wdim] == wave_depth by construction.
  Idx<R> prime_halo{};

  const std::string& name() const { return array->name(); }
};

template <Rank R>
struct WavefrontPlan {
  Region<R> region;
  std::vector<Statement<R>> statements;

  /// Optional fast path built by the variadic scan(...) builder: evaluates
  /// *all* statements, interleaved per index, along a pencil through
  /// expression cursors. This is the fused single-loop-nest code the
  /// paper's compiler generates; executors fall back to per-index
  /// Statement::eval_at calls when absent (blocks built with add()).
  std::function<void(Idx<R> start, Rank inner, Coord step, Coord count)>
      fused_pencil;

  Wsv<R> wsv{};
  WsvAnalysis<R> analysis{};
  LoopStructure<R> loops{};
  std::vector<Udv<R>> constraints;
  std::vector<ArrayUse<R>> arrays;

  /// Depth of the inflow face along the wavefront dimension: max |d_w| over
  /// primed reads. This is how many predecessor rows a wave message carries.
  Coord inflow_depth = 0;
  /// Max |d_k| for k != w over primed reads: how far a wave message's face
  /// segment must extend beyond its tile (diagonal dependences).
  Coord lateral_halo = 0;

  /// True when the block carries loop dependences at all (primed or shifted
  /// reads of written arrays).
  bool has_dependences() const { return !constraints.empty(); }

  bool has_wavefront() const { return analysis.wavefront_dim.has_value(); }

  Rank wdim() const {
    require(has_wavefront(), "plan has no wavefront dimension");
    return *analysis.wavefront_dim;
  }

  /// +1 when computation ascends the wavefront dimension, -1 descending.
  int travel() const { return analysis.travel; }

  DimRole role(Rank d) const { return analysis.roles[d]; }

  /// The arrays whose new values flow through wave messages.
  std::vector<ArrayUse<R>> wave_arrays() const {
    std::vector<ArrayUse<R>> out;
    for (const auto& u : arrays)
      if (u.primed_read) out.push_back(u);
    return out;
  }

  const ArrayUse<R>* find_use(const void* id) const {
    for (const auto& u : arrays)
      if (u.array->id() == id) return &u;
    return nullptr;
  }

  std::string describe() const {
    std::ostringstream os;
    os << "scan block over " << to_string(region) << "\n";
    os << "  WSV " << to_string(wsv);
    if (has_wavefront())
      os << ", wavefront dim " << wdim() << " (travel "
         << (travel() > 0 ? "+" : "-") << ")";
    else
      os << ", no wavefront (fully parallel)";
    os << "\n  roles:";
    for (Rank d = 0; d < R; ++d)
      os << " dim" << d << "=" << to_string(role(d));
    os << "\n  loops (outer to inner):";
    for (Rank level = 0; level < R; ++level)
      os << " dim" << loops.order[level]
         << (loops.step[loops.order[level]] > 0 ? " asc" : " desc");
    os << "\n  arrays:";
    for (const auto& u : arrays) {
      os << " " << u.name() << (u.written ? "[w" : "[r")
         << (u.primed_read ? ",primed]" : "]");
    }
    os << "\n";
    return os.str();
  }
};

}  // namespace wavepipe
