// Smith-Waterman local sequence alignment: the dynamic-programming family
// of wavefront computations the paper's introduction cites.
//
// The score recurrence
//
//   H(i,j) = max(0, H(i-1,j-1) + S(i,j), H(i-1,j) - gap, H(i,j-1) - gap)
//
// is a scan block whose primed directions {(-1,-1), (-1,0), (0,-1)} give
// WSV (-,-): the wavefront travels along the first dimension (sequence a)
// and the second is a pipeline dimension — on a 1D grid it is pipelined in
// blocks of b columns (the classic pipelined DP), and on a pr x pc grid it
// becomes the second axis of a 2D processor-grid frontier: every interior
// rank consumes a north and a west face and emits a south and an east
// face, tiles filling along anti-diagonals of the rank grid. The diagonal
// dependence exercises the executors' corner-relay handling.
//
// BandedSmithWaterman is the genome-scale variant: only cells within
// |i - j| <= band are computed (out-of-band neighbours read as 0, the
// local-alignment floor), rows stream through O(band) ring windows instead
// of a resident matrix, and rank boundaries relay O(band) segments — so
// n >= 100k alignments run in O(band + block) resident elements per rank.
#pragma once

#include "exec/driver.hh"
#include "exec/unfused.hh"
#include "sched/executor.hh"
#include "sched/lower.hh"
#include "support/rng.hh"

namespace wavepipe {

struct SmithWatermanConfig {
  Coord la = 64;   // length of sequence a (rows)
  Coord lb = 64;   // length of sequence b (columns)
  Real match = 2.0;
  Real mismatch = -1.0;
  Real gap = 1.0;  // linear gap penalty (subtracted)
  int alphabet = 4;
  std::uint64_t seed = 42;
  StorageOrder order = StorageOrder::kColMajor;
};

class SmithWaterman {
 public:
  SmithWaterman(const SmithWatermanConfig& cfg, const ProcGrid<2>& grid,
                int rank);

  SmithWaterman(const SmithWaterman&) = delete;
  SmithWaterman& operator=(const SmithWaterman&) = delete;

  /// Deterministic random sequences and the similarity matrix S.
  void init();

  /// Fills the whole score matrix (one wavefront; collective).
  WaveReport<2> fill(Communicator& comm, const WaveOptions& opts = {});

  /// Fills by lowering the wavefront into a TaskGraph and running it on
  /// the scheduler (collective; any policy/backend; 1D or 2D frontier).
  SchedReport fill_scheduled(
      Communicator& comm, const WaveOptions& opts = {},
      const SchedOptions& sopts = SchedOptions::from_env());

  /// The graph fill_scheduled runs, without running it. Comm-free and
  /// deterministic for a given (cfg, grid, rank) — the recovery
  /// ProgramFactory seam: any rank can rebuild any other rank's fill
  /// graph from a fresh instance constructed with that rank.
  TaskGraph build_fill_graph(const WaveOptions& opts = {});

  /// Writes this rank's owned H cells into `out`, a row-major
  /// (la+1) x (lb+1) global score matrix (boundary row/column included).
  /// Comm-free, and owned blocks are disjoint across ranks — the recovery
  /// epilogue seam: each rank (or its heir) publishes a disjoint region
  /// of a shared host buffer.
  void extract_owned_h(std::span<Real> out) const;

  /// Best local-alignment score (collective).
  Real best_score(Communicator& comm);

  Real checksum(Communicator& comm);

  /// The symbol of sequence a/b at a 1-based position (same on all ranks).
  int symbol_a(Coord i) const;
  int symbol_b(Coord j) const;

  const Layout<2>& layout() const { return layout_; }
  const Region<2>& cells() const { return cells_; }
  DenseArray<Real, 2>& h() { return h_; }
  Coord wave_elements() const { return cells_.size(); }

  /// Uniprocessor entry points (1x1 grid).
  void fill_fused() { run_serial(plan_); }
  void fill_unfused() { run_unfused(plan_); }

  /// Plain-loop reference DP over the full problem (any rank; no comm).
  /// Returns the best score; used by tests to validate the DSL result.
  Real reference_best_score() const;

 private:
  WavefrontPlan<2> compile_fill();
  /// S from the sequences' symbols, hashed once per allocated row/column.
  void fill_similarity();

  SmithWatermanConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> global_;  // [0..la, 0..lb]: row/col 0 are the zero boundary
  Region<2> cells_;   // [1..la, 1..lb]
  Layout<2> layout_;
  DenseArray<Real, 2> h_, s_;
  WavefrontPlan<2> plan_;
};

/// SPMD driver: init + fill; returns the best score.
Real smith_waterman_spmd(Communicator& comm, const SmithWatermanConfig& cfg,
                         const ProcGrid<2>& grid,
                         const WaveOptions& opts = {});

/// The deterministic sequence symbols both SW variants align (1-based
/// positions; identical on every rank for a given seed).
int sw_symbol_a(std::uint64_t seed, int alphabet, Coord i);
int sw_symbol_b(std::uint64_t seed, int alphabet, Coord j);

struct BandedSwConfig {
  Coord n = 100000;  // both sequences have length n
  Coord band = 64;   // half-width: cells with |i - j| <= band are computed
  Real match = 2.0;
  Real mismatch = -1.0;
  Real gap = 1.0;
  int alphabet = 4;
  std::uint64_t seed = 42;
  /// Rows per pipeline chunk — the paper's block size b: west->east
  /// boundary columns relay every `block` rows instead of once per rank.
  Coord block = 256;
  int tag_base = 0;
};

/// Streaming banded Smith-Waterman over a pr x pc processor grid: rows
/// blocked over grid dim 0, columns over dim 1. Each rank streams its rows
/// through two O(band) ring windows, receiving its first previous-row band
/// segment from the north neighbour, per-chunk boundary columns from the
/// west neighbour, and relaying the mirror messages south and east.
/// Out-of-band cells read as 0 on every rank and in the serial oracle, so
/// best_score is bitwise identical to reference_best_score().
class BandedSmithWaterman {
 public:
  BandedSmithWaterman(const BandedSwConfig& cfg, const ProcGrid<2>& grid,
                      int rank);

  BandedSmithWaterman(const BandedSmithWaterman&) = delete;
  BandedSmithWaterman& operator=(const BandedSmithWaterman&) = delete;

  /// Runs the streaming fill (collective) and returns the global best
  /// local-alignment score (allreduce max).
  Real fill(Communicator& comm);

  /// Elements resident in this rank's windows and relay buffers —
  /// O(band + block), independent of n.
  std::size_t resident_elements() const;

  /// Serial banded oracle over the full problem (any rank; no comm); cell
  /// values — hence the best score — are bitwise identical to fill()'s.
  Real reference_best_score() const;

  const Region<2>& owned() const { return owned_; }

 private:
  bool in_band(Coord i, Coord j) const {
    const Coord d = i - j;
    return (d < 0 ? -d : d) <= cfg_.band;
  }

  BandedSwConfig cfg_;
  ProcGrid<2> grid_;
  int rank_;
  Region<2> owned_;  // this rank's [rows] x [cols] block of [1..n]^2
  // Ring windows over column positions, j -> j mod W; sized
  // min(local cols + 2, 2*band + 3) so a row's live span always fits.
  std::vector<Real> prev_, cur_;
  std::vector<int> sym_b_;  // sequence b's symbols, same ring indexing
  std::vector<Real> west_buf_, east_buf_, edge_buf_;
};

}  // namespace wavepipe
