// SWEEP3D: a discrete-ordinates (Sn) transport sweep — the ASCI benchmark
// the paper's introduction names as the prominent wavefront computation.
//
// For each of the 8 octants the angular flux obeys the upwind recurrence
//
//   phi(i,j,k) = (src + mu*phi'@up_x + eta*phi'@up_y + xi*phi'@up_z)
//               / (sigt + mu + eta + xi)
//
// where up_* point against the octant's travel signs: a rank-3 scan block
// whose WSV is (-,-,-) (or sign-flipped), i.e. the paper's case (iii) — the
// wavefront travels along the first (distributed) dimension, the other two
// are serialized locally, and pipelining in blocks recovers parallelism.
// After each octant the scalar flux accumulates phi (a parallel statement).
// Every sweep runs as one lowered task graph (build_sweep_graph).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "exec/driver.hh"
#include "sched/executor.hh"
#include "sched/tags.hh"

namespace wavepipe {

struct Sweep3dConfig {
  Coord n = 16;            // cells per dimension
  int iterations = 1;      // source iterations (each sweeps all 8 octants)
  int angles = 1;          // discrete ordinates per octant (Sn quadrature)
  Real sigt = 1.0;         // total cross-section
  StorageOrder order = StorageOrder::kColMajor;
};

/// One ordinate of the quadrature set: direction cosines and weight.
struct Ordinate {
  Real mu, eta, xi;  // positive cosines; the octant supplies the signs
  Real weight;
};

/// A deterministic level-symmetric-flavoured quadrature with `angles`
/// ordinates per octant (weights sum to 1/8 per octant).
std::vector<Ordinate> make_quadrature(int angles);

class Sweep3d {
 public:
  Sweep3d(const Sweep3dConfig& cfg, const ProcGrid<3>& grid, int rank);

  Sweep3d(const Sweep3d&) = delete;
  Sweep3d& operator=(const Sweep3d&) = delete;

  /// Isotropic source bump in the middle, vacuum boundaries (phi = 0 on
  /// the inflow faces), zero initial flux.
  void init();

  /// Every (octant, angle) instance, lowered into one task graph, with the
  /// flux accumulated after each; returns the total scalar flux. Up to
  /// `slots` instances are in flight at once over per-slot angular-flux
  /// buffers, so opposite octants fill each other's pipeline bubbles. Flux
  /// accumulation is serialized in (octant, angle) order by explicit edges,
  /// so flux, phi and checksum are bit-identical for every slot count and
  /// schedule. One slot on static FIFO is the sequential octant-by-octant
  /// sweep (sweep3d_spmd). The graph is built on the first call and rerun
  /// by later ones; it is rebuilt only when block, block_w, overlap or
  /// slots change. Collective.
  Real sweep_all_scheduled(Communicator& comm, const WaveOptions& opts = {},
                           const SchedOptions& sched = SchedOptions::from_env(),
                           SchedReport* report = nullptr, int slots = 4);

  /// The graph sweep_all_scheduled runs (all instances, acc chain
  /// included), without running it — comm-free and deterministic for a
  /// given (cfg, grid, rank), so it doubles as the recovery
  /// ProgramFactory seam. Builds a fresh graph on every call;
  /// sweep_all_scheduled keeps the one it built and reruns it.
  ///
  /// Instance i runs on slot i % slots, and its first tile waits on the
  /// acc task of instance i - slots. With one slot that edge orders the
  /// instances back to back, and acc(i) first settles instance i's
  /// outflow sends still in flight (under overlap, the last two of each
  /// face stream), in posting order: where a run_wavefront call per
  /// instance drained them, so the sequential clocks hold (carried into
  /// the next instance instead, BENCH_sched.json's sequential T3E-like
  /// times would drop, 108944 -> 100295 at p = 2). With more slots they
  /// stay in flight until the graph drains: settling at every acc task
  /// would cut the scheduled reduction there from 26.9/17.5/20.2 % to
  /// 21.1/8.4/14.7 % at p = 2/4/8.
  TaskGraph build_sweep_graph(const WaveOptions& opts = {}, int slots = 4);

  /// The comm-free tail of a scheduled sweep: mirrors the last slot's
  /// owned cells into phi_, so checksum() reads the last instance's
  /// angular flux. A no-op with one slot, which is phi_ itself.
  void mirror_last_slot();

  /// Writes this rank's owned flux cells into `out`, a row-major n^3
  /// global array over [1..n]^3. Comm-free; owned blocks are disjoint
  /// across ranks — the recovery epilogue seam.
  void extract_owned_flux(std::span<Real> out) const;

  /// The tag ranges the app allocated: one wavefront_tag_span<3>(2) window
  /// per (octant, angle) instance (wide enough for a 2D processor-grid
  /// frontier) plus one for accumulation. The lowered instances use these
  /// and never read WaveOptions::tag_base, so concurrent instances cannot
  /// collide however many are in flight.
  const TagAllocator& tags() const { return tags_; }

  const std::vector<Ordinate>& quadrature() const { return quadrature_; }

  Real total_flux(Communicator& comm);
  Real checksum(Communicator& comm);

  const Layout<3>& layout() const { return layout_; }
  const Region<3>& cells() const { return cells_; }
  DenseArray<Real, 3>& flux() { return flux_; }
  /// Slot s's angular-flux buffer: after a sweep it holds the last
  /// instance that ran on it (with one angle and 8 slots, slot o holds
  /// octant o).
  const DenseArray<Real, 3>& slot_phi(int s) const {
    return *slot_phi_.at(static_cast<std::size_t>(s));
  }
  Coord wave_elements() const { return cells_.size(); }

 private:
  WavefrontPlan<3> compile_octant(DenseArray<Real, 3>& phi, int octant,
                                  const Ordinate& ord);
  const TagRange& sweep_tags(int octant, int angle) const {
    return sweep_tags_[static_cast<std::size_t>(octant) *
                           static_cast<std::size_t>(cfg_.angles) +
                       static_cast<std::size_t>(angle)];
  }
  void ensure_slots(int slots);

  Sweep3dConfig cfg_;
  ProcGrid<3> grid_;
  int rank_;
  Region<3> global_, cells_;
  Layout<3> layout_;
  DenseArray<Real, 3> phi_, flux_, src_;
  std::vector<Ordinate> quadrature_;
  TagAllocator tags_{500};
  std::vector<TagRange> sweep_tags_;  // [octant * angles + angle]
  TagRange acc_tag_;
  // Scheduler state: per-slot angular-flux buffers and the plans bound to
  // them (instance i uses slot i % slots). Built on first use. One slot is
  // phi_ itself; two or more own their buffers in slot_store_.
  std::vector<DenseArray<Real, 3>*> slot_phi_;
  std::vector<std::unique_ptr<DenseArray<Real, 3>>> slot_store_;
  std::vector<WavefrontPlan<3>> slot_plans_;  // [octant * angles + angle]
  // The graph sweep_all_scheduled reruns, with the WaveOptions fields and
  // slot count lowering read (the rest of WaveOptions does not reach it).
  struct KeptGraph {
    TaskGraph graph;
    Coord block;
    Coord block_w;
    bool overlap;
    int slots;
  };
  std::optional<KeptGraph> kept_;
};

/// SPMD driver: init + iterations full sweeps, each the kept one-slot graph
/// on the static-FIFO SPMD executor (options fixed here, never read from
/// the environment); returns total flux.
Real sweep3d_spmd(Communicator& comm, const Sweep3dConfig& cfg,
                  const ProcGrid<3>& grid, const WaveOptions& opts = {});

/// SPMD driver over `slots` instances in flight under `sched`;
/// bit-identical flux to sweep3d_spmd under the same config.
Real sweep3d_spmd_scheduled(
    Communicator& comm, const Sweep3dConfig& cfg, const ProcGrid<3>& grid,
    const WaveOptions& opts = {},
    const SchedOptions& sched = SchedOptions::from_env(), int slots = 4);

}  // namespace wavepipe
