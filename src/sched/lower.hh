// Lowering a compiled WavefrontPlan into tile tasks, and run_wavefront:
// the one wavefront executor.
//
// lower_wavefront() appends to a TaskGraph the plan's tile grid (the
// detail::WaveGrid of exec/pipelined.hh), one task per tile running the
// grid's one tile body: unpack the inflow faces (north from the
// predecessor rank in the first row, west on a 2D frontier in the first
// column), compute, send the outflow faces. A rank line is the one-row
// grid, so its tasks form the chain [0] -> [1] -> ...; a plan that does not
// wave is one task. The edges (v-1 -> v along a row, u-1 -> u down a
// column) encode the tiling legality order and the per-(src, tag) FIFO
// discipline, so any interleaving of several lowered instances keeps every
// wave's messages matched to the right tiles. Task ids follow the grid's
// anti-diagonals, so static FIFO runs a 2D frontier diagonal by diagonal:
// the first south face leaves after ~mi tiles, not after nearly the whole
// block. Each outflow face is settled right after it is sent or, under
// WaveOptions::overlap, when its stream's buffer comes round again two
// tiles later — the paper's Fig 4 schedule. What no tile settled (under
// overlap, the last two sends of each stream) the executor settles when
// the graph drains, unless a later task of the caller's settles it first
// (WaveInstance::settle_sends).
//
// Contracted arrays (ScanBlock::contract) live in one ContractedStore per
// instance (exec/contracted.hh), shared by its tasks like the grid. On a
// tiled rank line the v-1 -> v edge slides the window in tile order on any
// executor, and a dead rank's heir, replaying the logged prefix in
// completion order, rebuilds it the same way. Each tile folds its live-out
// maxima into its own slots; WaveReport::maxima() reduces them after the
// drain.
//
// Lowering does no ghost pre-exchange and adds no inter-instance edges
// (flux accumulation order, buffer reuse): those are the caller's. A
// caller whose inflow fluff is already current (the caller exchanged, or
// every inflow face is wave-fed or vacuum, as in SWEEP3D) lowers and runs
// the plan itself. run_wavefront() is the ghost pre-exchange plus one
// instance lowered and run on the static-FIFO SPMD executor, whose whole
// RunResult is a pure function of the graph.
//
// Lifetime: the emitted task bodies reach `plan` (and the arrays it
// names) by pointer — it must outlive run_graph().
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/contracted.hh"
#include "exec/pipelined.hh"
#include "sched/executor.hh"
#include "sched/graph.hh"
#include "sched/tags.hh"

namespace wavepipe {

namespace detail {

/// What the tasks of one lowered instance share. They outlive
/// lower_wavefront; the first tile's task and the WaveReport own it.
template <Rank R>
struct WaveInstance {
  WaveInstance(const WavefrontPlan<R>& plan, const WaveTiling<R>& t,
               const Region<R>& allocated, const WaveOptions& opts,
               int tag_base)
      : grid(plan, t, opts.block, opts.block_w, tag_base),
        // Windows one tile wide on a tiled rank line, the whole allocated
        // block on every other path.
        store(plan, allocated, t.tdim, t.tsign,
              t.waved && t.axes == 1 && t.tdim != t.w ? grid.bj : 0),
        overlap(opts.overlap),
        partial(static_cast<std::size_t>(grid.mi * grid.mj) *
                store.arrays()) {}

  WaveGrid<R> grid;
  ContractedStore<R> store;
  bool overlap;
  /// Live-out maxima per tile (row-major) and contracted array.
  std::vector<Real> partial;
  /// [axis * 2 + stream position % 2]: the send of that position's face
  /// (kNoSend before the stream's first send of the run). Under overlap a
  /// position settles the one two places back, sent earlier in the same
  /// run since a stream's positions are chained.
  std::array<SendTicket, 4> sent{kNoSend, kNoSend, kNoSend, kNoSend};

  /// Tile (u, v)'s task body.
  void run(TaskContext& ctx, Coord u, Coord v) {
    Communicator& comm = ctx.comm;
    // vtime() locks on the tasks backend: read it only for the trace.
    const bool traced = grid.t.waved && comm.tracer().enabled();
    const double t0 = traced ? comm.vtime() : 0.0;
    const Region<R> tile = grid.tile(u, v);
    // Every other tile follows (0, 0): tickets of an earlier run go here.
    if (u == 0 && v == 0) sent.fill(kNoSend);
    store.enter(tile, u == 0 && v == 0);
    grid.run_tile(
        comm, u, v, ctx.inflows,
        [&](int axis) -> std::vector<Real>& {
          const Coord k = WaveGrid<R>::along(axis, u, v);
          if (overlap && k >= 2) ctx.settle(sent[axis * 2 + k % 2]);
          // send() copies the payload out, so both axes share the buffer.
          return ctx.scratch();
        },
        [&](int axis, int peer, std::span<const Real> payload) {
          SendTicket& s = sent[axis * 2 + WaveGrid<R>::along(axis, u, v) % 2];
          s = ctx.send(peer, payload, grid.tag(axis));
          if (!overlap) ctx.settle(s);
        });
    const std::size_t n = store.arrays();
    store.fold(tile, std::span<Real>(partial).subspan(
                         static_cast<std::size_t>(u * grid.mj + v) * n, n));
    if (!traced) return;
    // One slice per tile, tagged with its row-major index so a trace shows
    // the wave marching. The trace ring is lock-guarded state on the tasks
    // backend.
    auto l = comm.lock_ops();
    comm.tracer().record(TraceEventType::kTile, t0, comm.vtime(), -1,
                         static_cast<int>(u * grid.mj + v),
                         static_cast<std::uint64_t>(tile.size()));
  }

  /// Settles this run's sends no tile settled, in posting (ticket) order;
  /// call it from a task that follows the last tile. (Any order would give
  /// the same clock: a send wait is max(vtime, the send's completion).)
  void settle_sends(TaskContext& ctx) const {
    std::array<SendTicket, 4> order = sent;
    std::sort(order.begin(), order.end());
    for (const SendTicket s : order) ctx.settle(s);
  }
};

}  // namespace detail

/// One rank's lowered wavefront instance: its tiling and tasks, and, once
/// the graph has drained, its live-out maxima.
template <Rank R>
struct WaveReport {
  Region<R> local_region;
  bool waved = false;   // wavefront communication happens
  int axes = 1;         // frontier axes (2 on a 2D processor-grid frontier)
  Rank tile_dim = 0;
  Coord tiles = 1;      // tile columns along tile_dim
  Coord block = 0;      // effective (clamped) block along tile_dim
  Coord wtiles = 1;     // 2D only: tile rows along the wavefront dimension
  Coord block_w = 0;    // 2D only: effective block along the wavefront dim
  /// The tile tasks, row-major (u * tiles + v); one task when not waved.
  std::vector<TaskId> tasks;

  /// Per contracted array of the plan (plan.contracted order): this rank's
  /// fused live-out max over its cells of the scan region; -inf without a
  /// live max or without cells. Read it after the graph has drained; the
  /// caller reduces across ranks.
  std::vector<Real> maxima() const {
    const std::size_t n = instance->store.arrays();
    std::vector<Real> m(n, -std::numeric_limits<Real>::infinity());
    for (std::size_t i = 0; i < instance->partial.size(); ++i) {
      const Real x = instance->partial[i];
      m[i % n] = m[i % n] < x ? x : m[i % n];
    }
    return m;
  }

  std::shared_ptr<detail::WaveInstance<R>> instance;
};

/// Lowers one plan instance for `rank` into `g`. `tags` must span at least
/// wavefront_tag_span<R>(axes) tags and belong to this instance alone; the
/// wave messages use the in-window offsets base + 2R (the wavefront axis)
/// and base + 2R + 1 (the second frontier axis). Tasks are labelled
/// "<label>[j]" (1D) or "<label>[u,v]" (2D frontier, row-major tile grid).
///
/// Of `opts`, lowering reads block, block_w and overlap. It ignores
/// tag_base (the tags come from `tags`) and exchanges no ghosts (see the
/// file comment).
template <Rank R>
WaveReport<R> lower_wavefront(TaskGraph& g, const WavefrontPlan<R>& plan,
                              const Layout<R>& layout, int rank,
                              const TagRange& tags, const std::string& label,
                              const WaveOptions& opts = {}) {
  const WaveTiling<R> t = wave_tiling(plan, layout, rank);
  if (t.waved)
    require(tags.count >= wavefront_tag_span<R>(t.axes),
            "tag range too narrow for a wavefront instance (need "
            "wavefront_tag_span tags)");
  const auto inst = std::make_shared<detail::WaveInstance<R>>(
      plan, t, layout.allocated(rank), opts, tags.base);
  const detail::WaveGrid<R>& grid = inst->grid;

  WaveReport<R> rep{t.local, t.waved, t.axes, t.tdim, grid.mj, grid.bj,
                    grid.mi, grid.bw, {}, inst};
  rep.tasks.assign(static_cast<std::size_t>(grid.mi * grid.mj), kNoTask);
  g.reserve(rep.tasks.size());
  auto task_at = [&](Coord u, Coord v) -> TaskId& {
    return rep.tasks[static_cast<std::size_t>(u * grid.mj + v)];
  };

  // Anti-diagonal order: a tile's (u-1, v) and (u, v-1) predecessors sit
  // on the previous diagonal, and each face stream touches at most one tile
  // per diagonal.
  for (Coord d = 0; d < grid.mi + grid.mj - 1; ++d) {
    for (Coord u = std::max<Coord>(0, d - (grid.mj - 1));
         u <= std::min(grid.mi - 1, d); ++u) {
      const Coord v = d - u;
      TaskGraph::Task task;
      task.label = label;
      if (t.waved) {
        task.label += '[';
        if (t.axes == 2) (task.label += std::to_string(u)) += ',';
        (task.label += std::to_string(v)) += ']';
      }
      task.cost = static_cast<double>(grid.tile(u, v).size());
      // Declaration order (axis 0, then axis 1) is run_tile's unpack order.
      for (int axis = 0; axis < 2; ++axis) {
        const int src = grid.inflow_peer(axis, u, v);
        if (src < 0) continue;
        const Coord k = detail::WaveGrid<R>::along(axis, u, v);
        task.inflows.push_back(
            {src, grid.tag(axis), grid.inflow_size(axis, k)});
      }
      // The first tile's task owns the instance for the graph; the others
      // point at it, which keeps their closures in std::function's
      // allocation-free small buffer.
      if (d == 0) {
        task.run = [inst](TaskContext& ctx) { inst->run(ctx, 0, 0); };
      } else {
        task.run = [in = inst.get(), tu = static_cast<std::int32_t>(u),
                    tv = static_cast<std::int32_t>(v)](TaskContext& ctx) {
          in->run(ctx, tu, tv);
        };
      }

      const TaskId id = g.add(std::move(task));
      if (v > 0) g.add_edge(task_at(u, v - 1), id);
      if (u > 0) g.add_edge(task_at(u - 1, v), id);
      internal_check(plan.contracted.empty() || d == 0 ||
                         g.predecessors(id) > 0,
                     "a contracted instance's tiles must be chained");
      task_at(u, v) = id;
    }
  }
  return rep;
}

/// Executes a compiled scan block over a block-distributed layout: the
/// ghost pre-exchange (fluff filled with the neighbours' old values), then
/// the plan lowered
/// on tags [tag_base, tag_base + wavefront_tag_span) and run on this
/// rank's static-FIFO SPMD executor. Collective: every rank of the grid
/// must call with the same plan structure and options. The options are
/// fixed here, never read from the environment. Returns a per-rank report.
template <Rank R>
WaveReport<R> run_wavefront(const WavefrontPlan<R>& plan,
                            const Layout<R>& layout, Communicator& comm,
                            const WaveOptions& opts = {}) {
  require(layout.grid().size() == comm.size(),
          "processor grid size must equal machine size");
  exchange_plan_ghosts(plan, layout, comm, opts.tag_base);
  TaskGraph g;
  const TagRange tags{opts.tag_base, wavefront_tag_span<R>(2)};
  WaveReport<R> rep =
      lower_wavefront(g, plan, layout, comm.rank(), tags, "wave", opts);
  SchedOptions so;
  so.adaptive = false;
  so.backend = SchedBackend::kSpmd;
  run_graph(g, comm, so);
  return rep;
}

/// Fig 4(b): the pipelined schedule with block size `block`. On a 2D
/// frontier the block applies to both tile axes unless the caller already
/// chose a block_w.
template <Rank R>
WaveReport<R> run_pipelined(const WavefrontPlan<R>& plan,
                            const Layout<R>& layout, Communicator& comm,
                            Coord block, WaveOptions opts = {}) {
  require(block >= 1, "pipeline block size must be >= 1");
  opts.block = block;
  if (opts.block_w <= 0) opts.block_w = block;
  return run_wavefront(plan, layout, comm, opts);
}

}  // namespace wavepipe
