// Lowering a compiled WavefrontPlan into tile tasks.
//
// lower_wavefront() appends to a TaskGraph exactly the tile grid
// run_wavefront walks (the same detail::WaveGrid: same WaveTiling, same
// faces, same bundled face payloads), one task per tile. Each task runs
// the grid's one tile body: it unpacks the face messages it consumes
// (north from the predecessor rank when it is in the first row, west on a
// 2D frontier when it is in the first column), computes the tile, and
// sends its own outflow faces. A rank line is the one-row grid, so its
// tasks form the chain [0] -> [1] -> ... The intra-instance edges (v-1 ->
// v along a row, u-1 -> u down a column) encode both the paper's tiling
// legality order and the per-(src, tag) FIFO discipline — with them in
// place any interleaving of several lowered instances keeps every wave's
// messages matched to the right tiles.
//
// What lowering deliberately does NOT do:
//   * no ghost pre-exchange (run_wavefront's pre_exchange): programs that
//     need old-value halos model them as their own tasks, with edges
//     expressing their real ordering constraints;
//   * no contracted arrays (ScanBlock::contract): a plan that declares
//     one is rejected with a ContractError, since its storage and live-out
//     belong to run_wavefront's tile loop;
//   * no inter-instance edges: flux accumulation order, buffer reuse
//     (WAR) and similar cross-plan constraints are the caller's knowledge
//     and are declared with TaskGraph::add_edge.
//
// Lifetime: the emitted task bodies reach `plan` (and the arrays it
// names) by pointer — it must outlive run_graph().
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/pipelined.hh"
#include "sched/graph.hh"
#include "sched/tags.hh"

namespace wavepipe {

template <Rank R>
struct LoweredWave {
  /// The instance's tile tasks in tile order (row-major u*tiles+v on a 2D
  /// frontier); size() == wtiles * tiles(block) when waved, 1 otherwise.
  std::vector<TaskId> tiles;
  WaveTiling<R> tiling;
  /// The effective (clamped) block size along the tile dimension.
  Coord block = 0;
  /// 2D frontiers: tile rows along w and the effective block_w (1 and 0
  /// otherwise).
  Coord wtiles = 1;
  Coord block_w = 0;
};

/// Lowers one plan instance for `rank` into `g`. `tags` must span at least
/// wavefront_tag_span<R>(tiling.axes) tags and belong to this instance
/// alone; the wave messages use the same in-window offsets (base + 2R for
/// the wavefront axis, base + 2R + 1 for the second frontier axis) as
/// run_wavefront, so a scheduled rank can interoperate with a rank running
/// run_wavefront on the same tag base. Tasks are labelled "<label>[j]" (1D)
/// or "<label>[u,v]" (2D frontier, row-major tile grid).
///
/// Of `opts`, lowering reads block, block_w and charge, with run_wavefront's
/// meaning. It ignores tag_base (the tags come from `tags`), pre_exchange
/// (see the file comment) and overlap (every outflow send is settled by the
/// executor after the graph drains).
template <Rank R>
LoweredWave<R> lower_wavefront(TaskGraph& g, const WavefrontPlan<R>& plan,
                               const Layout<R>& layout, int rank,
                               const TagRange& tags, const std::string& label,
                               const WaveOptions& opts = {}) {
  if (!plan.contracted.empty()) {
    std::string what = "lower_wavefront cannot run contracted array '";
    what += plan.contracted.front().array->name();
    what += "': contraction windows and live-outs exist in run_wavefront only";
    throw ContractError(what, std::source_location::current());
  }
  LoweredWave<R> lw;
  lw.tiling = wave_tiling(plan, layout, rank);
  const WaveTiling<R>& t = lw.tiling;

  if (!t.waved) {
    lw.block = t.clamp_block(opts.block);
    TaskGraph::Task task;
    task.label = label;
    task.cost = static_cast<double>(t.local.size());
    const Region<R> local = t.local;
    const bool charge = opts.charge;
    task.run = [&plan, local, charge](TaskContext& ctx) {
      run_serial_on(plan, local);
      if (charge) ctx.comm.compute(static_cast<double>(local.size()));
    };
    lw.tiles.push_back(g.add(std::move(task)));
    return lw;
  }

  require(tags.count >= wavefront_tag_span<R>(t.axes),
          "tag range too narrow for a wavefront instance (need "
          "wavefront_tag_span tags)");
  // One grid shared by every task of the instance; the tasks outlive this
  // call, so they hold it by shared_ptr rather than by reference.
  const auto grid = std::make_shared<const detail::WaveGrid<R>>(
      plan, t, opts.block, opts.block_w, tags.base);
  lw.block = grid->bj;
  lw.wtiles = grid->mi;
  lw.block_w = grid->bw;

  for (Coord u = 0; u < grid->mi; ++u) {
    for (Coord v = 0; v < grid->mj; ++v) {
      TaskGraph::Task task;
      task.label = label + "[" +
                   (t.axes == 2 ? std::to_string(u) + "," : std::string()) +
                   std::to_string(v) + "]";
      task.cost = static_cast<double>(grid->tile(u, v).size());
      // Declaration order (axis 0, then axis 1) is run_tile's unpack order.
      for (int axis = 0; axis < 2; ++axis) {
        const int src = grid->inflow_peer(axis, u, v);
        if (src < 0) continue;
        const Coord k = detail::WaveGrid<R>::along(axis, u, v);
        task.inflows.push_back(
            {src, grid->tag(axis), grid->inflow_size(axis, k)});
      }
      task.run = [grid, u, v, charge = opts.charge](TaskContext& ctx) {
        // Each outflow is packed into the executor's scratch buffer; send()
        // copies it out, so both axes can share it.
        grid->run_tile(
            ctx.comm, charge, u, v, ctx.inflows,
            [&ctx](int) -> std::vector<Real>& { return ctx.scratch(); },
            [&](int axis, int peer, std::span<const Real> payload) {
              ctx.send(peer, payload, grid->tag(axis));
            });
      };

      const TaskId id = g.add(std::move(task));
      // Row-major chain edges encode both the tiling legality order and the
      // per-(src, tag) FIFO posting order for the two inflow streams.
      if (v > 0) g.add_edge(lw.tiles.back(), id);
      if (u > 0)
        g.add_edge(lw.tiles[static_cast<std::size_t>((u - 1) * grid->mj + v)],
                   id);
      lw.tiles.push_back(id);
    }
  }
  return lw;
}

}  // namespace wavepipe
