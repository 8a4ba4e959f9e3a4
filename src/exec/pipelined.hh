// The per-rank tile schedule of a distributed wavefront: naive (Fig 4a)
// and pipelined (Fig 4b).
//
// A plan waves when it has a wavefront along a distributed dimension w and
// any primed-read (wave) arrays. Its local block is then walked as an
// mi x mj tile grid (detail::WaveGrid): mj tiles of `block` columns along
// a chosen non-w tile dimension, and — on a 2D processor-grid frontier
// (the paper's Fig 4 mesh, DESIGN.md §15) — mi rows of `block_w` along w.
// A rank line is the one-row case: mi = 1 and no west or east neighbour.
// Each tile receives its predecessors' face segments, computes, and sends
// its successors theirs. block = local extent gives the naive schedule:
// one receive, compute everything, one send — no parallelism along w.
// Smaller blocks pipeline the wave at the cost of more messages (the
// paper's §4 tradeoff). A plan that does not wave is the 1 x 1 grid: its
// local portion is computed outright (fully parallel).
//
// All wave arrays' face segments for one tile travel as a single bundled
// message, so the per-message cost matches the paper's alpha + beta*b model.
//
// This header holds the pieces: the options, the tiling decision
// (wave_tiling), the grid with its faces and its one tile body
// (WaveGrid::run_tile), and the old-value ghost pre-exchange. The one
// executor is the task scheduler: sched/lower.hh lowers the grid into one
// task per tile, and run_wavefront there is the pre-exchange followed by
// that lowering run on the static-FIFO SPMD executor.
#pragma once

#include <array>
#include <source_location>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "array/ghost.hh"
#include "comm/machine.hh"
#include "exec/serial.hh"

namespace wavepipe {

struct WaveOptions {
  /// Tile size along the tile dimension; <= 0 means the whole local extent
  /// (the naive Fig 4(a) schedule).
  Coord block = 0;
  /// 2D frontiers only (a second, pipeline-role dimension is distributed):
  /// tile size along the wavefront dimension itself; <= 0 means the whole
  /// local extent (one tile row). Smaller values let the east-neighbour
  /// relay start after block_w rows instead of after the whole block.
  Coord block_w = 0;
  /// Base of the message-tag space this call uses.
  int tag_base = 500;
  /// Settle each outflow send when its face stream's buffer comes round
  /// again (two tiles later) instead of right away, letting the send
  /// engine drain under the next tiles' compute. Results are bit-identical
  /// either way; virtual time drops when sends would stall.
  bool overlap = false;
};

/// Width of the tag window one run_wavefront call may touch starting at
/// WaveOptions::tag_base (and of one lowered instance's TagRange): 2R tags
/// for the bundled ghost pre-exchange (one per dimension per direction,
/// apply_distributed's convention) plus one per frontier axis for the wave
/// face messages (axis 0 = the wavefront dimension's north/south faces,
/// axis 1 = the second frontier axis's west/east faces). Callers running several wavefront phases concurrently
/// must give each a tag_base at least this far apart — the scheduler's
/// TagAllocator asks for exactly this span per plan instance.
template <Rank R>
constexpr int wavefront_tag_span(int axes = 1) {
  return 2 * static_cast<int>(R) + axes;
}

/// The per-rank tiling decision for one wavefront plan: whether wave
/// communication happens at all, the w-neighbours the face messages flow
/// between, and the (dimension, sign) the tiles run over. Every rank of a
/// wave derives its own, and both sides of each face derive the same
/// regions from it, so face payloads never need negotiation.
template <Rank R>
struct WaveTiling {
  Region<R> local;     // plan region ∩ this rank's owned block
  bool waved = false;  // wavefront communication actually happens
  Rank w = 0;
  int travel = +1;
  int pred = -1;
  int succ = -1;
  Rank tdim = 0;
  int tsign = +1;

  /// Frontier axes. 1 is the classic rank-line pipeline: a tile grid of
  /// one row, with faces only along w. 2 means the tile dimension (a
  /// pipeline-role dimension, travelling in tsign) is distributed too: the
  /// rank sits on a 2D processor-grid frontier, its local block decomposes
  /// into a tile grid (block_w rows along w x block columns along tdim),
  /// and each tile consumes north (axis 0, from pred) and west (axis 1,
  /// from pred2) inflow faces and emits south (to succ) and east (to
  /// succ2) outflow faces. Rows and columns are numbered in travel order.
  int axes = 1;
  int pred2 = -1;
  int succ2 = -1;
  /// Whether splitting the w axis into multiple sequentially executed tile
  /// rows is legal (every execute-before vector c has c[w]*travel >= 0);
  /// when false clamp_block_w pins one tile row.
  bool w_tilable = true;
  /// Same for the tile dimension; 1D mode guarantees it by construction
  /// (the tdim search only picks legal dims), 2D mode has no choice of
  /// tdim (faces flow along it) and falls back to one column tile instead.
  bool t_tilable = true;

  /// Local extent along the tile dimension (1 when untiled).
  Coord extent() const { return tdim == w ? 1 : local.extent(tdim); }

  /// The effective tile-row height for a requested block_w (<= 0: whole
  /// extent — one tile row). 0 on a rank line, whose one tile row spans
  /// the whole local extent along w.
  Coord clamp_block_w(Coord block_w) const {
    if (axes != 2) return 0;
    const Coord e = std::max<Coord>(local.extent(w), 1);
    if (!w_tilable || block_w <= 0) return e;
    return std::min<Coord>(block_w, e);
  }

  /// Number of tile rows along w under block_w.
  Coord wtiles(Coord block_w) const {
    if (axes != 2) return 1;
    const Coord b = clamp_block_w(block_w);
    return (local.extent(w) + b - 1) / b;
  }

  /// The u-th tile row's coordinate range along w, in travel order.
  std::pair<Coord, Coord> wtile_range(Coord block_w, Coord u) const {
    if (axes != 2) return {local.lo(w), local.hi(w)};
    const Coord b = clamp_block_w(block_w);
    if (travel > 0) {
      const Coord a = local.lo(w) + u * b;
      return {a, std::min(local.hi(w), a + b - 1)};
    }
    const Coord z = local.hi(w) - u * b;
    return {std::max(local.lo(w), z - b + 1), z};
  }

  /// The (u, v) tile of the tile grid; tile(block, v) on a rank line.
  Region<R> tile2(Coord block_w, Coord block, Coord u, Coord v) const {
    const auto [ra, rb] = wtile_range(block_w, u);
    return tile(block, v).with_dim(w, ra, rb);
  }

  /// The effective block size for a requested one (<= 0: whole extent).
  Coord clamp_block(Coord block) const {
    const Coord e = std::max<Coord>(extent(), 1);
    if (!t_tilable || block <= 0) return e;
    return std::min<Coord>(block, e);
  }

  /// Number of tiles under block size `block`.
  Coord tiles(Coord block) const {
    if (tdim == w) return 1;
    const Coord b = clamp_block(block);
    return (extent() + b - 1) / b;
  }

  /// The j-th tile's coordinate range along tdim, in tile order.
  std::pair<Coord, Coord> tile_range(Coord block, Coord j) const {
    if (tdim == w) return {0, 0};
    const Coord b = clamp_block(block);
    if (tsign > 0) {
      const Coord a = local.lo(tdim) + j * b;
      return {a, std::min(local.hi(tdim), a + b - 1)};
    }
    const Coord z = local.hi(tdim) - j * b;
    return {std::max(local.lo(tdim), z - b + 1), z};
  }

  /// The j-th tile region itself.
  Region<R> tile(Coord block, Coord j) const {
    if (tdim == w) return local;
    const auto [ta, tb] = tile_range(block, j);
    return local.with_dim(tdim, ta, tb);
  }
};

/// Computes the tiling decision for `rank`. Performs run_wavefront's
/// static legality checks (distributed dimensions must be parallel or the
/// wavefront; every processor along w must own part of the scan region) and
/// throws ContractError on violation.
template <Rank R>
WaveTiling<R> wave_tiling(const WavefrontPlan<R>& plan, const Layout<R>& layout,
                          int rank) {
  const ProcGrid<R>& grid = layout.grid();

  // Distributed dimensions must be parallel, the wavefront dimension, or —
  // at most one — a pipeline-role dimension, which then becomes the second
  // axis of a 2D processor-grid frontier (the paper's Fig 4 mesh). Serial
  // (±) dimensions carry dependences in both directions and can never be
  // distributed; a second pipeline dimension (a 3D frontier) is out of
  // scope.
  int w2 = -1;
  for (Rank d = 0; d < R; ++d) {
    if (!grid.distributed(d)) continue;
    const DimRole role = plan.role(d);
    if (role == DimRole::kParallel ||
        (plan.has_wavefront() && d == plan.wdim()))
      continue;
    require(role == DimRole::kPipeline && plan.has_wavefront(),
            "dimension " + std::to_string(d) +
                " is serialized by the wavefront and may not be distributed");
    require(w2 < 0,
            "at most one pipeline dimension may be distributed alongside the "
            "wavefront (only 2D processor-grid frontiers are supported)");
    w2 = d;
  }

  WaveTiling<R> t;
  t.local = plan.region.intersect(layout.owned(rank));
  t.waved = plan.has_wavefront() && !plan.wave_arrays().empty() &&
            (grid.distributed(plan.wdim()) || w2 >= 0);
  if (!t.waved) return t;

  t.w = plan.wdim();
  t.travel = plan.travel();

  // Every processor row along a frontier axis must own part of the scan
  // region: the wave relays nearest-neighbour, so a hole in the chain would
  // strand it.
  auto check_chain = [&](Rank d) {
    const BlockDist1D& bd = layout.dist(d);
    for (int k = 0; k < bd.parts(); ++k) {
      require(std::max(bd.block_lo(k), plan.region.lo(d)) <=
                  std::min(bd.block_hi(k), plan.region.hi(d)),
              "every processor along a frontier dimension must own part "
              "of the scan region (shrink the grid or the fluff)");
    }
  };
  check_chain(t.w);

  t.pred = grid.neighbor(rank, t.w, -t.travel);
  t.succ = grid.neighbor(rank, t.w, +t.travel);

  auto tiling_legal = [&](Rank d, int s) {
    for (const auto& c : plan.constraints)
      if (c.v[d] * s < 0) return false;
    return true;
  };

  if (w2 >= 0) {
    // 2D frontier: the tile dimension is forced to w2 (faces flow along
    // both frontier axes), tiles traverse in travel order, and either axis
    // whose sequential tile order would break an execute-before vector
    // falls back to a single tile along that axis.
    check_chain(static_cast<Rank>(w2));
    t.axes = 2;
    t.tdim = static_cast<Rank>(w2);
    t.tsign = plan.wsv[t.tdim] == WComp::kMinus ? +1 : -1;
    t.pred2 = grid.neighbor(rank, t.tdim, -t.tsign);
    t.succ2 = grid.neighbor(rank, t.tdim, +t.tsign);
    t.w_tilable = tiling_legal(t.w, t.travel);
    t.t_tilable = tiling_legal(t.tdim, t.tsign);
    return t;
  }

  // Tile dimension and tile order. Splitting dimension t into sequentially
  // executed tiles (sign s) is legal only when every execute-before vector
  // c has c[t]*s >= 0 — otherwise some dependence target would run in an
  // earlier tile than its source within a rank (this is what rules out
  // straight column-tiling for blocks with opposing diagonal dependences;
  // they fall back to the naive single-tile schedule). Among the legal
  // (t, s) pairs, prefer completely parallel dimensions (the paper tiles
  // the parallel dimension), then the in-tile loop direction, then larger
  // local extent.
  t.tdim = t.w;
  t.tsign = +1;
  {
    std::int64_t best_score = -1;
    for (Rank d = 0; d < R; ++d) {
      if (d == t.w) continue;
      for (const int s : {plan.loops.step[d], -plan.loops.step[d]}) {
        if (!tiling_legal(d, s)) continue;
        const std::int64_t score =
            (plan.role(d) == DimRole::kParallel ? (std::int64_t{1} << 40) : 0) +
            (s == plan.loops.step[d] ? (std::int64_t{1} << 20) : 0) +
            t.local.extent(d);
        if (score > best_score) {
          best_score = score;
          t.tdim = d;
          t.tsign = s;
        }
        break;  // the preferred direction was legal; no need for the other
      }
    }
  }
  return t;
}

/// run_wavefront's old-value ghost exchange, bundled: every array of the
/// plan with a nonzero halo contributes to one message per neighbour per
/// dimension, on tags [tag_base, tag_base + 2R). It serves the unprimed
/// @-references, anti-dependences across rank boundaries included;
/// payloads are snapshots, so its order against later computation is
/// immaterial. Contracted arrays have no old values anyone reads (primed
/// reads only). Collective.
template <Rank R>
void exchange_plan_ghosts(const WavefrontPlan<R>& plan,
                          const Layout<R>& layout, Communicator& comm,
                          int tag_base) {
  std::vector<GhostHalo<Real, R>> bundle;
  for (const auto& use : plan.arrays) {
    if (plan.is_contracted(use.array->id())) continue;
    bool any = false;
    for (Rank d = 0; d < R; ++d) any = any || use.halo.v[d] > 0;
    if (any) bundle.push_back({use.array, use.halo});
  }
  if (!bundle.empty())
    exchange_ghosts(std::span<const GhostHalo<Real, R>>(bundle), layout,
                    comm.rank(), comm, tag_base);
}

namespace detail {

/// One frontier face of `local` along axis `fd` (travel `tv`, face depth
/// `depth` — the array's primed halo along fd; an empty region when 0): the
/// slab just outside (inflow) or just inside (outflow) the local block,
/// restricted to [oa..ob] along the other axis `od` (travel `otv`) and
/// *extended* by `ext` toward the predecessor along od, clamped to the scan
/// region [olo..ohi]. The extension is the corner relay: a west face
/// carries the already-relayed rows above the tile that the receiver's
/// diagonal (north-west) primed reads need — the sender has them coherent
/// because its own north inflow is unpacked before any east face is
/// packed, and rows outside the scan region are never written, so the
/// clamp drops exactly the rows the pre-exchange already made coherent.
/// When od == fd there is no other axis (a rank-1 relay) and the face is
/// left unrestricted.
template <Rank R>
Region<R> wave_face(const Region<R>& local, Coord depth, Rank fd, int tv,
                    bool inflow, Rank od, int otv, Coord oa, Coord ob,
                    Coord ext, Coord olo, Coord ohi) {
  Region<R> f = local;
  if (inflow) {
    f = tv > 0 ? f.with_dim(fd, local.lo(fd) - depth, local.lo(fd) - 1)
               : f.with_dim(fd, local.hi(fd) + 1, local.hi(fd) + depth);
  } else {
    f = tv > 0 ? f.with_dim(fd, local.hi(fd) - depth + 1, local.hi(fd))
               : f.with_dim(fd, local.lo(fd), local.lo(fd) + depth - 1);
  }
  if (od == fd) return f;
  return otv > 0 ? f.with_dim(od, std::max(oa - ext, olo), ob)
                 : f.with_dim(od, oa, std::min(ob + ext, ohi));
}

/// One rank's tile grid for a waved plan: mi x mj tiles, mi rows along the
/// wavefront dimension w and mj columns along the tile dimension. A rank
/// line is the one-row case (mi = 1, no west or east neighbour). Tile
/// (u, v) consumes a face along axis 0 (north, from pred) when u == 0 and
/// along axis 1 (west, from pred2) when v == 0, and emits the mirrored
/// south/east faces on the last row/column. Each face message bundles
/// every wave array's face for one tile column (axis 0) or row (axis 1),
/// so the per-message cost matches the paper's alpha + beta*b model.
///
/// lower_wavefront's tasks run every tile through run_tile, and both sides
/// of every face derive the same region list from the plan: payload layout
/// never needs negotiation.
template <Rank R>
struct WaveGrid {
  const WavefrontPlan<R>* plan;
  WaveTiling<R> t;
  std::vector<ArrayUse<R>> uses;  // plan->wave_arrays(), in payload order
  Coord bw, bj;                   // effective block_w and block
  Coord mi, mj;                   // tile rows and columns
  int tag0;                       // axis-0 face tag; axis 1 uses tag0 + 1

  /// `tag_base` is the start of the instance's wavefront_tag_span window:
  /// the face tags sit just past the ghost pre-exchange's 2R tags. Every
  /// face a tile will pack or unpack is computed here, once per grid.
  WaveGrid(const WavefrontPlan<R>& p, const WaveTiling<R>& tiling,
           Coord block, Coord block_w, int tag_base)
      : plan(&p),
        t(tiling),
        uses(p.wave_arrays()),
        bw(tiling.clamp_block_w(block_w)),
        bj(tiling.clamp_block(block)),
        mi(tiling.wtiles(block_w)),
        mj(tiling.tiles(block)),
        tag0(tag_base + 2 * static_cast<int>(R)) {
    const std::array<int, 2> pred{t.pred, t.pred2};
    const std::array<int, 2> succ{t.succ, t.succ2};
    for (int axis = 0; axis < 2; ++axis) {
      const auto a = static_cast<std::size_t>(axis);
      const Coord len = axis == 0 ? mj : mi;
      for (const bool inflow : {true, false}) {
        if ((inflow ? pred[a] : succ[a]) < 0) continue;  // never travels
        auto& fs = faces_[a][inflow ? 1 : 0];
        fs.reserve(static_cast<std::size_t>(len) * uses.size());
        for (Coord k = 0; k < len; ++k)
          for (const auto& u : uses) fs.push_back(face(axis, k, inflow, u));
      }
      if (pred[a] < 0) continue;
      auto& sizes = inflow_sizes_[a];
      sizes.assign(static_cast<std::size_t>(len), 0);
      for (Coord k = 0; k < len; ++k)
        for (const Region<R>& f : faces(axis, k, /*inflow=*/true))
          sizes[static_cast<std::size_t>(k)] +=
              static_cast<std::size_t>(f.size());
    }
  }

  int tag(int axis) const { return tag0 + axis; }

  /// The tile's index along the stream of faces on `axis`: its column for
  /// axis 0, its row for axis 1.
  static Coord along(int axis, Coord u, Coord v) { return axis == 0 ? v : u; }

  /// Peer the tile receives from / sends to along `axis`; -1 when none.
  int inflow_peer(int axis, Coord u, Coord v) const {
    if (axis == 0) return u == 0 ? t.pred : -1;
    return v == 0 ? t.pred2 : -1;
  }
  int outflow_peer(int axis, Coord u, Coord v) const {
    if (axis == 0) return u == mi - 1 ? t.succ : -1;
    return v == mj - 1 ? t.succ2 : -1;
  }

  Region<R> tile(Coord u, Coord v) const { return t.tile2(bw, bj, u, v); }

  /// The bundled faces (one per wave array, in payload order) along `axis`
  /// for the k-th column (axis 0) or row (axis 1). Only faces that travel
  /// exist: an axis without an inflow (outflow) peer has no inflow
  /// (outflow) faces.
  std::span<const Region<R>> faces(int axis, Coord k, bool inflow) const {
    return std::span<const Region<R>>(
               faces_[static_cast<std::size_t>(axis)][inflow ? 1 : 0])
        .subspan(static_cast<std::size_t>(k) * uses.size(), uses.size());
  }

  /// Elements in the k-th inflow message along `axis`.
  std::size_t inflow_size(int axis, Coord k) const {
    return inflow_sizes_[static_cast<std::size_t>(axis)]
                        [static_cast<std::size_t>(k)];
  }

  /// Runs twice per tile: the message is built only when the check fails.
  void require_face(std::size_t ui, const Region<R>& face, const char* flow,
                    std::source_location loc =
                        std::source_location::current()) const {
    if (uses[ui].array->region().contains(face)) return;
    std::string what = "array '";
    what += uses[ui].name();
    what += "' allocates too little fluff for the wave ";
    what += flow;
    what += " face";
    throw ContractError(what, loc);
  }

  void unpack(std::span<const Region<R>> fs,
              std::span<const Real> payload) const {
    std::size_t off = 0;
    for (std::size_t ui = 0; ui < fs.size(); ++ui) {
      const std::size_t n = static_cast<std::size_t>(fs[ui].size());
      if (n == 0) continue;
      require_face(ui, fs[ui], "inflow");
      unpack_region(*uses[ui].array, fs[ui], payload.subspan(off, n));
      off += n;
    }
  }

  void pack(std::span<const Region<R>> fs, std::vector<Real>& buf) const {
    buf.clear();
    for (std::size_t ui = 0; ui < fs.size(); ++ui) {
      if (fs[ui].size() == 0) continue;
      require_face(ui, fs[ui], "outflow");
      pack_region_into(*uses[ui].array, fs[ui], buf);
    }
  }

  /// The tile body: unpack the tile's inflow payloads (axis 0 then axis
  /// 1, one per inflow peer), compute the tile, charge it, then for each
  /// outflow axis pack into `buffer(axis)` and hand the payload to
  /// `send(axis, peer, payload)`.
  template <typename Buffer, typename Send>
  void run_tile(Communicator& comm, Coord u, Coord v,
                std::span<const std::span<const Real>> inflows,
                Buffer&& buffer, Send&& send) const {
    std::size_t k = 0;
    for (int axis = 0; axis < 2; ++axis)
      if (inflow_peer(axis, u, v) >= 0)
        unpack(faces(axis, along(axis, u, v), /*inflow=*/true), inflows[k++]);
    const Region<R> tl = tile(u, v);
    run_serial_on(*plan, tl);
    comm.compute(static_cast<double>(tl.size()));
    for (int axis = 0; axis < 2; ++axis) {
      const int peer = outflow_peer(axis, u, v);
      if (peer < 0) continue;
      std::vector<Real>& buf = buffer(axis);
      pack(faces(axis, along(axis, u, v), /*inflow=*/false), buf);
      send(axis, peer, std::span<const Real>(buf));
    }
  }

 private:
  /// Axis-0 faces span the column's range along the tile dimension; axis-1
  /// faces span the row's range along w plus the corner extension.
  Region<R> face(int axis, Coord k, bool inflow, const ArrayUse<R>& u) const {
    const Region<R>& reg = plan->region;
    if (axis == 0) {
      const auto [a, b] = t.tile_range(bj, k);
      return wave_face(t.local, u.prime_halo.v[t.w], t.w, t.travel, inflow,
                       t.tdim, t.tsign, a, b, /*ext=*/0, reg.lo(t.tdim),
                       reg.hi(t.tdim));
    }
    const auto [a, b] = t.wtile_range(bw, k);
    return wave_face(t.local, u.prime_halo.v[t.tdim], t.tdim, t.tsign, inflow,
                     t.w, t.travel, a, b, /*ext=*/u.prime_halo.v[t.w],
                     reg.lo(t.w), reg.hi(t.w));
  }

  // [axis][inflow ? 1 : 0]: faces of stream position k at
  // [k * uses.size(), (k + 1) * uses.size()).
  std::array<std::array<std::vector<Region<R>>, 2>, 2> faces_;
  std::array<std::vector<std::size_t>, 2> inflow_sizes_;  // [axis][k]
};

}  // namespace detail

}  // namespace wavepipe
