// Distributed wavefront execution: naive (Fig 4a) and pipelined (Fig 4b).
//
// Schedule per rank:
//   1. pre-exchange ghosts: every read array's fluff is filled with *old*
//      neighbour values (this serves the unprimed @-references, including
//      anti-dependences across processor boundaries — payloads are
//      snapshots, so ordering with downstream computation is immaterial);
//   2. if the plan has a wavefront along a distributed dimension w and any
//      primed-read (wave) arrays, the local block is walked as an mi x mj
//      tile grid (detail::WaveGrid): mj tiles of `block` columns along a
//      chosen non-w tile dimension, and — on a 2D processor-grid frontier
//      (the paper's Fig 4 mesh, DESIGN.md §15) — mi rows of `block_w`
//      along w. A rank line is the one-row case: mi = 1 and no west or
//      east neighbour. Each tile receives its predecessors' face
//      segments, computes, and sends its successors theirs. block = local
//      extent gives the naive schedule: one receive, compute everything,
//      one send — no parallelism along w. Smaller blocks pipeline the wave
//      at the cost of more messages (the paper's §4 tradeoff);
//   3. otherwise the local portion is computed outright (fully parallel).
//
// All wave arrays' face segments for one tile travel as a single bundled
// message, so the per-message cost matches the paper's alpha + beta*b model.
//
// The same WaveGrid, and its one tile body, also backs the task
// scheduler's lowering (sched/lower.hh), so a lowered graph computes the
// same tiles from byte-identical payloads.
//
// The blocking tile loop is double-buffered over persistent pack/unpack
// buffers: a stream's next inflow irecv is posted as soon as the current
// one has arrived, and each outflow goes out via isend. With
// WaveOptions::overlap the send's completion is settled when its buffer
// comes round again — the send engine drains while the next tiles compute
// — which is the paper's communication/computation overlap; without it
// every send is waited immediately, reproducing the blocking schedule's
// virtual times exactly. Either way the computed data is bit-identical.
#pragma once

#include <array>
#include <source_location>
#include <string>
#include <utility>

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
  /// Fill fluff with neighbours' old values first (disable only when the
  /// caller has already exchanged).
  bool pre_exchange = true;
  /// Charge one virtual-time unit of compute per element (cost-model runs).
  bool charge = true;
  /// Defer each tile's outflow-send completion to the next tile, letting
  /// the send engine drain under the next tile's compute. Results are
  /// bit-identical either way; virtual time drops when sends would stall.
  bool overlap = false;
};

template <Rank R>
struct WaveReport {
  Region<R> local_region;
  bool waved = false;   // wavefront communication actually happened
  int axes = 1;         // frontier axes (2 on a 2D processor-grid frontier)
  Rank tile_dim = 0;
  Coord tiles = 0;
  Coord block = 0;
  Coord wtiles = 1;     // 2D only: tile rows along the wavefront dimension
  Coord block_w = 0;    // 2D only: effective block along the wavefront dim
};

/// Width of the tag window one run_wavefront call may touch starting at
/// WaveOptions::tag_base: 2R tags for the bundled ghost pre-exchange (one
/// per dimension per direction, apply_distributed's convention) plus one
/// per frontier axis for the wave face messages (axis 0 = the wavefront
/// dimension's north/south faces, axis 1 = the second frontier axis's
/// west/east faces). Callers running several wavefront phases concurrently
/// must give each a tag_base at least this far apart — the scheduler's
/// TagAllocator asks for exactly this span per plan instance.
template <Rank R>
constexpr int wavefront_tag_span(int axes = 1) {
  return 2 * static_cast<int>(R) + axes;
}

/// The per-rank tiling decision for one wavefront plan: whether wave
/// communication happens at all, the w-neighbours the face messages flow
/// between, and the (dimension, sign) the tile loop runs over. Factored
/// out of run_wavefront so the task scheduler's lowering produces the
/// *identical* tile decomposition — and therefore bit-identical face
/// payloads — as the sequential executor.
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
/// run_wavefront's blocking loop and lower_wavefront's tasks both run
/// every tile through run_tile, so the two executors compute identical
/// tiles from byte-identical payloads, and both sides of every face derive
/// the same region list from the plan: payload layout never needs
/// negotiation.
template <Rank R>
struct WaveGrid {
  const WavefrontPlan<R>* plan;
  WaveTiling<R> t;
  std::vector<ArrayUse<R>> uses;  // plan->wave_arrays(), in payload order
  Coord bw, bj;                   // effective block_w and block
  Coord mi, mj;                   // tile rows and columns
  int tag0;                       // axis-0 face tag; axis 1 uses tag0 + 1

  /// `tag_base` is the start of the instance's wavefront_tag_span window:
  /// the face tags sit just past the ghost pre-exchange's 2R tags.
  WaveGrid(const WavefrontPlan<R>& p, const WaveTiling<R>& tiling,
           Coord block, Coord block_w, int tag_base)
      : plan(&p),
        t(tiling),
        uses(p.wave_arrays()),
        bw(tiling.clamp_block_w(block_w)),
        bj(tiling.clamp_block(block)),
        mi(tiling.wtiles(block_w)),
        mj(tiling.tiles(block)),
        tag0(tag_base + 2 * static_cast<int>(R)) {}

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

  /// The bundled faces along `axis` for the k-th column (axis 0) or row
  /// (axis 1). Axis-0 faces span the column's range along the tile
  /// dimension; axis-1 faces span the row's range along w plus the corner
  /// extension.
  std::vector<Region<R>> faces(int axis, Coord k, bool inflow) const {
    std::vector<Region<R>> fs;
    fs.reserve(uses.size());
    const Region<R>& reg = plan->region;
    for (const auto& u : uses) {
      if (axis == 0) {
        const auto [a, b] = t.tile_range(bj, k);
        fs.push_back(wave_face(t.local, u.prime_halo.v[t.w], t.w, t.travel,
                               inflow, t.tdim, t.tsign, a, b, /*ext=*/0,
                               reg.lo(t.tdim), reg.hi(t.tdim)));
      } else {
        const auto [a, b] = t.wtile_range(bw, k);
        fs.push_back(wave_face(t.local, u.prime_halo.v[t.tdim], t.tdim,
                               t.tsign, inflow, t.w, t.travel, a, b,
                               /*ext=*/u.prime_halo.v[t.w], reg.lo(t.w),
                               reg.hi(t.w)));
      }
    }
    return fs;
  }

  /// Elements in the k-th inflow message along `axis`.
  std::size_t inflow_size(int axis, Coord k) const {
    std::size_t n = 0;
    for (const auto& f : faces(axis, k, /*inflow=*/true))
      n += static_cast<std::size_t>(f.size());
    return n;
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

  void unpack(const std::vector<Region<R>>& fs,
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

  void pack(const std::vector<Region<R>>& fs, std::vector<Real>& buf) const {
    buf.clear();
    for (std::size_t ui = 0; ui < fs.size(); ++ui) {
      if (fs[ui].size() == 0) continue;
      require_face(ui, fs[ui], "outflow");
      pack_region_into(*uses[ui].array, fs[ui], buf);
    }
  }

  /// The tile body both executors run: unpack the tile's inflow payloads
  /// (axis 0 then axis 1, one per inflow peer), compute the tile, charge
  /// it, then for each outflow axis pack into `buffer(axis)` and hand the
  /// payload to `send(axis, peer, payload)`. Returns the tile.
  template <typename Buffer, typename Send>
  Region<R> run_tile(Communicator& comm, bool charge, Coord u, Coord v,
                     std::span<const std::span<const Real>> inflows,
                     Buffer&& buffer, Send&& send) const {
    std::size_t k = 0;
    for (int axis = 0; axis < 2; ++axis)
      if (inflow_peer(axis, u, v) >= 0)
        unpack(faces(axis, along(axis, u, v), /*inflow=*/true), inflows[k++]);
    const Region<R> tl = tile(u, v);
    run_serial_on(*plan, tl);
    if (charge) comm.compute(static_cast<double>(tl.size()));
    for (int axis = 0; axis < 2; ++axis) {
      const int peer = outflow_peer(axis, u, v);
      if (peer < 0) continue;
      std::vector<Real>& buf = buffer(axis);
      pack(faces(axis, along(axis, u, v), /*inflow=*/false), buf);
      send(axis, peer, std::span<const Real>(buf));
    }
    return tl;
  }
};

/// The blocking tile loop over the grid. Tiles run in anti-diagonal order:
/// within a diagonal every tile's (u-1,v) and (u,v-1) dependences sit on
/// the previous diagonal, and each face stream touches at most one tile
/// per diagonal (axis 0 at u==0 / u==mi-1 advances in v, axis 1 at v==0 /
/// v==mj-1 in u), so posting and consumption stay FIFO per (src, tag).
/// Unlike a row-major sweep, the first south face leaves after ~mi tiles
/// instead of after nearly the whole local block — this is what lets the
/// rank-grid pipeline fill along both axes at once. On a rank line the
/// order is simply the column order.
///
/// Every stream is double-buffered over persistent buffers: stream
/// position k+1's irecv is posted as soon as position k's has arrived, and
/// buffer k % 2 is safe to refill at position k because its previous
/// request was settled at k - 2 (or never existed; waiting an invalid
/// Request is a no-op).
template <Rank R>
void run_wave_grid(const WaveGrid<R>& g, Communicator& comm,
                   const WaveOptions& opts) {
  // [axis][slot]
  std::array<std::array<std::vector<Real>, 2>, 2> recv_buf, send_buf;
  std::array<std::array<Request, 2>, 2> recv_req, send_req;
  const std::array<int, 2> pred{g.t.pred, g.t.pred2};
  const std::array<Coord, 2> len{g.mj, g.mi};  // stream length per axis

  auto post = [&](int axis, Coord k) {
    const auto a = static_cast<std::size_t>(axis);
    if (pred[a] < 0 || k >= len[a]) return;
    auto& buf = recv_buf[a][static_cast<std::size_t>(k % 2)];
    buf.resize(g.inflow_size(axis, k));
    recv_req[a][static_cast<std::size_t>(k % 2)] =
        comm.irecv(pred[a], std::span<Real>(buf), g.tag(axis));
  };

  post(0, 0);
  post(1, 0);
  for (Coord d = 0; d < g.mi + g.mj - 1; ++d) {
    for (Coord u = std::max<Coord>(0, d - (g.mj - 1));
         u <= std::min(g.mi - 1, d); ++u) {
      const Coord v = d - u;
      const double tile_t0 = comm.vtime();
      auto slot_of = [&](int axis) {
        return static_cast<std::size_t>(WaveGrid<R>::along(axis, u, v) % 2);
      };
      std::array<std::span<const Real>, 2> inflows;
      std::size_t n_in = 0;
      for (int axis = 0; axis < 2; ++axis) {
        if (g.inflow_peer(axis, u, v) < 0) continue;
        const auto a = static_cast<std::size_t>(axis);
        comm.wait(recv_req[a][slot_of(axis)]);
        inflows[n_in++] = recv_buf[a][slot_of(axis)];
        post(axis, WaveGrid<R>::along(axis, u, v) + 1);
      }
      const Region<R> tile = g.run_tile(
          comm, opts.charge, u, v,
          std::span<const std::span<const Real>>(inflows.data(), n_in),
          [&](int axis) -> std::vector<Real>& {
            // Settle the send this buffer last carried before refilling it.
            const auto a = static_cast<std::size_t>(axis);
            comm.wait(send_req[a][slot_of(axis)]);
            return send_buf[a][slot_of(axis)];
          },
          [&](int axis, int peer, std::span<const Real> payload) {
            Request& r =
                send_req[static_cast<std::size_t>(axis)][slot_of(axis)];
            r = comm.isend(peer, payload, g.tag(axis));
            if (!opts.overlap) comm.wait(r);
          });

      // One slice per tile spanning its recv-waits, compute, and sends; the
      // tag carries the row-major tile index so a trace shows the wave
      // marching.
      comm.tracer().record(TraceEventType::kTile, tile_t0, comm.vtime(), -1,
                           static_cast<int>(u * g.mj + v),
                           static_cast<std::uint64_t>(tile.size()));
    }
  }
  for (auto& axis_reqs : send_req)
    for (auto& r : axis_reqs) comm.wait(r);
}

}  // namespace detail

/// Executes a compiled scan block over a block-distributed layout.
/// Collective: every rank of the grid must call with the same plan
/// structure and options. Returns a per-rank report.
template <Rank R>
WaveReport<R> run_wavefront(const WavefrontPlan<R>& plan,
                            const Layout<R>& layout, Communicator& comm,
                            const WaveOptions& opts = {}) {
  const int rank = comm.rank();
  require(layout.grid().size() == comm.size(),
          "processor grid size must equal machine size");

  const WaveTiling<R> tiling = wave_tiling(plan, layout, rank);

  // Old-value ghost exchange, bundled: every array with a nonzero halo
  // contributes to one message per neighbour per dimension.
  if (opts.pre_exchange) {
    std::vector<GhostHalo<Real, R>> bundle;
    for (const auto& use : plan.arrays) {
      bool any = false;
      for (Rank d = 0; d < R; ++d) any = any || use.halo.v[d] > 0;
      if (any) bundle.push_back({use.array, use.halo});
    }
    if (!bundle.empty())
      exchange_ghosts(std::span<const GhostHalo<Real, R>>(bundle), layout,
                      rank, comm, opts.tag_base);
  }

  WaveReport<R> rep;
  rep.local_region = tiling.local;
  if (!tiling.waved) {
    run_serial_on(plan, tiling.local);
    if (opts.charge) comm.compute(static_cast<double>(tiling.local.size()));
    return rep;
  }

  const detail::WaveGrid<R> g(plan, tiling, opts.block, opts.block_w,
                              opts.tag_base);
  detail::run_wave_grid(g, comm, opts);
  rep.waved = true;
  rep.axes = tiling.axes;
  rep.tile_dim = tiling.tdim;
  rep.tiles = g.mj;
  rep.block = g.bj;
  rep.wtiles = g.mi;
  rep.block_w = g.bw;
  return rep;
}

/// Fig 4(a): the naive schedule — the wavefront dimension is serialized.
template <Rank R>
WaveReport<R> run_naive(const WavefrontPlan<R>& plan, const Layout<R>& layout,
                        Communicator& comm, WaveOptions opts = {}) {
  opts.block = 0;
  return run_wavefront(plan, layout, comm, opts);
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
