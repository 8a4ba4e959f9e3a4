// Storage of a plan's contracted arrays (ScanBlock::contract) during one
// run of a wavefront instance — the array contraction of the paper's §2.1
// (Lewis, Lin & Snyder), applied to a wavefront's own recurrence array.
//
// A contracted array's values are dead outside the block, so the tiles,
// not the array's constructor, size its storage (DenseArray::reframe):
//
//   * window: on a waved rank line whose tile dimension t is not the
//     wavefront dimension, the array covers its allocated extent along
//     every dimension but t, and along t the tile's bj cells plus `back`
//     cells behind it in tile order, where back is the array's primed
//     halo along t. Before each later tile the window slides: the back
//     slab (cells the previous tiles computed) is packed, the frame moves
//     by one tile, and the slab is unpacked at its new place. A cell keeps
//     its place in raw() under any other dimension's index, so cells
//     outside the scan region keep the 0 the first window was filled
//     with;
//   * full: everywhere else (one rank, a non-waved plan, a 2D frontier,
//     an untiled rank line) the array covers its whole allocated block.
//
// Either way the run's first tile sizes the array and zeroes it, so every
// run starts from 0. ScanBlock::compile's legality rule — one writer,
// primed reads only, none reaching forward along a non-wavefront
// dimension — guarantees that no tile reads a cell outside its window, and
// that no pre-exchange is needed. A fused live-out max is folded over each
// tile right after it computes, while its cells are in the window and in
// cache, into that tile's own slots, which concurrent tiles never share.
#pragma once

#include <array>
#include <limits>
#include <span>
#include <vector>

#include "array/ghost.hh"
#include "lang/plan.hh"

namespace wavepipe::detail {

template <Rank R>
class ContractedStore {
 public:
  /// `bj` > 0 keeps windows of bj cells along `tdim`, tiles travelling in
  /// `tsign`; bj <= 0 gives every contracted array `allocated` in full.
  ContractedStore(const WavefrontPlan<R>& plan, const Region<R>& allocated,
                  Rank tdim, int tsign, Coord bj)
      : allocated_(allocated),
        tdim_(tdim),
        tsign_(tsign),
        bj_(bj) {
    for (const Contracted<R>& c : plan.contracted) {
      const ArrayUse<R>* use = plan.find_use(c.array->id());
      slots_.push_back({c, use ? use->prime_halo.v[tdim] : 0});
    }
  }

  /// Contracted arrays of the plan: fold() writes one max per array.
  std::size_t arrays() const { return slots_.size(); }

  /// Positions every array on `tile`; call before the tile unpacks its
  /// inflow faces. The run's first tile sizes and zeroes the storage;
  /// later ones slide a window and leave full storage alone.
  void enter(const Region<R>& tile, bool first) {
    for (const Slot& s : slots_) {
      DenseArray<Real, R>& a = *s.c.array;
      if (first) {
        a.reframe(bj_ > 0 ? window(tile, s.back) : allocated_);
        a.fill(0.0);
        continue;
      }
      if (bj_ <= 0) continue;
      const Region<R> win = window(tile, s.back);
      if (a.region() == win) continue;
      const Region<R> slab =
          tsign_ > 0 ? win.with_dim(tdim_, tile.lo(tdim_) - s.back,
                                    tile.lo(tdim_) - 1)
                     : win.with_dim(tdim_, tile.hi(tdim_) + 1,
                                    tile.hi(tdim_) + s.back);
      slab_.clear();
      if (s.back > 0) pack_region_into(a, slab, slab_);
      a.reframe(win);
      if (s.back > 0) unpack_region(a, slab, std::span<const Real>(slab_));
    }
  }

  /// Writes the live-out max over `cells` (a computed tile) of each
  /// contracted array into `out` (plan order); -inf without a live max.
  /// Four lanes break the compare chain of one running max (about 4x
  /// fewer ns per cell at -O3 on a 4-vCPU Xeon). A max is exact in any
  /// order, and a NaN never enters a lane (-inf < NaN is false), just as
  /// it never enters a single running max.
  void fold(const Region<R>& cells, std::span<Real> out) const {
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      out[k] = -std::numeric_limits<Real>::infinity();
      if (!slots_[k].c.live_max) continue;
      const DenseArray<Real, R>& a = *slots_[k].c.array;
      std::array<Real, 4> lane;
      lane.fill(out[k]);
      a.for_each_pencil(cells, [&](const Idx<R>& i, Coord count) {
        const Real* p = &a(i);
        Coord n = 0;
        for (; n + 4 <= count; n += 4)
          for (std::size_t l = 0; l < 4; ++l)
            lane[l] = lane[l] < p[n + l] ? p[n + l] : lane[l];
        for (; n < count; ++n) lane[0] = lane[0] < p[n] ? p[n] : lane[0];
      });
      for (const Real m : lane) out[k] = out[k] < m ? m : out[k];
    }
  }

 private:
  struct Slot {
    Contracted<R> c;
    Coord back;  // primed halo along the tile dimension
  };

  Region<R> window(const Region<R>& tile, Coord back) const {
    return tsign_ > 0
               ? allocated_.with_dim(tdim_, tile.lo(tdim_) - back,
                                     tile.lo(tdim_) + bj_ - 1)
               : allocated_.with_dim(tdim_, tile.hi(tdim_) - bj_ + 1,
                                     tile.hi(tdim_) + back);
  }

  Region<R> allocated_;
  Rank tdim_;
  int tsign_;
  Coord bj_;
  std::vector<Slot> slots_;
  std::vector<Real> slab_;
};

}  // namespace wavepipe::detail
