// Ghost (fluff) exchange for @-shift references.
//
// Unprimed @-references of arrays not written in a scan block read
// neighbour values computed *before* the block; those flow through a
// conventional halo exchange, implemented here. (Primed references flow
// through the wavefront executors' pipelined sends instead.)
//
// The exchange is bundled and nonblocking: per distributed dimension, ALL
// arrays' faces for a given neighbour travel as one message (the paper's
// alpha is paid once per neighbour, not once per array), receives are
// posted before packing begins, and send completions are settled once at
// the end of the whole exchange — so in virtual time the send engine
// drains while the rank packs, unpacks, and stalls on its neighbours.
#pragma once

#include <source_location>
#include <span>
#include <vector>

#include "array/dist_array.hh"
#include "comm/communicator.hh"

namespace wavepipe {

/// A direction that is `amount` along dimension d and zero elsewhere.
template <Rank R>
constexpr Direction<R> face_shift(Rank d, Coord amount) {
  Direction<R> dir{};
  dir.v[d] = amount;
  return dir;
}

/// Packs the values of `a` on `face` (global indices, must be inside the
/// allocated region) into a flat buffer in canonical order.
template <typename T, Rank R>
std::vector<T> pack_region(const DenseArray<T, R>& a, const Region<R>& face) {
  std::vector<T> buf;
  buf.reserve(static_cast<std::size_t>(face.size()));
  for_each(face, [&](const Idx<R>& i) { buf.push_back(a(i)); });
  return buf;
}

/// Appends `face`'s values to `buf` (canonical order): the building block
/// for bundled messages and persistent send buffers.
template <typename T, Rank R>
void pack_region_into(const DenseArray<T, R>& a, const Region<R>& face,
                      std::vector<T>& buf) {
  buf.reserve(buf.size() + static_cast<std::size_t>(face.size()));
  for_each(face, [&](const Idx<R>& i) { buf.push_back(a(i)); });
}

/// Unpacks a flat buffer (canonical order) into `a` on `face`. Takes a
/// span so callers can unpack slices of a bundled message without copying
/// them out first.
template <typename T, Rank R>
void unpack_region(DenseArray<T, R>& a, const Region<R>& face,
                   std::span<const T> buf) {
  require(static_cast<Coord>(buf.size()) == face.size(),
          "unpack buffer size mismatch");
  std::size_t k = 0;
  for_each(face, [&](const Idx<R>& i) { a(i) = buf[k++]; });
}

/// Vector convenience overload (template deduction cannot convert a
/// vector argument to a span parameter on its own).
template <typename T, Rank R>
void unpack_region(DenseArray<T, R>& a, const Region<R>& face,
                   const std::vector<T>& buf) {
  unpack_region(a, face, std::span<const T>(buf));
}

/// One array's participation in a bundled ghost exchange: exchange
/// width.v[d]-deep faces of `array` along every distributed dimension d.
template <typename T, Rank R>
struct GhostHalo {
  DenseArray<T, R>* array = nullptr;
  Idx<R> width{};
};

namespace detail {

/// Runs per exchange: the message is built only when the check fails.
template <typename T, Rank R>
void require_fluff(const DenseArray<T, R>& a, const Region<R>& fluff, Coord w,
                   Rank d,
                   std::source_location loc = std::source_location::current()) {
  if (a.region().contains(fluff)) return;
  throw ContractError(
      "array '" + a.name() +
          "' allocates too little fluff for a ghost exchange of width " +
          std::to_string(w) + " along dimension " + std::to_string(d),
      loc);
}

}  // namespace detail

/// Bundled exchange: fills the fluff of every array in `halos` with its
/// neighbours' values, one message per (neighbour, dimension) carrying all
/// participating arrays' faces concatenated in `halos` order. Dimensions
/// are exchanged in order and each array's face span grows by its own
/// widths as dimensions complete, so corner fluff (diagonal stencils)
/// propagates transitively exactly as in the per-array exchange.
/// Collective: every rank of the grid must call with the same `halos`
/// structure. Consumes tags tag_base .. tag_base + 2*R - 1.
template <typename T, Rank R>
void exchange_ghosts(std::span<const GhostHalo<T, R>> halos,
                     const Layout<R>& layout, int rank, Communicator& comm,
                     int tag_base = 100) {
  const ProcGrid<R>& grid = layout.grid();
  const Region<R> owned = layout.owned(rank);
  if (owned.empty() || halos.empty()) return;

  // The region array i's faces span in dimensions other than the exchange
  // dimension, growing as earlier dimensions complete their exchanges.
  std::vector<Region<R>> span(halos.size(), owned);

  std::vector<T> send_lo, send_hi, recv_lo, recv_hi;
  std::vector<Request> send_reqs;
  std::vector<std::size_t> active;  // indices into halos, per dimension

  for (Rank d = 0; d < R; ++d) {
    if (!grid.distributed(d)) {
      for (std::size_t i = 0; i < halos.size(); ++i) {
        const Coord w = halos[i].width.v[d];
        if (w <= 0) continue;
        span[i] = span[i]
                      .with_dim(d, span[i].lo(d) - w, span[i].hi(d) + w)
                      .intersect(halos[i].array->region());
      }
      continue;
    }

    active.clear();
    for (std::size_t i = 0; i < halos.size(); ++i)
      if (halos[i].width.v[d] > 0) active.push_back(i);
    if (active.empty()) continue;

    const int low_nbr = grid.neighbor(rank, d, -1);
    const int high_nbr = grid.neighbor(rank, d, +1);
    const int tag_up = tag_base + 2 * static_cast<int>(d);        // toward -d
    const int tag_down = tag_base + 2 * static_cast<int>(d) + 1;  // toward +d

    // Post both receives before any packing: the bundle sizes are known
    // from the fluff regions alone.
    Request r_lo, r_hi;
    if (low_nbr >= 0) {
      std::size_t total = 0;
      for (const std::size_t i : active) {
        const Coord w = halos[i].width.v[d];
        const Region<R> fluff =
            span[i].low_face(d, w).shifted(face_shift<R>(d, -w));
        detail::require_fluff(*halos[i].array, fluff, w, d);
        total += static_cast<std::size_t>(fluff.size());
      }
      recv_lo.resize(total);
      r_lo = comm.irecv(low_nbr, std::span<T>(recv_lo), tag_down);
    }
    if (high_nbr >= 0) {
      std::size_t total = 0;
      for (const std::size_t i : active) {
        const Coord w = halos[i].width.v[d];
        const Region<R> fluff =
            span[i].high_face(d, w).shifted(face_shift<R>(d, w));
        detail::require_fluff(*halos[i].array, fluff, w, d);
        total += static_cast<std::size_t>(fluff.size());
      }
      recv_hi.resize(total);
      r_hi = comm.irecv(high_nbr, std::span<T>(recv_hi), tag_up);
    }

    // Pack and start both sends. isend copies the payload out, so the
    // pack buffers are immediately reusable; completion is settled once,
    // after every dimension's faces have shipped.
    if (low_nbr >= 0) {
      send_lo.clear();
      for (const std::size_t i : active)
        pack_region_into(*halos[i].array,
                         span[i].low_face(d, halos[i].width.v[d]), send_lo);
      send_reqs.push_back(
          comm.isend(low_nbr, std::span<const T>(send_lo), tag_up));
    }
    if (high_nbr >= 0) {
      send_hi.clear();
      for (const std::size_t i : active)
        pack_region_into(*halos[i].array,
                         span[i].high_face(d, halos[i].width.v[d]), send_hi);
      send_reqs.push_back(
          comm.isend(high_nbr, std::span<const T>(send_hi), tag_down));
    }

    // Complete the receives and scatter the bundles into the fluff.
    if (low_nbr >= 0) {
      comm.wait(r_lo);
      std::size_t off = 0;
      for (const std::size_t i : active) {
        const Coord w = halos[i].width.v[d];
        const Region<R> fluff =
            span[i].low_face(d, w).shifted(face_shift<R>(d, -w));
        const std::size_t n = static_cast<std::size_t>(fluff.size());
        unpack_region(*halos[i].array, fluff,
                      std::span<const T>(recv_lo).subspan(off, n));
        off += n;
      }
    }
    if (high_nbr >= 0) {
      comm.wait(r_hi);
      std::size_t off = 0;
      for (const std::size_t i : active) {
        const Coord w = halos[i].width.v[d];
        const Region<R> fluff =
            span[i].high_face(d, w).shifted(face_shift<R>(d, w));
        const std::size_t n = static_cast<std::size_t>(fluff.size());
        unpack_region(*halos[i].array, fluff,
                      std::span<const T>(recv_hi).subspan(off, n));
        off += n;
      }
    }

    // Dimension d is now coherent out to the fluff; later dimensions'
    // faces include it so corners become coherent too.
    for (const std::size_t i : active) {
      const Coord w = halos[i].width.v[d];
      span[i] = span[i]
                    .with_dim(d, span[i].lo(d) - w, span[i].hi(d) + w)
                    .intersect(halos[i].array->region());
    }
  }

  comm.wait_all(std::span<Request>(send_reqs));
}

/// Single-array exchange: a one-entry bundle.
template <typename T, Rank R>
void exchange_ghosts(DenseArray<T, R>& local, const Layout<R>& layout,
                     int rank, Communicator& comm, const Idx<R>& width,
                     int tag_base = 100) {
  const GhostHalo<T, R> h{&local, width};
  exchange_ghosts(std::span<const GhostHalo<T, R>>(&h, 1), layout, rank, comm,
                  tag_base);
}

/// DistArray convenience overload.
template <typename T, Rank R>
void exchange_ghosts(DistArray<T, R>& a, Communicator& comm,
                     const Idx<R>& width, int tag_base = 100) {
  exchange_ghosts(a.local(), a.layout(), a.rank(), comm, width, tag_base);
}

}  // namespace wavepipe
