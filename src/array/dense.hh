// DenseArray: the local storage type of the array language.
//
// A DenseArray<T, R> owns a rank-R rectangular block of elements addressed
// by *global* indices (its region need not start at zero — a distributed
// rank allocates exactly its owned-plus-fluff region in global
// coordinates). Storage order is a runtime property because the paper's
// uniprocessor cache study (Fig 6) depends on Fortran's column-major
// layout; the default here is column-major to match the benchmarks it
// reproduces.
#pragma once

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "index/region.hh"

namespace wavepipe {

enum class StorageOrder { kRowMajor, kColMajor };

/// The dimension whose unit stride is contiguous in memory.
constexpr Rank contiguous_dim(StorageOrder order, Rank rank) {
  return order == StorageOrder::kRowMajor ? rank - 1 : 0;
}

template <typename T, Rank R>
class DenseArray {
 public:
  DenseArray(std::string name, const Region<R>& region,
             StorageOrder order = StorageOrder::kColMajor, T init = T{})
      : name_(std::move(name)), region_(region), order_(order) {
    require(!region.empty(), "DenseArray needs a non-empty region");
    for (Rank d = 0; d < R; ++d) extent_[d] = region.extent(d);
    compute_strides();
    data_.assign(static_cast<std::size_t>(region.size()), init);
  }

  DenseArray(const DenseArray&) = delete;
  DenseArray& operator=(const DenseArray&) = delete;
  DenseArray(DenseArray&&) noexcept = default;
  DenseArray& operator=(DenseArray&&) noexcept = default;

  const std::string& name() const { return name_; }
  const Region<R>& region() const { return region_; }
  StorageOrder order() const { return order_; }
  Coord stride(Rank d) const { return stride_[d]; }

  /// Stable identity used by the DSL to recognize "the same array" across
  /// statements. Valid as long as the array is not moved.
  const void* id() const { return static_cast<const void*>(this); }

  /// Unchecked element access by global index.
  T& operator()(const Idx<R>& i) { return data_[offset(i)]; }
  const T& operator()(const Idx<R>& i) const { return data_[offset(i)]; }

  /// Convenience for rank-2/3 call sites: a(i, j), a(i, j, k).
  template <typename... C>
    requires(sizeof...(C) == R && (std::is_convertible_v<C, Coord> && ...))
  T& operator()(C... c) {
    return (*this)(Idx<R>{{static_cast<Coord>(c)...}});
  }
  template <typename... C>
    requires(sizeof...(C) == R && (std::is_convertible_v<C, Coord> && ...))
  const T& operator()(C... c) const {
    return (*this)(Idx<R>{{static_cast<Coord>(c)...}});
  }

  /// Checked element access.
  T& at(const Idx<R>& i) {
    require(region_.contains(i),
            "index " + to_string(i) + " outside array '" + name_ + "' region " +
                to_string(region_));
    return data_[offset(i)];
  }
  const T& at(const Idx<R>& i) const {
    return const_cast<DenseArray*>(this)->at(i);
  }

  void fill(T v) { data_.assign(data_.size(), v); }

  /// Re-addresses the array as `region` (non-empty): resizes raw() to
  /// region.size() and recomputes the strides. Values stay where they are
  /// in raw(), not at their indices; a caller that needs some to survive
  /// moves them itself. run_wavefront sizes a contracted array's storage
  /// this way (exec/contracted.hh).
  void reframe(const Region<R>& region) {
    require(!region.empty(), "DenseArray needs a non-empty region");
    region_ = region;
    for (Rank d = 0; d < R; ++d) extent_[d] = region.extent(d);
    compute_strides();
    data_.resize(static_cast<std::size_t>(region.size()));
  }

  /// Sets every element of `where` (contained in the array's region; empty
  /// is fine) to `v`, one storage-order pencil at a time.
  void fill(const Region<R>& where, T v) {
    for_each_pencil(where, [&](const Idx<R>& i, Coord count) {
      std::fill_n(&(*this)(i), count, v);
    });
  }

  /// Fills from a function of the global index, in storage order. `fn`
  /// must be a pure function of the index: the visiting order is the
  /// memory order, not for_each's.
  template <typename Fn>
  void fill_fn(Fn&& fn) {
    // The contiguous dimension as a constant keeps the index in registers.
    auto fill = [&](auto c) {
      for_each_pencil(region_, [&](Idx<R> i, Coord count) {
        T* p = &(*this)(i);
        for (Coord k = 0; k < count; ++k, ++i.v[c]) p[k] = fn(std::as_const(i));
      });
    };
    if (order_ == StorageOrder::kRowMajor)
      fill(std::integral_constant<Rank, R - 1>{});
    else
      fill(std::integral_constant<Rank, 0>{});
  }

  /// Copies the values of `src` on `where` (must be contained in both).
  void copy_from(const DenseArray& src, const Region<R>& where) {
    require(region_.contains(where) && src.region().contains(where),
            "copy_from region must be contained in both arrays");
    const Coord ss = src.stride(contiguous_dim(order_, R));
    for_each_pencil(where, [&](const Idx<R>& i, Coord count) {
      T* d = &(*this)(i);
      const T* s = &src(i);
      for (Coord k = 0; k < count; ++k) d[k] = s[k * ss];
    });
  }

  /// Calls `fn(start, count)` for every storage-order pencil of `where`
  /// (contained in the array's region; empty is fine): the `count`
  /// elements from global index `start` along the contiguous dimension,
  /// adjacent in raw(). Pencils come in increasing memory order.
  template <typename Fn>
  void for_each_pencil(const Region<R>& where, Fn&& fn) const {
    if (where.empty()) return;
    const Coord count = where.extent(contiguous_dim(order_, R));
    Idx<R> i = where.lo();
    while (true) {
      fn(std::as_const(i), count);
      // Advance the outer dimensions, smallest stride first.
      Rank level = 1;
      for (; level < R; ++level) {
        const Rank d = order_ == StorageOrder::kRowMajor ? R - 1 - level : level;
        if (i.v[d] < where.hi(d)) {
          ++i.v[d];
          break;
        }
        i.v[d] = where.lo(d);
      }
      if (level == R) return;
    }
  }

  std::vector<T>& raw() { return data_; }
  const std::vector<T>& raw() const { return data_; }

  /// Linear offset of a global index into raw().
  std::size_t offset(const Idx<R>& i) const {
    Coord off = 0;
    for (Rank d = 0; d < R; ++d)
      off += (i.v[d] - region_.lo(d)) * stride_[d];
    return static_cast<std::size_t>(off);
  }

 private:
  void compute_strides() {
    if (order_ == StorageOrder::kRowMajor) {
      stride_[R - 1] = 1;
      for (Rank d = R - 1; d-- > 0;) stride_[d] = stride_[d + 1] * extent_[d + 1];
    } else {
      stride_[0] = 1;
      for (Rank d = 1; d < R; ++d) stride_[d] = stride_[d - 1] * extent_[d - 1];
    }
  }

  std::string name_;
  Region<R> region_;
  StorageOrder order_;
  std::array<Coord, R> extent_{};
  std::array<Coord, R> stride_{};
  std::vector<T> data_;
};

/// Sets every element of `a` outside `keep` to `v` — e.g. a rank's fluff,
/// the allocated region minus the owned one — as at most 2R slabs: along
/// each dimension d in turn, the parts below and above `keep`, spanning
/// `keep` along the dimensions before d and all of `a` after it.
template <typename T, Rank R>
void fill_outside(DenseArray<T, R>& a, const Region<R>& keep, T v) {
  const Region<R> inner = keep.intersect(a.region());
  if (inner.empty()) {
    a.fill(v);
    return;
  }
  Region<R> span = a.region();
  for (Rank d = 0; d < R; ++d) {
    if (span.lo(d) < inner.lo(d))
      a.fill(span.with_dim(d, span.lo(d), inner.lo(d) - 1), v);
    if (inner.hi(d) < span.hi(d))
      a.fill(span.with_dim(d, inner.hi(d) + 1, span.hi(d)), v);
    span = span.with_dim(d, inner.lo(d), inner.hi(d));
  }
}

/// Max |difference| between two same-region arrays; convergence checks and
/// executor-equivalence tests.
template <typename T, Rank R>
T max_abs_difference(const DenseArray<T, R>& a, const DenseArray<T, R>& b) {
  require(a.region() == b.region(), "arrays must cover the same region");
  // A max is exact in any order: walk a's storage order.
  const Coord bs = b.stride(contiguous_dim(a.order(), R));
  T m = T{};
  a.for_each_pencil(a.region(), [&](const Idx<R>& i, Coord count) {
    const T* pa = &a(i);
    const T* pb = &b(i);
    for (Coord k = 0; k < count; ++k) {
      const T x = pa[k], y = pb[k * bs];
      const T d = x < y ? y - x : x - y;
      if (d > m) m = d;
    }
  });
  return m;
}

}  // namespace wavepipe
