// AxisTable: a function of one coordinate, evaluated once per coordinate.
//
// An app's init() often seeds an array from a separable expression such as
// c * sin(pi*x) * sin(pi*y). Evaluated per element, the transcendental
// calls cost O(n^2); tabulated per axis, O(n), and each element is two
// loads and the multiplies. Each table factor must be an operand the
// per-element expression forms before it combines with the other axis,
// and the element must combine the factors in the original left-to-right
// order: then the values are bit-identical. (exp(-k*(x*x + y*y)) is not
// such a product: exp(a + b) != exp(a) * exp(b) in IEEE arithmetic.)
#pragma once

#include <cstddef>
#include <vector>

#include "index/region.hh"

namespace wavepipe {

template <typename T>
class AxisTable {
 public:
  /// fn(c) for every coordinate c of `region` along dimension `d`.
  template <Rank R, typename Fn>
  AxisTable(const Region<R>& region, Rank d, Fn&& fn) : lo_(region.lo(d)) {
    v_.reserve(static_cast<std::size_t>(region.extent(d)));
    for (Coord c = region.lo(d); c <= region.hi(d); ++c) v_.push_back(fn(c));
  }

  /// The tabulated value at coordinate c (unchecked).
  T operator[](Coord c) const {
    return v_[static_cast<std::size_t>(c - lo_)];
  }

 private:
  Coord lo_;
  std::vector<T> v_;
};

}  // namespace wavepipe
