// Index and direction types for rank-R rectangular index spaces.
//
// `Idx<R>` is a point in a rank-R integer space; `Direction<R>` is an offset
// vector, the ZPL "direction" used with the @ (shift) operator and the prime
// operator. Both are small value types.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace wavepipe {

/// Rank of an index space (number of array dimensions). The paper's codes
/// are rank 1..3 (SWEEP3D's angular dimensions are not distributed).
using Rank = std::size_t;

/// Coordinate type. Signed so directions and shifted indices compose freely.
using Coord = std::int64_t;

/// A point in a rank-R index space.
template <Rank R>
struct Idx {
  std::array<Coord, R> v{};

  constexpr Coord& operator[](Rank d) { return v[d]; }
  constexpr Coord operator[](Rank d) const { return v[d]; }

  friend constexpr bool operator==(const Idx&, const Idx&) = default;
};

/// A ZPL direction: an offset vector applied by the @ operator. E.g. the 2-D
/// cardinal directions north=(-1,0), south=(1,0), west=(0,-1), east=(0,1).
template <Rank R>
struct Direction {
  std::array<Coord, R> v{};

  constexpr Coord& operator[](Rank d) { return v[d]; }
  constexpr Coord operator[](Rank d) const { return v[d]; }

  constexpr Direction operator-() const {
    Direction out;
    for (Rank d = 0; d < R; ++d) out.v[d] = -v[d];
    return out;
  }

  constexpr bool is_zero() const {
    for (Rank d = 0; d < R; ++d)
      if (v[d] != 0) return false;
    return true;
  }

  friend constexpr bool operator==(const Direction&, const Direction&) = default;
  /// Lexicographic; lets directions key ordered containers.
  friend constexpr auto operator<=>(const Direction& a, const Direction& b) {
    return a.v <=> b.v;
  }
};

template <Rank R>
constexpr Idx<R> operator+(Idx<R> i, const Direction<R>& d) {
  for (Rank k = 0; k < R; ++k) i.v[k] += d.v[k];
  return i;
}

template <Rank R>
constexpr Idx<R> operator-(Idx<R> i, const Direction<R>& d) {
  for (Rank k = 0; k < R; ++k) i.v[k] -= d.v[k];
  return i;
}

// The 2-D cardinal and diagonal directions from the paper's examples.
inline constexpr Direction<2> kNorth{{-1, 0}};
inline constexpr Direction<2> kSouth{{1, 0}};
inline constexpr Direction<2> kWest{{0, -1}};
inline constexpr Direction<2> kEast{{0, 1}};
inline constexpr Direction<2> kNorthWest{{-1, -1}};
inline constexpr Direction<2> kNorthEast{{-1, 1}};
inline constexpr Direction<2> kSouthWest{{1, -1}};
inline constexpr Direction<2> kSouthEast{{1, 1}};

template <Rank R>
std::string to_string(const Idx<R>& i) {
  std::string s = "(";
  for (Rank d = 0; d < R; ++d) {
    if (d) s += ',';
    s += std::to_string(i.v[d]);
  }
  return s + ")";
}

template <Rank R>
std::string to_string(const Direction<R>& dir) {
  std::string s = "(";
  for (Rank d = 0; d < R; ++d) {
    if (d) s += ',';
    s += std::to_string(dir.v[d]);
  }
  return s + ")";
}

template <Rank R>
std::ostream& operator<<(std::ostream& os, const Idx<R>& i) {
  return os << to_string(i);
}

template <Rank R>
std::ostream& operator<<(std::ostream& os, const Direction<R>& d) {
  return os << to_string(d);
}

}  // namespace wavepipe
