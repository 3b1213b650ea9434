#ifndef VAQ_GEOMETRY_POINT_H_
#define VAQ_GEOMETRY_POINT_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

namespace vaq {

/// A point (or 2-D vector) in the Euclidean plane.
///
/// `Point` is a trivially copyable value type used throughout the library:
/// as database objects, polygon vertices, Voronoi generators and query
/// positions. Arithmetic operators treat it as a vector where that is
/// meaningful.
struct Point {
  double x = 0.0;
  double y = 0.0;

  constexpr Point() = default;
  constexpr Point(double px, double py) : x(px), y(py) {}

  /// Vector addition.
  constexpr Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  /// Vector subtraction.
  constexpr Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
  /// Scalar multiplication.
  constexpr Point operator*(double s) const { return {x * s, y * s}; }
  /// Scalar division. Precondition: `s != 0`.
  constexpr Point operator/(double s) const { return {x / s, y / s}; }

  constexpr bool operator==(const Point& o) const {
    return x == o.x && y == o.y;
  }
  constexpr bool operator!=(const Point& o) const { return !(*this == o); }

  /// Lexicographic (x, then y) order; used for deterministic sorting.
  constexpr bool operator<(const Point& o) const {
    return x < o.x || (x == o.x && y < o.y);
  }

  /// Dot product of this and `o` viewed as vectors.
  constexpr double Dot(const Point& o) const { return x * o.x + y * o.y; }

  /// Z-component of the cross product of this and `o` viewed as vectors.
  constexpr double Cross(const Point& o) const { return x * o.y - y * o.x; }

  /// Squared Euclidean norm. Prefer this over `Norm()` for comparisons.
  constexpr double SquaredNorm() const { return x * x + y * y; }

  /// Euclidean norm.
  double Norm() const { return std::sqrt(SquaredNorm()); }
};

/// Squared Euclidean distance between `a` and `b`.
constexpr double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance between `a` and `b`.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// Midpoint of segment (a, b).
constexpr Point Midpoint(const Point& a, const Point& b) {
  return {(a.x + b.x) * 0.5, (a.y + b.y) * 0.5};
}

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

/// Hash functor so `Point` can key unordered containers in tests/tools.
struct PointHash {
  std::size_t operator()(const Point& p) const {
    const std::size_t hx = std::hash<double>{}(p.x);
    const std::size_t hy = std::hash<double>{}(p.y);
    return hx ^ (hy + 0x9e3779b97f4a7c15ULL + (hx << 6) + (hx >> 2));
  }
};

/// Identifier of a stored point: a position in the owning database's
/// point table (see `PointDatabase`); the database's R-tree stores none,
/// since each of its subtrees is an id range of that table.
using PointId = std::uint32_t;

/// Marker for "no point found".
inline constexpr PointId kInvalidPointId = 0xFFFFFFFFu;

}  // namespace vaq

#endif  // VAQ_GEOMETRY_POINT_H_
