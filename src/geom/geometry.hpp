#pragma once
// Integer geometry primitives for the layout database.
//
// Coordinates are in database units (DBU) of lambda/10: fine enough for
// the half-lambda rules that appear in scalable-CMOS decks, coarse enough
// that all rule arithmetic stays exact in 64-bit integers.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace bisram::geom {

/// Database-unit coordinate: 1 DBU == lambda / 10.
using Coord = std::int64_t;

/// Converts a length expressed in lambda to DBU.
constexpr Coord dbu(double lambda) {
  return static_cast<Coord>(lambda * 10.0 + (lambda >= 0 ? 0.5 : -0.5));
}

/// Converts DBU back to lambda.
constexpr double to_lambda(Coord c) { return static_cast<double>(c) / 10.0; }

struct Point {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point&, const Point&) = default;
  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
};

/// Axis-aligned rectangle, closed on all sides; lo <= hi is an invariant
/// maintained by the named constructors (a default Rect is empty).
struct Rect {
  Point lo;
  Point hi;

  /// Rectangle from two corner coordinates in any order.
  static Rect ltrb(Coord x0, Coord y0, Coord x1, Coord y1) {
    return {{std::min(x0, x1), std::min(y0, y1)},
            {std::max(x0, x1), std::max(y0, y1)}};
  }
  /// Rectangle from origin and size.
  static Rect xywh(Coord x, Coord y, Coord w, Coord h) {
    return ltrb(x, y, x + w, y + h);
  }

  Coord width() const { return hi.x - lo.x; }
  Coord height() const { return hi.y - lo.y; }
  bool empty() const { return width() <= 0 || height() <= 0; }
  double area() const {
    return static_cast<double>(width()) * static_cast<double>(height());
  }
  Point center() const { return {(lo.x + hi.x) / 2, (lo.y + hi.y) / 2}; }

  bool contains(const Point& p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  /// True when the interiors or edges touch/overlap.
  bool intersects(const Rect& o) const {
    return lo.x <= o.hi.x && o.lo.x <= hi.x && lo.y <= o.hi.y && o.lo.y <= hi.y;
  }
  /// True when the interiors overlap with positive area.
  bool overlaps(const Rect& o) const {
    return lo.x < o.hi.x && o.lo.x < hi.x && lo.y < o.hi.y && o.lo.y < hi.y;
  }
  /// Intersection; empty() when the rectangles do not overlap.
  Rect intersection(const Rect& o) const {
    return {{std::max(lo.x, o.lo.x), std::max(lo.y, o.lo.y)},
            {std::min(hi.x, o.hi.x), std::min(hi.y, o.hi.y)}};
  }
  /// Smallest rectangle containing both.
  Rect united(const Rect& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {{std::min(lo.x, o.lo.x), std::min(lo.y, o.lo.y)},
            {std::max(hi.x, o.hi.x), std::max(hi.y, o.hi.y)}};
  }
  /// Grows (or shrinks, if negative) by `d` on every side.
  Rect expanded(Coord d) const {
    return {{lo.x - d, lo.y - d}, {hi.x + d, hi.y + d}};
  }

  friend bool operator==(const Rect&, const Rect&) = default;
};

/// Manhattan separation between two non-overlapping rects (0 if touching
/// or overlapping): the larger of the x-gap and y-gap when diagonal,
/// otherwise the single axis gap.
Coord rect_gap(const Rect& a, const Rect& b);

/// Exact area of the union of a rectangle set (overlaps counted once),
/// by coordinate-compressed sweep. O(n^2 log n) worst case; fine for the
/// per-layer shape counts of cells and macros.
double union_area(const std::vector<Rect>& rects);

/// One of the eight layout orientations (rotations and mirrors).
enum class Orient : int { R0 = 0, R90, R180, R270, MX, MXR90, MY, MYR90 };

/// Rigid transform: orientation about the origin followed by translation.
class Transform {
 public:
  Transform() = default;
  Transform(Orient o, Point offset) : orient_(o), offset_(offset) {}
  static Transform translate(Coord dx, Coord dy) {
    return Transform(Orient::R0, {dx, dy});
  }

  Orient orient() const { return orient_; }
  Point offset() const { return offset_; }

  Point apply(const Point& p) const;
  Rect apply(const Rect& r) const;
  /// Composition: (*this) after `inner` — apply(inner.apply(p)).
  Transform compose(const Transform& inner) const;
  /// The inverse rigid transform: inverse().apply(apply(p)) == p. Exact
  /// in integers (orientations are signed permutation matrices). Lets
  /// LayoutDB::apply re-place an already-flattened subtree without
  /// consulting the source cell.
  Transform inverse() const;

  friend bool operator==(const Transform&, const Transform&) = default;

 private:
  Orient orient_ = Orient::R0;
  Point offset_{};
};

/// Human-readable orientation name ("R0", "MX", ...).
std::string orient_name(Orient o);

}  // namespace bisram::geom
