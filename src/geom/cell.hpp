#pragma once
// Hierarchical layout database: cells contain shapes, labelled ports and
// transformed instances of other cells. BISRAMGEN builds leaf cells from
// design rules, then composes them bottom-up by abutment exactly as the
// paper describes ("no routing is necessary and the signals in adjacent
// modules are perfectly aligned and connected by abutments").

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "geom/geometry.hpp"
#include "geom/layer.hpp"

namespace bisram::geom {

/// Flatten-recursion depth cap of LayoutDB's flattener (the library's
/// one flatten path): a hierarchy nested deeper than this (or one with
/// an instance cycle, which recurses forever) aborts with a
/// "layout-flatten-too-deep" DiagError instead of overflowing the
/// stack — the same bounded-recursion policy as the JSON parser's
/// depth cap. Generated macros are ~6 levels deep; 64 is headroom,
/// not a real design bound.
inline constexpr int kMaxFlattenDepth = 64;

/// Total-instance cap for one flatten
/// ("layout-flatten-too-many-instances"): bounds time and memory on
/// combinatorially exploding hierarchies. 1 << 26 instances is ~50x
/// the Fig. 7 128 KB macro.
inline constexpr std::size_t kMaxFlattenInstances = std::size_t{1} << 26;

/// One rectangle on one layer.
struct Shape {
  Layer layer = Layer::Metal1;
  Rect rect;
};

/// A named connection point on a cell boundary (or interior).
struct Port {
  std::string name;
  Layer layer = Layer::Metal1;
  Rect rect;
};

class Cell;
using CellPtr = std::shared_ptr<const Cell>;

/// A placed, oriented reference to another cell.
struct Instance {
  std::string name;
  CellPtr cell;
  Transform transform;
};

/// A layout cell. Cells are immutable once published into a Library;
/// builders mutate them through the non-const API before publishing.
class Cell {
 public:
  explicit Cell(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // --- building -----------------------------------------------------------
  void add_shape(Layer layer, const Rect& rect);
  void add_port(std::string name, Layer layer, const Rect& rect);
  void add_instance(std::string name, CellPtr cell, const Transform& t);

  // --- queries ------------------------------------------------------------
  const std::vector<Shape>& shapes() const { return shapes_; }
  const std::vector<Port>& ports() const { return ports_; }
  const std::vector<Instance>& instances() const { return instances_; }

  /// Port by name; throws bisram::Error when absent.
  const Port& port(std::string_view name) const;
  /// Port by name; nullopt when absent.
  std::optional<Port> find_port(std::string_view name) const;

  /// Bounding box over own shapes and all instances (recursive; each
  /// distinct master is boxed once per call).
  Rect bbox() const;

  /// Total shape count in the fully flattened cell, from the flattener's
  /// census (LayoutDB::census: each distinct master counted once, the
  /// flatten guards applied).
  std::size_t flat_shape_count() const;

  /// Number of transistors implied by poly-over-diffusion crossings in the
  /// flattened layout (cheap structural census; full recognition lives in
  /// src/extract).
  std::size_t transistor_census() const;

 private:
  std::string name_;
  std::vector<Shape> shapes_;
  std::vector<Port> ports_;
  std::vector<Instance> instances_;
};

/// A per-master value computed bottom-up through a hierarchy, each
/// distinct master once: `fn(cell, memo)` builds a cell's value and reads
/// each child's through `memo(*inst.cell)`. The cost is the distinct
/// masters' own shapes and instance lists, not the flat shape count.
/// Meant to live for one call: cells stay mutable through their builder
/// API after being instanced, so a memo kept across calls could go stale.
template <typename T>
class MasterMemo {
 public:
  using Fn = std::function<T(const Cell&, MasterMemo&)>;
  explicit MasterMemo(Fn fn) : fn_(std::move(fn)) {}

  /// The value of `cell`; the reference lives as long as the memo.
  const T& operator()(const Cell& cell) {
    if (auto it = memo_.find(&cell); it != memo_.end()) return it->second;
    T value = fn_(cell, *this);
    return memo_.emplace(&cell, std::move(value)).first->second;
  }

 private:
  Fn fn_;
  std::unordered_map<const Cell*, T> memo_;
};

/// Owning registry of cells; names are unique.
class Library {
 public:
  /// Creates a new mutable cell; throws if the name already exists.
  std::shared_ptr<Cell> create(const std::string& name);

  /// Publishes an externally built cell into the library.
  void add(std::shared_ptr<Cell> cell);

  /// Lookup; throws bisram::Error when absent.
  CellPtr get(const std::string& name) const;

  bool contains(const std::string& name) const {
    return cells_.count(name) != 0;
  }
  std::size_t size() const { return cells_.size(); }

  /// All cells in name order.
  std::vector<CellPtr> cells() const;

 private:
  std::map<std::string, std::shared_ptr<Cell>> cells_;
};

}  // namespace bisram::geom
