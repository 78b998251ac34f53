#include "geom/cell.hpp"

#include "geom/layout_db.hpp"
#include "util/error.hpp"

namespace bisram::geom {

void Cell::add_shape(Layer layer, const Rect& rect) {
  if (rect.empty())
    throw InternalError("Cell::add_shape: empty rect in cell " + name_);
  shapes_.push_back({layer, rect});
}

void Cell::add_port(std::string name, Layer layer, const Rect& rect) {
  if (rect.empty())
    throw InternalError("Cell::add_port: empty rect for port " + name);
  ports_.push_back({std::move(name), layer, rect});
}

void Cell::add_instance(std::string name, CellPtr cell, const Transform& t) {
  ensure(cell != nullptr, "Cell::add_instance: null cell");
  instances_.push_back({std::move(name), std::move(cell), t});
}

const Port& Cell::port(std::string_view name) const {
  for (const auto& p : ports_)
    if (p.name == name) return p;
  throw Error("Cell '" + name_ + "' has no port '" + std::string(name) + "'");
}

std::optional<Port> Cell::find_port(std::string_view name) const {
  for (const auto& p : ports_)
    if (p.name == name) return p;
  return std::nullopt;
}

Rect Cell::bbox() const {
  // A rigid Manhattan transform maps a child's box onto the box of its
  // transformed shapes, so each master is boxed once.
  MasterMemo<Rect> box([](const Cell& c, MasterMemo<Rect>& memo) {
    Rect b{};  // empty
    for (const auto& s : c.shapes()) b = b.united(s.rect);
    for (const auto& inst : c.instances())
      b = b.united(inst.transform.apply(memo(*inst.cell)));
    return b;
  });
  return box(*this);
}

std::size_t Cell::flat_shape_count() const {
  return static_cast<std::size_t>(LayoutDB::census(*this).total);
}

std::size_t Cell::transistor_census() const {
  // One flatten into a tile index; the poly-over-diffusion crossing test
  // then only examines polys near each diffusion strip instead of the
  // historical all-pairs product.
  return LayoutDB(*this).transistor_census();
}

std::shared_ptr<Cell> Library::create(const std::string& name) {
  require(!contains(name), "Library: duplicate cell name '" + name + "'");
  auto cell = std::make_shared<Cell>(name);
  cells_[name] = cell;
  return cell;
}

void Library::add(std::shared_ptr<Cell> cell) {
  ensure(cell != nullptr, "Library::add: null cell");
  require(!contains(cell->name()),
          "Library: duplicate cell name '" + cell->name() + "'");
  cells_[cell->name()] = std::move(cell);
}

CellPtr Library::get(const std::string& name) const {
  auto it = cells_.find(name);
  if (it == cells_.end()) throw Error("Library: no cell named '" + name + "'");
  return it->second;
}

std::vector<CellPtr> Library::cells() const {
  std::vector<CellPtr> out;
  out.reserve(cells_.size());
  for (const auto& [_, cell] : cells_) out.push_back(cell);
  return out;
}

}  // namespace bisram::geom
