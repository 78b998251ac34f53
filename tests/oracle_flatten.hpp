#pragma once
// Test-side flatten oracle. The library flattens a hierarchy only
// through geom::LayoutDB; this plain recursion (no guards, no
// provenance) is the independent flatten that LayoutDB's shape order
// is checked against and that the seed DRC checker runs on. Shapes
// come out per layer in depth-first order: a cell's own shapes, then
// each instance's subtree in instance order.

#include <vector>

#include "geom/cell.hpp"

namespace bisram::oracle {

inline void flatten_into(const geom::Cell& cell, const geom::Transform& t,
                         std::vector<std::vector<geom::Rect>>& out) {
  for (const geom::Shape& s : cell.shapes())
    out[static_cast<std::size_t>(s.layer)].push_back(t.apply(s.rect));
  for (const geom::Instance& inst : cell.instances())
    flatten_into(*inst.cell, t.compose(inst.transform), out);
}

/// The flattened rects of `top`, indexed by layer.
inline std::vector<std::vector<geom::Rect>> flatten_by_layer(
    const geom::Cell& top) {
  std::vector<std::vector<geom::Rect>> out(geom::kLayerCount);
  flatten_into(top, geom::Transform{}, out);
  return out;
}

}  // namespace bisram::oracle
