#pragma once
// Geometry primitives shared by the leaf-cell generators: MOS stripes
// (diffusion with contacted poly fingers), contact/via stacks, and wire
// segments. Everything is derived from the technology's lambda rules so
// the same generator emits legal geometry for every registered process —
// the "design-rule independence" the paper claims for BISRAMGEN.

#include <vector>

#include "geom/cell.hpp"
#include "tech/tech.hpp"

namespace bisram::cells {

using geom::Cell;
using geom::Coord;
using geom::Layer;
using geom::Point;
using geom::Rect;
using tech::Tech;

/// Result of drawing a MOS stripe with `fingers` gates.
struct Stripe {
  Rect diff;                    ///< the diffusion rectangle
  std::vector<Rect> gates;      ///< poly gate rects, left to right
  std::vector<Rect> sd_pads;    ///< metal1 pads over S/D contacts (f+1)
  Rect well;                    ///< enclosing well (PMOS only; empty else)
};

/// Options for draw_mos_stripe.
struct StripeSpec {
  int fingers = 1;
  Coord gate_w = 0;          ///< channel width (diffusion height)
  Coord pitch = 0;           ///< contact-center to gate-center distance;
                             ///< 0 = minimum legal pitch
  std::vector<bool> contact; ///< which of the fingers+1 S/D columns get a
                             ///< contact; empty = all (series chains like
                             ///< NAND pull-downs contact only the ends)
};

/// Draws a horizontal MOS stripe at `origin` (lower-left of diffusion):
/// alternating S/D columns and poly fingers of channel width
/// `spec.gate_w` and minimum length. PMOS stripes get an enclosing
/// n-well. Returns the landing geometry so the caller can wire to gates
/// and S/D pads (uncontacted columns yield empty pad rects).
Stripe draw_mos_stripe(Cell& cell, const Tech& t, bool pmos, Point origin,
                       const StripeSpec& spec);

/// Convenience overload: all columns contacted, minimum pitch.
Stripe draw_mos_stripe(Cell& cell, const Tech& t, bool pmos, Point origin,
                       int fingers, Coord gate_w);

/// Contact from `lower` (diffusion or poly) up to metal1, centered at
/// `center`; draws the cut, the lower-layer landing pad (when `lower` is
/// poly) and the metal1 pad. Returns the metal1 pad.
Rect draw_contact(Cell& cell, const Tech& t, Layer lower, Point center);

/// Via metal1->metal2, centered at `center`; draws the cut plus both
/// metal landing pads; returns the upper pad.
Rect draw_via1(Cell& cell, const Tech& t, Point center);

/// Straight wire of `width` between two points sharing an x or y
/// coordinate; returns the rect. Throws when the points are diagonal.
Rect draw_wire(Cell& cell, const Tech& t, Layer layer, Point a, Point b,
               Coord width);

/// L-shaped route: horizontal from `a`, then vertical to `b`.
void draw_route_hv(Cell& cell, const Tech& t, Layer layer, Point a, Point b,
                   Coord width);

/// Minimum legal wire width of a layer.
Coord min_width(const Tech& t, Layer layer);

}  // namespace bisram::cells
