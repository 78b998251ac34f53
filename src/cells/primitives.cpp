#include "cells/primitives.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bisram::cells {

Coord min_width(const Tech& t, Layer layer) {
  return t.rule(layer).min_width;
}

namespace {
Rect square(Point center, Coord size) {
  return Rect::ltrb(center.x - size / 2, center.y - size / 2,
                    center.x + size / 2, center.y + size / 2);
}
}  // namespace

Stripe draw_mos_stripe(Cell& cell, const Tech& t, bool pmos, Point origin,
                       const StripeSpec& spec) {
  require(spec.fingers >= 1, "draw_mos_stripe: needs >= 1 finger");
  require(spec.gate_w >= t.rule(pmos ? Layer::PDiff : Layer::NDiff).min_width,
          "draw_mos_stripe: channel narrower than diffusion min width");
  require(spec.contact.empty() ||
              spec.contact.size() == static_cast<std::size_t>(spec.fingers + 1),
          "draw_mos_stripe: contact mask size must be fingers + 1");
  const bool any_contact =
      spec.contact.empty() ||
      std::find(spec.contact.begin(), spec.contact.end(), true) !=
          spec.contact.end();
  require(!any_contact ||
              spec.gate_w >= t.contact_size + 2 * t.contact_encl_diff,
          "draw_mos_stripe: channel too narrow to enclose S/D contacts");
  const Layer diff_layer = pmos ? Layer::PDiff : Layer::NDiff;
  const Coord lgate = t.from_um(t.feature_um);  // minimum drawn gate length
  const Coord cut = t.contact_size;
  const Coord encl = t.contact_encl_diff;  // diffusion past contact
  const Coord min_pitch = cut / 2 + t.contact_space + lgate / 2;
  const Coord pitch = spec.pitch > 0 ? spec.pitch : min_pitch;
  require(pitch >= min_pitch, "draw_mos_stripe: pitch below minimum");

  Stripe s;
  const Coord y_mid = origin.y + spec.gate_w / 2;
  // S/D column centers sit at even multiples of `pitch` from the first,
  // gate centers at odd multiples.
  const Coord first_sd = origin.x + encl + cut / 2;
  std::vector<Coord> pad_xs, gate_xs;
  for (int k = 0; k <= spec.fingers; ++k)
    pad_xs.push_back(first_sd + 2 * pitch * k);
  for (int k = 0; k < spec.fingers; ++k)
    gate_xs.push_back(first_sd + pitch * (2 * k + 1));

  const Coord diff_hi_x = pad_xs.back() + cut / 2 + encl;
  s.diff = Rect::ltrb(origin.x, origin.y, diff_hi_x, origin.y + spec.gate_w);
  cell.add_shape(diff_layer, s.diff);

  for (Coord gx : gate_xs) {
    const Rect gate =
        Rect::ltrb(gx - lgate / 2, origin.y - t.gate_poly_ext, gx + lgate / 2,
                   origin.y + spec.gate_w + t.gate_poly_ext);
    cell.add_shape(Layer::Poly, gate);
    s.gates.push_back(gate);
  }
  for (std::size_t k = 0; k < pad_xs.size(); ++k) {
    if (!spec.contact.empty() && !spec.contact[k]) {
      s.sd_pads.emplace_back();  // uncontacted column: empty pad
      continue;
    }
    s.sd_pads.push_back(
        draw_contact(cell, t, diff_layer, {pad_xs[k], y_mid}));
  }

  if (pmos) {
    s.well = s.diff.expanded(t.well_encl_diff);
    cell.add_shape(Layer::NWell, s.well);
  }
  return s;
}

Stripe draw_mos_stripe(Cell& cell, const Tech& t, bool pmos, Point origin,
                       int fingers, Coord gate_w) {
  StripeSpec spec;
  spec.fingers = fingers;
  spec.gate_w = gate_w;
  return draw_mos_stripe(cell, t, pmos, origin, spec);
}

Rect draw_contact(Cell& cell, const Tech& t, Layer lower, Point center) {
  const Rect cut = square(center, t.contact_size);
  cell.add_shape(Layer::Contact, cut);
  if (lower == Layer::Poly) {
    cell.add_shape(Layer::Poly, cut.expanded(t.contact_encl_poly));
  } else if (lower == Layer::NDiff || lower == Layer::PDiff) {
    // The caller's diffusion is assumed to already enclose the cut (the
    // stripe generator guarantees it); nothing extra to draw.
  } else {
    throw InternalError("draw_contact: lower layer must be diff or poly");
  }
  const Rect m1 = cut.expanded(t.contact_encl_m1);
  cell.add_shape(Layer::Metal1, m1);
  return m1;
}

Rect draw_via1(Cell& cell, const Tech& t, Point center) {
  const Rect cut = square(center, t.via1_size);
  cell.add_shape(Layer::Via1, cut);
  cell.add_shape(Layer::Metal1, cut.expanded(t.via1_encl));
  const Rect m2 = cut.expanded(t.via1_encl);
  cell.add_shape(Layer::Metal2, m2);
  return m2;
}

Rect draw_wire(Cell& cell, const Tech& t, Layer layer, Point a, Point b,
               Coord width) {
  require(a.x == b.x || a.y == b.y, "draw_wire: endpoints must be aligned");
  const Coord w = width > 0 ? width : min_width(t, layer);
  Rect r;
  if (a.y == b.y) {
    r = Rect::ltrb(std::min(a.x, b.x) - w / 2, a.y - w / 2,
                   std::max(a.x, b.x) + w / 2, a.y + w / 2);
  } else {
    r = Rect::ltrb(a.x - w / 2, std::min(a.y, b.y) - w / 2, a.x + w / 2,
                   std::max(a.y, b.y) + w / 2);
  }
  cell.add_shape(layer, r);
  return r;
}

void draw_route_hv(Cell& cell, const Tech& t, Layer layer, Point a, Point b,
                   Coord width) {
  if (a.y == b.y || a.x == b.x) {
    draw_wire(cell, t, layer, a, b, width);
    return;
  }
  const Point corner{b.x, a.y};
  draw_wire(cell, t, layer, a, corner, width);
  draw_wire(cell, t, layer, corner, b, width);
}

}  // namespace bisram::cells
