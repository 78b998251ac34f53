#include "macro/macros.hpp"

#include "util/error.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace bisram::macro {

using cells::kCellPitchLambda;
using geom::Coord;
using geom::dbu;
using geom::Orient;
using geom::Transform;

namespace {

Coord pitch() { return dbu(kCellPitchLambda); }

/// Creates (or returns) a cached macro by name.
std::shared_ptr<geom::Cell> fresh(Library& lib, const std::string& name,
                                  bool& existed) {
  existed = lib.contains(name);
  return existed ? nullptr : lib.create(name);
}

}  // namespace

CellPtr ram_array(Library& lib, const Tech& t, const sim::RamGeometry& geo,
                  const MacroOptions& opt) {
  geo.validate();
  require(opt.strap_interval >= 0, "ram_array: negative strap interval");
  const std::string name =
      strfmt("ramarray_r%d_c%d_s%d_st%d", geo.rows(), geo.cols(),
             geo.spare_rows, opt.strap_interval);
  bool existed = false;
  auto array = fresh(lib, name, existed);
  if (existed) return lib.get(name);

  const CellPtr bit = cells::sram_cell_6t(lib, t);
  const Coord p = pitch();
  const int cols = geo.cols();

  // Row template: cells plus a strap every strap_interval columns.
  const std::string row_name = name + "_row";
  auto row = lib.create(row_name);
  Coord x = 0;
  CellPtr strap =
      opt.strap_interval > 0
          ? cells::strap_cell(lib, t, opt.strap_width_lambda)
          : nullptr;
  for (int c = 0; c < cols; ++c) {
    if (strap && c > 0 && c % opt.strap_interval == 0) {
      row->add_instance(strfmt("strap%d", c), strap, Transform::translate(x, 0));
      x += strap->bbox().width();
    }
    row->add_instance(strfmt("b%d", c), bit, Transform::translate(x, 0));
    x += p;
  }
  const Coord row_w = x;
  row->add_port("gnd", geom::Layer::Metal1,
                geom::Rect::ltrb(0, 0, row_w, dbu(3)));
  row->add_port("vdd", geom::Layer::Metal1,
                geom::Rect::ltrb(0, dbu(53), row_w, p));
  row->add_port("wl", geom::Layer::Poly,
                geom::Rect::ltrb(0, dbu(4), row_w, dbu(6)));

  // Stack rows, mirroring odd rows so adjacent rows share rails.
  const int total_rows = geo.total_rows();
  for (int r = 0; r < total_rows; ++r) {
    const bool mirrored = r % 2 == 1;
    const Coord y = mirrored ? (r + 1) * p : r * p;
    array->add_instance(strfmt("row%d", r), lib.get(row_name),
                        Transform(mirrored ? Orient::MX : Orient::R0, {0, y}));
  }
  // Floorplan interface ports: word lines enter on the left edge, bit
  // lines leave through the bottom edge.
  const Coord total_h = total_rows * p;
  array->add_port("decoder_side", geom::Layer::Poly,
                  geom::Rect::ltrb(0, 0, dbu(2), total_h));
  array->add_port("column_side", geom::Layer::Metal2,
                  geom::Rect::ltrb(0, 0, row_w, dbu(2)));
  return array;
}

CellPtr row_decoder_column(Library& lib, const Tech& t, int rows,
                           const MacroOptions& opt) {
  require(rows >= 2, "row_decoder_column: needs >= 2 rows");
  const int bits = log2_ceil(static_cast<std::uint64_t>(rows));
  const std::string name = strfmt("rowdeccol_r%d_x%g", rows, opt.gate_size);
  bool existed = false;
  auto col = fresh(lib, name, existed);
  if (existed) return lib.get(name);

  const CellPtr dec = cells::row_decoder_cell(lib, t, bits, opt.gate_size);
  const Coord p = pitch();
  for (int r = 0; r < rows; ++r) {
    const bool mirrored = r % 2 == 1;
    const Coord y = mirrored ? (r + 1) * p : r * p;
    col->add_instance(strfmt("dec%d", r), dec,
                      Transform(mirrored ? Orient::MX : Orient::R0, {0, y}));
  }
  const Coord w = dec->bbox().width();
  col->add_port("wl_out", geom::Layer::Poly,
                geom::Rect::ltrb(w - dbu(2), 0, w, rows * p));
  col->add_port("addr_in", geom::Layer::Poly,
                geom::Rect::ltrb(0, 0, w, dbu(2)));
  return col;
}

CellPtr column_periphery(Library& lib, const Tech& t,
                         const sim::RamGeometry& geo,
                         const MacroOptions& opt) {
  geo.validate();
  const std::string name =
      strfmt("colperiph_c%d_bpc%d_st%d_x%g", geo.cols(), geo.bpc,
             opt.strap_interval, opt.gate_size);
  bool existed = false;
  auto periph = fresh(lib, name, existed);
  if (existed) return lib.get(name);

  const CellPtr pc = cells::precharge_cell(lib, t, opt.gate_size);
  const CellPtr mux = cells::column_mux_cell(lib, t, opt.gate_size);
  const CellPtr sa = cells::sense_amp_cell(lib, t, opt.gate_size);
  const CellPtr wd = cells::write_driver_cell(lib, t, opt.gate_size);
  const Coord p = pitch();
  const Coord strap_w = opt.strap_interval > 0
                            ? dbu(opt.strap_width_lambda)
                            : 0;

  // x position of array column c: a strap precedes every column whose
  // index is a positive multiple of the strap interval (matching
  // ram_array's row template).
  auto col_x = [&](int c) {
    const int straps = opt.strap_interval > 0 ? c / opt.strap_interval : 0;
    return c * p + straps * strap_w;
  };

  // Row 0 (top, abutting the array): precharge per column.
  // Row 1: column mux per column. Row 2: one SA + WD pair per I/O group.
  const Coord h_pc = pc->bbox().height();
  const Coord h_mux = mux->bbox().height();
  const Coord y_mux = -h_mux;           // mux below origin
  const Coord y_pc = 0;                 // precharge at origin upward
  const Coord h_sa = std::max(sa->bbox().height(), wd->bbox().height());
  const Coord y_sa = y_mux - h_sa - dbu(8);
  (void)h_pc;
  for (int c = 0; c < geo.cols(); ++c) {
    const Coord x = col_x(c);
    periph->add_instance(strfmt("pc%d", c), pc, Transform::translate(x, y_pc));
    periph->add_instance(strfmt("mux%d", c), mux,
                         Transform(Orient::MX, {x, y_mux + h_mux}));
  }
  for (int g = 0; g < geo.bpw; ++g) {
    const Coord x = col_x(g * geo.bpc);
    periph->add_instance(strfmt("sa%d", g), sa, Transform::translate(x, y_sa));
    if (geo.bpc > 1) {
      const Coord xw = col_x(g * geo.bpc + 1);
      periph->add_instance(strfmt("wd%d", g), wd,
                           Transform::translate(xw, y_sa));
    }
  }
  const Coord total_w = col_x(geo.cols() - 1) + p;
  periph->add_port("bitline_top", geom::Layer::Metal2,
                   geom::Rect::ltrb(0, pc->bbox().height() - dbu(2), total_w,
                                    pc->bbox().height()));
  periph->add_port("data_out", geom::Layer::Metal1,
                   geom::Rect::ltrb(0, y_sa, total_w, y_sa + dbu(2)));
  periph->add_port("control", geom::Layer::Poly,
                   geom::Rect::ltrb(0, y_mux, dbu(2), 0));
  return periph;
}

namespace {
CellPtr slice_row(Library& lib, const std::string& name, const CellPtr& slice,
                  int count) {
  bool existed = false;
  auto row = fresh(lib, name, existed);
  if (existed) return lib.get(name);
  const Coord w = slice->bbox().width();
  for (int i = 0; i < count; ++i)
    row->add_instance(strfmt("s%d", i), slice,
                      Transform::translate(i * w, 0));
  const Coord h = slice->bbox().height();
  row->add_port("bus", geom::Layer::Metal1,
                geom::Rect::ltrb(0, h - dbu(2), count * w, h));
  row->add_port("control", geom::Layer::Poly,
                geom::Rect::ltrb(0, 0, count * w, dbu(2)));
  return row;
}
}  // namespace

CellPtr addgen_macro(Library& lib, const Tech& t, int bits) {
  require(bits >= 1 && bits <= 32, "addgen_macro: bits out of range");
  return slice_row(lib, strfmt("addgen_b%d", bits),
                   cells::counter_slice_cell(lib, t), bits);
}

CellPtr datagen_macro(Library& lib, const Tech& t, int bpw) {
  require(bpw >= 1 && bpw <= 512, "datagen_macro: bpw out of range");
  return slice_row(lib, strfmt("datagen_b%d", bpw),
                   cells::johnson_slice_cell(lib, t), bpw);
}

CellPtr streg_macro(Library& lib, const Tech& t, int bits) {
  require(bits >= 1 && bits <= 16, "streg_macro: bits out of range");
  return slice_row(lib, strfmt("streg_b%d", bits), cells::dff_cell(lib, t),
                   bits);
}

CellPtr tlb_macro(Library& lib, const Tech& t, int entries, int key_bits) {
  require(entries >= 1 && entries <= 256, "tlb_macro: entries out of range");
  require(key_bits >= 1 && key_bits <= 32, "tlb_macro: key bits out of range");
  const std::string name = strfmt("tlb_e%d_k%d", entries, key_bits);
  bool existed = false;
  auto tlb = fresh(lib, name, existed);
  if (existed) return lib.get(name);

  const CellPtr cam = cells::cam_cell(lib, t);
  const CellPtr valid = cells::dff_cell(lib, t);
  const Coord cw = cam->bbox().width();
  const Coord ch = cam->bbox().height();
  for (int e = 0; e < entries; ++e) {
    for (int k = 0; k < key_bits; ++k)
      tlb->add_instance(strfmt("c%d_%d", e, k), cam,
                        Transform::translate(k * cw, e * ch));
    tlb->add_instance(strfmt("v%d", e), valid,
                      Transform::translate(key_bits * cw + dbu(8), e * ch));
  }
  tlb->add_port("addr_in", geom::Layer::Metal2,
                geom::Rect::ltrb(0, 0, key_bits * cw, dbu(2)));
  tlb->add_port("spare_out", geom::Layer::Metal1,
                geom::Rect::ltrb(0, entries * ch - dbu(2), key_bits * cw,
                                 entries * ch));
  return tlb;
}

CellPtr trpla_macro(Library& lib, const Tech& t,
                    const microcode::PlaPersonality& pla) {
  const std::string name =
      strfmt("trpla_i%d_o%d_t%d", pla.inputs(), pla.outputs(), pla.terms());
  bool existed = false;
  auto macro = fresh(lib, name, existed);
  if (existed) return lib.get(name);

  const CellPtr dot = cells::pla_cell(lib, t, true);
  const CellPtr blank = cells::pla_cell(lib, t, false);
  const CellPtr pullup = cells::pla_pullup_cell(lib, t);
  const Coord gw = dot->bbox().width();
  const Coord gh = dot->bbox().height();

  const auto& terms = pla.product_terms();
  for (int r = 0; r < pla.terms(); ++r) {
    const auto& term = terms[static_cast<std::size_t>(r)];
    Coord x = 0;
    // AND-plane pull-up for the product term line.
    macro->add_instance(strfmt("pu%d", r), pullup,
                        Transform::translate(x, r * gh));
    x += gw;
    // AND plane: true and complement column per input.
    for (int i = 0; i < pla.inputs(); ++i) {
      const char c = term.and_row[static_cast<std::size_t>(i)];
      macro->add_instance(strfmt("a%d_%dt", r, i), c == '0' ? dot : blank,
                          Transform::translate(x, r * gh));
      x += gw;
      macro->add_instance(strfmt("a%d_%dc", r, i), c == '1' ? dot : blank,
                          Transform::translate(x, r * gh));
      x += gw;
    }
    // OR plane: one column per output.
    for (int o = 0; o < pla.outputs(); ++o) {
      const char c = term.or_row[static_cast<std::size_t>(o)];
      macro->add_instance(strfmt("o%d_%d", r, o), c == '1' ? dot : blank,
                          Transform::translate(x, r * gh));
      x += gw;
    }
  }
  const Coord total_w = macro->bbox().width();
  const Coord total_h = macro->bbox().height();
  macro->add_port("inputs", geom::Layer::Poly,
                  geom::Rect::ltrb(gw, 0, gw + 2 * pla.inputs() * gw, dbu(2)));
  macro->add_port("outputs", geom::Layer::Metal1,
                  geom::Rect::ltrb(total_w - pla.outputs() * gw,
                                   total_h - dbu(2), total_w, total_h));
  return macro;
}

double macro_area_mm2(const Tech& t, const geom::Cell& cell) {
  return t.mm2(cell.bbox().area());
}

}  // namespace bisram::macro
