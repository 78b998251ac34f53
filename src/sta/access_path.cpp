#include "sta/access_path.hpp"

#include <algorithm>
#include <cmath>

#include "cells/leaf_cells.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace bisram::sta {

namespace {

constexpr double kLn2 = 0.6931471805599453;
/// 10% swing crossing of an RC discharge: t = -ln(0.9) * tau. This is
/// where current-mode sensing gets its speed — the read bit line only
/// has to move a tenth of the rail.
constexpr double kSwing = 0.10536051565782628;

/// Coarsening caps: the ladders stay Elmore-exact for total delay when
/// segments are merged (first moment is preserved), so these bound graph
/// size without biasing the numbers.
constexpr int kMaxWlSegments = 64;
constexpr int kMaxBlSegments = 32;

}  // namespace

TimingGraph build_access_graph(const tech::Tech& t,
                               const sim::RamGeometry& geo, double gate_size,
                               const LeafTiming& lt) {
  const int row_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(geo.rows())));
  const double lam = t.lambda_um;
  const double pitch_um = cells::kCellPitchLambda * lam;
  const auto& m1 = t.elec.wire[static_cast<std::size_t>(geom::Layer::Metal1)];
  const auto& m2 = t.elec.wire[static_cast<std::size_t>(geom::Layer::Metal2)];
  // Word line: poly strapped in metal1 (4 lambda wide), one strap pitch
  // per cell. Bit line: metal2, 3 lambda wide, full column height.
  const double r_wl_per_cell = m1.sheet_ohm * pitch_um / (4.0 * lam);
  const double r_bl_per_cell = m2.sheet_ohm * pitch_um / (3.0 * lam);
  const double c_wl_per_cell = wordline_cap_per_cell_f(t);
  const double c_bl_per_cell = bitline_cap_per_cell_f(t);

  const int cols = geo.cols();
  const int rows = geo.total_rows();
  const int bpw = geo.bpw;
  const int bpc = geo.bpc;

  TimingGraph g;
  const int addr = g.add_source("addr");
  const int din = g.add_source("din");

  // Decoder: the leaf-characterized row-decoder slice (NAND tree plus
  // word-line driver), one fixed-delay stage.
  const int dec = g.add_node("wldrv_in");
  g.add_delay(addr, dec, lt.decoder_s,
              strfmt("decoder/row_decoder[%d]", row_bits));

  // Word line: driver resistance against the distributed line, coarsened
  // to at most kMaxWlSegments RC segments.
  const int wl_segs = std::min(kMaxWlSegments, cols);
  const double cells_per_wseg = static_cast<double>(cols) / wl_segs;
  std::vector<int> wl_node(static_cast<std::size_t>(wl_segs));
  for (int s = 0; s < wl_segs; ++s)
    wl_node[static_cast<std::size_t>(s)] = g.add_node(
        strfmt("wl_seg%d", s), cells_per_wseg * c_wl_per_cell);
  g.add_gate(dec, wl_node[0], kLn2 * lt.wl_driver_r_ohm, "wordline/driver");
  for (int s = 1; s < wl_segs; ++s)
    g.add_wire(wl_node[static_cast<std::size_t>(s - 1)],
               wl_node[static_cast<std::size_t>(s)],
               kLn2 * cells_per_wseg * r_wl_per_cell,
               strfmt("wordline/seg[%d]", s));

  // Per data bit: the worst column of the bit's bpc-column group (the
  // one farthest along the word line), its bit-line ladder, column mux,
  // and sense amp; plus the write path into the same column's cell.
  const int bl_segs = std::min(kMaxBlSegments, rows);
  const double cells_per_bseg = static_cast<double>(rows) / bl_segs;
  for (int b = 0; b < bpw; ++b) {
    const int col = (b + 1) * bpc - 1;  // worst column of this bit
    const int tap = std::min(wl_segs - 1, static_cast<int>(
        (static_cast<double>(col) + 0.5) * wl_segs / cols));

    // Read: the selected cell discharges the bit line through its
    // pull-down and pass device; current-mode sensing needs only a 10%
    // swing, so every resistance on the discharge path carries the
    // -ln(0.9) crossing factor.
    std::vector<int> bl(static_cast<std::size_t>(bl_segs));
    for (int s = 0; s < bl_segs; ++s)
      bl[static_cast<std::size_t>(s)] = g.add_node(
          strfmt("b%d_bl%d", b, s), cells_per_bseg * c_bl_per_cell);
    g.add_gate(wl_node[static_cast<std::size_t>(tap)], bl[0],
               kSwing * lt.cell_r_ohm, strfmt("col[%d]/cell", col));
    for (int s = 1; s < bl_segs; ++s)
      g.add_wire(bl[static_cast<std::size_t>(s - 1)],
                 bl[static_cast<std::size_t>(s)],
                 kSwing * cells_per_bseg * r_bl_per_cell,
                 strfmt("col[%d]/bitline/seg[%d]", col, s));
    // Column mux pass device into the sense-amp input bus (the bus stub
    // spans the bit's bpc columns in metal1).
    const int sa_in = g.add_node(strfmt("b%d_sain", b),
                                 bpc * pitch_um * (3.0 * lam) *
                                         m1.cap_area_f_um2 +
                                     2.0 * bpc * pitch_um * m1.cap_fringe_f_um);
    g.add_wire(bl[static_cast<std::size_t>(bl_segs - 1)], sa_in,
               kSwing * lt.mux_r_ohm, strfmt("col[%d]/mux", col));
    const int dout = g.add_endpoint(strfmt("dout[%d]", b));
    g.add_delay(sa_in, dout, lt.senseamp_s, strfmt("dout[%d]/senseamp", b));

    // Write: the write driver forces a full swing through the mux and
    // down the bit line; the cell accepts the data once the word line
    // has also arrived — the arrival max at cell[b] models exactly that.
    const int wdrv = g.add_node(strfmt("b%d_wdrv", b));
    g.add_delay(din, wdrv, lt.write_driver_s,
                strfmt("dout[%d]/write_driver", b));
    std::vector<int> wbl(static_cast<std::size_t>(bl_segs));
    for (int s = 0; s < bl_segs; ++s)
      wbl[static_cast<std::size_t>(s)] = g.add_node(
          strfmt("b%d_wbl%d", b, s), cells_per_bseg * c_bl_per_cell);
    g.add_gate(wdrv, wbl[0], kLn2 * (lt.write_r_ohm + lt.mux_r_ohm),
               strfmt("col[%d]/write_path", col));
    for (int s = 1; s < bl_segs; ++s)
      g.add_wire(wbl[static_cast<std::size_t>(s - 1)],
                 wbl[static_cast<std::size_t>(s)],
                 kLn2 * cells_per_bseg * r_bl_per_cell,
                 strfmt("col[%d]/wbitline/seg[%d]", col, s));
    const int cell = g.add_endpoint(strfmt("cell[%d]", b));
    g.add_wire(wbl[static_cast<std::size_t>(bl_segs - 1)], cell, 0.0,
               strfmt("col[%d]/wbitline/far", col));
    g.add_delay(wl_node[static_cast<std::size_t>(tap)], cell, 0.0,
                strfmt("col[%d]/wordline_select", col));
  }
  return g;
}

AccessTiming analyze_access_path(const tech::Tech& t,
                                 const sim::RamGeometry& geo, double gate_size,
                                 const LeafTiming& lt,
                                 const AnalyzeOptions& options) {
  const TimingGraph g = build_access_graph(t, geo, gate_size, lt);
  AnalyzeOptions opt = options;
  if (opt.k_paths < 1) opt.k_paths = 1;
  AccessTiming at;
  at.report = g.analyze(opt);
  at.tau_s = lt.tau_s;

  // Worst endpoint arrivals by kind.
  for (const EndpointSlack& e : at.report.endpoints) {
    if (e.name.rfind("dout[", 0) == 0)
      at.access_s = std::max(at.access_s, e.arrival_s);
    else
      at.write_s = std::max(at.write_s, e.arrival_s);
  }

  // Split the worst read path into the classic datasheet breakdown by
  // arc tag. The worst path over dout endpoints is the first worst_paths
  // entry whose endpoint is a dout (paths are sorted by slack, and read
  // and write share the clock, so it is usually the first entry).
  const CriticalPath* read_path = nullptr;
  for (const CriticalPath& p : at.report.worst_paths)
    if (p.endpoint.rfind("dout[", 0) == 0) {
      read_path = &p;
      break;
    }
  StaReport full;
  if (!read_path) {
    // The carried worst paths are all write endpoints; trace everything
    // once (cheap on this graph) to find the worst read path.
    AnalyzeOptions all = opt;
    all.k_paths = static_cast<int>(at.report.endpoint_count);
    full = g.analyze(all);
    for (const CriticalPath& p : full.worst_paths)
      if (p.endpoint.rfind("dout[", 0) == 0) {
        read_path = &p;
        break;
      }
  }
  if (read_path) {
    for (const PathStep& s : read_path->steps) {
      if (s.tag.rfind("decoder", 0) == 0)
        at.decoder_s += s.incr_s;
      else if (s.tag.rfind("wordline", 0) == 0)
        at.wordline_s += s.incr_s;
      else if (s.tag.find("senseamp") != std::string::npos)
        at.senseamp_s += s.incr_s;
      else
        at.bitline_s += s.incr_s;  // cell, bitline segments, mux
    }
  } else {
    at.decoder_s = lt.decoder_s;
    at.senseamp_s = lt.senseamp_s;
  }
  return at;
}

}  // namespace bisram::sta
