#include "core/timing.hpp"

#include <algorithm>
#include <cmath>

#include "spice/sizing.hpp"
#include "sta/access_path.hpp"
#include "sta/leaf.hpp"
#include "util/math.hpp"

namespace bisram::core {

TimingReport estimate_timing(const tech::Tech& t, const sim::RamGeometry& geo,
                             double gate_size, const sta::LeafTiming& lt) {
  // Path-based numbers from the STA access-path graph (sta/access_path):
  // the worst dout[b] endpoint arrival is the read access time, the
  // worst cell[b] arrival the write time, and the decoder/wordline/
  // bitline/senseamp split comes from the worst read path's arc tags.
  const sta::AccessTiming at = sta::analyze_access_path(t, geo, gate_size, lt);
  TimingReport r;
  r.tau_s = at.tau_s;
  r.decoder_s = at.decoder_s;
  r.wordline_s = at.wordline_s;
  r.bitline_s = at.bitline_s;
  r.senseamp_s = at.senseamp_s;
  r.access_s = at.access_s;
  r.write_s = at.write_s;

  // Synchronous interface (paper section VI, masking technique 2): the
  // TLB compare overlaps the low clock phase, so the address must be
  // valid one TLB delay before the active edge; hold is one stage delay.
  r.tlb_penalty_s = tlb_penalty_s(t, geo);
  r.setup_s = r.tlb_penalty_s;
  r.hold_s = r.tau_s;
  r.penalty_ratio = r.tlb_penalty_s / r.access_s;
  return r;
}

PowerReport estimate_power(const tech::Tech& t, const sim::RamGeometry& geo,
                           double access_s) {
  PowerReport p;
  p.vdd = t.elec.vdd;
  const double c_bl = geo.total_rows() * sta::bitline_cap_per_cell_f(t);
  const double c_wl = geo.cols() * sta::wordline_cap_per_cell_f(t);

  // Read: one word line swings rail to rail; every column's bit-line
  // pair is precharged back through the ~10% current-mode sensing swing;
  // the selected word's sense amps and output drivers switch fully.
  const double e_wl = c_wl * p.vdd * p.vdd;
  const double e_bl_read = geo.cols() * 2.0 * c_bl * p.vdd * (0.1 * p.vdd);
  const double e_sense = geo.bpw * 50e-15 * p.vdd * p.vdd;
  p.read_energy_j = e_wl + e_bl_read + e_sense;

  // Write: the selected word's bpw column pairs swing fully; the rest
  // see only the precharge swing.
  const double e_bl_write = geo.bpw * 2.0 * c_bl * p.vdd * p.vdd +
                            (geo.cols() - geo.bpw) * 2.0 * c_bl * p.vdd *
                                (0.1 * p.vdd);
  p.write_energy_j = e_wl + e_bl_write;

  // Back-to-back reads at the minimum cycle (= access time).
  p.active_power_w = p.read_energy_j / access_s;
  p.active_current_a = p.active_power_w / p.vdd;

  // Standby: subthreshold leakage of the cell array (one off NMOS path
  // per cell at the era-typical off current).
  const double ioff_per_cell = 1e-12;  // 1 pA per cell, half-micron era
  p.standby_power_w =
      static_cast<double>(geo.total_rows()) * geo.cols() * ioff_per_cell *
      p.vdd;
  return p;
}

double tlb_penalty_s(const tech::Tech& t, const sim::RamGeometry& geo) {
  const double tau = sta::stage_delay_s(t);
  const int entries = std::max(1, geo.spare_words());
  const int key_bits = log2_ceil(std::max<std::uint64_t>(geo.words, 2));

  // Match line: every CAM bit hangs a compare pull-down on it; the worst
  // case discharges through one XOR stack.
  const double lam = t.lambda_um;
  const double c_per_bit =
      (6.0 * lam) * (5.0 * lam) * t.elec.nmos.cj_f_um2 +
      (56.0 * lam) * (3.0 * lam) *
          t.elec.wire[static_cast<std::size_t>(geom::Layer::Metal1)]
              .cap_area_f_um2;
  const double r_stack =
      2.0 * spice::device_on_resistance(t, spice::MosType::Nmos, 6.0 * lam);
  const double match_s = 0.7 * r_stack * key_bits * c_per_bit;

  // Parallel compare resolves in one CAM delay; the hit then threads a
  // log-depth priority encoder (newest entry wins) and the address mux.
  const int levels = log2_ceil(static_cast<std::uint64_t>(entries));
  return match_s + tau * (2.0 + levels);
}

}  // namespace bisram::core
