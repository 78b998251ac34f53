#pragma once
// Timing estimation: BISRAMGEN "extracts and simulates leaf cells ahead
// of time, thereby extrapolating timing guarantees for the overall
// system". The model simulates one balanced inverter per process with
// the built-in SPICE engine to calibrate a stage delay tau, then walks
// the access path (decoder -> word line RC -> bit line RC -> column mux
// -> current-mode sense amp) with switch-level RC arithmetic.
//
// The same machinery produces the TLB address-diversion penalty: a
// parallel CAM compare (match-line RC) plus a log-depth priority encode
// and the output mux — the paper reports ~1.2 ns for four spare rows in
// a 0.7 um process, an order of magnitude below the access time.

#include "sim/ram_model.hpp"
#include "sta/leaf.hpp"
#include "tech/tech.hpp"

namespace bisram::core {

struct TimingReport {
  double tau_s = 0;          ///< calibrated inverter stage delay
  double decoder_s = 0;
  double wordline_s = 0;
  double bitline_s = 0;
  double senseamp_s = 0;
  double access_s = 0;       ///< total read access time
  double write_s = 0;        ///< write cycle (full bit-line swing)
  double setup_s = 0;        ///< address setup before clock (TLB overlap)
  double hold_s = 0;         ///< address hold after clock
  double tlb_penalty_s = 0;  ///< address diversion penalty
  double penalty_ratio = 0;  ///< tlb_penalty / access
};

/// Supply currents and energies — the "supply currents and voltages" a
/// RAMGEN-style datasheet reports.
struct PowerReport {
  double vdd = 0;
  double read_energy_j = 0;     ///< energy per read access
  double write_energy_j = 0;    ///< energy per write access
  double active_power_w = 0;    ///< reading back-to-back at min cycle
  double active_current_a = 0;  ///< = active_power / vdd
  double standby_power_w = 0;   ///< leakage of the idle array
};

/// Full access-path timing for the given geometry and gate sizing, from
/// the path-based analysis of the macro timing graph
/// (sta/access_path.hpp) — the same graph the signoff `timing` check
/// slacks against a clock. `lt` is the leaf library for the same deck,
/// gate size and decoder width (the Compiler session threads its
/// CompileCache's through, so one deck's SPICE work serves every spec).
TimingReport estimate_timing(const tech::Tech& t, const sim::RamGeometry& geo,
                             double gate_size, const sta::LeafTiming& lt);

/// TLB penalty only (used by the spare-count sweep benchmark).
double tlb_penalty_s(const tech::Tech& t, const sim::RamGeometry& geo);

/// Energy and supply-current estimates for the datasheet. `access_s` is
/// the read access time from estimate_timing (sets the min cycle).
PowerReport estimate_power(const tech::Tech& t, const sim::RamGeometry& geo,
                           double access_s);

}  // namespace bisram::core
