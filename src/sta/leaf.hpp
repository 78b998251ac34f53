#pragma once
// Leaf-cell timing characterization: the paper's "extract and simulate
// leaf cells ahead of time, thereby extrapolating timing ... guarantees
// for the overall system", rebuilt on the STA engine. Each generated
// leaf cell (row decoder slice, sense amp, precharge, write driver) is
// extracted from its LayoutDB-backed layout and run through the netlist
// STA (sta/netlist.hpp); the resulting stage delays feed the macro
// access-path graph (sta/access_path.hpp), and tests/test_sta.cpp pins
// their agreement with the transient engine's prop_delay on the same
// extracted circuits.
//
// The per-cell wordline/bitline load models and the calibrated
// inverter stage delay historically lived in core/timing.cpp; they
// moved here so the whole timing stack (core's datasheet numbers, the
// signoff timing check, the benches) draws from one source.

#include <cstdint>

#include "sim/ram_model.hpp"
#include "tech/tech.hpp"

namespace bisram::sta {

/// Characterized leaf-stage delays and drive resistances for one
/// (technology, gate size, decoder width) point.
struct LeafTiming {
  double tau_s = 0;           ///< balanced-inverter FO4 stage delay
  double decoder_s = 0;       ///< row decoder slice, address -> wl
  double senseamp_s = 0;      ///< sense amp, in/enable -> out
  double precharge_s = 0;     ///< precharge, pcb -> bit line
  double write_driver_s = 0;  ///< write driver, din -> bus
  double mux_r_ohm = 0;       ///< column-mux pass device on-resistance
  double wl_driver_r_ohm = 0; ///< word-line driver drive resistance
  double cell_r_ohm = 0;      ///< 6T pull-down + pass device in series
  double write_r_ohm = 0;     ///< write-driver bit-line drive resistance
};

/// Calibrated stage delay for a process: a SPICE transient on a balanced
/// inverter driving a fan-out-of-4 load. This is the one process-wide
/// timing memo: one entry per deck fingerprint, computed exactly once —
/// concurrent callers on a new deck wait for the first one's run. It
/// stays process-wide (not per CompileCache) because the calibration is
/// a pure function of the deck that every session needs, and a DSE
/// sweep's set-up warms it once per deck instead of paying ~10 ms per
/// deck in each cold sweep.
double stage_delay_s(const tech::Tech& t);

/// Capacitance one cell adds to its word line (poly strip across the
/// cell pitch plus two pass-transistor gates).
double wordline_cap_per_cell_f(const tech::Tech& t);

/// Capacitance one cell adds to its bit line (metal2 strip plus the
/// pass-transistor junction).
double bitline_cap_per_cell_f(const tech::Tech& t);

/// Characterizes the leaf stages for a process / gate size / decoder
/// width: generates, extracts and STA-analyzes every leaf stage on each
/// call. It keeps no memo; core::CompileCache (Compiler::leaf_library)
/// is the one leaf-library memo, per compile session or shared across
/// sessions, keyed on the deck fingerprint (tech/tech.hpp) so user decks
/// sharing a name never collide.
LeafTiming characterize(const tech::Tech& t, double gate_size, int row_bits);

/// Process-wide count of characterize() runs and stage-delay
/// calibrations (monotonic, thread-safe). The cache bit-identity tests
/// and the DSE bench read this to prove a warm cache does zero SPICE
/// work.
std::uint64_t characterization_count();

}  // namespace bisram::sta
