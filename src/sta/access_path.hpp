#pragma once
// Macro-level access-path timing graph. Where the historical
// core/timing.cpp walked the read path with four lumped-RC terms, this
// builder lays the same electrical story out as an explicit graph — the
// address decoder (leaf-characterized, sta/leaf.hpp), the word-line
// driver against the distributed word line (a coarsened RC ladder with
// per-cell loads), the selected cell discharging the bit-line ladder to
// the 10% current-mode sensing swing, the column mux, and the sense amp
// — with one read endpoint per data bit (dout[b]) and one write
// endpoint per data bit (cell[b], arriving at the later of the word
// line and the write-driver data path, which the arrival max models for
// free).
//
// Delay convention: all Gate/Wire resistances are pre-scaled so that the
// Elmore sum the graph computes is a 50% crossing estimate — ln 2 for
// full-swing stages, -ln(0.9) for the 10%-swing current-mode read
// bit line. Arc tags are stable instance-style paths
// ("wordline/seg[12]", "col[1023]/bitline/seg[7]") so the signoff
// report's critical path reads like a DRC offender trace.

#include "sim/ram_model.hpp"
#include "sta/graph.hpp"
#include "sta/leaf.hpp"
#include "tech/tech.hpp"

namespace bisram::sta {

/// Access-path analysis result: the datasheet's timing numbers plus the
/// full per-endpoint STA report behind them.
struct AccessTiming {
  double tau_s = 0;       ///< calibrated stage delay (reported)
  double decoder_s = 0;   ///< address -> word-line driver input
  double wordline_s = 0;  ///< word-line RC to the worst tap
  double bitline_s = 0;   ///< cell discharge + bit-line RC + column mux
  double senseamp_s = 0;  ///< sense-amp resolve
  double access_s = 0;    ///< worst read endpoint arrival
  double write_s = 0;     ///< worst write endpoint arrival
  StaReport report;       ///< full report over dout[b] and cell[b]
};

/// Builds the read+write access-path graph for one macro geometry.
/// Sources: addr, din. Endpoints: dout[b] (read) and cell[b] (write)
/// for every data bit b. `lt` is the leaf library for the same tech,
/// gate size and decoder width max(1, ceil(log2 rows)) — from
/// characterize() or, memoized, core::Compiler::leaf_library, which is
/// how the staged compile API shares one deck's SPICE work across every
/// spec in a DSE sweep. The gate size enters only through `lt`.
TimingGraph build_access_graph(const tech::Tech& t,
                               const sim::RamGeometry& geo,
                               const LeafTiming& lt);

/// Builds and analyzes the access-path graph, splitting the worst read
/// path into the classic decoder/wordline/bitline/senseamp breakdown by
/// arc tag. `options.clock_period_s` <= 0 analyzes unconstrained (the
/// datasheet path); a positive period produces real setup slacks (the
/// signoff path). `lt` as for build_access_graph. The unnamed gate-size
/// argument is not read: the gate size is the one `lt` was
/// characterized at.
AccessTiming analyze_access_path(const tech::Tech& t,
                                 const sim::RamGeometry& geo,
                                 double /*gate_size*/, const LeafTiming& lt,
                                 const AnalyzeOptions& options = {});

}  // namespace bisram::sta
