// Static timing analysis engine: closed-form Elmore agreement on
// hand-built RC networks, graph validation (cycles, wire trees),
// deterministic timing-loop breaking on extracted feedback cells,
// STA-vs-SPICE agreement on leaf-cell stages, agreement with the lumped
// RC access-time oracle defined here, STA-vs-microprogram watchdog
// consistency, and bit-identical reports at any thread count.

#include <gtest/gtest.h>

#include "cells/leaf_cells.hpp"
#include "core/spec.hpp"
#include "core/timing.hpp"
#include "extract/extract.hpp"
#include "extract/simulate.hpp"
#include "spice/engine.hpp"
#include "spice/measure.hpp"
#include "spice/sizing.hpp"
#include "sta/access_path.hpp"
#include "sta/graph.hpp"
#include "sta/leaf.hpp"
#include "sta/netlist.hpp"
#include "tech/tech_file.hpp"
#include "util/math.hpp"
#include "verify/signoff.hpp"

namespace bisram {
namespace {

// ---------------------------------------------------------------------
// Closed-form Elmore on hand-built RC networks.

TEST(StaElmore, UniformLadderMatchesClosedForm) {
  // Driver resistance R into a uniform ladder of N nodes (cap c each)
  // joined by wire resistance r. Elmore at node j:
  //   R * N*c  +  sum_{i=1..j} r * (N - i) * c
  const int N = 8;
  const double R = 1000.0, r = 50.0, c = 10e-15;
  sta::TimingGraph g;
  const int src = g.add_source("in");
  std::vector<int> n(N);
  for (int i = 0; i < N; ++i) n[i] = g.add_node("n" + std::to_string(i), c);
  g.add_gate(src, n[0], R, "drv");
  for (int i = 1; i < N; ++i) g.add_wire(n[i - 1], n[i], r, "w");
  g.set_endpoint(n[N - 1]);

  EXPECT_DOUBLE_EQ(g.subtree_cap_f(n[0]), N * c);
  EXPECT_DOUBLE_EQ(g.subtree_cap_f(n[N - 1]), c);

  double expect = R * N * c;
  for (int i = 1; i < N; ++i) expect += r * (N - i) * c;
  const sta::StaReport rep = g.analyze();
  ASSERT_EQ(rep.endpoints.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.endpoints[0].arrival_s, expect);
  EXPECT_DOUBLE_EQ(rep.max_arrival_s, expect);
}

TEST(StaElmore, BranchedTreeMatchesClosedForm) {
  // A driver into a T: stem node s (cap cs), then two branches a and b
  // with one node each (ca, cb) behind ra and rb. Elmore:
  //   t(a) = R*(cs+ca+cb) + ra*ca,   t(b) = R*(cs+ca+cb) + rb*cb
  const double R = 2000.0, ra = 100.0, rb = 400.0;
  const double cs = 5e-15, ca = 20e-15, cb = 8e-15;
  sta::TimingGraph g;
  const int src = g.add_source("in");
  const int s = g.add_node("s", cs);
  const int a = g.add_endpoint("a", ca);
  const int b = g.add_endpoint("b", cb);
  g.add_gate(src, s, R, "drv");
  g.add_wire(s, a, ra, "wa");
  g.add_wire(s, b, rb, "wb");

  EXPECT_DOUBLE_EQ(g.subtree_cap_f(s), cs + ca + cb);
  const sta::StaReport rep = g.analyze();
  ASSERT_EQ(rep.endpoints.size(), 2u);
  // Canonical order: slack ascending, so the slower endpoint first.
  const double ta = R * (cs + ca + cb) + ra * ca;
  const double tb = R * (cs + ca + cb) + rb * cb;
  for (const sta::EndpointSlack& e : rep.endpoints)
    EXPECT_DOUBLE_EQ(e.arrival_s, e.name == "a" ? ta : tb);
  EXPECT_DOUBLE_EQ(rep.max_arrival_s, std::max(ta, tb));
}

TEST(StaElmore, DelayArcsAndGateIntrinsicsAdd) {
  sta::TimingGraph g;
  const int src = g.add_source("in");
  const int m = g.add_node("m", 1e-15);
  const int out = g.add_endpoint("out", 2e-15);
  g.add_delay(src, m, 3e-10, "fixed");
  g.add_gate(m, out, 1000.0, "drv", /*intrinsic_s=*/5e-11);
  const sta::StaReport rep = g.analyze();
  EXPECT_DOUBLE_EQ(rep.max_arrival_s, 3e-10 + 5e-11 + 1000.0 * 2e-15);
}

// ---------------------------------------------------------------------
// Required times, slack, constrained vs unconstrained.

TEST(StaAnalyze, ConstrainedSlackAndNegativeSlackAccounting) {
  sta::TimingGraph g;
  const int src = g.add_source("in");
  const int fast = g.add_endpoint("fast");
  const int slow = g.add_endpoint("slow");
  g.add_delay(src, fast, 1e-9, "f");
  g.add_delay(src, slow, 3e-9, "s");

  sta::AnalyzeOptions opt;
  opt.clock_period_s = 2e-9;
  const sta::StaReport rep = g.analyze(opt);
  EXPECT_TRUE(rep.constrained);
  ASSERT_EQ(rep.endpoints.size(), 2u);
  EXPECT_EQ(rep.endpoints[0].name, "slow");  // worst slack first
  EXPECT_DOUBLE_EQ(rep.endpoints[0].slack_s, -1e-9);
  EXPECT_DOUBLE_EQ(rep.endpoints[1].slack_s, 1e-9);
  EXPECT_DOUBLE_EQ(rep.wns_s, -1e-9);
  EXPECT_DOUBLE_EQ(rep.tns_s, -1e-9);
  EXPECT_FALSE(rep.setup_clean());

  opt.clock_period_s = 4e-9;
  EXPECT_TRUE(g.analyze(opt).setup_clean());
}

TEST(StaAnalyze, UnconstrainedModeReportsRelativeSlack) {
  sta::TimingGraph g;
  const int src = g.add_source("in");
  const int a = g.add_endpoint("a");
  const int b = g.add_endpoint("b");
  g.add_delay(src, a, 2e-9, "a");
  g.add_delay(src, b, 1.5e-9, "b");
  const sta::StaReport rep = g.analyze();
  EXPECT_FALSE(rep.constrained);
  // The critical endpoint pins slack 0; the other reports its margin.
  EXPECT_DOUBLE_EQ(rep.wns_s, 0.0);
  EXPECT_DOUBLE_EQ(rep.endpoints[0].slack_s, 0.0);
  EXPECT_EQ(rep.endpoints[0].name, "a");
  EXPECT_DOUBLE_EQ(rep.endpoints[1].slack_s, 0.5e-9);
}

TEST(StaAnalyze, WorstPathCarriesProvenanceTrace) {
  sta::TimingGraph g;
  const int src = g.add_source("in");
  const int m = g.add_node("m", 1e-15);
  const int out = g.add_endpoint("out", 1e-15);
  g.add_gate(src, m, 1e3, "inst/u1");
  g.add_gate(m, out, 1e3, "inst/u2");
  const sta::StaReport rep = g.analyze();
  ASSERT_EQ(rep.worst_paths.size(), 1u);
  const sta::CriticalPath& p = rep.worst_paths[0];
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].node, "in");
  EXPECT_EQ(p.steps[1].tag, "inst/u1");
  EXPECT_EQ(p.steps[2].tag, "inst/u2");
  EXPECT_DOUBLE_EQ(p.steps[2].arrival_s, p.arrival_s);
}

TEST(StaAnalyze, CyclicGraphThrowsAndWouldCycleDetects) {
  sta::TimingGraph g;
  const int a = g.add_source("a");
  const int b = g.add_node("b");
  const int c = g.add_endpoint("c");
  g.add_delay(a, b, 1e-10, "ab");
  g.add_delay(b, c, 1e-10, "bc");
  // A forward arc (or a duplicate of an existing edge) cannot cycle;
  // any back edge into the a -> b -> c chain would.
  EXPECT_FALSE(g.would_cycle(a, c));
  EXPECT_TRUE(g.would_cycle(c, b));
  EXPECT_TRUE(g.would_cycle(c, a));
  g.add_delay(c, b, 1e-10, "cb");  // closes b -> c -> b
  EXPECT_THROW(g.analyze(), SpecError);
}

TEST(StaAnalyze, TwoIncomingWireArcsThrow) {
  sta::TimingGraph g;
  const int s = g.add_source("s");
  const int a = g.add_node("a", 1e-15);
  const int b = g.add_node("b", 1e-15);
  const int c = g.add_endpoint("c", 1e-15);
  g.add_gate(s, a, 1e3, "d1");
  g.add_gate(s, b, 1e3, "d2");
  g.add_wire(a, c, 10.0, "w1");
  g.add_wire(b, c, 10.0, "w2");
  EXPECT_THROW(g.analyze(), SpecError);
}

// ---------------------------------------------------------------------
// Netlist builder: extracted cells, deterministic loop breaking.

TEST(StaNetlist, SenseAmpFeedbackLoopIsBrokenDeterministically) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const auto ex = extract::extract(*cells::sense_amp_cell(lib, t, 2.0), t);
  const sta::NetlistGraph g1 =
      sta::from_extracted(ex, t, {"in", "inb", "sab"}, {"out"});
  // The cross-coupled pair must have produced at least one broken arc,
  // and the surviving graph must analyze as a DAG.
  EXPECT_FALSE(g1.broken_loops.empty());
  const sta::StaReport rep = g1.graph.analyze();
  EXPECT_GT(rep.max_arrival_s, 0.0);
  // Breaking is canonical: a rebuild breaks the same arcs.
  const sta::NetlistGraph g2 =
      sta::from_extracted(ex, t, {"in", "inb", "sab"}, {"out"});
  EXPECT_EQ(g1.broken_loops, g2.broken_loops);
}

TEST(StaNetlist, LeafCharacterizationProducesOrderedSaneDelays) {
  const tech::Tech& t = tech::cda_07();
  const sta::LeafTiming lt = sta::characterize(t, 2.0, 8);
  EXPECT_GT(lt.tau_s, 0.0);
  EXPECT_GT(lt.decoder_s, 0.0);
  EXPECT_GT(lt.senseamp_s, 0.0);
  EXPECT_GT(lt.precharge_s, 0.0);
  EXPECT_GT(lt.write_driver_s, 0.0);
  // All leaf stages resolve within a nanosecond-scale envelope at 0.7um.
  EXPECT_LT(lt.decoder_s, 5e-9);
  EXPECT_LT(lt.senseamp_s, 1e-9);
  // A wider decoder is slower (longer series NAND stack).
  EXPECT_GT(sta::characterize(t, 2.0, 9).decoder_s, lt.decoder_s);
}

// ---------------------------------------------------------------------
// STA vs SPICE on leaf-cell stages.
//
// Documented tolerance: the STA's ln2-scaled worst-path Elmore delay
// must agree with the transient engine's 50% prop delay within a factor
// of two in both directions (the level-1 model carries no gate caps and
// a single worst path; see sta/netlist.hpp). The regenerative sense amp
// is validated structurally above instead — positive feedback is
// exactly what a linear RC walk cannot time.

constexpr double kSpiceTolFactor = 2.0;

TEST(StaVsSpice, RowDecoderStageWithinDocumentedTolerance) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const auto cell = cells::row_decoder_cell(lib, t, 2, 2.0);
  const auto ex = extract::extract(*cell, t);

  const sta::NetlistGraph g = sta::from_extracted(ex, t, {"a0", "a1"}, {"wl"});
  const double sta_delay = g.graph.analyze().max_arrival_s;
  ASSERT_GT(sta_delay, 0.0);

  // Transient reference: a1 held high, a0 rises at 1 ns -> wl rises.
  spice::Circuit ckt = extract::to_circuit(ex, t);
  const double vdd = t.elec.vdd;
  ckt.add_vsource("vdd", "0", spice::Waveform::dc(vdd));
  ckt.add_vsource("a1", "0", spice::Waveform::dc(vdd));
  ckt.add_vsource("a0", "0",
                  spice::Waveform::pwl({{0, 0}, {1e-9, 0}, {1.1e-9, vdd},
                                        {8e-9, vdd}}));
  const spice::Trace tr = spice::transient(ckt, 8e-9, 10e-12);
  const auto d = spice::prop_delay(tr, ckt.find("wl"), vdd, 1.05e-9);
  ASSERT_TRUE(d.has_value());
  ASSERT_GT(*d, 0.0);
  EXPECT_LT(sta_delay / *d, kSpiceTolFactor);
  EXPECT_GT(sta_delay / *d, 1.0 / kSpiceTolFactor);
}

TEST(StaVsSpice, PrechargeStageWithinDocumentedTolerance) {
  geom::Library lib;
  const tech::Tech& t = tech::cda_07();
  const auto cell = cells::precharge_cell(lib, t, 2.0);
  const auto ex = extract::extract(*cell, t);

  const sta::NetlistGraph g = sta::from_extracted(ex, t, {"pcb"}, {"bl", "blb"});
  const double sta_delay = g.graph.analyze().max_arrival_s;
  ASSERT_GT(sta_delay, 0.0);

  // pcb falls at 1 ns; the PMOS precharges bl toward vdd.
  spice::Circuit ckt = extract::to_circuit(ex, t);
  const double vdd = t.elec.vdd;
  ckt.add_vsource("vdd", "0", spice::Waveform::dc(vdd));
  ckt.add_vsource("pcb", "0",
                  spice::Waveform::pwl({{0, vdd}, {1e-9, vdd}, {1.1e-9, 0},
                                        {8e-9, 0}}));
  const spice::Trace tr = spice::transient(ckt, 8e-9, 10e-12);
  const auto d = spice::prop_delay(tr, ckt.find("bl"), vdd, 1.05e-9);
  ASSERT_TRUE(d.has_value());
  ASSERT_GT(*d, 0.0);
  EXPECT_LT(sta_delay / *d, kSpiceTolFactor);
  EXPECT_GT(sta_delay / *d, 1.0 / kSpiceTolFactor);
}

// ---------------------------------------------------------------------
// Macro access path: oracle agreement, signoff and watchdog consistency.

/// The historical closed-form lumped-RC model, the cross-check oracle
/// for the STA access path: same physics as the STA graph with every
/// path collapsed to one term, so the two must agree to first order.
core::TimingReport estimate_timing_reference(const tech::Tech& t,
                                             const sim::RamGeometry& geo,
                                             double gate_size) {
  core::TimingReport r;
  r.tau_s = sta::stage_delay_s(t);

  // Decoder: a NAND of log2(rows) inputs realized as a two-level tree,
  // roughly (2 + log4(rows)) logic stages, plus the word-line driver.
  const int row_bits = log2_ceil(static_cast<std::uint64_t>(geo.rows()));
  r.decoder_s = (2.0 + row_bits / 2.0) * r.tau_s;

  // Word line: driver resistance against the distributed line cap
  // (lumped RC with the 0.7 Elmore factor for a distributed load).
  const double r_driver = spice::device_on_resistance(
      t, spice::MosType::Pmos, 8.0 * gate_size * t.lambda_um);
  const double c_wl = geo.cols() * sta::wordline_cap_per_cell_f(t);
  r.wordline_s = 0.7 * r_driver * c_wl;

  // Bit line: cell pull-down discharging the line through the pass
  // device; current-mode sensing needs only a small swing (~10%), which
  // is where the technique's speed comes from.
  const double r_cell =
      spice::device_on_resistance(t, spice::MosType::Nmos, 6.0 * t.lambda_um) *
      2.0;  // pull-down in series with the pass device
  const double c_bl = geo.total_rows() * sta::bitline_cap_per_cell_f(t);
  r.bitline_s = 0.1 * r_cell * c_bl;

  // Column mux (one pass stage) + current-mode sense amplifier.
  r.senseamp_s = 3.0 * r.tau_s;

  r.access_s = r.decoder_s + r.wordline_s + r.bitline_s + r.senseamp_s;

  // Write: the driver forces a full swing through the pass device, but
  // the sense amp is bypassed ("in write mode, the sense amplifier is
  // bypassed and the bit-lines are directly accessed").
  const double r_drv = spice::device_on_resistance(
      t, spice::MosType::Nmos, 6.0 * gate_size * t.lambda_um);
  const double c_bl_w = geo.total_rows() * sta::bitline_cap_per_cell_f(t);
  r.write_s = r.decoder_s + r.wordline_s + 0.7 * r_drv * c_bl_w;

  r.tlb_penalty_s = core::tlb_penalty_s(t, geo);
  r.setup_s = r.tlb_penalty_s;
  r.hold_s = r.tau_s;
  r.penalty_ratio = r.tlb_penalty_s / r.access_s;
  return r;
}

TEST(StaAccessPath, TracksClosedFormReferenceModel) {
  core::RamSpec spec;
  spec.words = 256;
  spec.bpw = 8;
  spec.bpc = 4;
  const tech::Tech& t = spec.resolved_technology();
  const sim::RamGeometry geo = spec.geometry();
  const int row_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(geo.rows())));
  const core::TimingReport sta_r = core::estimate_timing(
      t, geo, 2.0, sta::characterize(t, 2.0, row_bits));
  const core::TimingReport ref = estimate_timing_reference(t, geo, 2.0);
  ASSERT_GT(ref.access_s, 0.0);
  // Path-based and lumped models share the physics; they must agree to
  // first order on every geometry (within a factor of two).
  EXPECT_LT(sta_r.access_s / ref.access_s, 2.0);
  EXPECT_GT(sta_r.access_s / ref.access_s, 0.5);
  EXPECT_LT(sta_r.write_s / ref.write_s, 2.0);
  EXPECT_GT(sta_r.write_s / ref.write_s, 0.5);
  // Components sum to the reported access time.
  EXPECT_NEAR(sta_r.decoder_s + sta_r.wordline_s + sta_r.bitline_s +
                  sta_r.senseamp_s,
              sta_r.access_s, 1e-15);
}

TEST(StaSignoff, TimingVerdictAndWatchdogAgreeWithMicroprogram) {
  core::RamSpec spec;
  spec.words = 256;
  spec.bpw = 8;
  spec.bpc = 4;
  verify::SignoffOptions opt;
  opt.run_drc = false;  // timing/microprogram consistency is the subject
  opt.run_erc_lvs = false;
  const verify::SignoffReport rep = verify::run_signoff(spec, opt);

  ASSERT_TRUE(rep.timing_ran);
  EXPECT_TRUE(rep.timing.constrained);
  EXPECT_GT(rep.access_s, 0.0);
  EXPECT_GT(rep.write_s, 0.0);
  // The registered decks carry budgets the paper's macros close against.
  EXPECT_TRUE(rep.timing_clean());
  EXPECT_TRUE(rep.clean());
  ASSERT_FALSE(rep.timing.worst_paths.empty());
  EXPECT_FALSE(rep.timing.worst_paths[0].steps.empty());

  // Cycle-domain vs time-domain consistency: the watchdog budget in
  // seconds is exactly the microprogram verifier's worst-case cycle
  // bound times the STA clock period.
  ASSERT_TRUE(rep.micro.hang_free);
  EXPECT_GT(rep.micro.worst_case_cycles, 0);
  EXPECT_DOUBLE_EQ(rep.watchdog_budget_s,
                   static_cast<double>(rep.micro.worst_case_cycles) *
                       rep.timing.clock_period_s);
  // And the clock the STA checked is the deck's declared budget.
  EXPECT_DOUBLE_EQ(rep.timing.clock_period_s,
                   spec.resolved_technology().timing.clock_period_s);
  // The JSON verdict carries the timing object.
  const std::string doc = rep.json();
  EXPECT_NE(doc.find("\"timing\""), std::string::npos);
  EXPECT_NE(doc.find("\"watchdog_budget_s\""), std::string::npos);
}

TEST(StaTechDeck, TimingBudgetsRoundTripThroughDeckText) {
  const tech::Tech& t = tech::cda_07();
  ASSERT_GT(t.timing.access_budget_s, 0.0);
  ASSERT_GT(t.timing.clock_period_s, 0.0);
  const tech::Tech back = tech::read_tech_string(tech::write_tech_string(t));
  EXPECT_NEAR(back.timing.access_budget_s, t.timing.access_budget_s, 1e-18);
  EXPECT_NEAR(back.timing.clock_period_s, t.timing.clock_period_s, 1e-18);

  // And a user deck can override them.
  tech::Tech user = tech::read_tech_string(
      "feature_um 1.0\ntiming access_ns 5 clock_ns 6\n");
  EXPECT_DOUBLE_EQ(user.timing.access_budget_s, 5e-9);
  EXPECT_DOUBLE_EQ(user.timing.clock_period_s, 6e-9);
}

}  // namespace
}  // namespace bisram
