#include "verify/signoff.hpp"

#include <algorithm>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/erc.hpp"
#include "extract/extract.hpp"
#include "extract/lvs.hpp"
#include "sta/access_path.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace bisram::verify {

namespace {

void check_leaf_circuits(const core::RamSpec& spec, const tech::Tech& tech,
                         std::vector<std::string>& details) {
  geom::Library lib;
  const double size = spec.gate_size;
  const int decoder_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(
                    spec.geometry().total_rows())));

  struct Entry {
    geom::CellPtr cell;
    const extract::Schematic* golden;  ///< null = ERC only
  };
  const extract::Schematic sram = extract::sram6t_schematic();
  const extract::Schematic precharge = extract::precharge_schematic();
  const extract::Schematic mux = extract::column_mux_schematic();
  const Entry entries[] = {
      {cells::sram_cell_6t(lib, tech), &sram},
      {cells::precharge_cell(lib, tech, size), &precharge},
      {cells::column_mux_cell(lib, tech, size), &mux},
      {cells::write_driver_cell(lib, tech, size), nullptr},
      {cells::row_decoder_cell(lib, tech, decoder_bits, size), nullptr},
  };
  for (const Entry& e : entries) {
    const extract::Extracted ex = extract::extract(*e.cell, tech);
    for (const auto& v : extract::check_erc(ex))
      details.push_back(e.cell->name() + ": " + extract::describe(v));
    if (e.golden) {
      const extract::LvsResult r = extract::compare(ex, *e.golden);
      if (!r.match)
        details.push_back(e.cell->name() + ": LVS mismatch vs " +
                          e.golden->name + ": " + r.detail);
    }
  }
}

}  // namespace

SignoffReport run_signoff(const core::RamSpec& spec,
                          const SignoffOptions& options) {
  spec.validate();
  core::RamSpec build = spec;
  build.run_drc = false;  // DRC is this function's job, behind its flag
  // One session: the timing check below reads the leaf library the
  // compile characterized from the session's cache.
  core::Compiler session;
  const core::Generated g = session.run(build);

  SignoffReport rep;
  rep.words = spec.words;
  rep.bpw = spec.bpw;
  rep.bpc = spec.bpc;
  rep.spare_rows = spec.spare_rows;
  rep.technology = g.sheet.technology;
  rep.test_name = spec.test->name();
  rep.max_passes = spec.max_passes;
  rep.state_names = g.trpla.state_names;
  rep.area_mm2 = g.sheet.area_mm2;
  rep.overhead_pct = g.sheet.overhead_pct;
  rep.test_cycles = g.sheet.test_cycles;
  rep.m3_conflicts = g.route.m3_conflicts;
  rep.net_crossings = g.route.net_crossings;

  VerifyOptions micro = options.micro;
  micro.bpw = std::min(micro.bpw, spec.bpw);
  micro.johnson_backgrounds = spec.johnson_backgrounds;
  rep.micro = analyze_controller(g.trpla, micro);

  if (options.fault_mode) {
    rep.fault_mode = true;
    rep.static_faults = analyze_pla_faults(g.trpla, micro, options.threads);
  }

  const tech::Tech& tech = spec.resolved_technology();
  if (options.run_drc) {
    rep.drc_ran = true;
    // One flatten into the shared layout database; the checker runs its
    // per-tile passes in parallel over it.
    const geom::LayoutDB db(*g.top, drc::tile_size_for(tech));
    const auto violations = drc::check(db, tech);
    rep.drc_violations = violations.size();
    for (std::size_t i = 0;
         i < std::min(violations.size(), options.max_drc_details); ++i)
      rep.drc_details.push_back(drc::describe(violations[i]));
  }
  if (options.run_erc_lvs) {
    rep.erc_lvs_ran = true;
    check_leaf_circuits(spec, tech, rep.erc_lvs_details);
  }
  if (options.run_timing) {
    rep.timing_ran = true;
    sta::AnalyzeOptions aopt;
    aopt.clock_period_s = tech.timing.clock_period_s;
    aopt.k_paths = options.timing_paths;
    const sim::RamGeometry geo = spec.geometry();
    const int row_bits =
        std::max(1, log2_ceil(static_cast<std::uint64_t>(geo.rows())));
    const sta::AccessTiming at = sta::analyze_access_path(
        tech, geo, spec.gate_size,
        session.leaf_library(tech, spec.gate_size, row_bits), aopt);
    rep.timing = at.report;
    rep.access_s = at.access_s;
    rep.write_s = at.write_s;
    rep.access_budget_s = tech.timing.access_budget_s;
    // The cycle-domain watchdog bound expressed in the STA's clock
    // domain: one number both signoffs must agree on.
    if (rep.micro.hang_free)
      rep.watchdog_budget_s =
          static_cast<double>(rep.micro.worst_case_cycles) *
          rep.timing.clock_period_s;
  }

  rep.march = march::analyze(*spec.test);
  return rep;
}

std::string SignoffReport::render() const {
  std::string s = strfmt(
      "bisram_lint: %u x %d RAM (bpc %d, %d spare rows) on %s, test %s\n",
      words, bpw, bpc, spare_rows, technology.c_str(), test_name.c_str());
  s += "  " + micro.summary(state_names) + "\n";
  if (fault_mode) {
    s += strfmt(
        "  crosspoint faults: %zu sites — %lld benign, %lld safe-fail, "
        "%lld escape-possible, %lld hang-possible; watchdog budget %llu\n",
        static_faults.classified.size(),
        static_cast<long long>(static_faults.count(StaticVerdict::Benign)),
        static_cast<long long>(static_faults.count(StaticVerdict::SafeFail)),
        static_cast<long long>(
            static_faults.count(StaticVerdict::EscapePossible)),
        static_cast<long long>(
            static_faults.count(StaticVerdict::HangPossible)),
        static_cast<unsigned long long>(static_faults.max_worst_case_cycles));
  }
  if (drc_ran) {
    s += strfmt("  DRC: %zu violation(s)\n", drc_violations);
    for (const auto& d : drc_details) s += "    " + d + "\n";
  } else {
    s += "  DRC: skipped\n";
  }
  s += strfmt(
      "  route: %d block-metal3 conflict(s), %d distinct-net crossing(s) "
      "(reported, not gated)\n",
      m3_conflicts, net_crossings);
  if (erc_lvs_ran) {
    s += strfmt("  ERC/LVS: %s\n",
                erc_lvs_clean() ? "clean" : "VIOLATIONS");
    for (const auto& d : erc_lvs_details) s += "    " + d + "\n";
  } else {
    s += "  ERC/LVS: skipped\n";
  }
  if (timing_ran) {
    s += strfmt(
        "  timing: access %.3f ns (budget %.3f ns), write %.3f ns, "
        "WNS %+.3f ns @ clock %.3f ns — %s\n",
        access_s * 1e9, access_budget_s * 1e9, write_s * 1e9,
        timing.wns_s * 1e9, timing.clock_period_s * 1e9,
        timing_clean() ? "clean" : "VIOLATED");
    if (!timing.worst_paths.empty()) {
      const sta::CriticalPath& p = timing.worst_paths.front();
      s += strfmt("    worst path -> %s (slack %+.3f ns):\n",
                  p.endpoint.c_str(), p.slack_s * 1e9);
      for (const sta::PathStep& st : p.steps)
        s += strfmt("      %8.3f ns  +%7.3f ns  %-14s %s\n",
                    st.arrival_s * 1e9, st.incr_s * 1e9, st.node.c_str(),
                    st.tag.c_str());
    }
    if (micro.hang_free)
      s += strfmt("    watchdog budget: %llu cycles = %.1f ns\n",
                  static_cast<unsigned long long>(micro.worst_case_cycles),
                  watchdog_budget_s * 1e9);
  } else {
    s += "  timing: skipped\n";
  }
  s += strfmt("  march coverage: %s (%llu test cycles)\n",
              march.summary().c_str(),
              static_cast<unsigned long long>(test_cycles));
  s += strfmt("  area %.4f mm^2, BIST/BISR overhead %.2f%%\n", area_mm2,
              overhead_pct);
  s += strfmt("signoff: %s\n", clean() ? "CLEAN" : "DIRTY");
  return s;
}

std::string SignoffReport::json() const {
  JsonWriter j;
  j.begin_object();
  j.key("spec").begin_object();
  j.key("words").value(static_cast<std::int64_t>(words));
  j.key("bpw").value(bpw);
  j.key("bpc").value(bpc);
  j.key("spare_rows").value(spare_rows);
  j.key("technology").value(technology);
  j.key("test").value(test_name);
  j.key("max_passes").value(max_passes);
  j.end_object();

  j.key("microcode").begin_object();
  j.key("state_bits").value(micro.state_bits);
  j.key("declared_states").value(micro.declared_states);
  j.key("product_terms").value(micro.terms);
  j.key("reachable_codes").value(
      static_cast<std::int64_t>(micro.reachable_codes.size()));
  j.key("unreachable_states").begin_array();
  for (int c : micro.unreachable_states) j.value(c);
  j.end_array();
  j.key("reachable_undeclared").begin_array();
  for (int c : micro.reachable_undeclared) j.value(c);
  j.end_array();
  j.key("dead_terms").begin_array();
  for (int t : micro.dead_terms) j.value(t);
  j.end_array();
  j.key("vacuous_terms").begin_array();
  for (int t : micro.vacuous_terms) j.value(t);
  j.end_array();
  j.key("overlaps").value(static_cast<std::int64_t>(micro.overlaps.size()));
  j.key("unspecified_inputs")
      .value(static_cast<std::int64_t>(micro.unspecified.size()));
  j.key("deterministic").value(micro.deterministic());
  j.key("hang_free").value(micro.hang_free);
  if (micro.hang_free) {
    j.key("worst_case_cycles").value(micro.worst_case_cycles);
  } else {
    j.key("hang_cycle").begin_array();
    for (int c : micro.hang_cycle) j.value(c);
    j.end_array();
  }
  j.key("product_states_explored")
      .value(static_cast<std::uint64_t>(micro.product_states_explored));
  j.key("clean").value(micro.clean());
  j.end_object();

  if (fault_mode) {
    j.key("static_faults").begin_object();
    j.key("sites").value(
        static_cast<std::int64_t>(static_faults.classified.size()));
    for (int v = 0; v < kStaticVerdictCount; ++v)
      j.key(static_verdict_name(static_cast<StaticVerdict>(v)))
          .value(static_cast<std::int64_t>(
              static_faults.histogram[static_cast<std::size_t>(v)]));
    j.key("max_worst_case_cycles")
        .value(static_faults.max_worst_case_cycles);
    j.end_object();
  }

  j.key("drc").begin_object();
  j.key("ran").value(drc_ran);
  if (drc_ran) {
    j.key("violations").value(static_cast<std::int64_t>(drc_violations));
    j.key("details").begin_array();
    for (const auto& d : drc_details) j.value(d);
    j.end_array();
  }
  j.end_object();

  j.key("route").begin_object();
  j.key("m3_conflicts").value(m3_conflicts);
  j.key("net_crossings").value(net_crossings);
  j.end_object();

  j.key("erc_lvs").begin_object();
  j.key("ran").value(erc_lvs_ran);
  if (erc_lvs_ran) {
    j.key("clean").value(erc_lvs_clean());
    j.key("details").begin_array();
    for (const auto& d : erc_lvs_details) j.value(d);
    j.end_array();
  }
  j.end_object();

  j.key("march").begin_object();
  j.key("summary").value(march.summary());
  j.key("detects_saf").value(march.detects_saf);
  j.key("detects_tf").value(march.detects_tf);
  j.key("detects_cfst").value(march.detects_cfst);
  j.key("detects_cfid").value(march.detects_cfid);
  j.key("detects_cfin").value(march.detects_cfin);
  j.key("detects_sof").value(march.detects_sof);
  j.key("exercises_retention").value(march.exercises_retention);
  j.key("test_cycles").value(test_cycles);
  j.end_object();

  j.key("timing").begin_object();
  j.key("ran").value(timing_ran);
  if (timing_ran) {
    j.key("constrained").value(timing.constrained);
    j.key("clock_period_s").value(timing.clock_period_s);
    j.key("access_s").value(access_s);
    j.key("write_s").value(write_s);
    j.key("access_budget_s").value(access_budget_s);
    j.key("wns_s").value(timing.wns_s);
    j.key("tns_s").value(timing.tns_s);
    j.key("watchdog_budget_s").value(watchdog_budget_s);
    j.key("endpoints").begin_array();
    for (const sta::EndpointSlack& e : timing.endpoints) {
      j.begin_object();
      j.key("name").value(e.name);
      j.key("arrival_s").value(e.arrival_s);
      j.key("slew_s").value(e.slew_s);
      j.key("slack_s").value(e.slack_s);
      j.end_object();
    }
    j.end_array();
    j.key("worst_paths").begin_array();
    for (const sta::CriticalPath& p : timing.worst_paths) {
      j.begin_object();
      j.key("endpoint").value(p.endpoint);
      j.key("arrival_s").value(p.arrival_s);
      j.key("slack_s").value(p.slack_s);
      j.key("steps").begin_array();
      for (const sta::PathStep& st : p.steps) {
        j.begin_object();
        j.key("node").value(st.node);
        j.key("tag").value(st.tag);
        j.key("incr_s").value(st.incr_s);
        j.key("arrival_s").value(st.arrival_s);
        j.end_object();
      }
      j.end_array();
      j.end_object();
    }
    j.end_array();
    j.key("clean").value(timing_clean());
  }
  j.end_object();

  j.key("datasheet").begin_object();
  j.key("area_mm2").value(area_mm2);
  j.key("overhead_pct").value(overhead_pct);
  j.end_object();

  j.key("clean").value(clean());
  j.end_object();
  return j.str();
}

}  // namespace bisram::verify
