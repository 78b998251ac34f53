#pragma once
// Unified signoff for a generated BISR RAM: one call (and one CLI,
// examples/bisram_lint.cpp) that runs every static check the repo has —
// microprogram verification of the generated TRPLA, optionally the
// per-crosspoint static fault analysis, DRC on the assembled layout,
// ERC and LVS on the leaf cells the module instantiates, and the exact
// march-coverage analysis of the programmed test — and aggregates the
// verdicts into a single machine-readable report. This is the "is this
// module safe to tape out" gate the paper's flow (Fig. 1) implies but
// never names.

#include <cstdint>
#include <string>
#include <vector>

#include "core/bisramgen.hpp"
#include "march/analysis.hpp"
#include "sta/graph.hpp"
#include "verify/fault_analysis.hpp"
#include "verify/microprogram.hpp"

namespace bisram::verify {

struct SignoffOptions {
  /// Datapath dimensions of the microprogram product model. The
  /// controller only observes AddrLast/BgLast/TimerDone, so the default
  /// abstract space exercises every condition shape without scaling with
  /// the real array; bpw is clamped to the spec's (Johnson backgrounds
  /// beyond the real width do not exist).
  VerifyOptions micro;
  /// Also statically classify every single PLA crosspoint defect
  /// (slower: one product model-check per crosspoint site).
  bool fault_mode = false;
  bool run_drc = true;
  bool run_erc_lvs = true;
  /// Static timing on the macro access-path graph, slacked against the
  /// technology deck's `timing` budgets (sta/access_path.hpp).
  bool run_timing = true;
  /// Worst paths carried with full provenance traces in the report.
  int timing_paths = 4;
  /// DRC violation descriptions kept in the report (the count is exact).
  std::size_t max_drc_details = 10;
  int threads = 0;  ///< fault_mode; <= 0 means campaign_threads()
};

struct SignoffReport {
  // Echo of the checked spec.
  std::uint32_t words = 0;
  int bpw = 0;
  int bpc = 0;
  int spare_rows = 0;
  std::string technology;
  std::string test_name;
  int max_passes = 0;

  MicroReport micro;
  std::vector<std::string> state_names;

  bool fault_mode = false;
  StaticFaultReport static_faults;

  bool drc_ran = false;
  std::size_t drc_violations = 0;
  std::vector<std::string> drc_details;

  bool erc_lvs_ran = false;
  std::vector<std::string> erc_lvs_details;  ///< empty when clean

  /// The over-the-cell metal3 route check (pnr::RouteStats): route
  /// wires overlapping block metal3, and overlapping route-wire pairs of
  /// different nets. Reported but kept out of clean(): the router does
  /// not avoid crossings yet, so every generated macro has some.
  int m3_conflicts = 0;
  int net_crossings = 0;

  march::MarchAnalysis march;
  std::uint64_t test_cycles = 0;

  bool timing_ran = false;
  sta::StaReport timing;        ///< per-endpoint slack + worst paths
  double access_s = 0;          ///< worst read endpoint arrival
  double write_s = 0;           ///< worst write endpoint arrival
  double access_budget_s = 0;   ///< tech deck ceiling (0 = unconstrained)
  /// The controller watchdog budget in seconds: the microprogram
  /// verifier's derived worst-case cycle bound times the STA clock
  /// period. Tests pin that this equals worst_case_cycles * clock — the
  /// cycle-domain and time-domain signoffs must tell one story.
  double watchdog_budget_s = 0;

  double area_mm2 = 0;
  double overhead_pct = 0;

  bool drc_clean() const { return !drc_ran || drc_violations == 0; }
  bool erc_lvs_clean() const { return erc_lvs_details.empty(); }
  bool timing_clean() const {
    return !timing_ran ||
           (timing.setup_clean() &&
            (access_budget_s <= 0 || access_s <= access_budget_s));
  }
  /// The signoff verdict: microprogram proven clean, layout and circuits
  /// clean, timing closed, and the programmed march at least covers
  /// stuck-at faults.
  bool clean() const {
    return micro.clean() && drc_clean() && erc_lvs_clean() &&
           timing_clean() && march.detects_saf;
  }

  /// Human-readable multi-line rendering.
  std::string render() const;
  /// The unified machine-readable report (one JSON object).
  std::string json() const;
};

/// Generates the module for `spec` and runs the selected checks.
/// Throws bisram::SpecError on invalid specs.
SignoffReport run_signoff(const core::RamSpec& spec,
                          const SignoffOptions& options = {});

}  // namespace bisram::verify
