// Cross-validation of the static fault classifier against the dynamic
// infra-fault machinery, fault site by fault site, on a controller and
// geometry small enough for the product model to be *exact* (no
// abstraction gap): every definite static verdict must be confirmed by
// the cycle-accurate run, and no statically hang-free faulted program
// may ever trip the watchdog. Also enforces the determinism contract:
// the static report is bit-identical for any thread count.

#include <gtest/gtest.h>

#include "march/march.hpp"
#include "microcode/controller.hpp"
#include "sim/infra_faults.hpp"
#include "util/parallel.hpp"
#include "verify/fault_analysis.hpp"
#include "verify/microprogram.hpp"

namespace bisram::verify {
namespace {

using sim::InfraFault;
using sim::InfraOutcome;

struct Rig {
  march::MarchTest test;
  microcode::AssembledController ctrl;
  sim::RamGeometry geo;
  VerifyOptions opt;
  sim::InfraTrialConfig cfg;
};

// A march with a delay element so the retention timer (and TimerDone)
// is exercised, on the smallest geometry the model covers exactly.
Rig make_rig() {
  Rig r{march::MarchTest::parse("tiny-del", "{b(w0);u(r0,w1);del;b(r1)}"),
        microcode::AssembledController{
            microcode::PlaPersonality(1, 1), 0, 0, {}, 0, 0, 0},
        {}, {}, {}};
  r.ctrl = microcode::build_trpla(r.test, 2);
  r.geo.words = 4;
  r.geo.bpw = 2;
  r.geo.bpc = 2;
  r.geo.spare_rows = 1;
  r.opt.words = r.geo.words;
  r.opt.bpw = r.geo.bpw;
  r.opt.timer_cycles = 3;  // PlaBistMachine's default
  r.cfg.bist.test = &r.test;
  r.cfg.bist.max_passes = 2;
  return r;
}

TEST(VerifyCross, GoldenTinyControllerIsClean) {
  const Rig r = make_rig();
  const MicroReport rep = analyze_controller(r.ctrl, r.opt);
  EXPECT_TRUE(rep.clean()) << rep.summary(r.ctrl.state_names);
}

TEST(VerifyCross, StaticVerdictsAgreeWithDynamicOutcomes) {
  Rig r = make_rig();
  const std::vector<InfraFault> faults =
      sim::enumerate_pla_crosspoint_faults(r.ctrl.pla);
  ASSERT_FALSE(faults.empty());

  const StaticFaultReport report = analyze_pla_faults(r.ctrl, r.opt);
  ASSERT_EQ(report.classified.size(), faults.size());
  // A watchdog above the derived bound cannot be tripped by any
  // statically hang-free faulted program; hang-possible programs that do
  // loop then trip it quickly.
  r.cfg.watchdog_cycles = report.max_worst_case_cycles + 1;

  // The dynamic side of the comparison runs on the deterministic
  // parallel engine, one cycle-accurate trial per enumerated site.
  const std::vector<InfraOutcome> dynamic =
      parallel_reduce<std::vector<InfraOutcome>>(
          static_cast<std::int64_t>(faults.size()), /*chunk=*/4, {},
          [&](std::int64_t i) {
            return std::vector<InfraOutcome>{
                sim::run_infra_trial(r.geo, r.ctrl,
                                     faults[static_cast<std::size_t>(i)], {},
                                     r.cfg)
                    .outcome};
          },
          [](std::vector<InfraOutcome> acc, std::vector<InfraOutcome> part) {
            acc.insert(acc.end(), part.begin(), part.end());
            return acc;
          });

  int definite = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const StaticVerdict v = report.classified[i].verdict;
    const InfraOutcome d = dynamic[i];
    const std::string where =
        std::string("fault ") + std::to_string(i) + " (" +
        sim::infra_fault_name(faults[i].kind) + " term " +
        std::to_string(faults[i].index) + " col " +
        std::to_string(faults[i].bit) + "): static " +
        static_verdict_name(v) + ", dynamic " + sim::infra_outcome_name(d);
    switch (v) {
      case StaticVerdict::Benign:
        EXPECT_EQ(d, InfraOutcome::Benign) << where;
        ++definite;
        break;
      case StaticVerdict::SafeFail:
        EXPECT_EQ(d, InfraOutcome::SafeFail) << where;
        ++definite;
        break;
      case StaticVerdict::EscapePossible:
        EXPECT_NE(d, InfraOutcome::Hung) << where;
        break;
      case StaticVerdict::HangPossible:
        break;  // possible-only; the run may or may not enter the cycle
    }
    // No dynamic hang without a statically found cycle.
    if (d == InfraOutcome::Hung) {
      EXPECT_EQ(v, StaticVerdict::HangPossible) << where;
    }
  }
  // The comparison must actually bite: crosspoint defects of a real
  // controller produce plenty of definite verdicts.
  EXPECT_GT(definite, static_cast<int>(faults.size()) / 4);
  EXPECT_GT(report.count(StaticVerdict::Benign), 0);
  EXPECT_GT(report.count(StaticVerdict::SafeFail), 0);
}

TEST(VerifyCross, StaticReportIsThreadInvariant) {
  const Rig r = make_rig();
  const StaticFaultReport a = analyze_pla_faults(r.ctrl, r.opt, 1);
  const StaticFaultReport b = analyze_pla_faults(r.ctrl, r.opt, 3);
  ASSERT_EQ(a.classified.size(), b.classified.size());
  for (std::size_t i = 0; i < a.classified.size(); ++i) {
    EXPECT_EQ(a.classified[i].verdict, b.classified[i].verdict) << i;
    EXPECT_EQ(a.classified[i].worst_case_cycles,
              b.classified[i].worst_case_cycles)
        << i;
  }
  EXPECT_EQ(a.histogram, b.histogram);
  EXPECT_EQ(a.max_worst_case_cycles, b.max_worst_case_cycles);
}

}  // namespace
}  // namespace bisram::verify
