// Defects in the repair machinery itself (sim/infra_faults.hpp): the
// classifier must tell a broken-but-harmless engine (benign) from one
// that discards the die (safe-fail), ships a bad RAM (escape) or loops
// forever (hung, caught by the watchdog) — and the fault-free paths must
// behave exactly as before the hooks existed.

#include <gtest/gtest.h>

#include "march/march.hpp"
#include "microcode/controller.hpp"
#include "models/yield.hpp"
#include "sim/bist.hpp"
#include "sim/controller.hpp"
#include "sim/infra_faults.hpp"
#include "util/error.hpp"

namespace bisram {
namespace {

using microcode::Cond;
using microcode::Ctrl;
using sim::InfraFault;
using sim::InfraFaultKind;
using sim::InfraOutcome;

sim::RamGeometry small_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

const microcode::AssembledController& trpla() {
  static const auto ctrl = microcode::build_trpla(march::ifa9(), 2);
  return ctrl;
}

TEST(InfraFaultFree, MicrocodedMachineMatchesBehaviouralEngine) {
  // With no injected infra fault the hook-laden machine must agree with
  // the behavioural engine on every result field, hung included.
  const auto geo = small_geo();
  sim::RamModel ram_a(geo);
  sim::RamModel ram_b(geo);
  const sim::Fault f = sim::stuck_bit_fault(geo, 13, 2, true);
  ram_a.array().inject(f);
  ram_b.array().inject(f);

  const sim::BistResult behavioural = sim::self_test_and_repair(ram_a);
  sim::PlaBistMachine machine(ram_b, trpla());
  const sim::BistResult microcoded = machine.run();

  EXPECT_EQ(behavioural.pass1_clean, microcoded.pass1_clean);
  EXPECT_EQ(behavioural.repair_successful, microcoded.repair_successful);
  EXPECT_EQ(behavioural.tlb_overflow, microcoded.tlb_overflow);
  EXPECT_EQ(behavioural.spares_used, microcoded.spares_used);
  EXPECT_EQ(behavioural.passes_run, microcoded.passes_run);
  EXPECT_EQ(behavioural.cycles, microcoded.cycles);
  EXPECT_FALSE(behavioural.hung);
  EXPECT_FALSE(microcoded.hung);
  EXPECT_FALSE(ram_b.tlb().has_infra_faults());
}

TEST(InfraWatchdog, AddgenStuckLowBitHangsAndDegradesGracefully) {
  // A stuck-at-0 low counter bit makes the up-count oscillate 0 -> 1 -> 0
  // below the terminal address: AddrLast never fires and a healthy
  // controller would march forever. The watchdog must classify, not throw,
  // and must leave BISR disabled.
  const auto geo = small_geo();
  sim::RamModel ram(geo);
  sim::PlaBistMachine machine(ram, trpla());
  machine.inject({InfraFaultKind::AddgenBitStuck, 0, /*bit=*/0,
                  /*value=*/false, true});
  const sim::BistResult r = machine.run(/*max_cycles=*/50000);
  EXPECT_TRUE(r.hung);
  EXPECT_FALSE(r.repair_successful);
  EXPECT_FALSE(ram.repair_enabled());
}

TEST(InfraWatchdog, AutoBudgetClearsAFaultFreeRun) {
  const auto geo = small_geo();
  sim::InfraTrialConfig cfg;
  const std::uint64_t budget =
      sim::auto_watchdog_cycles(geo, trpla(), cfg);
  sim::RamModel ram(geo);
  sim::PlaBistMachine machine(ram, trpla());
  const sim::BistResult r = machine.run(budget);
  EXPECT_FALSE(r.hung);
  EXPECT_TRUE(r.repair_successful);
}

TEST(InfraTlb, ValidStuck1GhostAloneIsBenign) {
  // The ghost slot (powered-up CAM = address 0) diverts address 0 to a
  // healthy spare. Diversion to working storage is invisible to both the
  // BIST and the readback: benign, the subtle case the classifier must
  // NOT overcall.
  const auto geo = small_geo();
  const InfraFault fault{InfraFaultKind::TlbValidStuck, /*slot=*/2, 0,
                         /*value=*/true, true};
  const auto trial =
      sim::run_infra_trial(geo, trpla(), fault, {}, sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Benign);
}

TEST(InfraTlb, ValidStuck1GhostOverFaultySpareEscapes) {
  // Acceptance case: the ghost slot diverts address 0 to spare 2, which
  // carries a stuck-at-1 cell. Pass 1 runs with repair off, so the BIST
  // marches the (clean) regular array and reports DONE_OK — but every
  // normal-mode read of address 0 lands on the broken spare. Escape.
  const auto geo = small_geo();
  const InfraFault fault{InfraFaultKind::TlbValidStuck, /*slot=*/2, 0,
                         /*value=*/true, true};
  sim::Fault spare_fault;
  spare_fault.kind = sim::FaultKind::StuckAt1;
  spare_fault.victim = geo.spare_cell_of(2, 0);
  const auto trial = sim::run_infra_trial(geo, trpla(), fault, {spare_fault},
                                          sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Escape);
  EXPECT_TRUE(trial.bist.repair_successful);  // what makes it dangerous
  EXPECT_FALSE(trial.bist.hung);
}

TEST(InfraTlb, MatchLineStuck1AliasesEveryAddressAndEscapes) {
  // A match line stuck at 1 sends *every* access to one spare word. Solid
  // patterns cannot see it (consistent storage), the address-dependent
  // readback phases can — and the BIST itself cannot, because pass 1 runs
  // with repair off over a clean array.
  const auto geo = small_geo();
  const InfraFault fault{InfraFaultKind::TlbMatchStuck, /*slot=*/1, 0,
                         /*value=*/true, true};
  const auto trial =
      sim::run_infra_trial(geo, trpla(), fault, {}, sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Escape);
  EXPECT_TRUE(trial.bist.repair_successful);
}

TEST(InfraPla, MissingAddrStepOrCrosspointHangsTheMarch) {
  // Acceptance case: drop the OR-plane crosspoint that asserts AddrStep
  // on state 0's self-loop term (the march-op state looping while
  // !AddrLast). The address generator never advances, AddrLast never
  // fires, the controller spins in state 0 until the watchdog trips.
  const auto& ctrl = trpla();
  const int sb = ctrl.state_bits;
  const int addr_step_col = sb + static_cast<int>(Ctrl::AddrStep);
  int term_idx = -1;
  for (int t = 0; t < ctrl.pla.terms(); ++t) {
    const auto& pt = ctrl.pla.product_terms()[static_cast<std::size_t>(t)];
    bool state0 = true;
    for (int i = 0; i < sb; ++i)
      state0 = state0 && pt.and_row[static_cast<std::size_t>(i)] == '0';
    if (!state0) continue;
    if (pt.and_row[static_cast<std::size_t>(
            sb + static_cast<int>(Cond::AddrLast))] != '0')
      continue;
    if (pt.or_row[static_cast<std::size_t>(addr_step_col)] != '1') continue;
    bool self_loop = true;  // next-state bits encode state 0
    for (int i = 0; i < sb; ++i)
      self_loop = self_loop && pt.or_row[static_cast<std::size_t>(i)] == '0';
    if (!self_loop) continue;
    term_idx = t;
    break;
  }
  ASSERT_GE(term_idx, 0) << "state-0 self-loop term not found";

  InfraFault fault;
  fault.kind = InfraFaultKind::PlaCrosspointMissing;
  fault.index = term_idx;
  fault.bit = addr_step_col;
  fault.and_plane = false;
  const auto trial = sim::run_infra_trial(small_geo(), ctrl, fault, {},
                                          sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Hung);
  EXPECT_TRUE(trial.bist.hung);
}

TEST(InfraDatagen, StuckAt0NeverDecodesTheLastBackgroundAndHangs) {
  // BgLast is decoded from the register outputs; a stuck-at-0 bit means
  // the all-1 background never decodes and the background loop never
  // exits.
  const InfraFault fault{InfraFaultKind::DatagenBitStuck, 0, /*bit=*/1,
                         /*value=*/false, true};
  const auto trial = sim::run_infra_trial(small_geo(), trpla(), fault, {},
                                          sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Hung);
}

TEST(InfraDatagen, StuckAt1TopBitAloneIsBenign) {
  // Writes and compare expectations share the generator, so a clean RAM
  // still passes every (distorted) background: self-consistent, benign.
  const auto geo = small_geo();
  const InfraFault fault{InfraFaultKind::DatagenBitStuck, 0,
                         /*bit=*/geo.bpw - 1, /*value=*/true, true};
  const auto trial =
      sim::run_infra_trial(geo, trpla(), fault, {}, sim::InfraTrialConfig{});
  EXPECT_EQ(trial.outcome, InfraOutcome::Benign);
}

TEST(InfraPla, ApplyFaultRewritesThePersonality) {
  microcode::PlaPersonality p(3, 2);
  p.add_term("1-0", "10");

  InfraFault f;
  f.index = 0;

  // Missing AND crosspoint: the literal becomes don't-care.
  f.kind = InfraFaultKind::PlaCrosspointMissing;
  f.and_plane = true;
  f.bit = 0;
  EXPECT_EQ(sim::apply_pla_fault(p, f).product_terms()[0].and_row, "--0");

  // Missing OR crosspoint: the term stops asserting the output.
  f.and_plane = false;
  f.bit = 0;
  EXPECT_EQ(sim::apply_pla_fault(p, f).product_terms()[0].or_row, "00");

  // Extra AND crosspoint on a don't-care: a new literal appears.
  f.kind = InfraFaultKind::PlaCrosspointExtra;
  f.and_plane = true;
  f.bit = 1;
  f.value = true;
  EXPECT_EQ(sim::apply_pla_fault(p, f).product_terms()[0].and_row, "110");

  // Extra AND crosspoint opposing an existing literal: both transistors
  // pull the term line down for every input — the term never fires.
  f.bit = 0;
  f.value = false;
  EXPECT_EQ(sim::apply_pla_fault(p, f).terms(), 0);

  // Extra OR crosspoint: the term additionally asserts the output.
  f.kind = InfraFaultKind::PlaCrosspointExtra;
  f.and_plane = false;
  f.bit = 1;
  EXPECT_EQ(sim::apply_pla_fault(p, f).product_terms()[0].or_row, "11");

  // Range validation.
  f.bit = 2;
  EXPECT_THROW(sim::apply_pla_fault(p, f), SpecError);
  f.bit = 0;
  f.index = 1;
  EXPECT_THROW(sim::apply_pla_fault(p, f), SpecError);
}

TEST(InfraRandom, DrawnFaultsAreAlwaysInRange) {
  const auto geo = small_geo();
  const auto& ctrl = trpla();
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const InfraFault f = sim::random_infra_fault(geo, ctrl, rng);
    switch (f.kind) {
      case InfraFaultKind::TlbEntryBitStuck:
        EXPECT_LT(f.bit, 6);  // log2_ceil(64)
        [[fallthrough]];
      case InfraFaultKind::TlbValidStuck:
      case InfraFaultKind::TlbMatchStuck:
        EXPECT_GE(f.index, 0);
        EXPECT_LT(f.index, geo.spare_words());
        break;
      case InfraFaultKind::AddgenBitStuck:
        EXPECT_LT(f.bit, 6);
        break;
      case InfraFaultKind::DatagenBitStuck:
        EXPECT_LT(f.bit, geo.bpw);
        break;
      case InfraFaultKind::StregBitStuck:
        EXPECT_LT(f.bit, ctrl.state_bits);
        break;
      case InfraFaultKind::PlaCrosspointMissing:
      case InfraFaultKind::PlaCrosspointExtra: {
        ASSERT_LT(f.index, ctrl.pla.terms());
        const auto& term =
            ctrl.pla.product_terms()[static_cast<std::size_t>(f.index)];
        const std::size_t col = static_cast<std::size_t>(f.bit);
        if (f.kind == InfraFaultKind::PlaCrosspointMissing) {
          if (f.and_plane)
            EXPECT_NE(term.and_row[col], '-');
          else
            EXPECT_EQ(term.or_row[col], '1');
        } else {
          if (f.and_plane)
            EXPECT_EQ(term.and_row[col], '-');
          else
            EXPECT_EQ(term.or_row[col], '0');
        }
        break;
      }
    }
  }
}

TEST(InfraCampaign, ClassifiesEveryTrialAndFindsNonBenignFaults) {
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 2;
  const auto rep =
      sim::infra_fault_campaign(small_geo(), cfg,
                                sim::CampaignSpec{.trials = 150, .seed = 77})
          .value;
  EXPECT_EQ(rep.trials, 150);
  std::int64_t sum = 0;
  for (int o = 0; o < sim::kInfraOutcomeCount; ++o)
    sum += rep.total(static_cast<InfraOutcome>(o));
  EXPECT_EQ(sum, rep.trials);  // every trial lands in exactly one bucket
  // The machinery faults must matter: some trials end non-benign.
  EXPECT_GT(rep.total(InfraOutcome::SafeFail) +
                rep.total(InfraOutcome::Escape) +
                rep.total(InfraOutcome::Hung),
            0);
  for (int o = 0; o < sim::kInfraOutcomeCount; ++o) {
    const auto out = static_cast<InfraOutcome>(o);
    EXPECT_NEAR(rep.rate(out),
                static_cast<double>(rep.total(out)) / rep.trials, 1e-12);
  }
}

TEST(InfraCampaign, RejectsGeometryWithoutSpares) {
  sim::RamGeometry g = small_geo();
  g.spare_rows = 0;
  EXPECT_THROW(
      sim::infra_fault_campaign(g, sim::InfraTrialConfig{},
                                sim::CampaignSpec{.trials = 10, .seed = 1}),
      SpecError);
}

TEST(InfraYield, McWithInfraPartitionsTheDies) {
  const auto y = models::bisr_yield_mc_with_infra(
                     small_geo(), 2.0, 2.0, 1.05, 0.08,
                     sim::CampaignSpec{.trials = 60, .seed = 5})
                     .value;
  EXPECT_NEAR(y.effective_good + y.escape + y.safe_fail + y.hung, 1.0,
              1e-12);
  EXPECT_NEAR(y.bist_reported_good, y.effective_good + y.escape, 1e-12);
  EXPECT_GE(y.effective_good, 0.0);
}

TEST(InfraYield, RepairLogicDiscountIsStapperOnTheLogicArea) {
  EXPECT_DOUBLE_EQ(models::repair_logic_yield(10.0, 2.0, 1.06, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(models::repair_logic_yield(10.0, 2.0, 1.06, 0.05),
                   models::stapper_yield(10.0 * 1.06 * 0.05, 2.0));
  EXPECT_THROW(models::repair_logic_yield(1.0, 2.0, 0.5, 0.05), SpecError);
  EXPECT_THROW(models::repair_logic_yield(1.0, 2.0, 1.06, 1.5), SpecError);
}

}  // namespace
}  // namespace bisram
