#include "sim/infra_faults.hpp"

#include <algorithm>

#include "sim/controller.hpp"
#include "sim/fault_sim.hpp"
#include "util/math.hpp"

namespace bisram::sim {

const char* infra_fault_name(InfraFaultKind kind) {
  switch (kind) {
    case InfraFaultKind::TlbEntryBitStuck: return "TLB-entry-SA";
    case InfraFaultKind::TlbValidStuck: return "TLB-valid-SA";
    case InfraFaultKind::TlbMatchStuck: return "TLB-match-SA";
    case InfraFaultKind::AddgenBitStuck: return "ADDGEN-SA";
    case InfraFaultKind::DatagenBitStuck: return "DATAGEN-SA";
    case InfraFaultKind::StregBitStuck: return "STREG-SA";
    case InfraFaultKind::PlaCrosspointMissing: return "PLA-xpt-missing";
    case InfraFaultKind::PlaCrosspointExtra: return "PLA-xpt-extra";
  }
  return "?";
}

const char* infra_outcome_name(InfraOutcome outcome) {
  switch (outcome) {
    case InfraOutcome::Benign: return "benign";
    case InfraOutcome::SafeFail: return "safe-fail";
    case InfraOutcome::Escape: return "escape";
    case InfraOutcome::Hung: return "hung";
  }
  return "?";
}

microcode::PlaPersonality apply_pla_fault(const microcode::PlaPersonality& pla,
                                          const InfraFault& fault) {
  require(fault.kind == InfraFaultKind::PlaCrosspointMissing ||
              fault.kind == InfraFaultKind::PlaCrosspointExtra,
          "apply_pla_fault: not a PLA fault");
  require(fault.index >= 0 && fault.index < pla.terms(),
          "apply_pla_fault: term out of range");
  const int width = fault.and_plane ? pla.inputs() : pla.outputs();
  require(fault.bit >= 0 && fault.bit < width,
          "apply_pla_fault: plane column out of range");

  microcode::PlaPersonality out(pla.inputs(), pla.outputs());
  for (int t = 0; t < pla.terms(); ++t) {
    auto term = pla.product_terms()[static_cast<std::size_t>(t)];
    if (t == fault.index) {
      const std::size_t col = static_cast<std::size_t>(fault.bit);
      if (fault.and_plane) {
        char& c = term.and_row[col];
        if (fault.kind == InfraFaultKind::PlaCrosspointMissing) {
          c = '-';  // literal transistor gone: the term ignores this input
        } else {
          const char lit = fault.value ? '1' : '0';
          if (c == '-') {
            c = lit;
          } else if (c != lit) {
            // Both the true and the complement transistor now pull the
            // term line down whatever the input: the term never fires.
            continue;
          }
        }
      } else {
        char& c = term.or_row[col];
        c = fault.kind == InfraFaultKind::PlaCrosspointMissing ? '0' : '1';
      }
    }
    out.add_term(term.and_row, term.or_row);
  }
  return out;
}

std::vector<InfraFault> enumerate_pla_crosspoint_faults(
    const microcode::PlaPersonality& pla) {
  std::vector<InfraFault> faults;
  auto push = [&](InfraFaultKind kind, int term, bool and_plane, int col,
                  bool value) {
    InfraFault f;
    f.kind = kind;
    f.index = term;
    f.bit = col;
    f.value = value;
    f.and_plane = and_plane;
    faults.push_back(f);
  };
  for (int t = 0; t < pla.terms(); ++t) {
    const auto& term = pla.product_terms()[static_cast<std::size_t>(t)];
    for (int i = 0; i < pla.inputs(); ++i) {
      const char c = term.and_row[static_cast<std::size_t>(i)];
      if (c == '-') {
        push(InfraFaultKind::PlaCrosspointExtra, t, true, i, false);
        push(InfraFaultKind::PlaCrosspointExtra, t, true, i, true);
      } else {
        push(InfraFaultKind::PlaCrosspointMissing, t, true, i, false);
        // The complementary transistor landing next to an existing
        // literal grounds the term line for every input.
        push(InfraFaultKind::PlaCrosspointExtra, t, true, i, c != '1');
      }
    }
    for (int j = 0; j < pla.outputs(); ++j) {
      const bool programmed = term.or_row[static_cast<std::size_t>(j)] == '1';
      push(programmed ? InfraFaultKind::PlaCrosspointMissing
                      : InfraFaultKind::PlaCrosspointExtra,
           t, false, j, false);
    }
  }
  return faults;
}

InfraFault random_infra_fault(const RamGeometry& geo,
                              const microcode::AssembledController& ctrl,
                              Rng& rng) {
  const int addr_bits = std::max(1, log2_ceil(geo.words));
  const int slots = std::max(1, geo.spare_words());
  InfraFault f;
  f.kind = static_cast<InfraFaultKind>(
      rng.below(static_cast<std::uint64_t>(kInfraFaultKindCount)));
  f.value = rng.chance(0.5);
  switch (f.kind) {
    case InfraFaultKind::TlbEntryBitStuck:
      f.index = static_cast<int>(rng.below(static_cast<std::uint64_t>(slots)));
      f.bit =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(addr_bits)));
      break;
    case InfraFaultKind::TlbValidStuck:
    case InfraFaultKind::TlbMatchStuck:
      f.index = static_cast<int>(rng.below(static_cast<std::uint64_t>(slots)));
      break;
    case InfraFaultKind::AddgenBitStuck:
      f.bit =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(addr_bits)));
      break;
    case InfraFaultKind::DatagenBitStuck:
      f.bit = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpw)));
      break;
    case InfraFaultKind::StregBitStuck:
      f.bit = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(ctrl.state_bits)));
      break;
    case InfraFaultKind::PlaCrosspointMissing:
    case InfraFaultKind::PlaCrosspointExtra: {
      f.index = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(ctrl.pla.terms())));
      const auto& term =
          ctrl.pla.product_terms()[static_cast<std::size_t>(f.index)];
      const bool missing = f.kind == InfraFaultKind::PlaCrosspointMissing;
      // Candidate sites: for a missing crosspoint, cells holding a
      // transistor; for an extra one, cells without. (and_plane, column).
      std::vector<std::pair<bool, int>> sites;
      for (int i = 0; i < ctrl.pla.inputs(); ++i)
        if ((term.and_row[static_cast<std::size_t>(i)] != '-') == missing)
          sites.emplace_back(true, i);
      for (int j = 0; j < ctrl.pla.outputs(); ++j)
        if ((term.or_row[static_cast<std::size_t>(j)] == '1') == missing)
          sites.emplace_back(false, j);
      if (sites.empty()) {
        // A term with every cell populated (or none free): degrade to
        // the opposite polarity, which always has candidates — the AND
        // row holds at least the state-bit literals.
        f.kind = missing ? InfraFaultKind::PlaCrosspointExtra
                         : InfraFaultKind::PlaCrosspointMissing;
        return f.kind == InfraFaultKind::PlaCrosspointMissing
                   ? random_infra_fault(geo, ctrl, rng)
                   : f;
      }
      const auto& site =
          sites[rng.below(static_cast<std::uint64_t>(sites.size()))];
      f.and_plane = site.first;
      f.bit = site.second;
      break;
    }
  }
  return f;
}

bool normal_mode_readback_clean(RamModel& ram) {
  const RamGeometry& geo = ram.geometry();
  ram.set_repair_enabled(true);  // normal mode uses the TLB diversion
  // Solid and address-dependent checkerboard sweeps (plus complements):
  // solid patterns expose stuck storage, the address-dependent ones
  // expose aliasing — e.g. a stuck match line sending many addresses to
  // one spare survives a solid sweep but not this one.
  auto expect = [&](std::uint32_t addr, int bit, int phase) {
    switch (phase) {
      case 0: return false;
      case 1: return true;
      case 2: return ((addr + static_cast<std::uint32_t>(bit)) & 1u) != 0;
      default: return ((addr + static_cast<std::uint32_t>(bit)) & 1u) == 0;
    }
  };
  Word w(static_cast<std::size_t>(geo.bpw));
  Word got;  // reused across the sweep: no per-read allocation
  for (int phase = 0; phase < 4; ++phase) {
    for (std::uint32_t a = 0; a < geo.words; ++a) {
      for (int bit = 0; bit < geo.bpw; ++bit)
        w[static_cast<std::size_t>(bit)] = expect(a, bit, phase);
      ram.write_word(a, w);
    }
    for (std::uint32_t a = 0; a < geo.words; ++a) {
      ram.read_word_into(a, got);
      for (int bit = 0; bit < geo.bpw; ++bit)
        if (got[static_cast<std::size_t>(bit)] != expect(a, bit, phase))
          return false;
    }
  }
  return true;
}

std::uint64_t auto_watchdog_cycles(const RamGeometry& geo,
                                   const microcode::AssembledController& ctrl,
                                   const InfraTrialConfig& config) {
  // A clean run is one full pass; a legitimate repair run is bounded by
  // max_passes of them. 4x(max_passes + 1) clean-runs of headroom plus a
  // constant floor keeps every honest flow far from the trip point while
  // a runaway controller (which re-marches forever) trips in bounded time.
  RamModel clean(geo);
  PlaBistMachine machine(clean, ctrl, config.bist.retention_wait_s,
                         config.bist.johnson_backgrounds);
  machine.run();
  return machine.controller_cycles() * 4ull *
             (static_cast<std::uint64_t>(config.bist.max_passes) + 1) +
         4096;
}

InfraTrial run_infra_trial(const RamGeometry& geo,
                           const microcode::AssembledController& ctrl,
                           const InfraFault& fault,
                           const std::vector<Fault>& array_faults,
                           const InfraTrialConfig& config) {
  std::uint64_t watchdog = config.watchdog_cycles;
  if (watchdog == 0) watchdog = auto_watchdog_cycles(geo, ctrl, config);

  RamModel ram(geo);
  for (const Fault& f : array_faults) ram.array().inject(f);
  PlaBistMachine machine(ram, ctrl, config.bist.retention_wait_s,
                         config.bist.johnson_backgrounds);
  machine.inject(fault);

  InfraTrial trial;
  trial.bist = machine.run(watchdog);
  if (trial.bist.hung)
    trial.outcome = InfraOutcome::Hung;
  else if (!trial.bist.repair_successful)
    trial.outcome = InfraOutcome::SafeFail;
  else
    trial.outcome = normal_mode_readback_clean(ram) ? InfraOutcome::Benign
                                                    : InfraOutcome::Escape;
  return trial;
}

std::int64_t InfraCampaignReport::total(InfraOutcome outcome) const {
  std::int64_t sum = 0;
  for (const auto& per_kind : counts)
    sum += per_kind[static_cast<std::size_t>(outcome)];
  return sum;
}

double InfraCampaignReport::rate(InfraOutcome outcome) const {
  return trials == 0
             ? 0.0
             : static_cast<double>(total(outcome)) /
                   static_cast<double>(trials);
}

CampaignResult<InfraCampaignReport> infra_fault_campaign(
    const RamGeometry& geo, const InfraTrialConfig& config,
    const CampaignSpec& spec) {
  require(spec.kernel != SimKernel::Packed,
          "infra_fault_campaign: infrastructure faults live in the "
          "TLB/controller machinery, which the packed kernel cannot express "
          "as overlays; use kernel=auto or kernel=scalar");
  require(config.bist.test != nullptr, "infra_fault_campaign: null march");
  require(config.array_faults >= 0,
          "infra_fault_campaign: negative array fault count");
  geo.validate();
  require(geo.spare_words() >= 1,
          "infra_fault_campaign: geometry needs >= 1 spare word");

  const auto ctrl =
      microcode::build_trpla(*config.bist.test, config.bist.max_passes);
  InfraTrialConfig cfg = config;
  if (cfg.watchdog_cycles == 0)
    cfg.watchdog_cycles = auto_watchdog_cycles(geo, ctrl, config);

  const StreamFolds<InfraCampaignReport> run = run_streams(
      spec, {{0, spec.trials, /*chunk=*/4, /*grain=*/4}},
      InfraCampaignReport{},
      [&](std::size_t, Rng& rng, KernelTally& tally) {
        tally.note(SimKernel::Scalar);
        const InfraFault fault = random_infra_fault(geo, ctrl, rng);
        std::vector<Fault> cell_faults;
        cell_faults.reserve(static_cast<std::size_t>(cfg.array_faults));
        for (int j = 0; j < cfg.array_faults; ++j)
          cell_faults.push_back(random_stuck_at(geo, rng));
        const InfraTrial trial =
            run_infra_trial(geo, ctrl, fault, cell_faults, cfg);
        InfraCampaignReport r;
        r.counts[static_cast<std::size_t>(fault.kind)]
                [static_cast<std::size_t>(trial.outcome)] = 1;
        r.trials = 1;
        return r;
      },
      [](InfraCampaignReport a, const InfraCampaignReport& b) {
        for (std::size_t k = 0; k < a.counts.size(); ++k)
          for (std::size_t o = 0; o < a.counts[k].size(); ++o)
            a.counts[k][o] += b.counts[k][o];
        a.trials += b.trials;
        return a;
      },
      "infra_fault_campaign");
  return {run.folds[0], run.provenance, run.termination};
}

}  // namespace bisram::sim
