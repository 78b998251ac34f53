#include "sim/controller.hpp"

namespace bisram::sim {

using microcode::Cond;
using microcode::Ctrl;

PlaBistMachine::PlaBistMachine(RamModel& ram,
                               const microcode::AssembledController& ctrl,
                               double retention_wait_s,
                               bool johnson_backgrounds, int timer_cycles)
    : ram_(ram), ctrl_(ctrl), addgen_(ram.geometry().words),
      datagen_(ram.geometry().bpw), retention_wait_s_(retention_wait_s),
      johnson_(johnson_backgrounds), timer_cycles_(timer_cycles),
      state_(ctrl.initial_state) {
  require(timer_cycles >= 1, "PlaBistMachine: timer needs >= 1 cycle");
  // Hardware reset: the same initialization the CHECK->next-pass arc
  // performs, applied before the first cycle.
  addgen_.reset(true);
  datagen_.reset();
  ram_.set_repair_enabled(false);
}

void PlaBistMachine::inject(const InfraFault& fault) {
  switch (fault.kind) {
    case InfraFaultKind::TlbEntryBitStuck:
      ram_.tlb().inject_entry_bit_stuck(fault.index, fault.bit, fault.value);
      break;
    case InfraFaultKind::TlbValidStuck:
      ram_.tlb().inject_valid_stuck(fault.index, fault.value);
      break;
    case InfraFaultKind::TlbMatchStuck:
      ram_.tlb().inject_match_stuck(fault.index, fault.value);
      break;
    case InfraFaultKind::AddgenBitStuck:
      addgen_.inject_stuck_bit(fault.bit, fault.value);
      break;
    case InfraFaultKind::DatagenBitStuck:
      datagen_.inject_stuck_bit(fault.bit, fault.value);
      break;
    case InfraFaultKind::StregBitStuck:
      require(fault.bit >= 0 && fault.bit < ctrl_.state_bits,
              "PlaBistMachine: STREG bit out of range");
      streg_stuck_mask_ |= 1 << fault.bit;
      if (fault.value)
        streg_stuck_value_ |= 1 << fault.bit;
      else
        streg_stuck_value_ &= ~(1 << fault.bit);
      state_ = apply_streg_stuck(state_);
      break;
    case InfraFaultKind::PlaCrosspointMissing:
    case InfraFaultKind::PlaCrosspointExtra:
      pla_override_ = apply_pla_fault(active_pla(), fault);
      break;
  }
}

std::vector<bool> PlaBistMachine::sample_conditions() const {
  std::vector<bool> c(static_cast<std::size_t>(microcode::kCondCount));
  c[static_cast<std::size_t>(Cond::AddrLast)] = addgen_.at_last();
  c[static_cast<std::size_t>(Cond::BgLast)] = !johnson_ || datagen_.at_last();
  c[static_cast<std::size_t>(Cond::TimerDone)] = timer_remaining_ == 0;
  c[static_cast<std::size_t>(Cond::PassDirty)] = dirty_;
  c[static_cast<std::size_t>(Cond::TlbOverflow)] = overflow_;
  return c;
}

bool PlaBistMachine::step() {
  if (finished_) return true;
  ++controller_cycles_;
  if (timer_remaining_ > 0) --timer_remaining_;

  // Assemble the PLA input vector: state bits then condition bits.
  std::vector<bool> in(static_cast<std::size_t>(active_pla().inputs()), false);
  for (int i = 0; i < ctrl_.state_bits; ++i)
    in[static_cast<std::size_t>(i)] = (state_ >> i) & 1;
  const auto conds = sample_conditions();
  for (int i = 0; i < microcode::kCondCount; ++i)
    in[static_cast<std::size_t>(ctrl_.state_bits + i)] =
        conds[static_cast<std::size_t>(i)];

  const auto out = active_pla().evaluate(in);
  auto ctrl_on = [&](Ctrl c) {
    return out[static_cast<std::size_t>(ctrl_.state_bits +
                                        static_cast<int>(c))];
  };

  // --- datapath execution, in hardware signal order -----------------------
  ram_.set_repair_enabled(ctrl_on(Ctrl::RepairOn));
  const bool invert = ctrl_on(Ctrl::Invert);
  const std::uint32_t addr = addgen_.address();

  if (ctrl_on(Ctrl::DoWrite)) {
    ++ram_ops_;
    ram_.write_word(addr, datagen_.word(invert));
  }
  if (ctrl_on(Ctrl::DoRead)) {
    ++ram_ops_;
    ram_.read_word_into(addr, readback_);
    if (datagen_.mismatch(readback_, invert)) {
      dirty_ = true;
      if (passes_started_ == 1) pass1_clean_seen_ = false;
      if (ctrl_on(Ctrl::TlbRecord)) {
        const auto spare =
            ram_.tlb().record(addr, ctrl_on(Ctrl::TlbForceNew));
        if (!spare) overflow_ = true;
      }
    }
  }

  if (ctrl_on(Ctrl::AddrStep)) addgen_.step();
  if (ctrl_on(Ctrl::AddrResetUp)) addgen_.reset(true);
  if (ctrl_on(Ctrl::AddrResetDown)) addgen_.reset(false);
  if (ctrl_on(Ctrl::DataStep) && johnson_) datagen_.step();
  if (ctrl_on(Ctrl::DataReset)) datagen_.reset();
  if (ctrl_on(Ctrl::ClearDirty)) {
    dirty_ = false;
    ++passes_started_;
  }
  if (ctrl_on(Ctrl::TimerStart)) {
    timer_remaining_ = timer_cycles_;
    // The embedded processor tristates the interface and waits; the RAM
    // keeps (or loses) its charge during this interval.
    ram_.elapse(retention_wait_s_);
  }

  // --- state register update ----------------------------------------------
  int next = 0;
  for (int i = 0; i < ctrl_.state_bits; ++i)
    if (out[static_cast<std::size_t>(i)]) next |= 1 << i;
  state_ = apply_streg_stuck(next);

  if (ctrl_on(Ctrl::SigDone)) {
    finished_ = true;
    success_ = true;
  } else if (ctrl_on(Ctrl::SigFail)) {
    finished_ = true;
    success_ = false;
  }
  return finished_;
}

BistResult PlaBistMachine::run(std::uint64_t max_cycles) {
  while (!finished_ && controller_cycles_ < max_cycles) step();

  BistResult r;
  r.pass1_clean = pass1_clean_seen_;
  r.repair_successful = finished_ && success_;
  r.tlb_overflow = overflow_;
  r.spares_used = ram_.tlb().used();
  r.passes_run = passes_started_;
  r.cycles = ram_ops_;
  if (!finished_) {
    // Watchdog trip: the controller is running away. Campaigns need a
    // classified result, with BISR left disabled — a hung engine must
    // not be trusted to divert addresses.
    r.hung = true;
    ram_.set_repair_enabled(false);
    return r;
  }
  // Match the behavioural engine: leave the RAM usable in normal mode.
  ram_.set_repair_enabled(true);
  return r;
}

BistResult run_microcoded_bist(RamModel& ram, const BistConfig& config) {
  require(config.test != nullptr, "run_microcoded_bist: null march test");
  const auto trpla =
      microcode::build_trpla(*config.test, config.max_passes);
  PlaBistMachine machine(ram, trpla, config.retention_wait_s,
                         config.johnson_backgrounds);
  return machine.run();
}

}  // namespace bisram::sim
