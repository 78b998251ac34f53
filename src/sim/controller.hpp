#pragma once
// Cycle-accurate execution of the microprogrammed TRPLA controller: the
// state register (STREG), the NOR-NOR PLA, and the BIST/BISR datapath
// (ADDGEN, DATAGEN, comparator, TLB, retention timer) wired to a
// fault-injectable RAM. Unlike sim/bist.hpp, nothing here interprets the
// march test — every control decision comes out of the PLA personality,
// exactly as in the generated hardware.
//
// The machine is itself fault-injectable: inject() plants an
// infrastructure defect (sim/infra_faults.hpp) into the TLB, ADDGEN,
// DATAGEN, STREG or the PLA planes, and run() degrades gracefully when
// the corrupted controller no longer terminates — the watchdog returns a
// `hung` BistResult with BISR disabled instead of throwing.

#include <cstdint>
#include <optional>

#include "microcode/controller.hpp"
#include "sim/bist.hpp"
#include "sim/generators.hpp"
#include "sim/infra_faults.hpp"
#include "sim/ram_model.hpp"

namespace bisram::sim {

class PlaBistMachine {
 public:
  /// `johnson_backgrounds` false pins DATAGEN to the all-0 background
  /// (the bg_last condition reads constant-true).
  PlaBistMachine(RamModel& ram, const microcode::AssembledController& ctrl,
                 double retention_wait_s = 0.1,
                 bool johnson_backgrounds = true, int timer_cycles = 3);

  /// Plants a defect in the repair machinery itself. TLB faults land in
  /// the RAM's TLB (they persist into normal mode — silicon does not
  /// heal); the rest corrupt this machine's datapath or control store.
  /// May be called repeatedly to accumulate defects.
  void inject(const InfraFault& fault);

  /// Executes one controller cycle; returns true when the controller has
  /// reached DONE_OK or DONE_FAIL.
  bool step();

  /// Runs to completion, bounded by the `max_cycles` watchdog. A healthy
  /// controller always terminates well inside any sane budget; a
  /// defective one may not, in which case the result comes back with
  /// `hung` set and BISR disabled (safe degradation).
  BistResult run(std::uint64_t max_cycles = 1ull << 34);

  int state() const { return state_; }
  std::uint64_t controller_cycles() const { return controller_cycles_; }

 private:
  std::vector<bool> sample_conditions() const;
  const microcode::PlaPersonality& active_pla() const {
    return pla_override_ ? *pla_override_ : ctrl_.pla;
  }
  int apply_streg_stuck(int state) const {
    return (state & ~streg_stuck_mask_) | streg_stuck_value_;
  }

  RamModel& ram_;
  const microcode::AssembledController& ctrl_;
  AddGen addgen_;
  DataGen datagen_;
  double retention_wait_s_;
  bool johnson_;
  int timer_cycles_;

  int state_ = 0;
  bool dirty_ = false;
  bool overflow_ = false;
  int timer_remaining_ = 0;
  bool pass1_clean_seen_ = true;  // no mismatch observed during pass 1
  int passes_started_ = 0;        // INIT's ClearDirty starts pass 1
  std::uint64_t ram_ops_ = 0;
  std::uint64_t controller_cycles_ = 0;
  bool finished_ = false;
  bool success_ = false;
  // Infrastructure faults local to the controller.
  int streg_stuck_mask_ = 0;
  int streg_stuck_value_ = 0;
  std::optional<microcode::PlaPersonality> pla_override_;
  Word readback_;  ///< reused read buffer: no per-cycle allocation
};

/// Convenience: build the TRPLA for `config.test`/`config.max_passes`,
/// execute it, and return the same BistResult shape as the behavioural
/// engine (tests prove the two agree).
BistResult run_microcoded_bist(RamModel& ram, const BistConfig& config = {});

}  // namespace bisram::sim
