#pragma once
// Fault injection for the BIST/BISR machinery *itself*.
//
// The paper's yield argument (Sec. V, Table 4) treats the repair
// circuitry — TLB, ADDGEN, DATAGEN, TRPLA/STREG — as defect-free, yet
// those blocks occupy real silicon and the same layout defects IFA
// derives for the cell array can land in them. This module models that
// blind spot: stuck-at defects in the TLB CAM slots, the address and
// data generators and the state register, plus missing/extra crosspoints
// in the PLA control planes. An outcome classifier then answers the
// robustness question the array-only fault models cannot: does a broken
// repair engine fail safe (DONE_FAIL — the die is discarded), or does it
// silently *escape* (DONE_OK on a RAM that a marched readback still
// shows to be bad — the dangerous case), or does it hang (watchdog)?
//
// The campaign runs on the deterministic parallel engine
// (util/parallel.hpp): results are bit-identical for any BISRAM_THREADS
// value, enforced by tests/test_parallel_campaigns.cpp.

#include <array>
#include <cstdint>
#include <vector>

#include "microcode/controller.hpp"
#include "sim/bist.hpp"
#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"
#include "util/rng.hpp"

namespace bisram::sim {

enum class InfraFaultKind : std::uint8_t {
  TlbEntryBitStuck,     ///< CAM address bit of a TLB slot stuck at value
  TlbValidStuck,        ///< valid flip-flop of a TLB slot stuck at value
  TlbMatchStuck,        ///< match line of a TLB slot stuck at value
  AddgenBitStuck,       ///< ADDGEN counter flip-flop stuck at value
  DatagenBitStuck,      ///< DATAGEN (Johnson) register bit stuck at value
  StregBitStuck,        ///< STREG state flip-flop stuck at value
  PlaCrosspointMissing, ///< AND/OR plane transistor absent
  PlaCrosspointExtra,   ///< spurious AND/OR plane transistor
};
inline constexpr int kInfraFaultKindCount = 8;

/// Human-readable name ("TLB-entry-SA", "PLA-xpt-missing", ...).
const char* infra_fault_name(InfraFaultKind kind);

/// One defect in the repair machinery. Field use by kind:
///   Tlb*:             index = slot, bit = address bit (EntryBit only)
///   AddgenBitStuck:   bit = counter bit
///   DatagenBitStuck:  bit = register bit
///   StregBitStuck:    bit = flip-flop index
///   PlaCrosspoint*:   index = product term, bit = plane column
///                     (AND plane: input index; OR plane: output index),
///                     and_plane selects the plane; for an extra AND
///                     crosspoint `value` is the literal polarity.
/// `value` is the stuck-at value for the stuck kinds.
struct InfraFault {
  InfraFaultKind kind = InfraFaultKind::TlbEntryBitStuck;
  int index = 0;
  int bit = 0;
  bool value = false;
  bool and_plane = true;
};

/// Returns a copy of `pla` with the crosspoint defect applied:
///   * missing AND crosspoint — the term loses that literal ('-');
///   * missing OR crosspoint — the term no longer asserts that output;
///   * extra AND crosspoint — a '-' gains a literal; on a cell already
///     holding the opposite literal both transistors pull the term line
///     down for every input, so the term can never fire (it is dropped);
///   * extra OR crosspoint — the term additionally asserts that output.
microcode::PlaPersonality apply_pla_fault(const microcode::PlaPersonality& pla,
                                          const InfraFault& fault);

/// Draws a random infrastructure fault, uniform over the fault classes
/// and then over each class's sites, sized for `geo` and `ctrl`.
InfraFault random_infra_fault(const RamGeometry& geo,
                              const microcode::AssembledController& ctrl,
                              Rng& rng);

/// Every single-crosspoint defect of `pla`, in a fixed deterministic
/// order (term-major, AND columns before OR columns): a populated cell
/// yields its missing-crosspoint fault; an empty AND cell yields both
/// extra-literal polarities; a populated AND cell additionally yields the
/// opposite-polarity extra (both transistors present — the term can never
/// fire); an empty OR cell yields one extra fault. This is the exhaustive
/// site list the static verifier (verify/fault_analysis.hpp) classifies
/// and the dynamic campaign samples from.
std::vector<InfraFault> enumerate_pla_crosspoint_faults(
    const microcode::PlaPersonality& pla);

// --- outcome classification -------------------------------------------------

enum class InfraOutcome : std::uint8_t {
  Benign,    ///< DONE_OK and the normal-mode readback is clean
  SafeFail,  ///< DONE_FAIL — possibly a false alarm, but the die is
             ///< discarded, so the defect cannot reach the field
  Escape,    ///< DONE_OK but the readback mismatches — the dangerous case
  Hung,      ///< the watchdog tripped; BISR left disabled
};
inline constexpr int kInfraOutcomeCount = 4;

const char* infra_outcome_name(InfraOutcome outcome);

/// Golden readback: marches solid and address-dependent checkerboard
/// patterns through normal-mode word accesses (TLB diversion active,
/// exactly as a deployed system would) and reports whether every word
/// stores and returns its data. Independent of the — possibly broken —
/// BIST machinery, so it is the arbiter for escape classification.
bool normal_mode_readback_clean(RamModel& ram);

/// Per-trial knobs of the infra-fault campaign.
struct InfraTrialConfig {
  BistConfig bist;
  /// Random stuck-at cell faults additionally injected into the array
  /// each trial (0 = clean array; infra faults only).
  int array_faults = 0;
  /// Watchdog budget in controller cycles; 0 = auto-sized from a
  /// fault-free run of the same controller.
  std::uint64_t watchdog_cycles = 0;
};

/// Runs BIST+BISR on a RAM carrying `array_faults` plus the single
/// infrastructure defect `fault`, and classifies the outcome.
struct InfraTrial {
  InfraOutcome outcome = InfraOutcome::Benign;
  BistResult bist;
};
InfraTrial run_infra_trial(const RamGeometry& geo,
                           const microcode::AssembledController& ctrl,
                           const InfraFault& fault,
                           const std::vector<Fault>& array_faults,
                           const InfraTrialConfig& config);

/// Watchdog budget a fault-free controller run implies for `geo`/`config`
/// (generous multiple of the clean cycle count — legitimate repair runs
/// never approach it, runaway controllers trip it quickly).
std::uint64_t auto_watchdog_cycles(const RamGeometry& geo,
                                   const microcode::AssembledController& ctrl,
                                   const InfraTrialConfig& config);

// --- the campaign -----------------------------------------------------------

/// Outcome histogram of an infra-fault campaign, bucketed by fault kind.
struct InfraCampaignReport {
  std::array<std::array<std::int64_t, kInfraOutcomeCount>,
             kInfraFaultKindCount>
      counts{};
  std::int64_t trials = 0;

  std::int64_t count(InfraFaultKind kind, InfraOutcome outcome) const {
    return counts[static_cast<std::size_t>(kind)]
                 [static_cast<std::size_t>(outcome)];
  }
  std::int64_t total(InfraOutcome outcome) const;
  double rate(InfraOutcome outcome) const;
};

/// Monte-Carlo campaign under the unified campaign API
/// (sim/campaign.hpp): each trial injects one random infrastructure
/// fault (plus `config.array_faults` random array faults), runs the full
/// microprogrammed BIST/BISR flow under the watchdog and classifies the
/// outcome. Deterministic-parallel: bit-identical for any thread count.
/// Infrastructure faults live in the TLB/controller machinery, which the
/// packed kernel cannot express as cell overlays, so every trial runs
/// the scalar PlaBistMachine under either kernel request; the provenance
/// counts them as scalar trials.
CampaignResult<InfraCampaignReport> infra_fault_campaign(
    const RamGeometry& geo, const InfraTrialConfig& config,
    const CampaignSpec& spec);

}  // namespace bisram::sim
