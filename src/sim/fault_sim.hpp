#pragma once
// Single-fault injection campaigns measuring march-test coverage: the
// evidence behind the paper's claims that IFA-9 "detects a wide range of
// functional faults caused by layout defects" and that the Johnson
// backgrounds "improve the fault coverage for coupling faults between
// bits of the same word".

#include <vector>

#include "march/march.hpp"
#include "sim/bist.hpp"
#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"
#include "util/rng.hpp"

namespace bisram::sim {

/// Where the two cells of a coupling fault live relative to each other.
enum class CouplingScope {
  IntraWord,       ///< aggressor and victim are bits of the same word
  PhysicalNeighbor ///< adjacent columns in the same row (different words
                   ///< under column multiplexing)
};

/// Draws a random fault of the given kind within the regular array.
Fault random_fault(FaultKind kind, const RamGeometry& geo, Rng& rng,
                   CouplingScope scope = CouplingScope::PhysicalNeighbor);

/// Draws one manufacturing defect as a stuck-at cell: StuckAt0 or
/// StuckAt1 with equal odds, then a uniform row over total_rows() (spare
/// rows included), then a uniform column — the RNG order every die draw
/// of the yield and infra-fault campaigns shares.
Fault random_stuck_at(const RamGeometry& geo, Rng& rng);

/// True when running `test` (pass 1 semantics) on a RAM containing only
/// `fault` flags at least one mismatch. Runs on the requested simulation
/// kernel (sim/packed_ram.hpp dispatch): Auto and Packed run the packed
/// kernel, Scalar the reference model; results are kernel-independent.
/// When `kernel_used` is non-null it receives the kernel that actually
/// ran.
bool detects(const march::MarchTest& test, const RamGeometry& geo,
             const Fault& fault, bool johnson_backgrounds,
             SimKernel kernel = SimKernel::Auto,
             SimKernel* kernel_used = nullptr);

/// Coverage of one fault kind over `trials` random instances.
struct Coverage {
  FaultKind kind = FaultKind::StuckAt0;
  CouplingScope scope = CouplingScope::PhysicalNeighbor;
  int detected = 0;
  int total = 0;
  double fraction() const {
    return total == 0 ? 0.0 : static_cast<double>(detected) / total;
  }
};

/// Runs a campaign for each kind in `kinds` under the unified campaign
/// API (sim/campaign.hpp): `spec` fixes trials-per-kind, seed, worker
/// threads and the simulation kernel. Trials execute on the deterministic
/// parallel engine — trial i of kind k draws from sub-stream
/// k * spec.trials + i, so the report is bit-identical for any thread
/// count (and for any kernel choice; the equivalence tests enforce it).
/// The provenance's trial counters sum over all kinds.
CampaignResult<std::vector<Coverage>> fault_coverage(
    const march::MarchTest& test, const RamGeometry& geo,
    const std::vector<FaultKind>& kinds, bool johnson_backgrounds,
    const CampaignSpec& spec,
    CouplingScope scope = CouplingScope::PhysicalNeighbor);

}  // namespace bisram::sim
