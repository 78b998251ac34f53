#include "sim/fault_sim.hpp"

#include "sim/packed_ram.hpp"

namespace bisram::sim {

Fault random_fault(FaultKind kind, const RamGeometry& geo, Rng& rng,
                   CouplingScope scope) {
  Fault f;
  f.kind = kind;
  const bool coupling = kind == FaultKind::CouplingIdem ||
                        kind == FaultKind::CouplingInv ||
                        kind == FaultKind::CouplingState;
  if (!coupling) {
    f.victim = {static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.rows()))),
                static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.cols())))};
  } else if (scope == CouplingScope::IntraWord) {
    const auto addr = static_cast<std::uint32_t>(rng.below(geo.words));
    const int bi = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpw)));
    int bj = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpw)));
    if (geo.bpw > 1) {
      while (bj == bi)
        bj = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.bpw)));
    } else {
      // Degenerate 1-bit words cannot host intra-word coupling; fall back
      // to a neighbouring word's cell.
      return random_fault(kind, geo, rng, CouplingScope::PhysicalNeighbor);
    }
    f.aggressor = geo.cell_of(addr, bi);
    f.victim = geo.cell_of(addr, bj);
  } else {
    // Adjacent columns of the same row: under column multiplexing these
    // belong to different words (or different bit positions).
    const int row = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.rows())));
    const int col = static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.cols() - 1)));
    f.aggressor = {row, col};
    f.victim = {row, col + 1};
    if (rng.chance(0.5)) std::swap(f.aggressor, f.victim);
  }
  f.dir_rising = rng.chance(0.5);
  f.value = rng.chance(0.5);
  f.value2 = rng.chance(0.5);
  return f;
}

bool detects(const march::MarchTest& test, const RamGeometry& geo,
             const Fault& fault, bool johnson_backgrounds, SimKernel kernel,
             SimKernel* kernel_used) {
  BistConfig config;
  config.test = &test;
  config.johnson_backgrounds = johnson_backgrounds;
  const BistResult result =
      run_bist(geo, {fault}, config, kernel, kernel_used);
  return !result.pass1_clean;
}

Fault random_stuck_at(const RamGeometry& geo, Rng& rng) {
  Fault f;
  f.kind = rng.chance(0.5) ? FaultKind::StuckAt0 : FaultKind::StuckAt1;
  f.victim = {
      static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.total_rows()))),
      static_cast<int>(rng.below(static_cast<std::uint64_t>(geo.cols())))};
  return f;
}

CampaignResult<std::vector<Coverage>> fault_coverage(
    const march::MarchTest& test, const RamGeometry& geo,
    const std::vector<FaultKind>& kinds, bool johnson_backgrounds,
    const CampaignSpec& spec, CouplingScope scope) {
  // Trial i of kind k draws from sub-stream k * trials + i of the
  // campaign seed, so the faults sampled are a pure function of the
  // (seed, kind, trial) triple — never of thread placement or of the
  // kernel the trial dispatched to.
  std::vector<CampaignStream> streams;
  for (std::size_t k = 0; k < kinds.size(); ++k)
    streams.push_back({static_cast<std::uint64_t>(k) *
                           static_cast<std::uint64_t>(spec.trials),
                       spec.trials, /*chunk=*/1, /*grain=*/1});
  const StreamFolds<int> run = run_streams<int>(
      spec, streams, 0,
      [&](std::size_t k, Rng& rng, KernelTally& tally) {
        const Fault f = random_fault(kinds[k], geo, rng, scope);
        SimKernel used = SimKernel::Scalar;
        const bool hit =
            detects(test, geo, f, johnson_backgrounds, spec.kernel, &used);
        tally.note(used);
        return hit ? 1 : 0;
      },
      [](int a, int b) { return a + b; }, "fault_coverage");
  // A cancelled kind reports coverage over the trials it completed; a
  // kind the campaign never reached is simply absent from the result.
  CampaignResult<std::vector<Coverage>> out{{}, run.provenance,
                                            run.termination};
  for (std::size_t k = 0; k < run.started; ++k) {
    Coverage cov;
    cov.kind = kinds[k];
    cov.scope = scope;
    cov.detected = run.folds[k];
    cov.total = static_cast<int>(run.done[k]);
    out.value.push_back(cov);
  }
  return out;
}

}  // namespace bisram::sim
