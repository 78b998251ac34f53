#pragma once
// The unified Monte-Carlo campaign API.
//
// Every campaign in the repo (march fault coverage, BISR yield,
// reliability, infra-fault robustness) used to carry its own ad-hoc
// (trials, seed[, threads]) parameter convention. This header gives them
// one front door:
//
//   * CampaignSpec — what to run: trial count, campaign seed, worker
//     threads (0 = the BISRAM_THREADS / hardware default) and the
//     simulation kernel (packed, scalar reference, or auto
//     per-trial dispatch — see sim/packed_ram.hpp);
//   * CampaignProvenance — what actually ran: the resolved thread count
//     plus how the kernel dispatch split the trials, so a report is
//     reproducible from its own metadata;
//   * run_campaign — the deterministic parallel engine underneath
//     (util/parallel.hpp), handing each trial its own seed sub-stream.
//
// The determinism contract is inherited from parallel_reduce: for a
// fixed spec the result is bit-identical for any thread count, and the
// packed/scalar kernel choice is a pure function of the trial's drawn
// fault list — never of thread placement.

#include <cstdint>
#include <string>
#include <utility>

#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bisram::sim {

/// Which simulation kernel a campaign's trials run on.
enum class SimKernel : std::uint8_t {
  Auto,    ///< per-trial: packed when the fault list is overlay-expressible
  Packed,  ///< force the packed kernel (throws on inexpressible faults)
  Scalar,  ///< force the scalar reference model
};

/// "auto", "packed", "scalar".
const char* kernel_name(SimKernel kernel);

/// Inverse of kernel_name; throws SpecError on anything else.
SimKernel kernel_by_name(const std::string& name);

/// How a yield campaign samples the per-die defect count.
enum class SamplingMode : std::uint8_t {
  Plain,       ///< draw the count directly (the historical estimator)
  Stratified,  ///< stratified importance sampling over the defect count:
               ///< simulate each count stratum conditionally, reweight
               ///< with the exact negative-binomial probabilities, and
               ///< resolve the fault-free stratum analytically (see
               ///< sim/importance.hpp)
};

/// "plain" or "stratified".
const char* sampling_name(SamplingMode mode);

/// Inverse of sampling_name; throws SpecError on anything else.
SamplingMode sampling_by_name(const std::string& name);

/// Variance-reduction parameters for the yield campaigns. Both estimators
/// are unbiased for the same quantity (tests/test_yield_statistics.cpp
/// proves it statistically); Stratified buys its variance reduction by
/// never spending a die simulation on the zero-defect stratum.
struct SamplingSpec {
  SamplingMode mode = SamplingMode::Plain;
  /// Residual negative-binomial tail probability beyond the last
  /// simulated stratum. The tail is counted pessimistically (as
  /// unrepairable), bounding the estimator's deterministic bias by this
  /// mass — at the default it is far below double-precision visibility.
  double tail_mass = 1e-12;
  /// Trial floor per retained stratum, so rare strata still get a
  /// variance estimate.
  int min_stratum_trials = 2;
};

/// Checkpoint/resume parameters for the campaigns that support them
/// (models::wafer_yield_campaign, models::bisr_yield_mc_with_bist).
/// Checkpoints are written at deterministic fold boundaries, so a
/// resumed run is bit-identical to an uninterrupted one for every
/// cadence and thread count — see util/checkpoint.hpp for the file
/// format and tests/test_checkpoint_resume.cpp for the proof.
struct CheckpointSpec {
  std::string path;    ///< write checkpoints here ("" = checkpointing off)
  std::string resume;  ///< resume from this checkpoint ("" = fresh start)
  /// Trials per checkpoint segment (rounded up to a whole number of fold
  /// chunks; 0 = a campaign-chosen default). Purely a cadence knob: the
  /// final estimate is bit-identical for every value.
  std::int64_t interval = 0;
  /// Minimum wall-clock gap between checkpoint *writes* in ms (0 = write
  /// at every segment boundary). Time-gating which boundaries hit disk
  /// never affects the estimate, only the recovery granularity.
  double min_period_ms = 0;
  /// Cooperative pause: stop cleanly at the first segment boundary at or
  /// past this many trials processed *this run* (0 = never), write a
  /// checkpoint, and return with Termination::Cancelled. This is the
  /// deterministic "kill" a time-sliced service (and the resume test
  /// suite) uses: unlike an asynchronous CancelToken, the stop lands on
  /// an exact fold boundary for every thread count.
  std::int64_t pause_after = 0;

  bool enabled() const { return !path.empty(); }
  bool resuming() const { return !resume.empty(); }
};

/// The one campaign parameter block every entry point shares.
struct CampaignSpec {
  int trials = 1;            ///< Monte-Carlo trials (>= 1)
  std::uint64_t seed = 0;    ///< campaign seed (trial i uses sub-stream i)
  int threads = 0;           ///< worker threads; 0 = BISRAM_THREADS/default
  SimKernel kernel = SimKernel::Auto;
  SamplingSpec sampling;  ///< defect-count sampling for yield campaigns
  /// Cooperative cancellation + deadline, polled at chunk boundaries
  /// (util/cancel.hpp). Null = never cancelled. A token that never fires
  /// perturbs nothing: the result stays bit-identical to a token-free
  /// run. When it fires, the campaign returns a *valid partial estimate*
  /// over the trials that completed, with its termination labelled.
  const CancelToken* cancel = nullptr;
  CheckpointSpec checkpoint;  ///< crash-safe checkpoint/resume (see above)
};

/// What actually ran — enough to reproduce and to audit the dispatch.
struct CampaignProvenance {
  std::uint64_t seed = 0;
  int threads = 0;  ///< resolved worker count the campaign executed with
  SimKernel kernel = SimKernel::Auto;  ///< the *requested* kernel
  std::int64_t trials = 0;
  std::int64_t packed_trials = 0;  ///< trials the packed kernel ran
  std::int64_t scalar_trials = 0;  ///< trials the scalar model ran
  SamplingMode sampling = SamplingMode::Plain;  ///< the sampling mode run
  std::int64_t strata = 0;  ///< defect-count strata simulated (IS)
  /// Trials whose results are folded into the estimate. Equals `trials`
  /// on a completed run; smaller when a CancelToken or deadline stopped
  /// the campaign early (the estimate is still valid, normalized by this
  /// count). Includes trials restored from a resumed checkpoint.
  std::int64_t trials_done = 0;
  std::int64_t checkpoints_written = 0;  ///< checkpoint files published
};

/// A campaign's outcome plus the provenance needed to reproduce it. The
/// rewired campaign entry points (sim/fault_sim.hpp, models/yield.hpp,
/// models/reliability.hpp, sim/infra_faults.hpp) all return this shape.
template <typename T>
struct CampaignResult {
  T value{};
  CampaignProvenance provenance;
  /// How the campaign ended. Anything other than Completed/Resumed marks
  /// `value` as a partial (but statistically valid) estimate over
  /// provenance.trials_done trials.
  Termination termination = Termination::Completed;
};

/// The termination label for a campaign that processed `done` of
/// `requested` trials under `cancel` (null = no token), having started
/// from a resumed checkpoint or not. Cancellation wins over deadline
/// when both fired; a fully processed run is Completed (or Resumed when
/// it continued from a checkpoint) even if the token fired after the
/// last chunk was claimed.
inline Termination resolve_termination(std::int64_t done,
                                       std::int64_t requested,
                                       const CancelToken* cancel,
                                       bool resumed) {
  if (done >= requested)
    return resumed ? Termination::Resumed : Termination::Completed;
  if (cancel) return cancel->stop_reason();
  return Termination::Cancelled;
}

/// Per-trial kernel recorder handed to the trial body; its counts fold
/// deterministically into the provenance.
class KernelTally {
 public:
  void note(SimKernel used) {
    if (used == SimKernel::Packed)
      ++packed_;
    else
      ++scalar_;
  }
  std::int64_t packed() const { return packed_; }
  std::int64_t scalar() const { return scalar_; }

 private:
  std::int64_t packed_ = 0;
  std::int64_t scalar_ = 0;
};

/// The thread count a spec resolves to (spec.threads when positive, else
/// the BISRAM_THREADS / override / hardware default).
int resolve_campaign_threads(const CampaignSpec& spec);

/// Segment length (in trials) between checkpoint boundaries, rounded up
/// to a whole number of `chunk`-sized fold chunks so every boundary is
/// also a chunk boundary of the uninterrupted fold (the alignment the
/// bit-identical resume contract rests on). Returns `total` — one
/// segment, no interior boundaries — when neither checkpointing nor a
/// cooperative pause needs them; asynchronous cancellation alone is
/// handled inside parallel_reduce and needs no segmentation. ck.interval
/// = 0 defaults to total/16 (floored at one chunk).
std::int64_t checkpoint_segment_trials(const CheckpointSpec& ck,
                                       std::int64_t chunk,
                                       std::int64_t total);

/// Wall-clock gate for checkpoint writes (CheckpointSpec::min_period_ms):
/// due() says whether a boundary's write should hit disk, note_write()
/// stamps a completed write. Construction stamps the campaign start, so
/// min_period_ms also spaces the first write from it.
class CheckpointCadence {
 public:
  CheckpointCadence();
  /// True when ck wants a write now: forced boundaries (pause, final)
  /// always write; others wait out min_period_ms since the last write.
  bool due(const CheckpointSpec& ck, bool force) const;
  void note_write();

 private:
  double last_ms_ = 0;
};

/// Runs `per_trial(rng, i, tally)` for i in [0, spec.trials) on the
/// deterministic parallel engine and folds the results with `combine`.
/// Trial i draws from sub-stream `stream_offset + i` of spec.seed (the
/// offset lets multi-segment campaigns like fault_coverage keep their
/// historical stream layout). `chunk` is the unit of work a thread
/// claims. It fixes the fold association, which matters only for
/// floating-point folds such as the wafer campaign's Welford
/// accumulators; there it is part of the bit-exact output contract, so it
/// stays a per-campaign constant rather than a spec knob. Integer-count
/// folds give the same bits for any chunk. When `provenance` is
/// non-null it is filled with the resolved thread count and the
/// packed/scalar trial split.
///
/// Cancellation: spec.cancel is polled at chunk boundaries. When it
/// fires, the fold covers exactly the chunks that finished; the number
/// of trials in that fold is added to `trials_done` (and to
/// provenance.trials_done). `initial` seeds the caller-side fold
/// (checkpoint resume) — it is folded in *before* chunk 0's partial,
/// continuing the exact left fold of an uninterrupted run.
template <typename T, typename PerTrial, typename Combine>
T run_campaign(const CampaignSpec& spec, std::int64_t chunk, T identity,
               PerTrial&& per_trial, Combine&& combine,
               CampaignProvenance* provenance = nullptr,
               std::uint64_t stream_offset = 0,
               std::int64_t* trials_done = nullptr,
               const T* initial = nullptr) {
  require(spec.trials >= 1, "CampaignSpec: needs at least one trial");
  struct Acc {
    T value;
    std::int64_t packed = 0;
    std::int64_t scalar = 0;
  };
  std::int64_t done = 0;
  const Acc start{initial ? *initial : identity, 0, 0};
  Acc folded = parallel_reduce<Acc>(
      spec.trials, chunk, Acc{identity, 0, 0},
      [&](std::int64_t i) {
        Rng rng(stream_seed(spec.seed,
                            stream_offset + static_cast<std::uint64_t>(i)));
        KernelTally tally;
        T value = per_trial(rng, i, tally);
        return Acc{std::move(value), tally.packed(), tally.scalar()};
      },
      [&](Acc a, Acc b) {
        return Acc{combine(std::move(a.value), std::move(b.value)),
                   a.packed + b.packed, a.scalar + b.scalar};
      },
      spec.threads > 0 ? spec.threads : 0, spec.cancel, &done,
      initial ? &start : nullptr);
  if (trials_done) *trials_done += done;
  if (provenance) {
    provenance->seed = spec.seed;
    provenance->threads = resolve_campaign_threads(spec);
    provenance->kernel = spec.kernel;
    provenance->trials += spec.trials;
    provenance->packed_trials += folded.packed;
    provenance->scalar_trials += folded.scalar;
    provenance->sampling = spec.sampling.mode;
    provenance->trials_done += done;
  }
  return std::move(folded.value);
}

}  // namespace bisram::sim
