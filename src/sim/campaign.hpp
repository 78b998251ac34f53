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
//   * run_streams — the one campaign driver. A campaign hands it a list
//     of seed-stream windows (CampaignStream), a trial body and a fold,
//     plus a StreamCodec when it can be checkpointed; the driver owns the
//     segment boundaries, the cancel and pause checks, checkpoint writes
//     and resume, the termination label and the provenance. It is the
//     only code that knows the checkpoint payload layout and the segment
//     policy.
//
// The determinism contract is util/parallel's: each trial draws from its
// own seed sub-stream and partial folds combine in a fixed order, so for
// a fixed spec the result is bit-identical for any thread count, and the
// packed/scalar kernel choice is a pure function of the trial's drawn
// fault list — never of thread placement.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/cancel.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bisram::sim {

/// Which simulation kernel a campaign's trials run on.
enum class SimKernel : std::uint8_t {
  Auto,    ///< BIST trials run packed (rerun on the scalar model if a
           ///< packed run aborts); other trials run scalar
  Packed,  ///< as Auto for BIST trials; campaigns with no RAM simulation
           ///< to pack refuse it
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
/// (models::wafer_yield_campaign, models::bisr_yield_mc_with_bist; every
/// other campaign refuses path and resume with a SpecError).
/// Checkpoints are written at deterministic segment boundaries, so a
/// resumed run is bit-identical to an uninterrupted one for every
/// cadence and thread count — see run_streams for the segment policy and
/// the payload, util/checkpoint.hpp for the file format and
/// tests/test_checkpoint_resume.cpp for the proof.
struct CheckpointSpec {
  std::string path;    ///< write checkpoints here ("" = checkpointing off)
  std::string resume;  ///< resume from this checkpoint ("" = fresh start)
  /// Trials per checkpoint segment, rounded up to a whole number of the
  /// stream's grains (CampaignStream::grain); 0 = the stream length / 16.
  /// Purely a cadence knob: the final estimate is bit-identical for every
  /// value.
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

/// One seed-stream window of a campaign: trial i of the stream draws from
/// sub-stream `offset + i` of the campaign seed. Plain sampling is one
/// stream at offset 0, stratified sampling one stream per stratum at
/// stratum_stream_offset(s) (sim/importance.hpp), fault_coverage one
/// stream per fault kind at k * trials.
struct CampaignStream {
  std::uint64_t offset = 0;
  std::int64_t trials = 0;
  /// Trials a worker claims at a time. It fixes the fold association,
  /// which matters only for floating-point folds such as the wafer
  /// campaign's Welford accumulators; there it is part of the bit-exact
  /// output contract, so it is a per-campaign constant, not a spec knob.
  /// Integer-count folds give the same bits for any chunk.
  std::int64_t chunk = 1;
  /// Segment boundaries fall on whole multiples of `grain` trials (and on
  /// the stream end). A multiple of `chunk`, so every boundary is also a
  /// chunk boundary of the uninterrupted fold.
  std::int64_t grain = 1;
};

/// Checkpoint encoding of one stream's accumulator. Campaigns that hand
/// run_streams a codec can be checkpointed and resumed
/// (models::wafer_yield_campaign, models::bisr_yield_mc_with_bist); the
/// others refuse CheckpointSpec::path and ::resume with a SpecError.
template <typename T>
struct StreamCodec {
  /// Hash of every parameter the campaign's bit-exact result depends on
  /// (util/checkpoint.hpp's Fingerprint); the driver mixes in its payload
  /// layout, so a file with any other layout is refused.
  std::uint64_t fingerprint = 0;
  std::function<void(CheckpointWriter&, const T&)> put;
  /// Reads back what `put` wrote for a stream that folded `trials`
  /// trials; nullopt when the counts cannot come from that many trials.
  std::function<std::optional<T>(CheckpointReader&, std::int64_t trials)>
      get;
};

/// What the driver reports for any campaign, whatever its accumulator.
struct StreamRun {
  std::vector<std::int64_t> done;  ///< trials folded into each stream
  /// Streams [0, started) ran (the first always starts); the others have
  /// zero trials done. A cancelled run stopped in stream started - 1:
  /// every stream before it is complete.
  std::size_t started = 0;
  Termination termination = Termination::Completed;
  CampaignProvenance provenance;  ///< all but strata, left to the campaign
};

/// What run_streams returns: the run plus every stream's fold, parallel
/// to the stream list (the identity where a stream never started).
template <typename T>
struct StreamFolds : StreamRun {
  std::vector<T> folds;
};

namespace detail {

/// Trials [lo, hi) of stream `stream`: one stream's share of a round.
struct Segment {
  std::size_t stream = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// run_streams' accumulators, seen by the driver loop only through these
/// calls. `put`/`get` are empty when the campaign has no codec.
struct StreamHooks {
  /// Folds a round — segments of consecutive streams, in stream order —
  /// into the streams' accumulators and returns how many trials it
  /// folded: all of them, or a prefix of the round in trial order when
  /// spec.cancel fired.
  std::function<std::int64_t(const std::vector<Segment>& round)> fold;
  std::function<void(CheckpointWriter&, std::size_t s)> put;
  std::function<bool(CheckpointReader&, std::size_t s, std::int64_t trials)>
      get;
  std::uint64_t fingerprint = 0;
};

/// The campaign driver's loop (campaign.cpp); see run_streams.
StreamRun drive_streams(const CampaignSpec& spec,
                        const std::vector<CampaignStream>& streams,
                        const std::string& campaign, const StreamHooks& hooks);

}  // namespace detail

/// The one campaign driver. Runs every stream's trials on the
/// deterministic parallel engine (util/parallel.hpp), calling
/// `trial(stream index, rng, tally)` with the trial's own seed sub-stream
/// and folding the results per stream with `combine`, starting from
/// `identity`. The driver owns everything around the trial body:
///
///   * segments: with checkpointing or a pause requested, each stream is
///     cut into segments of CheckpointSpec::interval trials (0 = stream
///     length / 16) rounded up to whole grains; otherwise a segment is the
///     whole stream. Every stream end is also a boundary;
///   * rounds: the driver folds, as one parallel range, every segment up
///     to the next boundary where it must act — the segment's end when
///     checkpoints or a pause need one, else the campaign's end — so the
///     streams of a stratified campaign share the workers instead of
///     taking turns. A round is laid out as (stream, chunk) items in
///     stream order; each item folds its trials from `identity`, and each
///     stream's items fold in chunk order onto its accumulator, the
///     association a per-stream parallel_reduce would use;
///   * at each boundary it checks spec.cancel first and
///     CheckpointSpec::pause_after second, and after each segment it
///     writes a checkpoint when one is due (min_period_ms). Workers claim
///     a round's items in order and stop claiming when spec.cancel fires,
///     so a cancelled round folds a prefix of it: the streams before the
///     one it stopped in are complete and the ones after it are empty;
///   * resume: the file is read and every count checked against the
///     stream list before any trial runs;
///   * the termination label and the provenance (everything but strata).
///
/// A checkpoint payload has one layout for every campaign: the current
/// stream index (u64), the trials folded into that stream (i64), then the
/// codec's encoding of streams 0 through that index. `campaign` names the
/// caller in errors; a null `codec` refuses checkpoint.path and
/// checkpoint.resume. For a fixed spec the result is bit-identical for any
/// thread count, checkpoint cadence and kill/resume split, and the
/// packed/scalar split is a pure function of each trial's fault list.
template <typename T, typename Trial, typename Combine>
StreamFolds<T> run_streams(const CampaignSpec& spec,
                           const std::vector<CampaignStream>& streams,
                           T identity, Trial&& trial, Combine&& combine,
                           const std::string& campaign,
                           const StreamCodec<T>* codec = nullptr) {
  struct Acc {  // one item's fold plus its kernel tally
    T value;
    std::int64_t packed = 0;
    std::int64_t scalar = 0;
  };
  StreamFolds<T> out;
  out.folds.assign(streams.size(), identity);
  std::int64_t packed = 0, scalar = 0;
  detail::StreamHooks hooks;
  hooks.fold = [&](const std::vector<detail::Segment>& round) {
    std::vector<detail::Segment> items;  // (stream, chunk), stream order
    for (const detail::Segment& g : round) {
      const std::int64_t chunk =
          std::max<std::int64_t>(1, streams[g.stream].chunk);
      for (std::int64_t lo = g.lo; lo < g.hi; lo += chunk)
        items.push_back({g.stream, lo, std::min(g.hi, lo + chunk)});
    }
    std::vector<std::optional<Acc>> parts(items.size());
    parallel_for(
        static_cast<std::int64_t>(items.size()), 1,
        [&](std::int64_t i) {
          const detail::Segment& it = items[static_cast<std::size_t>(i)];
          const CampaignStream& st = streams[it.stream];
          Acc acc{identity, 0, 0};
          for (std::int64_t t = it.lo; t < it.hi; ++t) {
            Rng rng(stream_seed(spec.seed,
                                st.offset + static_cast<std::uint64_t>(t)));
            KernelTally tally;
            acc.value =
                combine(std::move(acc.value), trial(it.stream, rng, tally));
            acc.packed += tally.packed();
            acc.scalar += tally.scalar();
          }
          parts[static_cast<std::size_t>(i)] = std::move(acc);
        },
        spec.threads, spec.cancel);
    // The items that ran are a prefix; fold it onto the accumulators.
    std::int64_t folded = 0;
    for (std::size_t i = 0; i < items.size() && parts[i]; ++i) {
      T& fold = out.folds[items[i].stream];
      fold = combine(std::move(fold), std::move(parts[i]->value));
      packed += parts[i]->packed;
      scalar += parts[i]->scalar;
      folded += items[i].hi - items[i].lo;
    }
    return folded;
  };
  if (codec) {
    hooks.fingerprint = codec->fingerprint;
    hooks.put = [&](CheckpointWriter& w, std::size_t s) {
      codec->put(w, out.folds[s]);
    };
    hooks.get = [&](CheckpointReader& r, std::size_t s, std::int64_t trials) {
      std::optional<T> acc = codec->get(r, trials);
      if (acc) out.folds[s] = std::move(*acc);
      return acc.has_value();
    };
  }
  static_cast<StreamRun&>(out) =
      detail::drive_streams(spec, streams, campaign, hooks);
  out.provenance.packed_trials = packed;
  out.provenance.scalar_trials = scalar;
  return out;
}

}  // namespace bisram::sim
