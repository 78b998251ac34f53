#include "sim/campaign.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::sim {

namespace {

double steady_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* kernel_name(SimKernel kernel) {
  switch (kernel) {
    case SimKernel::Packed:
      return "packed";
    case SimKernel::Scalar:
      return "scalar";
  }
  throw InternalError("kernel_name: unknown SimKernel");
}

SimKernel kernel_by_name(const std::string& name) {
  if (name == "packed") return SimKernel::Packed;
  if (name == "scalar") return SimKernel::Scalar;
  throw SpecError("unknown simulation kernel '" + name +
                  "' (expected packed or scalar)");
}

const char* sampling_name(SamplingMode mode) {
  switch (mode) {
    case SamplingMode::Plain:
      return "plain";
    case SamplingMode::Stratified:
      return "stratified";
  }
  throw InternalError("sampling_name: unknown SamplingMode");
}

int resolve_campaign_threads(const CampaignSpec& spec) {
  return spec.threads > 0 ? spec.threads : campaign_threads();
}

namespace detail {

namespace {

/// Names the checkpoint payload layout written below. It is mixed into
/// every campaign fingerprint, so a file in any other layout (one written
/// by an earlier build, say) is refused instead of misread.
constexpr const char* kPayloadLayout = "campaign streams v1";

/// Segment length of stream `st` when checkpointing or a pause needs
/// interior boundaries: ck.interval (0 = a sixteenth of the stream)
/// rounded up to whole grains.
std::int64_t segment_trials(const CheckpointSpec& ck,
                            const CampaignStream& st) {
  std::int64_t iv = ck.interval > 0 ? ck.interval : st.trials / 16;
  if (iv < st.grain) iv = st.grain;
  return (iv + st.grain - 1) / st.grain * st.grain;
}

}  // namespace

StreamRun drive_streams(const CampaignSpec& spec,
                        const std::vector<CampaignStream>& streams,
                        const std::string& campaign, const StreamHooks& hooks) {
  require(spec.trials >= 1, "CampaignSpec: needs at least one trial");
  const CheckpointSpec& ck = spec.checkpoint;
  require(hooks.put || (!ck.enabled() && !ck.resuming()),
          campaign +
              ": checkpointing is not supported here — use cancel/deadline "
              "for bounded runs");
  const std::uint64_t fingerprint =
      Fingerprint().mix(hooks.fingerprint).mix_str(kPayloadLayout).value();

  StreamRun out;
  out.done.assign(streams.size(), 0);
  CampaignProvenance& prov = out.provenance;
  prov.seed = spec.seed;
  prov.threads = resolve_campaign_threads(spec);
  prov.kernel = spec.kernel;
  prov.sampling = spec.sampling.mode;
  for (const CampaignStream& st : streams) prov.trials += st.trials;

  std::size_t s = 0;  // the current stream
  if (ck.resuming()) {
    CheckpointReader r(ck.resume, fingerprint);
    const char* path = ck.resume.c_str();
    const std::uint64_t at = r.u64();
    const std::int64_t done = r.i64();
    require(at < streams.size() && done >= 0 &&
                done <= streams[at].trials &&
                (done % streams[at].grain == 0 || done == streams[at].trials),
            strfmt("checkpoint: '%s' names a position no segment boundary "
                   "of this campaign has",
                   path));
    s = static_cast<std::size_t>(at);
    for (std::size_t i = 0; i <= s; ++i) {
      out.done[i] = i < s ? streams[i].trials : done;
      require(hooks.get(r, i, out.done[i]),
              strfmt("checkpoint: '%s' carries counts that do not fit the "
                     "%lld trials of stream %zu",
                     path, static_cast<long long>(out.done[i]), i));
    }
    require(r.remaining() == 0,
            strfmt("checkpoint: '%s' has bytes past its payload", path));
  }

  double last_write_ms = steady_ms();
  const auto due = [&](bool force) {
    return ck.enabled() && (force || ck.min_period_ms <= 0 ||
                            steady_ms() - last_write_ms >= ck.min_period_ms);
  };
  const auto write = [&] {
    CheckpointWriter w(fingerprint);
    w.u64(s).i64(out.done[s]);
    for (std::size_t i = 0; i <= s; ++i) hooks.put(w, i);
    w.save(ck.path);
    last_write_ms = steady_ms();
    ++prov.checkpoints_written;
  };

  // Checkpoints and pauses act at every segment end; otherwise the only
  // boundary left is the campaign's end, and a round runs up to it.
  const bool segmented = ck.enabled() || ck.pause_after > 0;
  std::vector<Segment> round;
  std::int64_t run_done = 0;  // trials folded by *this* run
  while (!streams.empty()) {
    const bool stream_end = out.done[s] == streams[s].trials;
    if (stream_end && s + 1 == streams.size()) {
      out.termination =
          ck.resuming() ? Termination::Resumed : Termination::Completed;
      break;
    }
    if (spec.cancel && spec.cancel->stop_requested()) {
      out.termination = spec.cancel->stop_reason();
      break;
    }
    if (ck.pause_after > 0 && run_done >= ck.pause_after) {
      if (due(true)) write();
      out.termination = Termination::Cancelled;
      break;
    }
    if (stream_end) ++s;
    round.clear();
    if (segmented) {
      const std::int64_t lo = out.done[s];
      round.push_back({s, lo, std::min(streams[s].trials,
                                       lo + segment_trials(ck, streams[s]))});
    } else {
      for (std::size_t t = s; t < streams.size(); ++t)
        round.push_back({t, out.done[t], streams[t].trials});
    }
    // The folded trials are a prefix of the round: hand them out in
    // order. A cut round stops in the last stream it folded into (or its
    // first, when it folded none).
    std::int64_t left = hooks.fold(round);
    run_done += left;
    bool cut = false;
    for (const Segment& g : round) {
      const std::int64_t take = std::min(left, g.hi - g.lo);
      out.done[g.stream] += take;
      left -= take;
      if (take > 0) s = g.stream;
      if (take < g.hi - g.lo) {
        cut = true;
        break;
      }
    }
    if (cut) {  // the token fired inside the round
      out.termination =
          spec.cancel ? spec.cancel->stop_reason() : Termination::Cancelled;
      break;
    }
    s = round.back().stream;
    if (due(s + 1 == streams.size() && out.done[s] == streams[s].trials))
      write();
  }
  out.started = streams.empty() ? 0 : s + 1;
  for (std::int64_t d : out.done) prov.trials_done += d;
  return out;
}

}  // namespace detail

}  // namespace bisram::sim
