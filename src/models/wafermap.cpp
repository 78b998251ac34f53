#include "models/wafermap.hpp"

#include <cmath>
#include <optional>
#include <set>

#include "sim/importance.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bisram::models {

namespace {

/// One die's defect trial: scatters `k` defects (drawn from the clustered
/// negative-binomial count when fixed_k < 0) between the embedded RAM and
/// the rest of the chip, and classifies the die. Returns the
/// classification plus the count actually drawn.
struct DieTrial {
  DieState state = DieState::Good;
  std::int64_t defects = 0;
};

DieTrial run_die_trial(Rng& rng, const WaferSpec& spec, double mean_defects,
                       std::int64_t fixed_k) {
  const int spare_words = spec.ram_geo.spare_words();
  const std::uint64_t ram_rows =
      static_cast<std::uint64_t>(spec.ram_geo.total_rows());
  const std::uint64_t ram_cols =
      static_cast<std::uint64_t>(spec.ram_geo.cols());

  DieTrial trial;
  // Clustered statistics: the die's defect rate is Gamma-mixed, so the
  // count is negative-binomial with the Stapper alpha.
  trial.defects =
      fixed_k >= 0
          ? fixed_k
          : (mean_defects <= 0.0
                 ? 0
                 : poisson_sample(
                       rng, gamma_sample(rng, spec.cluster_alpha,
                                         mean_defects / spec.cluster_alpha)));

  // Scatter defects between RAM and logic; within the RAM, place them on
  // uniformly random cells and test repairability.
  bool logic_hit = false;
  bool spare_hit = false;
  std::set<std::uint32_t> faulty_words;
  for (std::int64_t d = 0; d < trial.defects; ++d) {
    if (!rng.chance(spec.ram_fraction)) {
      logic_hit = true;
      continue;
    }
    const int cell_row = static_cast<int>(rng.below(ram_rows));
    const int cell_col = static_cast<int>(rng.below(ram_cols));
    if (cell_row >= spec.ram_geo.rows()) {
      spare_hit = true;
      continue;
    }
    const std::uint32_t addr =
        static_cast<std::uint32_t>(cell_row) *
            static_cast<std::uint32_t>(spec.ram_geo.bpc) +
        static_cast<std::uint32_t>(cell_col % spec.ram_geo.bpc);
    faulty_words.insert(addr);
  }

  if (trial.defects == 0) {
    trial.state = DieState::Good;
  } else if (logic_hit || spare_hit ||
             static_cast<int>(faulty_words.size()) > spare_words) {
    trial.state = DieState::Bad;
  } else {
    trial.state = DieState::Repaired;
  }
  return trial;
}

/// True when grid die (r, c) is usable: all four of its corners lie
/// inside the wafer circle.
bool die_inside(const WaferSpec& spec, int r, int c) {
  const double radius = spec.wafer_mm / 2.0;
  // Die corner coordinates relative to wafer centre.
  const double x0 = c * spec.die_w_mm - radius;
  const double y0 = r * spec.die_h_mm - radius;
  for (double dx : {0.0, spec.die_w_mm})
    for (double dy : {0.0, spec.die_h_mm})
      if (std::hypot(x0 + dx, y0 + dy) > radius) return false;
  return true;
}

/// Usable dies on one physical wafer.
int usable_dies(const WaferSpec& spec) {
  const int cols = static_cast<int>(spec.wafer_mm / spec.die_w_mm);
  const int rows = static_cast<int>(spec.wafer_mm / spec.die_h_mm);
  int usable = 0;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c)
      if (die_inside(spec, r, c)) ++usable;
  return usable;
}

}  // namespace

WaferResult simulate_wafer(const WaferSpec& spec, std::uint64_t seed) {
  require(spec.wafer_mm > 0 && spec.die_w_mm > 0 && spec.die_h_mm > 0,
          "simulate_wafer: bad dimensions");
  require(spec.ram_fraction > 0 && spec.ram_fraction < 1,
          "simulate_wafer: ram_fraction must be in (0,1)");
  spec.ram_geo.validate();

  const int cols = static_cast<int>(spec.wafer_mm / spec.die_w_mm);
  const int rows = static_cast<int>(spec.wafer_mm / spec.die_h_mm);
  const double die_cm2 = spec.die_w_mm * spec.die_h_mm / 100.0;
  const double mean_defects = spec.defects_per_cm2 * die_cm2;

  WaferResult result;
  result.map.assign(static_cast<std::size_t>(rows),
                    std::vector<DieState>(static_cast<std::size_t>(cols),
                                          DieState::OffWafer));

  // Each die draws from its own grid-indexed seed sub-stream and writes
  // only its own map cell, so dies simulate concurrently with the same
  // outcome as the serial scan.
  struct Counts {
    int total = 0, good = 0, repaired = 0, bad = 0;
  };
  const Counts counts = parallel_reduce<Counts>(
      static_cast<std::int64_t>(rows) * cols, /*chunk=*/8, Counts{},
      [&](std::int64_t die) {
        const int r = static_cast<int>(die / cols);
        const int c = static_cast<int>(die % cols);
        if (!die_inside(spec, r, c)) return Counts{};
        Rng rng(stream_seed(seed, static_cast<std::uint64_t>(die)));
        const DieState state =
            run_die_trial(rng, spec, mean_defects, /*fixed_k=*/-1).state;
        result.map[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
            state;
        return Counts{1, state == DieState::Good,
                      state == DieState::Repaired, state == DieState::Bad};
      },
      [](Counts a, Counts b) {
        return Counts{a.total + b.total, a.good + b.good,
                      a.repaired + b.repaired, a.bad + b.bad};
      });
  result.dies_total = counts.total;
  result.good = counts.good;
  result.repaired = counts.repaired;
  result.bad = counts.bad;
  return result;
}

namespace {

struct StreamCounts {
  std::int64_t good = 0;
  std::int64_t saved = 0;  ///< good or repaired
  WelfordAccumulator defects;
};

/// Fold chunk (and checkpoint grain) of a stream of `trials` die trials:
/// grows with the trial count (but never depends on the thread count,
/// keeping the fold — and so the Welford rounding — bit-identical for
/// any BISRAM_THREADS), so the engine holds at most ~4096 chunk partials
/// regardless of how many million dies stream through.
std::int64_t die_chunk(std::int64_t trials) {
  return trials / 4096 > 1024 ? trials / 4096 : 1024;
}

/// Checkpoint encoding of one stream's StreamCounts (5 payload words).
sim::StreamCodec<StreamCounts> stream_codec(std::uint64_t fingerprint) {
  return {fingerprint,
          [](CheckpointWriter& w, const StreamCounts& c) {
            w.i64(c.good).i64(c.saved).i64(c.defects.count());
            w.f64(c.defects.mean()).f64(c.defects.raw_m2());
          },
          [](CheckpointReader& r,
             std::int64_t n) -> std::optional<StreamCounts> {
            StreamCounts c;
            c.good = r.i64();
            c.saved = r.i64();
            const std::int64_t count = r.i64();
            const double mean = r.f64();
            const double m2 = r.f64();
            if (c.good < 0 || c.good > c.saved || c.saved > n || count != n ||
                !std::isfinite(mean) || !std::isfinite(m2) || m2 < 0.0)
              return std::nullopt;
            c.defects = WelfordAccumulator::restore(count, mean, m2);
            return c;
          }};
}

/// Everything the wafer campaign's bit-exact result depends on. Thread
/// count, kernel (unused by die trials) and checkpoint cadence are
/// deliberately excluded: results are invariant to all of them, so a
/// checkpoint written at one cadence/thread count resumes under another.
std::uint64_t wafer_fingerprint(const WaferSpec& spec,
                                const sim::CampaignSpec& campaign) {
  Fingerprint fp;
  fp.mix_str("wafer_yield_campaign");
  fp.mix_f64(spec.wafer_mm).mix_f64(spec.die_w_mm).mix_f64(spec.die_h_mm);
  fp.mix_f64(spec.defects_per_cm2).mix_f64(spec.cluster_alpha);
  fp.mix_f64(spec.ram_fraction);
  fp.mix(spec.ram_geo.words).mix_i64(spec.ram_geo.bpw);
  fp.mix_i64(spec.ram_geo.bpc).mix_i64(spec.ram_geo.spare_rows);
  fp.mix(campaign.seed).mix_i64(campaign.trials);
  fp.mix_i64(static_cast<std::int64_t>(campaign.sampling.mode));
  fp.mix_f64(campaign.sampling.tail_mass);
  fp.mix_i64(campaign.sampling.min_stratum_trials);
  return fp.value();
}

}  // namespace

sim::CampaignResult<WaferCampaignStats> wafer_yield_campaign(
    const WaferSpec& spec, const sim::CampaignSpec& campaign) {
  require(spec.wafer_mm > 0 && spec.die_w_mm > 0 && spec.die_h_mm > 0,
          "wafer_yield_campaign: bad dimensions");
  require(spec.ram_fraction > 0 && spec.ram_fraction < 1,
          "wafer_yield_campaign: ram_fraction must be in (0,1)");
  spec.ram_geo.validate();

  const double die_cm2 = spec.die_w_mm * spec.die_h_mm / 100.0;
  const double mean_defects = spec.defects_per_cm2 * die_cm2;

  // Plain sampling is one stream of die trials. Stratified importance
  // sampling over the die defect count is one stream per stratum, each
  // with its count pinned; the zero stratum is analytic. Chunk and grain
  // come from the full stream length, never a segment's, so the Welford
  // association does not depend on where checkpoints land.
  const bool plain = campaign.sampling.mode == sim::SamplingMode::Plain;
  sim::StrataPlan plan;
  std::vector<sim::CampaignStream> streams;
  const auto add_stream = [&](std::uint64_t offset, std::int64_t trials) {
    const std::int64_t chunk = die_chunk(trials);
    streams.push_back({offset, trials, chunk, chunk});
  };
  if (plain) {
    add_stream(0, campaign.trials);
  } else {
    plan = sim::plan_strata(mean_defects, spec.cluster_alpha, campaign.trials,
                            campaign.sampling);
    for (std::size_t s = 0; s < plan.strata.size(); ++s)
      add_stream(sim::stratum_stream_offset(s), plan.strata[s].trials);
  }

  const sim::StreamCodec<StreamCounts> codec =
      stream_codec(wafer_fingerprint(spec, campaign));
  const sim::StreamFolds<StreamCounts> run = sim::run_streams<StreamCounts>(
      campaign, streams, StreamCounts{},
      [&](std::size_t s, Rng& rng, sim::KernelTally&) {
        const DieTrial t = run_die_trial(rng, spec, mean_defects,
                                         plain ? -1 : plan.strata[s].defects);
        StreamCounts c;
        if (t.state == DieState::Good) ++c.good;
        if (t.state != DieState::Bad) ++c.saved;
        c.defects.add(static_cast<double>(t.defects));
        return c;
      },
      [](StreamCounts a, StreamCounts b) {
        a.good += b.good;
        a.saved += b.saved;
        a.defects.merge(b.defects);
        return a;
      },
      "wafer_yield_campaign", &codec);

  sim::CampaignResult<WaferCampaignStats> out{{}, run.provenance,
                                              run.termination};
  WaferCampaignStats& v = out.value;
  v.dies = campaign.trials;
  v.dies_per_wafer = usable_dies(spec);
  v.die_sims = run.provenance.trials_done;
  if (plain) {
    const StreamCounts& c = run.folds[0];
    const std::int64_t n = run.done[0];
    v.yield_without_bisr =
        n ? static_cast<double>(c.good) / static_cast<double>(n) : 0.0;
    v.yield_without_bisr_se = bernoulli_se(c.good, n);
    v.yield_with_bisr =
        n ? static_cast<double>(c.saved) / static_cast<double>(n) : 0.0;
    v.yield_with_bisr_se = bernoulli_se(c.saved, n);
    v.mean_defects_per_die = c.defects.mean();
    v.mean_defects_per_die_se = c.defects.std_error();
    return out;
  }

  // The zero stratum is the entire without-BISR yield (a die is Good iff
  // it has zero defects), so that estimate is exact; only the with-BISR
  // rescue probability needs the simulated strata. Each stratum's defect
  // count is pinned, so the reweighted mean-defects estimate is a
  // deterministic sum with zero standard error; the truncated tail counts
  // as Bad and contributes zero defect mass (bias bounded by tail_mass *
  // k_max, far below visibility at the default).
  std::vector<sim::StratumCount> saved;
  std::vector<sim::StratumMoments> defects;
  for (std::size_t s = 0; s < plan.strata.size(); ++s) {
    saved.push_back({run.folds[s].saved, run.done[s]});
    defects.push_back({static_cast<double>(plan.strata[s].defects), 0.0,
                       plan.strata[s].trials});
  }
  v.yield_without_bisr = plan.zero_probability;
  v.yield_without_bisr_se = 0.0;
  const sim::WeightedEstimate with_bisr = sim::combine_strata_bernoulli(
      plan, saved, /*zero_value=*/1.0, /*tail_value=*/0.0);
  v.yield_with_bisr = with_bisr.value;
  v.yield_with_bisr_se = with_bisr.std_error;
  const sim::WeightedEstimate mean_k =
      sim::combine_strata(plan, defects, 0.0, 0.0);
  v.mean_defects_per_die = mean_k.value;
  v.mean_defects_per_die_se = mean_k.std_error;
  out.provenance.strata = static_cast<std::int64_t>(plan.strata.size());
  return out;
}

std::string render_wafer(const WaferResult& result) {
  std::string out;
  for (const auto& row : result.map) {
    for (DieState s : row) {
      switch (s) {
        case DieState::OffWafer: out += ' '; break;
        case DieState::Good: out += 'O'; break;
        case DieState::Repaired: out += 'R'; break;
        case DieState::Bad: out += 'X'; break;
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace bisram::models
