#include "models/yield.hpp"

#include <cmath>
#include <optional>
#include <set>

#include "microcode/controller.hpp"
#include "sim/bist.hpp"
#include "sim/controller.hpp"
#include "sim/fault_sim.hpp"
#include "sim/importance.hpp"
#include "sim/infra_faults.hpp"
#include "sim/packed_ram.hpp"
#include "util/checkpoint.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace bisram::models {

double poisson_cell_yield(double lambda) {
  require(lambda >= 0, "poisson_cell_yield: negative lambda");
  return std::exp(-lambda);
}

double stapper_yield(double defect_mean, double alpha) {
  require(defect_mean >= 0, "stapper_yield: negative defect mean");
  require(alpha > 0, "stapper_yield: non-positive alpha");
  return std::pow(1.0 + defect_mean / alpha, -alpha);
}

double negbin_pmf(std::int64_t k, double mean, double alpha) {
  // The pmf itself moved to util/math.hpp so the importance-sampling
  // strata planner (sim/importance.hpp) can reweight with it without a
  // models dependency; this alias keeps the historical entry point.
  return bisram::negbin_pmf(k, mean, alpha);
}

double repair_probability(const sim::RamGeometry& geo, std::int64_t defects) {
  require(defects >= 0, "repair_probability: negative defects");
  if (defects == 0) return 1.0;
  const double ncells =
      static_cast<double>(geo.total_rows()) * static_cast<double>(geo.cols());
  const std::int64_t spare_words = geo.spare_words();
  const double spare_cells =
      static_cast<double>(spare_words) * static_cast<double>(geo.bpw);
  // Factor 1: every defect must miss the spare cells (strict goodness).
  const double spares_ok =
      std::pow(1.0 - spare_cells / ncells, static_cast<double>(defects));
  if (spare_words == 0) {
    // No repair capacity at all: good iff no defect hits a regular word,
    // which is impossible once a defect lands in the array.
    return 0.0;
  }
  // Factor 2: the defects that hit regular cells must cover at most
  // spare_words *distinct* words. Conditioned on missing the spares, the
  // k defects are uniform over the NW words (each word has bpw cells), so
  // the number of distinct faulty words follows the occupancy
  // distribution of k balls in NW boxes. A binomial approximation is
  // badly wrong here (k balls can never occupy more than k boxes), so we
  // run the exact occupancy recurrence, lumping states beyond
  // spare_words into an absorbing "unrepairable" state:
  //   p(k+1, d) = p(k, d) * d/NW + p(k, d-1) * (1 - (d-1)/NW).
  const double nw = static_cast<double>(geo.words);
  const std::size_t cap = static_cast<std::size_t>(spare_words);
  std::vector<double> p(cap + 1, 0.0);
  p[0] = 1.0;
  double dead = 0.0;
  for (std::int64_t b = 0; b < defects; ++b) {
    double carry = 0.0;  // mass flowing from d to d+1
    for (std::size_t d = 0; d <= cap; ++d) {
      const double stay = p[d] * (static_cast<double>(d) / nw);
      const double leave = p[d] - stay;
      p[d] = stay + carry;
      carry = leave;
    }
    dead += carry;  // occupancy exceeded the spare capacity
    if (dead > 1.0 - 1e-15) break;
  }
  double words_ok = 0.0;
  for (double v : p) words_ok += v;
  return words_ok * spares_ok;
}

sim::CampaignResult<double> repair_probability_mc(
    const sim::RamGeometry& geo, std::int64_t defects,
    const sim::CampaignSpec& spec) {
  const std::uint64_t rows = static_cast<std::uint64_t>(geo.total_rows());
  const std::uint64_t cols = static_cast<std::uint64_t>(geo.cols());
  const int spare_words = geo.spare_words();
  const sim::StreamFolds<int> run = sim::run_streams<int>(
      spec, {{0, spec.trials, /*chunk=*/64, /*grain=*/64}}, 0,
      [&](std::size_t, Rng& rng, sim::KernelTally&) {
        std::set<std::uint32_t> faulty_words;
        bool spare_hit = false;
        for (std::int64_t d = 0; d < defects; ++d) {
          const int row = static_cast<int>(rng.below(rows));
          const int col = static_cast<int>(rng.below(cols));
          if (row >= geo.rows()) {
            spare_hit = true;
            break;
          }
          // Invert the cell mapping: column = bit * bpc + colgroup.
          const int colgroup = col % geo.bpc;
          const std::uint32_t addr =
              static_cast<std::uint32_t>(row) *
                  static_cast<std::uint32_t>(geo.bpc) +
              static_cast<std::uint32_t>(colgroup);
          faulty_words.insert(addr);
        }
        return !spare_hit &&
                       static_cast<int>(faulty_words.size()) <= spare_words
                   ? 1
                   : 0;
      },
      [](int a, int b) { return a + b; }, "repair_probability_mc");
  const std::int64_t done = run.done[0];
  return {done ? static_cast<double>(run.folds[0]) / static_cast<double>(done)
               : 0.0,
          run.provenance, run.termination};
}

double bisr_yield(const sim::RamGeometry& geo, double defect_mean,
                  double alpha, double growth) {
  require(growth >= 1.0, "bisr_yield: growth factor must be >= 1");
  const double m = defect_mean * growth;
  if (m == 0.0) return 1.0;
  // Truncate the negative-binomial sum when the residual tail cannot
  // change the result at double precision.
  double yield = 0.0;
  double tail = 1.0;
  const std::int64_t kmax =
      static_cast<std::int64_t>(m + 12.0 * std::sqrt(m * (1.0 + m / alpha))) +
      64;
  for (std::int64_t k = 0; k <= kmax && tail > 1e-12; ++k) {
    const double pk = negbin_pmf(k, m, alpha);
    tail -= pk;
    if (pk <= 0.0) continue;
    yield += pk * repair_probability(geo, k);
  }
  return yield;
}

int min_spare_rows_for_yield(sim::RamGeometry geo, double defect_mean,
                             double alpha, double target_yield,
                             double growth4, double growth8, double growth16) {
  require(target_yield > 0 && target_yield <= 1,
          "min_spare_rows_for_yield: target must be in (0, 1]");
  const std::pair<int, double> options[] = {
      {4, growth4}, {8, growth8}, {16, growth16}};
  for (const auto& [spares, growth] : options) {
    geo.spare_rows = spares;
    if (bisr_yield(geo, defect_mean, alpha, growth) >= target_yield)
      return spares;
  }
  return -1;
}

std::vector<YieldPoint> yield_curve(sim::RamGeometry geo, int spare_rows,
                                    double alpha, double growth,
                                    double max_defects, int points) {
  require(points >= 2, "yield_curve: needs >= 2 points");
  geo.spare_rows = spare_rows;
  geo.validate();
  std::vector<YieldPoint> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double m = max_defects * i / (points - 1);
    const double y = spare_rows == 0 ? stapper_yield(m, alpha)
                                     : bisr_yield(geo, m, alpha, growth);
    out.push_back({m, y});
  }
  return out;
}

namespace {

/// One trial's fault list for the array-only yield MC. `fixed_k < 0`
/// draws K ~ NegBin(m, alpha) from the trial stream (the plain
/// estimator's historical RNG sequence: gamma, poisson, then one stuck-at
/// draw per defect); `fixed_k >= 0` pins the count — the conditional
/// placement of k defects is uniform iid regardless of the mixed Gamma
/// rate, so a stratum trial draws no rate at all.
std::vector<sim::Fault> draw_die_faults(Rng& rng, const sim::RamGeometry& geo,
                                        double m, double alpha,
                                        std::int64_t fixed_k,
                                        bool* spare_hit) {
  std::int64_t k = fixed_k;
  if (k < 0) {
    const double rate = gamma_sample(rng, alpha, m / alpha);
    k = poisson_sample(rng, rate);
  }
  std::vector<sim::Fault> faults;
  faults.reserve(static_cast<std::size_t>(k));
  *spare_hit = false;
  for (std::int64_t d = 0; d < k; ++d) {
    faults.push_back(sim::random_stuck_at(geo, rng));
    if (faults.back().victim.row >= geo.rows()) *spare_hit = true;
  }
  return faults;
}

/// Integer tallies, so the fold is exactly associative and every stream
/// is bit-identical for any thread count and any split into segments.
struct YieldCounts {
  std::int64_t repaired = 0;
  std::int64_t strict = 0;
};

/// Checkpoint encoding of one stream's YieldCounts (2 payload words).
sim::StreamCodec<YieldCounts> yield_codec(std::uint64_t fingerprint) {
  return {fingerprint,
          [](CheckpointWriter& w, const YieldCounts& c) {
            w.i64(c.repaired).i64(c.strict);
          },
          [](CheckpointReader& r,
             std::int64_t n) -> std::optional<YieldCounts> {
            YieldCounts c;
            c.repaired = r.i64();
            c.strict = r.i64();
            if (c.strict < 0 || c.strict > c.repaired || c.repaired > n)
              return std::nullopt;
            return c;
          }};
}

/// Fingerprint of everything a BIST-yield campaign's bit-exact result
/// depends on (threads, kernel and cadence are invariants and
/// deliberately excluded — see tests/test_simd_equivalence.cpp).
std::uint64_t yield_fingerprint(const sim::RamGeometry& geo,
                                double defect_mean, double alpha,
                                double growth,
                                const sim::CampaignSpec& spec) {
  Fingerprint fp;
  fp.mix_str("bisr_yield_mc_with_bist");
  fp.mix(geo.words).mix_i64(geo.bpw).mix_i64(geo.bpc);
  fp.mix_i64(geo.spare_rows);
  fp.mix_f64(defect_mean).mix_f64(alpha).mix_f64(growth);
  fp.mix(spec.seed).mix_i64(spec.trials);
  fp.mix_i64(static_cast<std::int64_t>(spec.sampling.mode));
  fp.mix_f64(spec.sampling.tail_mass);
  fp.mix_i64(spec.sampling.min_stratum_trials);
  return fp.value();
}

}  // namespace

sim::CampaignResult<BisrYieldMc> bisr_yield_mc_with_bist(
    const sim::RamGeometry& geo, double defect_mean, double alpha,
    double growth, const sim::CampaignSpec& spec) {
  const double m = defect_mean * growth;
  // Plain sampling is one stream; stratified importance sampling
  // (sim/importance.hpp) is one stream per k >= 1 stratum with the count
  // pinned, the zero-defect stratum being analytic (a defect-free die
  // always repairs and is strictly good) and the truncated tail counted
  // as unrepairable. Each stream folds one trial per chunk and takes
  // checkpoints at whole multiples of 8 trials.
  const bool plain = spec.sampling.mode == sim::SamplingMode::Plain;
  sim::StrataPlan plan;
  std::vector<sim::CampaignStream> streams;
  if (plain) {
    streams.push_back({0, spec.trials, /*chunk=*/1, /*grain=*/8});
  } else {
    plan = sim::plan_strata(m, alpha, spec.trials, spec.sampling);
    for (std::size_t s = 0; s < plan.strata.size(); ++s)
      streams.push_back({sim::stratum_stream_offset(s), plan.strata[s].trials,
                         /*chunk=*/1, /*grain=*/8});
  }

  // Note on detection fidelity: a StuckAt0 fault in a cell every
  // background drives to 0 is benign but still *detected* by IFA-9's
  // complement writes, so the BIST verdict matches the analytic "any hit
  // cell is faulty" accounting. All faults are stuck-ats, so Auto
  // resolves to the packed kernel for every trial.
  const sim::StreamCodec<YieldCounts> codec =
      yield_codec(yield_fingerprint(geo, defect_mean, alpha, growth, spec));
  const sim::StreamFolds<YieldCounts> run = sim::run_streams<YieldCounts>(
      spec, streams, YieldCounts{},
      [&](std::size_t s, Rng& rng, sim::KernelTally& tally) {
        bool spare_hit = false;
        const std::vector<sim::Fault> faults = draw_die_faults(
            rng, geo, m, alpha, plain ? -1 : plan.strata[s].defects,
            &spare_hit);
        sim::SimKernel used = sim::SimKernel::Scalar;
        const sim::BistResult r =
            sim::run_bist(geo, faults, sim::BistConfig{}, spec.kernel, &used);
        tally.note(used);
        YieldCounts c;
        if (r.repair_successful) {
          c.repaired = 1;
          if (!spare_hit) c.strict = 1;
        }
        return c;
      },
      [](YieldCounts a, YieldCounts b) {
        return YieldCounts{a.repaired + b.repaired, a.strict + b.strict};
      },
      "bisr_yield_mc_with_bist", &codec);

  sim::CampaignResult<BisrYieldMc> out{{}, run.provenance, run.termination};
  BisrYieldMc& v = out.value;
  v.die_sims = run.provenance.trials_done;
  if (plain) {
    const YieldCounts& c = run.folds[0];
    const std::int64_t n = run.done[0];
    v.bist_repaired =
        n ? static_cast<double>(c.repaired) / static_cast<double>(n) : 0.0;
    v.strict_good =
        n ? static_cast<double>(c.strict) / static_cast<double>(n) : 0.0;
    v.bist_repaired_se = bernoulli_se(c.repaired, n);
    v.strict_good_se = bernoulli_se(c.strict, n);
    return out;
  }
  std::vector<sim::StratumCount> repaired, strict;
  for (std::size_t s = 0; s < plan.strata.size(); ++s) {
    repaired.push_back({run.folds[s].repaired, run.done[s]});
    strict.push_back({run.folds[s].strict, run.done[s]});
  }
  const sim::WeightedEstimate rep = sim::combine_strata_bernoulli(
      plan, repaired, /*zero_value=*/1.0, /*tail_value=*/0.0);
  const sim::WeightedEstimate str = sim::combine_strata_bernoulli(
      plan, strict, /*zero_value=*/1.0, /*tail_value=*/0.0);
  v.bist_repaired = rep.value;
  v.bist_repaired_se = rep.std_error;
  v.strict_good = str.value;
  v.strict_good_se = str.std_error;
  out.provenance.strata = static_cast<std::int64_t>(plan.strata.size());
  return out;
}

double repair_logic_yield(double defect_mean, double alpha, double growth,
                          double logic_area_fraction) {
  require(growth >= 1.0, "repair_logic_yield: growth factor must be >= 1");
  require(logic_area_fraction >= 0.0 && logic_area_fraction <= 1.0,
          "repair_logic_yield: area fraction must be in [0, 1]");
  return stapper_yield(defect_mean * growth * logic_area_fraction, alpha);
}

namespace {

struct InfraCounts {
  std::int64_t reported = 0, effective = 0, escape = 0, safe_fail = 0,
               hung = 0;
};

InfraCounts infra_combine(InfraCounts a, InfraCounts b) {
  return InfraCounts{a.reported + b.reported, a.effective + b.effective,
                     a.escape + b.escape, a.safe_fail + b.safe_fail,
                     a.hung + b.hung};
}

}  // namespace

sim::CampaignResult<BisrYieldMcInfra> bisr_yield_mc_with_infra(
    const sim::RamGeometry& geo, double defect_mean, double alpha,
    double growth, double logic_area_fraction, const sim::CampaignSpec& spec) {
  require(growth >= 1.0, "bisr_yield_mc_with_infra: growth must be >= 1");
  require(logic_area_fraction >= 0.0 && logic_area_fraction <= 1.0,
          "bisr_yield_mc_with_infra: area fraction must be in [0, 1]");
  require(spec.kernel != sim::SimKernel::Packed,
          "bisr_yield_mc_with_infra: the microprogrammed machine has no "
          "packed path — use Auto or Scalar");
  geo.validate();
  require(geo.spare_words() >= 1,
          "bisr_yield_mc_with_infra: geometry needs >= 1 spare word");

  // Shared read-only controller + watchdog budget, built once.
  const sim::BistConfig bist;
  const auto ctrl = microcode::build_trpla(*bist.test, bist.max_passes);
  sim::InfraTrialConfig trial_cfg;
  trial_cfg.bist = bist;
  const std::uint64_t watchdog =
      sim::auto_watchdog_cycles(geo, ctrl, trial_cfg);

  const double m = defect_mean * growth;
  // Infra defects scale the total: K ~ Poisson(rate) array defects plus
  // L ~ Poisson(rate * fraction) infra defects over the same mixed rate
  // sum to NegBin(mean = m * (1 + fraction), alpha), and conditioned on
  // the total each defect is infra with probability fraction / (1 +
  // fraction) independently of the rate — the basis of the stratified
  // estimator below.
  const double infra_share =
      logic_area_fraction / (1.0 + logic_area_fraction);

  // One microprogrammed trial: `total < 0` draws K and L from the trial
  // stream (the plain estimator's historical RNG sequence), `total >= 0`
  // pins K + L and splits it binomially.
  const auto run_trial = [&](Rng& rng, std::int64_t total) {
    std::int64_t k = 0, l = 0;
    if (total < 0) {
      const double rate = m > 0 ? gamma_sample(rng, alpha, m / alpha) : 0.0;
      k = poisson_sample(rng, rate);
      l = poisson_sample(rng, rate * logic_area_fraction);
    } else {
      for (std::int64_t d = 0; d < total; ++d)
        if (rng.chance(infra_share))
          ++l;
        else
          ++k;
    }

    sim::RamModel ram(geo);
    for (std::int64_t d = 0; d < k; ++d)
      ram.array().inject(sim::random_stuck_at(geo, rng));
    sim::PlaBistMachine machine(ram, ctrl, bist.retention_wait_s,
                                bist.johnson_backgrounds);
    for (std::int64_t d = 0; d < l; ++d)
      machine.inject(sim::random_infra_fault(geo, ctrl, rng));

    const sim::BistResult r = machine.run(watchdog);
    InfraCounts c;
    if (r.hung) {
      c.hung = 1;
    } else if (!r.repair_successful) {
      c.safe_fail = 1;
    } else {
      c.reported = 1;
      if (sim::normal_mode_readback_clean(ram))
        c.effective = 1;
      else
        c.escape = 1;
    }
    return c;
  };

  // Plain sampling is one stream. Stratified sampling is one stream per
  // stratum of the *total* defect count. A zero-defect die runs the flow
  // on a perfect array with a perfect machine: DONE_OK with a clean
  // readback, deterministically. The truncated tail counts as safe_fail
  // so the five outcome fractions still sum to one. Strata a cancelled
  // run never reached carry zero trials and are counted pessimistically
  // by the combiners below.
  const bool plain = spec.sampling.mode == sim::SamplingMode::Plain;
  sim::StrataPlan plan;
  std::vector<sim::CampaignStream> streams;
  if (plain) {
    streams.push_back({0, spec.trials, /*chunk=*/8, /*grain=*/8});
  } else {
    plan = sim::plan_strata(m * (1.0 + logic_area_fraction), alpha,
                            spec.trials, spec.sampling);
    for (std::size_t s = 0; s < plan.strata.size(); ++s)
      streams.push_back({sim::stratum_stream_offset(s), plan.strata[s].trials,
                         /*chunk=*/8, /*grain=*/8});
  }
  const sim::StreamFolds<InfraCounts> run = sim::run_streams<InfraCounts>(
      spec, streams, InfraCounts{},
      [&](std::size_t s, Rng& rng, sim::KernelTally& tally) {
        tally.note(sim::SimKernel::Scalar);
        return run_trial(rng, plain ? -1 : plan.strata[s].defects);
      },
      infra_combine, "bisr_yield_mc_with_infra");

  sim::CampaignResult<BisrYieldMcInfra> out{{}, run.provenance,
                                            run.termination};
  BisrYieldMcInfra& v = out.value;
  v.die_sims = run.provenance.trials_done;
  if (plain) {
    const InfraCounts& c = run.folds[0];
    const std::int64_t done = run.done[0];
    const double n = done ? static_cast<double>(done) : 1.0;
    v.bist_reported_good = static_cast<double>(c.reported) / n;
    v.effective_good = static_cast<double>(c.effective) / n;
    v.escape = static_cast<double>(c.escape) / n;
    v.safe_fail = static_cast<double>(c.safe_fail) / n;
    v.hung = static_cast<double>(c.hung) / n;
    v.bist_reported_good_se = bernoulli_se(c.reported, done);
    v.effective_good_se = bernoulli_se(c.effective, done);
    return out;
  }
  std::vector<sim::StratumCount> reported, effective, escape, safe_fail, hung;
  for (std::size_t s = 0; s < plan.strata.size(); ++s) {
    const InfraCounts& c = run.folds[s];
    const std::int64_t done = run.done[s];
    reported.push_back({c.reported, done});
    effective.push_back({c.effective, done});
    escape.push_back({c.escape, done});
    safe_fail.push_back({c.safe_fail, done});
    hung.push_back({c.hung, done});
  }
  const sim::WeightedEstimate rep =
      sim::combine_strata_bernoulli(plan, reported, 1.0, 0.0);
  const sim::WeightedEstimate eff =
      sim::combine_strata_bernoulli(plan, effective, 1.0, 0.0);
  v.bist_reported_good = rep.value;
  v.bist_reported_good_se = rep.std_error;
  v.effective_good = eff.value;
  v.effective_good_se = eff.std_error;
  v.escape = sim::combine_strata_bernoulli(plan, escape, 0.0, 0.0).value;
  v.safe_fail =
      sim::combine_strata_bernoulli(plan, safe_fail, 0.0, 1.0).value;
  v.hung = sim::combine_strata_bernoulli(plan, hung, 0.0, 0.0).value;
  out.provenance.strata = static_cast<std::int64_t>(plan.strata.size());
  return out;
}

}  // namespace bisram::models
