// bist_campaigns: a test or yield engineer's report, no geometry at all.
// One operation runs, in order:
//   * bisr_yield_mc_with_bist on the Fig. 4 geometry (4096 x 4, bpc 4)
//     with 4, 8 and 16 spare rows at defect mean 3, alpha 2, growth
//     1.05, plain and stratified;
//   * bisr_yield_mc_with_bist on the Fig. 6 array geometry (4096 x 128,
//     bpc 8, 4 spares) at defect mean 0.5, plain and stratified;
//   * sim::fault_coverage of IFA-9 with Johnson backgrounds over all
//     nine fault kinds on the Fig. 4 geometry.
// Every yield estimate is held against the analytic models::bisr_yield
// by its z-score; IFA-9 must detect every SAF, TF, CF and DRF instance.

#include <algorithm>
#include <cmath>

#include "march/march.hpp"
#include "models/yield.hpp"
#include "sim/fault_sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace bisbench {

using namespace bisram;

namespace {

constexpr int kSmallTrials = 1000;
constexpr int kLargeTrials = 16;
constexpr int kCoverageTrials = 8;  ///< per fault kind
constexpr double kLargeTailMass = 1e-4;
constexpr double kAlpha = 2.0;
constexpr double kGrowth = 1.05;

struct Campaign {
  const char* group;  ///< per-layer span name
  sim::RamGeometry geo;
  double mean;
  sim::SamplingMode mode;
};

std::vector<Campaign> campaigns() {
  std::vector<Campaign> c;
  for (sim::SamplingMode m :
       {sim::SamplingMode::Plain, sim::SamplingMode::Stratified})
    for (int spares : {4, 8, 16})
      c.push_back({m == sim::SamplingMode::Plain
                       ? "models.bisr_yield_mc.small.plain"
                       : "models.bisr_yield_mc.small.stratified",
                   {4096, 4, 4, spares}, 3.0, m});
  c.push_back({"models.bisr_yield_mc.large.plain",
               {4096, 128, 8, 4}, 0.5, sim::SamplingMode::Plain});
  c.push_back({"models.bisr_yield_mc.large.stratified",
               {4096, 128, 8, 4}, 0.5, sim::SamplingMode::Stratified});
  return c;
}

sim::CampaignSpec spec_for(const Campaign& c, std::uint64_t seed) {
  sim::CampaignSpec s;
  s.trials = c.geo.bpw == 4 ? kSmallTrials : kLargeTrials;
  s.seed = seed;
  s.sampling.mode = c.mode;
  if (c.geo.bpw != 4) {
    // One large-geometry die costs tens of milliseconds: retain fewer
    // strata (pessimistic tail bias <= kLargeTailMass) with one trial
    // each at minimum, instead of the defaults' two per stratum down to
    // a 1e-12 tail.
    s.sampling.tail_mass = kLargeTailMass;
    s.sampling.min_stratum_trials = 1;
  }
  return s;
}

std::vector<sim::FaultKind> all_kinds() {
  return {sim::FaultKind::StuckAt0,     sim::FaultKind::StuckAt1,
          sim::FaultKind::TransitionUp, sim::FaultKind::TransitionDown,
          sim::FaultKind::CouplingIdem, sim::FaultKind::CouplingInv,
          sim::FaultKind::CouplingState, sim::FaultKind::StuckOpen,
          sim::FaultKind::Retention};
}

}  // namespace

RunResult run_bist_campaigns(const RunConfig& cfg, Recorder& rec, Ledger& led,
                             Timings& tm) {
  const JsonValue& exp = *cfg.expected;
  const double z_bound = need_num(exp, "z_bound");
  const JsonValue& analytic_exp = need(exp, "analytic_yield");
  const std::vector<Campaign> plan = campaigns();

  // Set-up: the first campaign in a process runs markedly slower than
  // later ones (pool start, page faults), so warm-up campaigns on both
  // geometries belong here rather than in the timed part.
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t seed =
        stream_seed(cfg.seed, 1000 + static_cast<std::uint64_t>(i));
    for (const Campaign& c : {plan.front(), plan[plan.size() - 2]}) {
      sim::CampaignSpec s = spec_for(c, seed);
      s.trials = std::max(8, s.trials / 4);
      models::bisr_yield_mc_with_bist(c.geo, c.mean, kAlpha, kGrowth, s);
    }
    tm.setup_s.push_back(seconds_since(t0));
  }

  RunResult res;
  double timed = 0;
  double small_dies = 0, small_wall = 0, large_dies = 0, large_wall = 0;
  double cov_trials = 0, cov_wall = 0;
  double max_abs_z_small = 0, max_abs_z_large = 0;
  std::string worst_small, worst_large;  ///< the campaigns with the largest |z|
  std::uint64_t stream = 0;
  std::vector<std::string> z_notes;
  while (another_fits(tm.op_s, timed, cfg.seconds)) {
    led.begin_op();
    double op_wall = 0;
    double units = 0;
    std::map<std::string, double> counts;  // per-operation campaign counts
    z_notes.clear();
    tm.start_op();
    try {
      for (const Campaign& c : plan) {
        const sim::CampaignSpec s = spec_for(c, stream_seed(cfg.seed, stream++));
        const Clock::time_point t0 = Clock::now();
        sim::CampaignResult<models::BisrYieldMc> r;
        {
          Recorder::Span span(rec, c.group);
          r = models::bisr_yield_mc_with_bist(c.geo, c.mean, kAlpha, kGrowth, s);
        }
        const double wall = seconds_since(t0);
        op_wall += wall;
        const double dies = static_cast<double>(r.value.die_sims);
        units += dies;
        (c.geo.bpw == 4 ? small_dies : large_dies) += dies;
        (c.geo.bpw == 4 ? small_wall : large_wall) += wall;

        const std::string label =
            strfmt("%ux%d/s%d/%s", c.geo.words, c.geo.bpw, c.geo.spare_rows,
                   sim::sampling_name(c.mode));
        const double analytic =
            models::bisr_yield(c.geo, c.mean, kAlpha, kGrowth);
        // A campaign whose dies all pass estimates a (near-)zero standard
        // error, so the error is floored at what the analytic yield y
        // implies for the trial budget n: sqrt((1 - y) / n). That bounds
        // plain MC's binomial error (y(1 - y)/n <= (1 - y)/n) and the
        // stratified one (sum_k Pk^2 yk(1 - yk)/nk with nk >= n Pk is at
        // most sum_k Pk (1 - yk) / n = (1 - y)/n). On the large geometry
        // (y = 0.996, n = 16) one failing die of 16 is z = -3.7, two are
        // -7.6, three are -11.4.
        const double se = std::max(
            r.value.strict_good_se,
            std::sqrt(std::max(0.0, 1.0 - analytic) / s.trials));
        const double dev = r.value.strict_good - analytic;
        const double z = dev / se;
        // The stratified estimator counts its truncated tail as failing,
        // a pessimistic bias of at most tail_mass.
        const double bias =
            c.mode == sim::SamplingMode::Stratified ? s.sampling.tail_mass : 0;
        const bool large = c.geo.bpw != 4;
        double& max_z = large ? max_abs_z_large : max_abs_z_small;
        if (std::abs(z) > max_z) {
          max_z = std::abs(z);
          (large ? worst_large : worst_small) =
              strfmt("%s, op %zu", label.c_str(), tm.op_s.size() + 1);
        }
        z_notes.push_back(strfmt("%s: MC %.5f +- %.5f vs analytic %.12g, "
                                 "z %+.2f, %lld dies",
                                 label.c_str(), r.value.strict_good, se,
                                 analytic, z,
                                 static_cast<long long>(r.value.die_sims)));
        led.check(std::abs(dev) <= bias + z_bound * se,
                  strfmt("%s: |MC - analytic| %.6f above %.1f standard "
                         "errors (z %+.2f) plus the tail bias %g",
                         label.c_str(), std::abs(dev), z_bound, z, bias));
        const std::string key = strfmt("%d/%d", c.geo.bpw, c.geo.spare_rows);
        led.check(std::abs(analytic - need_num(analytic_exp, key)) <= 1e-9,
                  strfmt("%s: analytic yield %.9f differs from the expected "
                         "file",
                         label.c_str(), analytic));
        const std::string g = c.group;
        counts[g + ".die_sims"] += dies;
        counts[g + ".packed_trials"] +=
            static_cast<double>(r.provenance.packed_trials);
        counts[g + ".scalar_trials"] +=
            static_cast<double>(r.provenance.scalar_trials);
        if (c.mode == sim::SamplingMode::Stratified)
          counts[g + ".strata"] += static_cast<double>(r.provenance.strata);
      }

      sim::CampaignSpec cs;
      cs.trials = kCoverageTrials;
      cs.seed = stream_seed(cfg.seed, stream++);
      const Clock::time_point t0 = Clock::now();
      sim::CampaignResult<std::vector<sim::Coverage>> cov;
      {
        Recorder::Span span(rec, "sim.fault_coverage");
        cov = sim::fault_coverage(march::ifa9(), {4096, 4, 4, 4}, all_kinds(),
                                  /*johnson_backgrounds=*/true, cs);
      }
      const double wall = seconds_since(t0);
      op_wall += wall;
      const double trials = static_cast<double>(cov.provenance.trials);
      units += trials;
      cov_trials += trials;
      cov_wall += wall;
      std::string covered;
      for (const sim::Coverage& c : cov.value) {
        covered += strfmt("%s%s %d/%d", covered.empty() ? "" : ", ",
                          sim::fault_name(c.kind), c.detected, c.total);
        if (c.kind == sim::FaultKind::StuckOpen) continue;  // not an IFA-9 target
        led.check(c.total == kCoverageTrials && c.detected == c.total,
                  strfmt("IFA-9 detects %d/%d %s instances", c.detected,
                         c.total, sim::fault_name(c.kind)));
      }
      z_notes.push_back("IFA-9 coverage: " + covered);
      counts["sim.fault_coverage.packed_trials"] =
          static_cast<double>(cov.provenance.packed_trials);
      counts["sim.fault_coverage.scalar_trials"] =
          static_cast<double>(cov.provenance.scalar_trials);
    } catch (const std::exception& e) {
      led.fail(std::string("campaign threw: ") + e.what());
      break;
    }
    for (const auto& [name, v] : counts) rec.set(name, v);
    rec.end_op();
    tm.end_op(op_wall);
    tm.work_units += units;
    tm.work_wall_s += op_wall;
    timed += op_wall;
  }
  res.notes = z_notes;
  res.notes.push_back(strfmt(
      "max |z| over the run: Fig. 4 %.2f at %s; Fig. 6 geometry %.2f at %s "
      "(bound %.1f)",
      max_abs_z_small, worst_small.c_str(), max_abs_z_large,
      worst_large.c_str(), z_bound));
  res.named["yield_small_dies_per_s"] = {small_dies / small_wall, "dies/s"};
  res.named["yield_large_dies_per_s"] = {large_dies / large_wall, "dies/s"};
  res.named["coverage_trials_per_s"] = {cov_trials / cov_wall, "trials/s"};
  res.named["max_abs_z_small"] = {max_abs_z_small, "1"};
  res.named["max_abs_z_large"] = {max_abs_z_large, "1"};
  res.spec_json = strfmt(
      "{\"small\":{\"words\":4096,\"bpw\":4,\"bpc\":4,\"spare_rows\":[4,8,16],"
      "\"defect_mean\":3,\"trials\":%d},\"large\":{\"words\":4096,\"bpw\":128,"
      "\"bpc\":8,\"spare_rows\":4,\"defect_mean\":0.5,\"trials\":%d,"
      "\"tail_mass\":%g,\"min_stratum_trials\":1},"
      "\"alpha\":%g,\"growth\":%g,\"sampling\":[\"plain\",\"stratified\"],"
      "\"coverage\":{\"test\":\"IFA-9\",\"johnson_backgrounds\":true,"
      "\"kinds\":9,\"trials_per_kind\":%d},\"z_bound\":%g,"
      "\"z_se\":\"max(estimator se, sqrt((1 - analytic) / trials))\","
      "\"work_unit\":\"die simulations plus coverage trials\"}",
      kSmallTrials, kLargeTrials, kLargeTailMass, kAlpha, kGrowth, kCoverageTrials, z_bound);
  return res;
}

}  // namespace bisbench
