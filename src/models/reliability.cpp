#include "models/reliability.hpp"

#include <cmath>

#include "util/math.hpp"
#include "util/rng.hpp"

namespace bisram::models {

namespace {
/// Number of successes in `n` Bernoulli(q) draws, sampled with geometric
/// gaps between successes: O(successes) expected work instead of O(n),
/// which matters because realistic word-failure probabilities are tiny.
std::int64_t binomial_count(Rng& rng, std::int64_t n, double q) {
  if (q <= 0.0 || n <= 0) return 0;
  if (q >= 1.0) return n;
  const double log1mq = std::log1p(-q);
  std::int64_t count = 0;
  std::int64_t pos = 0;
  for (;;) {
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    // Gap to the next success: floor(log(u) / log(1-q)).
    const double gap = std::floor(std::log(u) / log1mq);
    if (gap >= static_cast<double>(n - pos)) return count;
    pos += static_cast<std::int64_t>(gap) + 1;
    ++count;
    if (pos >= n) return count;
  }
}
}  // namespace

double word_failure_prob(int bpw, double lambda_per_hour, double t_hours) {
  require(bpw >= 1, "word_failure_prob: bpw must be >= 1");
  require(lambda_per_hour >= 0 && t_hours >= 0,
          "word_failure_prob: negative rate or time");
  return 1.0 - std::exp(-static_cast<double>(bpw) * lambda_per_hour * t_hours);
}

double reliability(const sim::RamGeometry& geo, double lambda_per_hour,
                   double t_hours) {
  const double q = word_failure_prob(geo.bpw, lambda_per_hour, t_hours);
  const std::int64_t nw = static_cast<std::int64_t>(geo.words);
  const std::int64_t s = geo.spare_words();
  const double words_ok = binomial_cdf(nw, s, q);
  const double spares_ok =
      std::pow(1.0 - q, static_cast<double>(s));
  return words_ok * spares_ok;
}

sim::CampaignResult<double> reliability_mc(const sim::RamGeometry& geo,
                                           double lambda_per_hour,
                                           double t_hours,
                                           const sim::CampaignSpec& spec) {
  const double q = word_failure_prob(geo.bpw, lambda_per_hour, t_hours);
  const std::int64_t nw = static_cast<std::int64_t>(geo.words);
  const std::int64_t s = geo.spare_words();
  const sim::StreamFolds<int> run = sim::run_streams<int>(
      spec, {{0, spec.trials, /*chunk=*/64, /*grain=*/64}}, 0,
      [&](std::size_t, Rng& rng, sim::KernelTally&) {
        const std::int64_t failed_regular = binomial_count(rng, nw, q);
        if (failed_regular > s) return 0;
        const std::int64_t failed_spares = binomial_count(rng, s, q);
        return failed_spares == 0 ? 1 : 0;
      },
      [](int a, int b) { return a + b; }, "reliability_mc");
  const std::int64_t done = run.done[0];
  return {done ? static_cast<double>(run.folds[0]) / static_cast<double>(done)
               : 0.0,
          run.provenance, run.termination};
}

double mttf_hours(const sim::RamGeometry& geo, double lambda_per_hour) {
  require(lambda_per_hour > 0, "mttf_hours: rate must be positive");
  // R(t) decays on the scale where E[failed words] ~ spares. Find a
  // horizon where R is negligible by doubling, then integrate the
  // bounded interval (a naive improper quadrature wastes millions of
  // evaluations hunting for the knee).
  auto r = [&](double t) { return reliability(geo, lambda_per_hour, t); };
  double horizon = 1.0 / (static_cast<double>(geo.bpw) * lambda_per_hour *
                          std::max<double>(geo.words, 1));
  while (r(horizon) > 1e-9) horizon *= 2.0;
  return integrate(r, 0.0, horizon, 1e-6 * horizon);
}

double reliability_crossover_hours(sim::RamGeometry geo, int s1, int s2,
                                   double lambda_per_hour, double max_hours) {
  require(s2 > s1, "reliability_crossover_hours: s2 must exceed s1");
  sim::RamGeometry g1 = geo, g2 = geo;
  g1.spare_rows = s1;
  g2.spare_rows = s2;
  auto diff = [&](double t) {
    return reliability(g2, lambda_per_hour, t) -
           reliability(g1, lambda_per_hour, t);
  };
  // At t = 0+ the larger-spare module is *less* reliable (more spare
  // cells to keep alive); scan for the sign change then bisect.
  const int scan = 2048;
  double lo = 0.0;
  double prev = diff(max_hours / scan);
  for (int i = 2; i <= scan; ++i) {
    const double t = max_hours * i / scan;
    const double d = diff(t);
    if (prev < 0.0 && d >= 0.0) {
      lo = max_hours * (i - 1) / scan;
      double hi = t;
      for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (diff(mid) < 0.0)
          lo = mid;
        else
          hi = mid;
      }
      return 0.5 * (lo + hi);
    }
    prev = d;
  }
  return -1.0;
}

}  // namespace bisram::models
