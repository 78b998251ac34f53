#pragma once
// Numerically stable combinatorics and quadrature used by the yield,
// reliability and cost models (src/models). Everything works in the log
// domain so that e.g. C(4096, 64) * q^64 does not overflow or underflow.

#include <cstdint>
#include <functional>

namespace bisram {

/// ln(n!) via lgamma; exact for the integer arguments we use.
double ln_factorial(std::int64_t n);

/// ln C(n, k); returns -inf when k < 0 or k > n (choose == 0).
double ln_choose(std::int64_t n, std::int64_t k);

/// Binomial pmf P[X = k], X ~ B(n, p). Stable for n up to millions.
double binomial_pmf(std::int64_t n, std::int64_t k, double p);

/// Binomial cdf P[X <= k], X ~ B(n, p).
double binomial_cdf(std::int64_t n, std::int64_t k, double p);

/// Poisson pmf P[X = k] with mean lambda.
double poisson_pmf(std::int64_t k, double lambda);

/// Negative-binomial pmf P[K = k] with mean m and Stapper clustering
/// parameter alpha (the Gamma-Poisson mixture the yield models sample).
/// Lives here rather than in models/yield so the importance-sampling
/// machinery in sim/ can reweight strata with the exact probabilities.
double negbin_pmf(std::int64_t k, double mean, double alpha);

/// Standard error of a Bernoulli mean from its success count over n
/// trials: the unbiased sample variance n/(n-1) p(1-p) over n, i.e.
/// p(1-p)/(n-1); 0 with fewer than two trials.
double bernoulli_se(std::int64_t successes, std::int64_t n);

/// Streaming mean/variance accumulator (Welford) with an exact parallel
/// merge (Chan et al.). This is the O(1)-state aggregator behind the
/// wafer-scale campaigns: each worker chunk folds its dies into one
/// accumulator and the chunk partials merge in deterministic order, so
/// memory stays bounded no matter how many dies stream through. Counts
/// and sums of integer samples are exact; merge order only perturbs
/// mean/variance at the floating-point rounding level
/// (tests/test_util.cpp pins the tolerance).
class WelfordAccumulator {
 public:
  /// Folds one sample.
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
  }

  /// Folds another accumulator's samples as if they had been added here.
  void merge(const WelfordAccumulator& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(o.n_);
    const double d = o.mean_ - mean_;
    const double n = na + nb;
    mean_ += d * nb / n;
    m2_ += o.m2_ + d * d * na * nb / n;
    n_ += o.n_;
  }

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sum of squared deviations from the mean (>= 0).
  double m2() const { return m2_ < 0.0 ? 0.0 : m2_; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const {
    return n_ >= 2 ? m2() / static_cast<double>(n_ - 1) : 0.0;
  }
  /// Standard error of the mean: sqrt(variance / n); 0 when empty.
  double std_error() const;

  /// The internal m2 without the non-negativity clamp — checkpoint
  /// serialization stores this so a resumed accumulator is bitwise
  /// identical to the uninterrupted one (the clamp in m2() would round a
  /// tiny negative float-error residue to zero and perturb later adds).
  double raw_m2() const { return m2_; }

  /// Rebuilds an accumulator from checkpointed state (count, raw mean,
  /// raw m2). Inverse of (count(), mean(), raw_m2()).
  static WelfordAccumulator restore(std::int64_t n, double mean, double m2) {
    WelfordAccumulator w;
    w.n_ = n;
    w.mean_ = n ? mean : 0.0;
    w.m2_ = m2;
    return w;
  }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Adaptive Simpson quadrature of f over [a, b] to absolute tolerance tol.
double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol = 1e-10);

/// Integrates f from a to +infinity by substitution x = a + t/(1-t).
/// f must decay to 0; used for MTTF = integral of R(t).
double integrate_to_inf(const std::function<double(double)>& f, double a,
                        double tol = 1e-10);

/// True when v is an integral power of two (v >= 1).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// ceil(log2(v)) for v >= 1; log2_ceil(1) == 0.
int log2_ceil(std::uint64_t v);

/// floor(log2(v)) for v >= 1.
int log2_floor(std::uint64_t v);

}  // namespace bisram
