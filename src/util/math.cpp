#include "util/math.hpp"

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace bisram {

namespace {

/// Thread-safe ln Γ(x). libm's lgamma() writes the process-global
/// `signgam` on every call — a data race whenever two threads compute a
/// pmf concurrently (the DSE point loop and the campaign engines both
/// do). lgamma_r takes the sign out-parameter locally instead; every
/// argument in this file is positive, so the sign is discarded.
double ln_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

}  // namespace

double ln_factorial(std::int64_t n) {
  ensure(n >= 0, "ln_factorial: negative argument");
  return ln_gamma(static_cast<double>(n) + 1.0);
}

double ln_choose(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n) return -std::numeric_limits<double>::infinity();
  return ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k);
}

double binomial_pmf(std::int64_t n, std::int64_t k, double p) {
  if (k < 0 || k > n) return 0.0;
  if (p <= 0.0) return k == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return k == n ? 1.0 : 0.0;
  const double ln = ln_choose(n, k) + static_cast<double>(k) * std::log(p) +
                    static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(ln);
}

double binomial_cdf(std::int64_t n, std::int64_t k, double p) {
  if (k < 0) return 0.0;
  if (k >= n) return 1.0;
  // Sum ascending from the smaller tail for accuracy.
  double sum = 0.0;
  for (std::int64_t i = 0; i <= k; ++i) sum += binomial_pmf(n, i, p);
  return sum > 1.0 ? 1.0 : sum;
}

double poisson_pmf(std::int64_t k, double lambda) {
  if (k < 0) return 0.0;
  if (lambda <= 0.0) return k == 0 ? 1.0 : 0.0;
  const double ln =
      static_cast<double>(k) * std::log(lambda) - lambda - ln_factorial(k);
  return std::exp(ln);
}

double negbin_pmf(std::int64_t k, double mean, double alpha) {
  if (k < 0) return 0.0;
  ensure(alpha > 0, "negbin_pmf: non-positive alpha");
  if (mean <= 0.0) return k == 0 ? 1.0 : 0.0;
  const double p = mean / (mean + alpha);  // "success" probability
  const double ln = ln_gamma(alpha + static_cast<double>(k)) -
                    ln_factorial(k) - ln_gamma(alpha) +
                    static_cast<double>(k) * std::log(p) +
                    alpha * std::log1p(-p);
  return std::exp(ln);
}

double bernoulli_se(std::int64_t successes, std::int64_t n) {
  if (n < 2) return 0.0;
  const double p = static_cast<double>(successes) / static_cast<double>(n);
  return std::sqrt(p * (1.0 - p) / static_cast<double>(n - 1));
}

double WelfordAccumulator::std_error() const {
  return n_ >= 2 ? std::sqrt(variance() / static_cast<double>(n_)) : 0.0;
}

namespace {

double simpson(double a, double fa, double b, double fb, double fm) {
  return (b - a) / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive(const std::function<double(double)>& f, double a, double fa,
                double b, double fb, double m, double fm, double whole,
                double tol, int depth) {
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(a, fa, m, fm, flm);
  const double right = simpson(m, fm, b, fb, frm);
  if (depth <= 0 || std::abs(left + right - whole) <= 15.0 * tol) {
    return left + right + (left + right - whole) / 15.0;
  }
  return adaptive(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) +
         adaptive(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol) {
  if (a == b) return 0.0;
  const double m = 0.5 * (a + b);
  const double fa = f(a), fb = f(b), fm = f(m);
  const double whole = simpson(a, fa, b, fb, fm);
  return adaptive(f, a, fa, b, fb, m, fm, whole, tol, 40);
}

double integrate_to_inf(const std::function<double(double)>& f, double a,
                        double tol) {
  // x = a + t/(1-t), dx = dt/(1-t)^2, t in [0, 1).
  auto g = [&](double t) {
    if (t >= 1.0) return 0.0;
    const double u = 1.0 - t;
    return f(a + t / u) / (u * u);
  };
  // Stop just shy of 1 to avoid the singular endpoint; g decays there.
  return integrate(g, 0.0, 1.0 - 1e-12, tol);
}

int log2_ceil(std::uint64_t v) {
  ensure(v >= 1, "log2_ceil: argument must be >= 1");
  int bits = 0;
  std::uint64_t x = 1;
  while (x < v) {
    x <<= 1;
    ++bits;
  }
  return bits;
}

int log2_floor(std::uint64_t v) {
  ensure(v >= 1, "log2_floor: argument must be >= 1");
  int bits = 0;
  while (v >>= 1) ++bits;
  return bits;
}

}  // namespace bisram
