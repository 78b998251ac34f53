#pragma once
// Reliability model (paper Section VIII, Fig. 5).
//
// Hard (permanent) cell failures arrive at rate lambda per cell per hour.
// A bpw-bit word is faulty at time t with probability
//   q(t) = 1 - exp(-bpw * lambda * t).
// The BISR'ed module survives to time t iff at most spare_words regular
// words have failed AND the spare words themselves are all fault-free:
//   R(t) = [ sum_{i=0}^{S} C(NW, i) q^i (1-q)^(NW-i) ] * (1-q)^S
// and MTTF = integral_0^inf R(t) dt.
//
// The paper's observation reproduced by bench_reliability: more spares
// help only after a device age threshold; before it, the extra spare
// cells are just more ways to die (the (1-q)^S factor), so R with 4
// spares exceeds R with 8 until the crossover.

#include <cstdint>

#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"

namespace bisram::models {

/// q(t): probability that one bpw-bit word has failed by time t_hours.
double word_failure_prob(int bpw, double lambda_per_hour, double t_hours);

/// R(t) for the BISR'ed RAM.
double reliability(const sim::RamGeometry& geo, double lambda_per_hour,
                   double t_hours);

/// Monte-Carlo estimate of R(t): samples which words have failed by
/// t_hours (geometric-gap Bernoulli sampling over the word array) and
/// applies the same survival criterion as the analytic formula — at most
/// spare_words failed regular words and every spare word alive. Runs
/// under the unified campaign API (sim/campaign.hpp): bit-identical for
/// any thread count under a fixed seed. The trial body never touches the
/// RAM model, so both kernel requests run the same code. Cross-validates
/// reliability() with exact pattern semantics.
sim::CampaignResult<double> reliability_mc(const sim::RamGeometry& geo,
                                           double lambda_per_hour,
                                           double t_hours,
                                           const sim::CampaignSpec& spec);

/// Mean time to failure in hours (numeric integration of R).
double mttf_hours(const sim::RamGeometry& geo, double lambda_per_hour);

/// Device age at which the s2-spare module first becomes more reliable
/// than the s1-spare module (s2 > s1), or a negative value when no
/// crossover occurs before `max_hours`.
double reliability_crossover_hours(sim::RamGeometry geo, int s1, int s2,
                                   double lambda_per_hour, double max_hours);

}  // namespace bisram::models
