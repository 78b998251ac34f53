// The host SIMD report (util/simd.hpp) and the kernel-independence of a
// whole yield campaign: the packed BIST kernel (sim/packed_ram.hpp) and
// the scalar reference must produce the same campaign bit for bit. The
// kernels are pure integer simulations, so any divergence is a bug —
// there is no tolerance anywhere in this file.

#include <gtest/gtest.h>

#include "models/yield.hpp"
#include "util/simd.hpp"

namespace bisram {
namespace {

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx2), "avx2");
}

TEST(CampaignEquivalence, ForcedScalarSimdIdenticalCampaign) {
  const sim::RamGeometry geo{64, 4, 4, 4};
  sim::CampaignSpec spec;
  spec.trials = 200;
  spec.seed = 555;
  const auto native = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                      spec);
  spec.kernel = sim::SimKernel::Scalar;
  const auto scalar = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                      spec);
  EXPECT_EQ(native.provenance.packed_trials, 200);
  EXPECT_EQ(scalar.provenance.scalar_trials, 200);
  EXPECT_EQ(scalar.provenance.packed_trials, 0);
  EXPECT_EQ(native.value.bist_repaired, scalar.value.bist_repaired);
  EXPECT_EQ(native.value.bist_repaired_se, scalar.value.bist_repaired_se);
  EXPECT_EQ(native.value.strict_good, scalar.value.strict_good);
  EXPECT_EQ(native.value.strict_good_se, scalar.value.strict_good_se);
  EXPECT_EQ(native.value.die_sims, scalar.value.die_sims);
}

}  // namespace
}  // namespace bisram
