// Bit-identity contract of the runtime-dispatched SIMD layer
// (util/simd.hpp) under the packed BIST kernel (sim/packed_ram.hpp):
// the AVX2 lanes and the scalar fallback must agree bit for bit, on the
// primitives, on every die and on whole campaigns. The SIMD primitives
// are pure integer transforms, so any divergence is a bug — there is no
// tolerance anywhere in this file.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "models/yield.hpp"
#include "sim/packed_ram.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace bisram {
namespace {

using sim::BistConfig;
using sim::BistResult;
using sim::Fault;
using sim::FaultKind;
using sim::RamGeometry;
using sim::SimKernel;

/// RAII override of the dispatch level, restoring the environment rule
/// on scope exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) { set_simd_level(level); }
  ~ScopedSimdLevel() { clear_simd_level(); }
};

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> v(n);
  for (auto& w : v) w = rng.next();
  return v;
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
  EXPECT_STREQ(simd_level_name(SimdLevel::Avx2), "avx2");
}

TEST(SimdDispatch, ScalarOverrideAlwaysLegal) {
  ScopedSimdLevel forced(SimdLevel::Scalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::Scalar);
}

TEST(SimdDispatch, ForcingAvx2OnUnsupportedHostThrows) {
  if (detected_simd_level() == SimdLevel::Avx2)
    GTEST_SKIP() << "host supports AVX2; the guard cannot fire here";
  EXPECT_THROW(set_simd_level(SimdLevel::Avx2), SpecError);
}

TEST(SimdPrimitives, Avx2MatchesScalarBitForBit) {
  if (detected_simd_level() != SimdLevel::Avx2)
    GTEST_SKIP() << "host has no AVX2; nothing to cross-check";
  Rng rng(0x51D0123ULL);
  // Sizes straddling the 4-word lane width: empty, sub-lane, exact
  // multiples, and ragged remainders.
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{5}, std::size_t{8},
                        std::size_t{31}, std::size_t{64}, std::size_t{100}}) {
    const auto pattern = random_words(rng, n);
    const auto mask = random_words(rng, n);
    const auto base = random_words(rng, n);

    std::vector<std::uint64_t> got = base, want = base;
    {
      ScopedSimdLevel forced(SimdLevel::Avx2);
      simd::masked_assign(got.data(), pattern.data(), mask.data(), n);
    }
    std::uint64_t got_diff, want_diff;
    {
      ScopedSimdLevel forced(SimdLevel::Avx2);
      got_diff = simd::masked_diff(base.data(), pattern.data(), mask.data(), n);
    }
    {
      ScopedSimdLevel forced(SimdLevel::Scalar);
      simd::masked_assign(want.data(), pattern.data(), mask.data(), n);
      want_diff =
          simd::masked_diff(base.data(), pattern.data(), mask.data(), n);
    }
    EXPECT_EQ(got, want) << "masked_assign, n = " << n;
    EXPECT_EQ(got_diff, want_diff) << "masked_diff, n = " << n;
    // And the written buffer must now compare clean against its pattern.
    ASSERT_EQ(simd::masked_diff(got.data(), pattern.data(), mask.data(), n),
              0u)
        << n;
  }
}

std::vector<Fault> random_fault_list(Rng& rng, const RamGeometry& geo) {
  const FaultKind kinds[] = {
      FaultKind::StuckAt0,     FaultKind::StuckAt1,
      FaultKind::TransitionUp, FaultKind::TransitionDown,
      FaultKind::CouplingIdem, FaultKind::CouplingInv,
      FaultKind::CouplingState};
  const int nfaults = static_cast<int>(rng.below(5));  // 0..4, incl. clean
  std::vector<Fault> faults;
  for (int j = 0; j < nfaults; ++j) {
    Fault f;
    f.kind = kinds[rng.below(7)];
    f.victim = {static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(geo.total_rows()))),
                static_cast<int>(
                    rng.below(static_cast<std::uint64_t>(geo.cols())))};
    if (f.kind == FaultKind::CouplingIdem || f.kind == FaultKind::CouplingInv ||
        f.kind == FaultKind::CouplingState) {
      do {
        f.aggressor = {
            static_cast<int>(
                rng.below(static_cast<std::uint64_t>(geo.total_rows()))),
            static_cast<int>(
                rng.below(static_cast<std::uint64_t>(geo.cols())))};
      } while (f.aggressor == f.victim);
    }
    f.dir_rising = rng.chance(0.5);
    f.value = rng.chance(0.5);
    f.value2 = rng.chance(0.5);
    faults.push_back(f);
  }
  return faults;
}

void expect_same_result(const BistResult& want, const BistResult& got,
                        const char* what, std::size_t die) {
  EXPECT_EQ(got.pass1_clean, want.pass1_clean) << what << " die " << die;
  EXPECT_EQ(got.repair_successful, want.repair_successful)
      << what << " die " << die;
  EXPECT_EQ(got.tlb_overflow, want.tlb_overflow) << what << " die " << die;
  EXPECT_EQ(got.spares_used, want.spares_used) << what << " die " << die;
  EXPECT_EQ(got.passes_run, want.passes_run) << what << " die " << die;
  EXPECT_EQ(got.cycles, want.cycles) << what << " die " << die;
  EXPECT_EQ(got.hung, want.hung) << what << " die " << die;
}

TEST(BatchEquivalence, ForcedScalarFallbackIdenticalToSimd) {
  // The one-die packed flow forced through the scalar SIMD fallback must
  // reproduce the default dispatch bit for bit, die by die.
  const RamGeometry geo{256, 2, 4, 2};
  Rng rng(0xFA11BACULL);
  std::vector<std::vector<Fault>> lists;
  for (int i = 0; i < 24; ++i) lists.push_back(random_fault_list(rng, geo));

  auto run_all = [&] {
    std::vector<BistResult> results;
    for (const auto& faults : lists) {
      SimKernel used = SimKernel::Scalar;
      results.push_back(
          sim::run_bist(geo, faults, BistConfig{}, SimKernel::Auto, &used));
      EXPECT_EQ(used, SimKernel::Packed);
    }
    return results;
  };
  const auto native = run_all();
  ScopedSimdLevel forced(SimdLevel::Scalar);
  const auto fallback = run_all();
  ASSERT_EQ(native.size(), fallback.size());
  for (std::size_t i = 0; i < native.size(); ++i)
    expect_same_result(native[i], fallback[i], "forced scalar", i);
}

TEST(CampaignEquivalence, ForcedScalarSimdIdenticalCampaign) {
  const RamGeometry geo{64, 4, 4, 4};
  sim::CampaignSpec spec;
  spec.trials = 200;
  spec.seed = 555;
  const auto native = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                      spec);
  ScopedSimdLevel forced(SimdLevel::Scalar);
  const auto fallback = models::bisr_yield_mc_with_bist(geo, 0.8, 2.0, 1.0,
                                                        spec);
  EXPECT_EQ(native.provenance.packed_trials, 200);
  EXPECT_EQ(fallback.provenance.packed_trials, 200);
  EXPECT_EQ(native.value.bist_repaired, fallback.value.bist_repaired);
  EXPECT_EQ(native.value.strict_good, fallback.value.strict_good);
}

}  // namespace
}  // namespace bisram
