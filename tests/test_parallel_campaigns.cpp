// The determinism contract of the parallel campaign engine: every
// Monte-Carlo campaign must produce bit-identical results whether it
// runs on 1, 2 or 8 threads, because each trial draws from its own seed
// sub-stream and partial results fold in a thread-independent order.
// These are the tests that make parallel speedups trustworthy — without
// them "fast" could silently mean "different".

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "march/march.hpp"
#include "models/reliability.hpp"
#include "models/wafermap.hpp"
#include "models/yield.hpp"
#include "sim/baselines.hpp"
#include "sim/campaign.hpp"
#include "sim/fault_sim.hpp"
#include "sim/infra_faults.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "scoped_env.hpp"

namespace bisram {
namespace {

/// Forces the engine to `n` threads for the enclosing scope.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : prev_(set_campaign_threads(n)) {}
  ~ThreadGuard() { set_campaign_threads(prev_); }

 private:
  int prev_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

/// Runs `campaign` once per thread count and checks every rerun is
/// bit-identical to the single-threaded reference.
template <typename Campaign, typename Check>
void expect_thread_invariant(Campaign&& campaign, Check&& check) {
  ThreadGuard serial(1);
  const auto reference = campaign();
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    check(reference, campaign(), threads);
  }
}

sim::RamGeometry small_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

TEST(ParallelReduce, MatchesSerialSumForAnyThreadCount) {
  const std::int64_t n = 10007;
  auto sum = [&] {
    return parallel_reduce<std::int64_t>(
        n, 64, std::int64_t{0}, [](std::int64_t i) { return i * i; },
        [](std::int64_t a, std::int64_t b) { return a + b; });
  };
  ThreadGuard serial(1);
  const std::int64_t expected = sum();
  std::int64_t check = 0;
  for (std::int64_t i = 0; i < n; ++i) check += i * i;
  EXPECT_EQ(expected, check);
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    EXPECT_EQ(sum(), expected) << threads << " threads";
  }
}

TEST(ParallelReduce, FloatingPointAssociationFixedByChunkSize) {
  // Doubles make fold order observable: with a fixed chunk size the
  // bracketing — and therefore the exact bits — must not change with the
  // thread count.
  const std::int64_t n = 4099;
  auto fold = [&] {
    return parallel_reduce<double>(
        n, 32, 0.0,
        [](std::int64_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  ThreadGuard serial(1);
  const double expected = fold();
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    const double got = fold();
    EXPECT_EQ(got, expected) << threads << " threads";  // bitwise, no NEAR
  }
}

TEST(ParallelReduce, CoversEveryIndexExactlyOnce) {
  const std::int64_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ThreadGuard guard(8);
  parallel_for(n, 7, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ParallelReduce, EmptyAndSingleTrialEdges) {
  auto one = [](std::int64_t) { return 1; };
  auto add = [](int a, int b) { return a + b; };
  EXPECT_EQ(parallel_reduce<int>(0, 8, 0, one, add), 0);
  EXPECT_EQ(parallel_reduce<int>(1, 8, 0, one, add), 1);
  // Chunk larger than the trial count degenerates to one serial chunk.
  EXPECT_EQ(parallel_reduce<int>(5, 1000, 0, one, add), 5);
}

TEST(ParallelReduce, NestedParallelSectionsDoNotDeadlock) {
  // Three levels of nesting on the shared pool — the DSE sweep shape:
  // an outer point loop whose body compiles, and the compile itself
  // runs parallel sections. Before callers helped drain the queue,
  // every worker could end up parked in an outer wait while the inner
  // jobs it was waiting on sat unclaimed behind it.
  std::atomic<int> leaves{0};
  parallel_for(
      4, 1,
      [&](std::int64_t) {
        parallel_for(
            4, 1,
            [&](std::int64_t) {
              parallel_for(
                  4, 1, [&](std::int64_t) { leaves.fetch_add(1); },
                  /*threads=*/4);
            },
            /*threads=*/4);
      },
      /*threads=*/4);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ParallelReduce, NestedReduceStaysBitIdenticalPerThreadCount) {
  // The inner fold's association depends only on its own chunk size,
  // nesting or not.
  auto nested_sum = [](int outer_threads, int inner_threads) {
    return parallel_reduce<double>(
        8, 1, 0.0,
        [&](std::int64_t i) {
          return parallel_reduce<double>(
              64, 8, 0.0,
              [&](std::int64_t j) {
                return 1.0 / (1.0 + static_cast<double>(i * 64 + j));
              },
              [](double a, double b) { return a + b; }, inner_threads);
        },
        [](double a, double b) { return a + b; }, outer_threads);
  };
  const double serial = nested_sum(1, 1);
  EXPECT_EQ(serial, nested_sum(4, 4));
  EXPECT_EQ(serial, nested_sum(8, 2));
}

TEST(ParallelReduce, PropagatesExceptionsFromWorkers) {
  ThreadGuard guard(4);
  auto boom = [&] {
    parallel_for(100, 1, [](std::int64_t i) {
      if (i == 57) throw InternalError("boom");
    });
  };
  EXPECT_THROW(boom(), InternalError);
}

TEST(CampaignThreads, EnvOverrideWins) {
  // Starts from an unset variable whatever the caller's environment, and
  // restores the caller's value on exit.
  const ScopedEnv env("BISRAM_THREADS", nullptr);
  ThreadGuard guard(3);
  EXPECT_EQ(campaign_threads(), 3);
  ASSERT_TRUE(env.set("5"));
  EXPECT_EQ(campaign_threads(), 5);
  // Garbage and out-of-range values fall through to the override.
  ASSERT_TRUE(env.set("zero"));
  EXPECT_EQ(campaign_threads(), 3);
  ASSERT_TRUE(env.set("0"));
  EXPECT_EQ(campaign_threads(), 3);
  ASSERT_TRUE(env.set(nullptr));
  EXPECT_EQ(campaign_threads(), 3);
}

TEST(ThreadInvariance, FaultCoverageCampaign) {
  const std::vector<sim::FaultKind> kinds = {
      sim::FaultKind::StuckAt0, sim::FaultKind::CouplingState,
      sim::FaultKind::StuckOpen};
  expect_thread_invariant(
      [&] {
        return sim::fault_coverage(march::ifa9(), small_geo(), kinds,
                                   true,
                                   sim::CampaignSpec{.trials = 48, .seed = 17})
            .value;
      },
      [&](const auto& ref, const auto& got, int threads) {
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
          EXPECT_EQ(ref[i].detected, got[i].detected)
              << threads << " threads, kind " << i;
          EXPECT_EQ(ref[i].total, got[i].total);
        }
      });
}

TEST(ThreadInvariance, YieldRepairProbabilityCampaign) {
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  expect_thread_invariant(
      [&] {
        return models::repair_probability_mc(
                   g, 12, sim::CampaignSpec{.trials = 2000, .seed = 99})
            .value;
      },
      [](double ref, double got, int threads) {
        EXPECT_EQ(ref, got) << threads << " threads";  // bitwise
      });
}

TEST(ThreadInvariance, YieldBistMonteCarloCampaign) {
  expect_thread_invariant(
      [&] {
        return models::bisr_yield_mc_with_bist(
                   small_geo(), 3.0, 2.0, 1.05,
                   sim::CampaignSpec{.trials = 120, .seed = 7})
            .value;
      },
      [](const models::BisrYieldMc& ref, const models::BisrYieldMc& got,
         int threads) {
        EXPECT_EQ(ref.bist_repaired, got.bist_repaired) << threads;
        EXPECT_EQ(ref.strict_good, got.strict_good) << threads;
      });
}

// --- outputs pinned across kernel changes ------------------------------------
// The invariance tests compare thread counts with each other, so a kernel
// change that moved every count the same way would pass them. These
// values were printed at %.17g by the streamed bit-plane kernel that
// preceded the fault-proportional one (sim/packed_ram.hpp), and they must
// hold at every thread count.

struct YieldPin {
  const char* name;
  sim::RamGeometry geo;
  double defect_mean;
  int trials;
  std::uint64_t seed;
  sim::SamplingMode mode;
  double bist_repaired, bist_repaired_se, strict_good, strict_good_se;
  std::int64_t die_sims, strata;
};

TEST(PinnedOutputs, BistYieldCampaigns) {
  using sim::SamplingMode;
  const sim::RamGeometry fig4{4096, 4, 4, 4};
  const sim::RamGeometry fig6{4096, 128, 8, 4};
  const YieldPin pins[] = {
      {"Fig. 4 plain", fig4, 12.0, 200, 2024, SamplingMode::Plain,
       0.77500000000000002, 0.029601626330440615, 0.76000000000000001,
       0.030275120389073013, 200, 0},
      {"Fig. 4 stratified", fig4, 12.0, 200, 2024, SamplingMode::Stratified,
       0.71825032235170427, 0.0068912318162470017, 0.71825032235170427,
       0.0068912318162470017, 508, 191},
      {"Fig. 6 plain", fig6, 12.0, 16, 2025, SamplingMode::Plain, 0.9375,
       0.0625, 0.9375, 0.0625, 16, 0},
      {"Fig. 6 stratified", fig6, 12.0, 16, 2025, SamplingMode::Stratified,
       0.89220005538619951, 0.0, 0.86935877879873014, 0.0, 79, 79},
  };
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (const YieldPin& pin : pins) {
      SCOPED_TRACE(testing::Message() << pin.name << ", " << threads
                                      << " threads");
      sim::CampaignSpec spec{.trials = pin.trials, .seed = pin.seed};
      spec.sampling.mode = pin.mode;
      if (pin.geo.bpw == 128) {  // bisbench's large-geometry plan
        spec.sampling.tail_mass = 1e-4;
        spec.sampling.min_stratum_trials = 1;
      }
      const auto r = models::bisr_yield_mc_with_bist(pin.geo, pin.defect_mean,
                                                     2.0, 1.05, spec);
      EXPECT_EQ(r.value.bist_repaired, pin.bist_repaired);
      EXPECT_EQ(r.value.bist_repaired_se, pin.bist_repaired_se);
      EXPECT_EQ(r.value.strict_good, pin.strict_good);
      EXPECT_EQ(r.value.strict_good_se, pin.strict_good_se);
      EXPECT_EQ(r.value.die_sims, pin.die_sims);
      EXPECT_EQ(r.provenance.strata, pin.strata);
      EXPECT_EQ(r.provenance.packed_trials, pin.die_sims);
      EXPECT_EQ(r.provenance.scalar_trials, 0);
    }
  }
}

TEST(PinnedOutputs, FaultCoverageCounts) {
  const std::vector<sim::FaultKind> kinds = {
      sim::FaultKind::StuckAt0,      sim::FaultKind::StuckAt1,
      sim::FaultKind::TransitionUp,  sim::FaultKind::TransitionDown,
      sim::FaultKind::CouplingIdem,  sim::FaultKind::CouplingInv,
      sim::FaultKind::CouplingState, sim::FaultKind::StuckOpen,
      sim::FaultKind::Retention};
  struct CoveragePin {
    const march::MarchTest* test;
    sim::CouplingScope scope;
    int detected[9];  ///< per kind above, out of 24 trials each
  };
  const CoveragePin pins[] = {
      {&march::ifa9(), sim::CouplingScope::PhysicalNeighbor,
       {24, 24, 24, 24, 24, 24, 24, 0, 24}},
      {&march::ifa9(), sim::CouplingScope::IntraWord,
       {24, 24, 24, 24, 9, 15, 24, 0, 24}},
      {&march::mats_plus(), sim::CouplingScope::PhysicalNeighbor,
       {24, 24, 24, 24, 16, 24, 24, 0, 0}},
      {&march::mats_plus(), sim::CouplingScope::IntraWord,
       {24, 24, 24, 24, 5, 15, 24, 0, 0}},
  };
  const sim::RamGeometry geo{512, 8, 4, 2};
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (const CoveragePin& pin : pins) {
      const auto cov = sim::fault_coverage(
          *pin.test, geo, kinds, /*johnson_backgrounds=*/true,
          sim::CampaignSpec{.trials = 24, .seed = 2026}, pin.scope);
      ASSERT_EQ(cov.value.size(), kinds.size());
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        EXPECT_EQ(cov.value[k].detected, pin.detected[k])
            << pin.test->name() << ", " << sim::fault_name(kinds[k]) << ", "
            << threads << " threads";
        EXPECT_EQ(cov.value[k].total, 24);
      }
      // Every kind, StuckOpen included, runs on the packed kernel.
      EXPECT_EQ(cov.provenance.packed_trials, 9 * 24);
      EXPECT_EQ(cov.provenance.scalar_trials, 0);
    }
  }
}

// The campaigns below were pinned the same way, at %.17g, by the code
// that preceded the one campaign driver (sim/campaign.hpp's run_streams):
// values, counts and provenance must hold at every thread count.

models::WaferSpec pin_wafer_spec(const sim::RamGeometry& ram_geo) {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = ram_geo;
  return w;
}

/// Trials requested and done, the packed/scalar split and the strata.
void expect_provenance(const sim::CampaignProvenance& p, std::int64_t trials,
                       std::int64_t packed, std::int64_t scalar,
                       std::int64_t strata) {
  EXPECT_EQ(p.trials, trials);
  EXPECT_EQ(p.trials_done, trials);
  EXPECT_EQ(p.packed_trials, packed);
  EXPECT_EQ(p.scalar_trials, scalar);
  EXPECT_EQ(p.strata, strata);
}

TEST(PinnedOutputs, WaferYieldCampaign) {
  struct Pin {
    sim::SamplingMode mode;
    double without_bisr, without_bisr_se, with_bisr, with_bisr_se,
        mean_defects, mean_defects_se;
    std::int64_t die_sims, strata;
  };
  const Pin pins[] = {
      {sim::SamplingMode::Plain, 0.44379999999999997, 0.0022219203267891431,
       0.52298, 0.002233727419083102, 1.0037, 0.0055021388269138952, 50000,
       0},
      {sim::SamplingMode::Stratified, 0.44444444444444442, 0.0,
       0.52338404741781119, 0.001114210438947321, 0.99999999997547717, 0.0,
       27808, 27},
  };
  const models::WaferSpec wafer = pin_wafer_spec(small_geo());
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(testing::Message() << sim::sampling_name(pin.mode) << ", "
                                      << threads << " threads");
      sim::CampaignSpec spec{.trials = 50000, .seed = 11};
      spec.sampling.mode = pin.mode;
      const auto r = models::wafer_yield_campaign(wafer, spec);
      EXPECT_EQ(r.value.yield_without_bisr, pin.without_bisr);
      EXPECT_EQ(r.value.yield_without_bisr_se, pin.without_bisr_se);
      EXPECT_EQ(r.value.yield_with_bisr, pin.with_bisr);
      EXPECT_EQ(r.value.yield_with_bisr_se, pin.with_bisr_se);
      EXPECT_EQ(r.value.mean_defects_per_die, pin.mean_defects);
      EXPECT_EQ(r.value.mean_defects_per_die_se, pin.mean_defects_se);
      EXPECT_EQ(r.value.die_sims, pin.die_sims);
      EXPECT_EQ(r.value.dies, 50000);
      EXPECT_EQ(r.value.dies_per_wafer, 145);
      expect_provenance(r.provenance, pin.die_sims, 0, 0, pin.strata);
      EXPECT_EQ(r.termination, Termination::Completed);
    }
  }
}

TEST(PinnedOutputs, InfraYieldCampaign) {
  struct Pin {
    sim::SamplingMode mode;
    double reported, reported_se, effective, effective_se, escape, safe_fail,
        hung;
    std::int64_t die_sims, strata;
  };
  const Pin pins[] = {
      {sim::SamplingMode::Plain, 0.90000000000000002, 0.039056673294247155,
       0.90000000000000002, 0.039056673294247155, 0.0, 0.066666666666666666,
       0.033333333333333333, 60, 0},
      {sim::SamplingMode::Stratified, 0.83665516892899239,
       0.036345536024174091, 0.8191451857976062, 0.036345536024174091,
       0.017509983131386242, 0.12514627506762366, 0.038198556003383871, 55,
       18},
  };
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (const Pin& pin : pins) {
      SCOPED_TRACE(testing::Message() << sim::sampling_name(pin.mode) << ", "
                                      << threads << " threads");
      sim::CampaignSpec spec{.trials = 60, .seed = 7};
      spec.sampling.mode = pin.mode;
      spec.sampling.tail_mass = 1e-4;
      spec.sampling.min_stratum_trials = 1;
      const auto r = models::bisr_yield_mc_with_infra(small_geo(), 2.0, 2.0,
                                                      1.05, 0.08, spec);
      EXPECT_EQ(r.value.bist_reported_good, pin.reported);
      EXPECT_EQ(r.value.bist_reported_good_se, pin.reported_se);
      EXPECT_EQ(r.value.effective_good, pin.effective);
      EXPECT_EQ(r.value.effective_good_se, pin.effective_se);
      EXPECT_EQ(r.value.escape, pin.escape);
      EXPECT_EQ(r.value.safe_fail, pin.safe_fail);
      EXPECT_EQ(r.value.hung, pin.hung);
      EXPECT_EQ(r.value.die_sims, pin.die_sims);
      expect_provenance(r.provenance, pin.die_sims, 0, pin.die_sims,
                        pin.strata);
      EXPECT_EQ(r.termination, Termination::Completed);
    }
  }
}

TEST(PinnedOutputs, InfraFaultCampaign) {
  // Outcome counts [kind][Benign, SafeFail, Escape, Hung].
  const std::int64_t counts[sim::kInfraFaultKindCount]
                           [sim::kInfraOutcomeCount] = {
      {11, 0, 0, 0}, {2, 0, 0, 0}, {3, 5, 0, 0}, {0, 0, 0, 10},
      {3, 0, 0, 3},  {1, 2, 0, 1}, {3, 0, 0, 0}, {3, 0, 0, 1}};
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 1;
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const auto r = sim::infra_fault_campaign(
        small_geo(), cfg, sim::CampaignSpec{.trials = 48, .seed = 13});
    EXPECT_EQ(r.value.trials, 48);
    for (int k = 0; k < sim::kInfraFaultKindCount; ++k)
      for (int o = 0; o < sim::kInfraOutcomeCount; ++o)
        EXPECT_EQ(r.value.count(static_cast<sim::InfraFaultKind>(k),
                                static_cast<sim::InfraOutcome>(o)),
                  counts[k][o])
            << "kind " << k << ", outcome " << o;
    expect_provenance(r.provenance, 48, 0, 48, 0);
    EXPECT_EQ(r.termination, Termination::Completed);
  }
}

TEST(PinnedOutputs, ReliabilityAndRepairCampaigns) {
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const auto rel = models::reliability_mc(
        sim::RamGeometry{4096, 4, 4, 8}, 1e-9, 5e5,
        sim::CampaignSpec{.trials = 4000, .seed = 2024});
    EXPECT_EQ(rel.value, 0.93874999999999997);
    expect_provenance(rel.provenance, 4000, 0, 0, 0);
    const auto rep = models::repair_probability_mc(
        sim::RamGeometry{4096, 4, 4, 4}, 12,
        sim::CampaignSpec{.trials = 2000, .seed = 99});
    EXPECT_EQ(rep.value, 0.94650000000000001);
    expect_provenance(rep.provenance, 2000, 0, 0, 0);
  }
}

TEST(PinnedOutputs, SimulatedWaferMap) {
  const char* map =
      "               \n"
      "    XXXXXXX    \n"
      "   RXXOXOOOR   \n"
      "  ROXOXXXOXRX  \n"
      " OXOXOOOXXXXXX \n"
      " OXXOXXOXOOOOO \n"
      " OOXOOXXXOOOOO \n"
      " XOXXOXXROXXXX \n"
      " XOXXXXOOXOOXO \n"
      " OOOOXORXXXOOR \n"
      " XOOXXXOXOXOXX \n"
      "  RXXOORXXXOO  \n"
      "   XXROORXXX   \n"
      "    OOXXXOR    \n"
      "               \n";
  const models::WaferSpec wafer =
      pin_wafer_spec(sim::RamGeometry{4096, 4, 4, 4});
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const models::WaferResult r = models::simulate_wafer(wafer, 7);
    EXPECT_EQ(r.dies_total, 145);
    EXPECT_EQ(r.good, 59);
    EXPECT_EQ(r.repaired, 12);
    EXPECT_EQ(r.bad, 74);
    EXPECT_EQ(models::render_wafer(r), map);
  }
}

TEST(ThreadInvariance, ReliabilityCampaign) {
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 8;
  expect_thread_invariant(
      [&] {
        return models::reliability_mc(
                   g, 1e-9, 5e5,
                   sim::CampaignSpec{.trials = 4000, .seed = 2024})
            .value;
      },
      [](double ref, double got, int threads) {
        EXPECT_EQ(ref, got) << threads << " threads";
      });
}

TEST(ThreadInvariance, WaferMapCampaign) {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = sim::RamGeometry{4096, 4, 4, 4};
  expect_thread_invariant(
      [&] { return models::simulate_wafer(w, 7); },
      [](const models::WaferResult& ref, const models::WaferResult& got,
         int threads) {
        EXPECT_EQ(ref.dies_total, got.dies_total) << threads;
        EXPECT_EQ(ref.good, got.good) << threads;
        EXPECT_EQ(ref.repaired, got.repaired) << threads;
        EXPECT_EQ(ref.bad, got.bad) << threads;
        EXPECT_EQ(ref.map, got.map) << threads;  // cell-exact wafer map
      });
}

TEST(ThreadInvariance, BaselineComparisonCampaign) {
  expect_thread_invariant(
      [&] {
        sim::RamGeometry g;
        g.words = 4096;
        g.bpw = 4;
        g.bpc = 4;
        g.spare_rows = 4;
        return sim::compare_schemes(g, 12, 400, 5, 16, 2, 0.01);
      },
      [](const sim::SchemeComparison& ref, const sim::SchemeComparison& got,
         int threads) {
        EXPECT_EQ(ref.bisramgen, got.bisramgen) << threads;
        EXPECT_EQ(ref.chen_sunada, got.chen_sunada) << threads;
        EXPECT_EQ(ref.sawada, got.sawada) << threads;
      });
}

TEST(ThreadInvariance, InfraFaultCampaign) {
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 1;
  expect_thread_invariant(
      [&] {
        return sim::infra_fault_campaign(
                   small_geo(), cfg,
                   sim::CampaignSpec{.trials = 96, .seed = 13})
            .value;
      },
      [](const sim::InfraCampaignReport& ref,
         const sim::InfraCampaignReport& got, int threads) {
        EXPECT_EQ(ref.trials, got.trials) << threads;
        for (int k = 0; k < sim::kInfraFaultKindCount; ++k)
          for (int o = 0; o < sim::kInfraOutcomeCount; ++o)
            EXPECT_EQ(ref.count(static_cast<sim::InfraFaultKind>(k),
                                static_cast<sim::InfraOutcome>(o)),
                      got.count(static_cast<sim::InfraFaultKind>(k),
                                static_cast<sim::InfraOutcome>(o)))
                << threads << " threads, kind " << k << ", outcome " << o;
      });
}

TEST(ThreadInvariance, YieldInfraMonteCarloCampaign) {
  expect_thread_invariant(
      [&] {
        return models::bisr_yield_mc_with_infra(
                   small_geo(), 2.0, 2.0, 1.05, 0.08,
                   sim::CampaignSpec{.trials = 80, .seed = 7})
            .value;
      },
      [](const models::BisrYieldMcInfra& ref,
         const models::BisrYieldMcInfra& got, int threads) {
        EXPECT_EQ(ref.bist_reported_good, got.bist_reported_good) << threads;
        EXPECT_EQ(ref.effective_good, got.effective_good) << threads;
        EXPECT_EQ(ref.escape, got.escape) << threads;
        EXPECT_EQ(ref.safe_fail, got.safe_fail) << threads;
        EXPECT_EQ(ref.hung, got.hung) << threads;
      });
}

// --- cooperative cancellation ---------------------------------------
// The cancellation contract has two halves: a token that never fires
// must leave every campaign bit-identical to a run with no token at
// all, and a token that does fire must still yield a *valid* partial
// estimate (normalized over the trials that finished) labelled with the
// right Termination. The mid-run test doubles as the TSan exercise of
// the cancel path (this suite runs under -DBISRAM_SANITIZE=thread).

models::WaferSpec cancel_wafer_spec() {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = small_geo();
  return w;
}

TEST(Cancellation, SilentTokenIsBitIdentical) {
  const models::WaferSpec wafer = cancel_wafer_spec();
  auto run = [&](const CancelToken* token) {
    sim::CampaignSpec s{.trials = 4000, .seed = 11};
    s.cancel = token;
    return models::wafer_yield_campaign(wafer, s);
  };
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    const auto plain = run(nullptr);
    CancelToken silent;
    const auto tokened = run(&silent);
    EXPECT_EQ(plain.value.yield_with_bisr, tokened.value.yield_with_bisr)
        << threads << " threads";
    EXPECT_EQ(plain.value.yield_with_bisr_se,
              tokened.value.yield_with_bisr_se);
    EXPECT_EQ(plain.value.mean_defects_per_die,
              tokened.value.mean_defects_per_die);
    EXPECT_EQ(tokened.termination, Termination::Completed);
  }
}

TEST(Cancellation, PreCancelledReturnsEmptyValidPartial) {
  CancelToken token;
  token.cancel();
  sim::CampaignSpec s{.trials = 4000, .seed = 11};
  s.cancel = &token;
  const auto r = models::wafer_yield_campaign(cancel_wafer_spec(), s);
  EXPECT_EQ(r.termination, Termination::Cancelled);
  EXPECT_EQ(r.provenance.trials_done, 0);
  EXPECT_EQ(r.value.die_sims, 0);
}

TEST(Cancellation, ExpiredDeadlineReportsDeadline) {
  CancelToken token;
  token.set_deadline_after_ms(0.0);  // already expired
  ASSERT_TRUE(token.expired());
  sim::CampaignSpec s{.trials = 2000, .seed = 5};
  s.cancel = &token;
  const auto r = models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0,
                                                 1.05, s);
  EXPECT_EQ(r.termination, Termination::Deadline);
  // An explicit cancel on top of an expired deadline wins the label.
  token.cancel();
  const auto r2 = models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0,
                                                  1.05, s);
  EXPECT_EQ(r2.termination, Termination::Cancelled);
}

TEST(Cancellation, MidRunCancelReturnsValidPartialEstimate) {
  ThreadGuard guard(8);
  const models::WaferSpec wafer = cancel_wafer_spec();
  sim::CampaignSpec s{.trials = 50'000'000, .seed = 23};
  CancelToken token;
  s.cancel = &token;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token.cancel();
  });
  const auto r = models::wafer_yield_campaign(wafer, s);
  killer.join();
  EXPECT_EQ(r.termination, Termination::Cancelled);
  EXPECT_LT(r.provenance.trials_done, s.trials);
  EXPECT_EQ(r.value.die_sims, r.provenance.trials_done);
  if (r.provenance.trials_done > 0) {
    EXPECT_GE(r.value.yield_with_bisr, 0.0);
    EXPECT_LE(r.value.yield_with_bisr, 1.0);
    EXPECT_GE(r.value.yield_with_bisr, r.value.yield_without_bisr);
  }
}

TEST(Cancellation, FaultCoverageSkipsUnreachedKinds) {
  const std::vector<sim::FaultKind> kinds = {sim::FaultKind::StuckAt0,
                                             sim::FaultKind::StuckAt1,
                                             sim::FaultKind::StuckOpen};
  CancelToken token;
  token.cancel();
  sim::CampaignSpec s{.trials = 48, .seed = 17};
  s.cancel = &token;
  const auto r =
      sim::fault_coverage(march::ifa9(), small_geo(), kinds, true, s);
  EXPECT_EQ(r.termination, Termination::Cancelled);
  // The first kind reports the zero trials it completed; later kinds
  // are absent rather than fabricated.
  ASSERT_EQ(r.value.size(), 1u);
  EXPECT_EQ(r.value[0].total, 0);
}

TEST(Cancellation, RoundCancelFoldsAPrefixOfTheStreams) {
  // Six streams of 12 trials run as one round (no checkpoint, no pause).
  // The trial body cancels the token at stream 3, trial 5; trials of
  // later streams wait for it, so no worker can finish the round first.
  // Each fold is the list of its trials' first draws, so it shows which
  // of the stream's trials were folded, and in what order.
  constexpr std::uint64_t kSeed = 99;
  std::vector<sim::CampaignStream> streams;
  for (std::uint64_t s = 0; s < 6; ++s)
    streams.push_back({1000 * s, 12, /*chunk=*/s % 2 ? 2 : 3, /*grain=*/6});
  const auto draw = [&](std::size_t s, std::int64_t t) {
    return Rng(stream_seed(kSeed, streams[s].offset +
                                      static_cast<std::uint64_t>(t)))
        .next();
  };
  const std::uint64_t stop = draw(3, 5);
  using Draws = std::vector<std::uint64_t>;
  for (int threads : kThreadCounts) {
    CancelToken token;
    sim::CampaignSpec spec;
    spec.trials = 12;
    spec.seed = kSeed;
    spec.threads = threads;
    spec.cancel = &token;
    const auto run = sim::run_streams<Draws>(
        spec, streams, Draws{},
        [&](std::size_t s, Rng& rng, sim::KernelTally&) {
          const std::uint64_t x = rng.next();
          if (x == stop) token.cancel();
          while (s > 3 && !token.cancelled()) std::this_thread::yield();
          return Draws{x};
        },
        [](Draws a, Draws b) {
          a.insert(a.end(), b.begin(), b.end());
          return a;
        },
        "round cancel test");
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_EQ(run.termination, Termination::Cancelled);
    // The campaign stopped in stream started - 1, at or after the trial
    // that cancelled; one thread stops at the end of that trial's chunk.
    ASSERT_GE(run.started, 4u);
    const std::size_t stopped = run.started - 1;
    EXPECT_TRUE(stopped > 3 || run.done[3] >= 6);
    if (threads == 1) {
      EXPECT_EQ(run.started, 4u);
      EXPECT_EQ(run.done[3], 6);
    }
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (s < stopped) EXPECT_EQ(run.done[s], 12) << "stream " << s;
      if (s > stopped) EXPECT_EQ(run.done[s], 0) << "stream " << s;
      Draws want;
      for (std::int64_t t = 0; t < run.done[s]; ++t) want.push_back(draw(s, t));
      EXPECT_EQ(run.folds[s], want) << "stream " << s;
      sum += run.done[s];
    }
    EXPECT_EQ(run.provenance.trials_done, sum);
  }
}

TEST(Cancellation, InfraFaultCampaignLabelsCutRuns) {
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 1;
  CancelToken token;
  token.set_deadline_after_ms(0.0);  // already expired
  sim::CampaignSpec s{.trials = 96, .seed = 13};
  s.cancel = &token;
  const auto late = sim::infra_fault_campaign(small_geo(), cfg, s);
  EXPECT_EQ(late.termination, Termination::Deadline);
  EXPECT_EQ(late.provenance.trials_done, 0);
  EXPECT_EQ(late.value.trials, 0);
  token.cancel();
  const auto cut = sim::infra_fault_campaign(small_geo(), cfg, s);
  EXPECT_EQ(cut.termination, Termination::Cancelled);
  EXPECT_EQ(cut.provenance.trials_done, 0);
  EXPECT_EQ(cut.value.trials, 0);
}

TEST(ReliabilityMc, AgreesWithAnalyticModel) {
  // The MC campaign is only worth parallelizing if it estimates the same
  // quantity the closed form computes.
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 8;
  const double lam = 1e-9;
  for (double t : {1e5, 5e5, 1e6}) {
    const double analytic = models::reliability(g, lam, t);
    const double mc =
        models::reliability_mc(
            g, lam, t, sim::CampaignSpec{.trials = 6000, .seed = 31})
            .value;
    EXPECT_NEAR(mc, analytic, 0.02) << "t = " << t;
  }
}

}  // namespace
}  // namespace bisram
