// The unified campaign API contract (sim/campaign.hpp):
//   * rerunning the same CampaignSpec reproduces every result bit-for-bit
//     (the reproducibility the retired (trials, seed) forwarders relied
//     on), for all five campaigns;
//   * provenance audits the dispatch (packed + scalar == trials) and the
//     resolved thread count;
//   * results are thread-count invariant through spec.threads;
//   * campaigns with no RAM simulation to pack reject a forced packed
//     kernel with SpecError;
//   * kernel_name / kernel_by_name round-trip;
// plus the Cli parser (util/cli.hpp) the bench harnesses now share.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "models/reliability.hpp"
#include "models/yield.hpp"
#include "sim/fault_sim.hpp"
#include "sim/infra_faults.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"

namespace {

using namespace bisram;
using sim::CampaignSpec;
using sim::SimKernel;

sim::RamGeometry small_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

CampaignSpec spec_of(int trials, std::uint64_t seed) {
  CampaignSpec s;
  s.trials = trials;
  s.seed = seed;
  return s;
}

// --- reproducibility and dispatch provenance --------------------------------

TEST(CampaignProvenance, FaultCoverageReproducibleAndAuditsDispatch) {
  const auto geo = small_geo();
  const std::vector<sim::FaultKind> kinds = {sim::FaultKind::StuckAt0,
                                             sim::FaultKind::CouplingIdem,
                                             sim::FaultKind::StuckOpen};
  const auto first = sim::fault_coverage(march::ifa9(), geo, kinds, true,
                                         spec_of(20, 77));
  const auto again = sim::fault_coverage(march::ifa9(), geo, kinds, true,
                                         spec_of(20, 77));
  ASSERT_EQ(first.value.size(), again.value.size());
  for (std::size_t i = 0; i < first.value.size(); ++i) {
    EXPECT_EQ(first.value[i].kind, again.value[i].kind);
    EXPECT_EQ(first.value[i].detected, again.value[i].detected);
    EXPECT_EQ(first.value[i].total, again.value[i].total);
  }
  // Provenance sums over the per-kind segments.
  EXPECT_EQ(first.provenance.trials, 60);
  EXPECT_EQ(first.provenance.packed_trials + first.provenance.scalar_trials,
            first.provenance.trials);
  // Every kind, StuckOpen included, runs on the packed kernel.
  EXPECT_EQ(first.provenance.packed_trials, 60);
  EXPECT_EQ(first.provenance.scalar_trials, 0);
}

TEST(CampaignProvenance, RepairProbabilityMcReproducible) {
  const auto geo = small_geo();
  const auto first = models::repair_probability_mc(geo, 6, spec_of(300, 9));
  const auto again = models::repair_probability_mc(geo, 6, spec_of(300, 9));
  EXPECT_EQ(first.value, again.value);
  EXPECT_EQ(first.provenance.trials, 300);
  EXPECT_EQ(first.provenance.seed, 9u);
}

TEST(CampaignProvenance, BisrYieldMcWithBistPacksEveryTrial) {
  const auto geo = small_geo();
  const auto first =
      models::bisr_yield_mc_with_bist(geo, 3.0, 2.0, 1.05, spec_of(60, 7));
  const auto again =
      models::bisr_yield_mc_with_bist(geo, 3.0, 2.0, 1.05, spec_of(60, 7));
  EXPECT_EQ(first.value.bist_repaired, again.value.bist_repaired);
  EXPECT_EQ(first.value.strict_good, again.value.strict_good);
  // Every sampled fault is a stuck-at, so Auto packs every trial.
  EXPECT_EQ(first.provenance.packed_trials, 60);
  EXPECT_EQ(first.provenance.scalar_trials, 0);
}

TEST(CampaignProvenance, ReliabilityMcReproducible) {
  const auto geo = small_geo();
  const auto first = models::reliability_mc(geo, 1e-9, 5e5, spec_of(400, 31));
  const auto again = models::reliability_mc(geo, 1e-9, 5e5, spec_of(400, 31));
  EXPECT_EQ(first.value, again.value);
  EXPECT_EQ(first.provenance.trials, 400);
}

TEST(CampaignProvenance, InfraFaultCampaignStaysScalar) {
  const auto geo = small_geo();
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 1;
  const auto first = sim::infra_fault_campaign(geo, cfg, spec_of(48, 11));
  const auto again = sim::infra_fault_campaign(geo, cfg, spec_of(48, 11));
  EXPECT_EQ(first.value.trials, again.value.trials);
  EXPECT_EQ(first.value.counts, again.value.counts);
  // Infra trials always run the scalar machinery.
  EXPECT_EQ(first.provenance.scalar_trials, 48);
  EXPECT_EQ(first.provenance.packed_trials, 0);
}

// --- thread invariance through spec.threads ---------------------------------

TEST(CampaignThreads, BisrYieldMcInvariantAcrossSpecThreads) {
  const auto geo = small_geo();
  CampaignSpec base = spec_of(40, 5);
  base.threads = 1;
  const auto ref = models::bisr_yield_mc_with_bist(geo, 3.0, 2.0, 1.05, base);
  for (int threads : {2, 8}) {
    CampaignSpec s = base;
    s.threads = threads;
    const auto got = models::bisr_yield_mc_with_bist(geo, 3.0, 2.0, 1.05, s);
    EXPECT_EQ(ref.value.bist_repaired, got.value.bist_repaired)
        << "threads=" << threads;
    EXPECT_EQ(ref.value.strict_good, got.value.strict_good)
        << "threads=" << threads;
    EXPECT_EQ(got.provenance.threads, threads);
  }
}

TEST(CampaignThreads, FaultCoverageInvariantAcrossSpecThreadsAndKernel) {
  const auto geo = small_geo();
  const std::vector<sim::FaultKind> kinds = {sim::FaultKind::StuckAt1,
                                             sim::FaultKind::CouplingInv,
                                             sim::FaultKind::StuckOpen};
  CampaignSpec base = spec_of(16, 21);
  base.threads = 1;
  base.kernel = SimKernel::Scalar;
  const auto ref = sim::fault_coverage(march::ifa9(), geo, kinds, true, base);
  for (int threads : {1, 2, 8}) {
    for (SimKernel k :
         {SimKernel::Auto, SimKernel::Packed, SimKernel::Scalar}) {
      CampaignSpec s = base;
      s.threads = threads;
      s.kernel = k;
      const auto got = sim::fault_coverage(march::ifa9(), geo, kinds, true, s);
      ASSERT_EQ(ref.value.size(), got.value.size());
      for (std::size_t i = 0; i < ref.value.size(); ++i)
        EXPECT_EQ(ref.value[i].detected, got.value[i].detected)
            << "threads=" << threads << " kernel=" << sim::kernel_name(k);
    }
  }
}

// --- kernel dispatch errors -------------------------------------------------

TEST(CampaignKernel, ReliabilityMcRejectsForcedPacked) {
  CampaignSpec s = spec_of(10, 1);
  s.kernel = SimKernel::Packed;
  EXPECT_THROW(models::reliability_mc(small_geo(), 1e-9, 1e5, s), SpecError);
}

TEST(CampaignKernel, InfraFaultCampaignRejectsForcedPacked) {
  CampaignSpec s = spec_of(10, 1);
  s.kernel = SimKernel::Packed;
  sim::InfraTrialConfig cfg;
  EXPECT_THROW(sim::infra_fault_campaign(small_geo(), cfg, s), SpecError);
}

TEST(CampaignKernel, NameRoundTrip) {
  for (SimKernel k :
       {SimKernel::Auto, SimKernel::Packed, SimKernel::Scalar})
    EXPECT_EQ(k, sim::kernel_by_name(sim::kernel_name(k)));
  EXPECT_THROW(sim::kernel_by_name("vectorized"), SpecError);
  EXPECT_THROW(sim::kernel_by_name(""), SpecError);
}

// --- the shared Cli parser --------------------------------------------------

struct CliFixture {
  int trials = 100;
  std::uint64_t seed = 1;
  int threads = 0;
  double gate = 2.0;
  std::string kernel = "auto";
  bool json = false;
  std::string json_path;
  bool verbose = false;
  Cli cli{"prog", "test program"};

  CliFixture() {
    cli.value("--trials", &trials, "trial count")
        .value("--seed", &seed, "seed")
        .value("--threads", &threads, "threads")
        .value("--gate-size", &gate, "gate", "X")
        .value("--kernel", &kernel, "kernel", "K")
        .flag("--verbose", &verbose, "talk more")
        .optional_value("--json", &json, &json_path, "json report")
        .passthrough_prefix("--benchmark_");
  }

  bool parse(std::vector<std::string> args, std::string* error_out = nullptr,
             bool* help_out = nullptr) {
    std::string error;
    bool help = false;
    const bool ok = cli.try_parse(args, error, help);
    remaining = args;
    if (error_out) *error_out = error;
    if (help_out) *help_out = help;
    return ok;
  }

  std::vector<std::string> remaining;
};

TEST(CliParser, ParsesSeparateAndAttachedValues) {
  CliFixture f;
  ASSERT_TRUE(f.parse({"--trials", "42", "--seed=9", "--gate-size", "1.5",
                       "--kernel=packed", "--verbose"}));
  EXPECT_EQ(f.trials, 42);
  EXPECT_EQ(f.seed, 9u);
  EXPECT_EQ(f.gate, 1.5);
  EXPECT_EQ(f.kernel, "packed");
  EXPECT_TRUE(f.verbose);
  EXPECT_TRUE(f.remaining.empty());
}

TEST(CliParser, OptionalValueWithAndWithoutFile) {
  CliFixture f;
  ASSERT_TRUE(f.parse({"--json"}));
  EXPECT_TRUE(f.json);
  EXPECT_TRUE(f.json_path.empty());

  CliFixture g;
  ASSERT_TRUE(g.parse({"--json", "out.json", "--trials", "3"}));
  EXPECT_TRUE(g.json);
  EXPECT_EQ(g.json_path, "out.json");
  EXPECT_EQ(g.trials, 3);

  // The next token is not consumed as a value when it looks like a flag.
  CliFixture h;
  ASSERT_TRUE(h.parse({"--json", "--trials", "5"}));
  EXPECT_TRUE(h.json);
  EXPECT_TRUE(h.json_path.empty());
  EXPECT_EQ(h.trials, 5);
}

TEST(CliParser, RejectsUnknownFlagsUniformly) {
  CliFixture f;
  std::string error;
  EXPECT_FALSE(f.parse({"--trails", "10"}, &error));
  EXPECT_NE(error.find("--trails"), std::string::npos);

  CliFixture g;
  EXPECT_FALSE(g.parse({"positional"}, &error));

  CliFixture h;
  EXPECT_FALSE(h.parse({"--verbose=yes"}, &error));  // flag takes no value
}

TEST(CliParser, RejectsMalformedNumbers) {
  std::string error;
  CliFixture a;
  EXPECT_FALSE(a.parse({"--trials", "12abc"}, &error));
  CliFixture b;
  EXPECT_FALSE(b.parse({"--trials"}, &error));  // missing value
  CliFixture c;
  EXPECT_FALSE(c.parse({"--gate-size", "much"}, &error));
  CliFixture d;
  EXPECT_FALSE(d.parse({"--seed", "-4"}, &error));  // unsigned target
}

TEST(CliParser, KeepsPassthroughTokens) {
  CliFixture f;
  ASSERT_TRUE(f.parse({"--trials", "8", "--benchmark_filter=BM_Foo",
                       "--benchmark_min_time=0.1"}));
  EXPECT_EQ(f.trials, 8);
  ASSERT_EQ(f.remaining.size(), 2u);
  EXPECT_EQ(f.remaining[0], "--benchmark_filter=BM_Foo");
  EXPECT_EQ(f.remaining[1], "--benchmark_min_time=0.1");
}

TEST(CliParser, HelpIsReportedNotFatal) {
  CliFixture f;
  bool help = false;
  ASSERT_TRUE(f.parse({"--help"}, nullptr, &help));
  EXPECT_TRUE(help);
  const std::string u = f.cli.usage();
  EXPECT_NE(u.find("--trials"), std::string::npos);
  EXPECT_NE(u.find("--json"), std::string::npos);
  EXPECT_NE(u.find("test program"), std::string::npos);
}

}  // namespace
