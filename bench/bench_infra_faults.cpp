// The robustness question the paper leaves open: what happens when the
// layout defects land in the repair machinery itself? This harness runs
// the infra-fault campaign (sim/infra_faults.hpp) and prints the outcome
// distribution per fault class — benign / safe-fail / escape / hung —
// for a clean array and for an array that additionally carries cell
// faults, then the yield impact: the tester-visible ("BIST said OK")
// yield versus the effective yield once escapes are discounted.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "models/yield.hpp"
#include "sim/infra_faults.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;
using sim::CampaignSpec;
using sim::InfraFaultKind;
using sim::InfraOutcome;

sim::RamGeometry bench_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

constexpr int kTrials = 240;

sim::InfraCampaignReport run_campaign(int array_faults,
                                      const CampaignSpec& base,
                                      std::uint64_t seed_offset) {
  sim::InfraTrialConfig cfg;
  cfg.array_faults = array_faults;
  CampaignSpec spec = base;
  spec.seed = base.seed + seed_offset;
  return sim::infra_fault_campaign(bench_geo(), cfg, spec).value;
}

void print_outcome_table(const sim::InfraCampaignReport& rep) {
  TextTable t;
  t.header({"fault class", "benign", "safe-fail", "escape", "hung"});
  for (int k = 0; k < sim::kInfraFaultKindCount; ++k) {
    const auto kind = static_cast<InfraFaultKind>(k);
    std::vector<std::string> row = {sim::infra_fault_name(kind)};
    for (int o = 0; o < sim::kInfraOutcomeCount; ++o)
      row.push_back(strfmt(
          "%lld", static_cast<long long>(
                      rep.count(kind, static_cast<InfraOutcome>(o)))));
    t.row(row);
  }
  std::printf("%s", t.render().c_str());
  std::printf("  totals over %lld trials: benign %.1f%%  safe-fail %.1f%%  "
              "escape %.1f%%  hung %.1f%%\n",
              static_cast<long long>(rep.trials),
              100.0 * rep.rate(InfraOutcome::Benign),
              100.0 * rep.rate(InfraOutcome::SafeFail),
              100.0 * rep.rate(InfraOutcome::Escape),
              100.0 * rep.rate(InfraOutcome::Hung));
}

void print_report(const CampaignSpec& spec) {
  std::printf("\n=== Infrastructure fault campaign (defects in the repair "
              "machinery, %d trials) ===\n",
              spec.trials);
  std::printf("\nclean array (the infra fault is the only defect):\n");
  print_outcome_table(run_campaign(0, spec, 0));
  std::printf("\narray additionally carrying 2 random stuck-at cells (the "
              "broken engine must actually repair):\n");
  print_outcome_table(run_campaign(2, spec, 1));

  std::printf("\nyield impact (alpha=2, growth 1.06, repair logic 6%% of "
              "die area):\n");
  TextTable t;
  t.header({"defect mean", "sampling", "BIST-reported", "effective",
            "escape", "safe-fail", "hung", "die sims",
            "analytic logic-yield"});
  for (double m : {0.5, 2.0, 6.0}) {
    for (const auto mode :
         {sim::SamplingMode::Plain, sim::SamplingMode::Stratified}) {
      CampaignSpec yspec;
      yspec.trials = 400;
      yspec.seed = 4242;
      yspec.sampling.mode = mode;
      const auto y = models::bisr_yield_mc_with_infra(bench_geo(), m, 2.0,
                                                      1.06, 0.06, yspec);
      t.row({strfmt("%.1f", m), sim::sampling_name(mode),
             strfmt("%.3f±%.3f", y.value.bist_reported_good,
                    y.value.bist_reported_good_se),
             strfmt("%.3f±%.3f", y.value.effective_good,
                    y.value.effective_good_se),
             strfmt("%.3f", y.value.escape), strfmt("%.3f", y.value.safe_fail),
             strfmt("%.3f", y.value.hung),
             strfmt("%lld", static_cast<long long>(y.value.die_sims)),
             strfmt("%.3f", models::repair_logic_yield(m, 2.0, 1.06, 0.06))});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf("check: escapes are the gap between the tester-visible and "
              "the effective yield; the hung fraction is the watchdog's "
              "graceful-degradation bucket. Both sampling modes estimate "
              "the same quantities — stratified does it with far fewer "
              "die simulations at low defect means.\n");
}

void print_report_json(const CampaignSpec& spec, const std::string& path) {
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("infra_faults");
  j.key("trials").value(spec.trials);
  j.key("campaigns").begin_array();
  for (int array_faults : {0, 2}) {
    const auto rep = run_campaign(array_faults, spec, array_faults == 0 ? 0 : 1);
    j.begin_object();
    j.key("array_faults").value(array_faults);
    j.key("by_kind").begin_array();
    for (int k = 0; k < sim::kInfraFaultKindCount; ++k) {
      const auto kind = static_cast<InfraFaultKind>(k);
      j.begin_object();
      j.key("fault").value(sim::infra_fault_name(kind));
      for (int o = 0; o < sim::kInfraOutcomeCount; ++o) {
        const auto out = static_cast<InfraOutcome>(o);
        j.key(sim::infra_outcome_name(out)).value(rep.count(kind, out));
      }
      j.end_object();
    }
    j.end_array();
    j.key("rates").begin_object();
    for (int o = 0; o < sim::kInfraOutcomeCount; ++o) {
      const auto out = static_cast<InfraOutcome>(o);
      j.key(sim::infra_outcome_name(out)).value(rep.rate(out));
    }
    j.end_object();
    j.end_object();
  }
  j.end_array();
  j.key("yield_impact").begin_array();
  for (double m : {0.5, 2.0, 6.0}) {
    for (const auto mode :
         {sim::SamplingMode::Plain, sim::SamplingMode::Stratified}) {
      CampaignSpec yspec;
      yspec.trials = 400;
      yspec.seed = 4242;
      yspec.sampling.mode = mode;
      const auto y = models::bisr_yield_mc_with_infra(bench_geo(), m, 2.0,
                                                      1.06, 0.06, yspec);
      j.begin_object();
      j.key("defect_mean").value(m);
      j.key("sampling").value(sim::sampling_name(mode));
      j.key("bist_reported_good").value(y.value.bist_reported_good);
      j.key("bist_reported_good_se").value(y.value.bist_reported_good_se);
      j.key("effective_good").value(y.value.effective_good);
      j.key("effective_good_se").value(y.value.effective_good_se);
      j.key("escape").value(y.value.escape);
      j.key("safe_fail").value(y.value.safe_fail);
      j.key("hung").value(y.value.hung);
      j.key("die_sims").value(y.value.die_sims);
      j.key("repair_logic_yield")
          .value(models::repair_logic_yield(m, 2.0, 1.06, 0.06));
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_infra_faults: cannot write '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_InfraTrial(benchmark::State& state) {
  const auto geo = bench_geo();
  const auto ctrl = microcode::build_trpla(*sim::BistConfig{}.test, 2);
  sim::InfraTrialConfig cfg;
  sim::InfraFault fault;
  fault.kind = InfraFaultKind::TlbValidStuck;
  fault.value = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_infra_trial(geo, ctrl, fault, {}, cfg).outcome);
  }
}
BENCHMARK(BM_InfraTrial)->Unit(benchmark::kMillisecond);

// Parallel-engine scaling of the campaign; the report is bit-identical
// at every thread count (tests/test_parallel_campaigns.cpp enforces it),
// so only the wall clock should move.
void BM_InfraCampaignThreads(benchmark::State& state) {
  const int prev = set_campaign_threads(static_cast<int>(state.range(0)));
  const auto geo = bench_geo();
  sim::InfraTrialConfig cfg;
  cfg.array_faults = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::infra_fault_campaign(geo, cfg,
                                  sim::CampaignSpec{.trials = 64, .seed = 11})
            .value.trials);
  }
  set_campaign_threads(prev);
}
BENCHMARK(BM_InfraCampaignThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.trials = kTrials;
  spec.seed = 2026;
  bool json = false;
  std::string json_path;
  Cli cli("bench_infra_faults",
          "Fault-injection campaign for the repair machinery itself.");
  cli.value("--trials", &spec.trials, "campaign trials per table")
      .value("--seed", &spec.seed, "campaign seed")
      .value("--threads", &spec.threads,
             "worker threads (0 = BISRAM_THREADS or hardware)")
      .optional_value("--json", &json, &json_path,
                      "emit the report as JSON (to FILE or stdout) and skip "
                      "the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    print_report_json(spec, json_path);
    return 0;
  }
  print_report(spec);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
