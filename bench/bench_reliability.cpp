// Reproduces Fig. 5: reliability versus device age for a RAM with BISR,
// defect rate 1e-6 per kilo-hour per memory cell (1e-9 per hour), 1024
// regular rows, bpc = 4, bpw = 4. The paper's headline: "the reliability
// increases with the number of spares only after a certain age of the
// device... the reliability with four spare rows is greater than that
// with eight spare rows until the age of the device becomes about
// 8 years (i.e. 70,000 h after manufacture)". We print the curves, the
// measured crossover, and the MTTF per spare count.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "models/reliability.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;
using sim::CampaignSpec;

sim::RamGeometry fig5_geometry(int spares) {
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = spares;
  return g;
}

constexpr double kLambda = 1e-9;  // per cell per hour

void print_fig5(const CampaignSpec& spec) {
  std::printf(
      "\n=== Fig. 5: reliability vs age (1024 rows, bpc=4, bpw=4, "
      "lambda=1e-6/kh/cell) ===\n");
  TextTable t;
  t.header({"hours", "no spares", "4 spares", "8 spares", "16 spares"});
  for (double h : {0.0, 1e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7}) {
    t.row({strfmt("%.0e", h),
           strfmt("%.6f", models::reliability(fig5_geometry(0), kLambda, h)),
           strfmt("%.6f", models::reliability(fig5_geometry(4), kLambda, h)),
           strfmt("%.6f", models::reliability(fig5_geometry(8), kLambda, h)),
           strfmt("%.6f",
                  models::reliability(fig5_geometry(16), kLambda, h))});
  }
  std::printf("%s", t.render().c_str());

  const double cross48 =
      models::reliability_crossover_hours(fig5_geometry(0), 4, 8, kLambda, 5e7);
  const double cross816 = models::reliability_crossover_hours(
      fig5_geometry(0), 8, 16, kLambda, 5e7);
  std::printf(
      "crossover 4 vs 8 spares: %.3g h (%.1f years); paper reports ~7e4 h "
      "(8 years)\n",
      cross48, cross48 / 8766.0);
  std::printf("crossover 8 vs 16 spares: %.3g h (%.1f years)\n", cross816,
              cross816 / 8766.0);

  // Monte-Carlo cross-check of the analytic curve (exact word-failure
  // pattern sampling on the deterministic parallel engine).
  std::printf("Monte-Carlo spot checks (8 spares, %d trials):\n", spec.trials);
  for (double h : {1e5, 5e5, 1e6}) {
    const double analytic = models::reliability(fig5_geometry(8), kLambda, h);
    const double mc =
        models::reliability_mc(fig5_geometry(8), kLambda, h, spec).value;
    std::printf("  t = %.0e h: analytic %.4f  monte-carlo %.4f\n", h,
                analytic, mc);
  }

  TextTable mt;
  mt.header({"spares", "MTTF hours", "MTTF years"});
  for (int s : {0, 4, 8, 16}) {
    const double m = models::mttf_hours(fig5_geometry(s), kLambda);
    mt.row({std::to_string(s), strfmt("%.4g", m), strfmt("%.1f", m / 8766.0)});
  }
  std::printf("%s", mt.render().c_str());
  std::printf(
      "paper shape check: early life favours fewer spares (the extra spare "
      "cells must all stay alive), late life favours more spares; MTTF "
      "grows monotonically with spares.\n");
}

// Machine-readable variant of print_fig5() for --json: the analytic
// curves, the crossovers, the MTTF table and the Monte-Carlo spot checks
// with their campaign provenance.
void print_fig5_json(const CampaignSpec& spec, const std::string& path) {
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("reliability");
  j.key("lambda_per_hour").value(kLambda);
  j.key("curve").begin_array();
  for (double h : {0.0, 1e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7}) {
    j.begin_object();
    j.key("hours").value(h);
    j.key("no_spares").value(models::reliability(fig5_geometry(0), kLambda, h));
    j.key("spares4").value(models::reliability(fig5_geometry(4), kLambda, h));
    j.key("spares8").value(models::reliability(fig5_geometry(8), kLambda, h));
    j.key("spares16").value(models::reliability(fig5_geometry(16), kLambda, h));
    j.end_object();
  }
  j.end_array();
  j.key("crossover_hours_4v8")
      .value(models::reliability_crossover_hours(fig5_geometry(0), 4, 8,
                                                 kLambda, 5e7));
  j.key("crossover_hours_8v16")
      .value(models::reliability_crossover_hours(fig5_geometry(0), 8, 16,
                                                 kLambda, 5e7));
  j.key("mttf_hours").begin_object();
  for (int s : {0, 4, 8, 16})
    j.key(("spares" + std::to_string(s)).c_str())
        .value(models::mttf_hours(fig5_geometry(s), kLambda));
  j.end_object();
  j.key("mc_spot_checks").begin_array();
  sim::CampaignProvenance prov;
  for (double h : {1e5, 5e5, 1e6}) {
    const auto mc = models::reliability_mc(fig5_geometry(8), kLambda, h, spec);
    prov = mc.provenance;
    j.begin_object();
    j.key("hours").value(h);
    j.key("analytic").value(models::reliability(fig5_geometry(8), kLambda, h));
    j.key("monte_carlo").value(mc.value);
    j.end_object();
  }
  j.end_array();
  j.key("provenance").begin_object();
  j.key("seed").value(spec.seed);
  j.key("threads").value(prov.threads);
  j.key("trials_per_check").value(spec.trials);
  j.end_object();
  j.end_object();
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_reliability: cannot write '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_ReliabilityEval(benchmark::State& state) {
  const auto geo = fig5_geometry(4);
  for (auto _ : state)
    benchmark::DoNotOptimize(models::reliability(geo, kLambda, 1e6));
}
BENCHMARK(BM_ReliabilityEval);

void BM_Mttf(benchmark::State& state) {
  const auto geo = fig5_geometry(static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(models::mttf_hours(geo, kLambda));
}
BENCHMARK(BM_Mttf)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.trials = 6000;
  spec.seed = 31;
  bool json = false;
  std::string json_path;
  Cli cli("bench_reliability",
          "Fig. 5 reliability-vs-age curves, crossovers and MTTF.");
  cli.value("--trials", &spec.trials, "Monte-Carlo trials per spot check")
      .value("--seed", &spec.seed, "campaign seed")
      .value("--threads", &spec.threads,
             "worker threads (0 = BISRAM_THREADS or hardware)")
      .optional_value("--json", &json, &json_path,
                      "emit the report as JSON (to FILE or stdout) and skip "
                      "the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    print_fig5_json(spec, json_path);
    return 0;
  }
  print_fig5(spec);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
