// Reproduces the Section V claims about the BIST scheme's coverage:
//   * "IFA-9 detects a wide range of functional faults caused by layout
//     defects; for example, stuck-at and stuck-open faults, transition
//     faults and state coupling faults" (with the IFA-13 refinement for
//     stuck-open, as in the Chen-Sunada comparison);
//   * "the data generator built by BISRAMGEN implements a Johnson
//     counter that allows multiple data backgrounds... This improves the
//     fault coverage for coupling faults between bits of the same word."
// The harness runs single-fault injection campaigns over the classic
// march tests and prints coverage per fault model, then the Johnson-
// background ablation.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "march/analysis.hpp"
#include "sim/fault_sim.hpp"
#include "sim/transparent.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;
using sim::CampaignSpec;
using sim::CouplingScope;
using sim::FaultKind;
using sim::SimKernel;

sim::RamGeometry bench_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

constexpr int kTrials = 60;

/// Campaign fault kinds. Every kind, StuckOpen included, runs on either
/// kernel, so the packed and scalar reports cover the same (test, fault)
/// pairs with the same faults drawn.
std::vector<FaultKind> campaign_kinds() {
  return {
      FaultKind::StuckAt0,      FaultKind::StuckAt1,
      FaultKind::TransitionUp,  FaultKind::TransitionDown,
      FaultKind::CouplingState, FaultKind::CouplingIdem,
      FaultKind::Retention,     FaultKind::StuckOpen,
  };
}

void print_coverage(const CampaignSpec& spec) {
  std::printf("\n=== Section V: march-test fault coverage (%d random "
              "single faults per cell, %s kernel) ===\n",
              spec.trials, sim::kernel_name(spec.kernel));
  const std::vector<FaultKind> kinds = campaign_kinds();
  const std::vector<std::pair<const char*, const march::MarchTest*>> tests = {
      {"IFA-9", &march::ifa9()},       {"IFA-13", &march::ifa13()},
      {"MATS+", &march::mats_plus()},  {"March C-", &march::march_c_minus()},
      {"March X", &march::march_x()},  {"March Y", &march::march_y()},
  };
  TextTable t;
  std::vector<std::string> header = {"fault"};
  for (const auto& [name, _] : tests) header.push_back(name);
  t.header(header);
  for (FaultKind kind : kinds) {
    std::vector<std::string> row = {sim::fault_name(kind)};
    for (const auto& [name, test] : tests) {
      const auto cov =
          sim::fault_coverage(*test, bench_geo(), {kind}, true, spec);
      row.push_back(strfmt("%.0f%%", 100.0 * cov.value[0].fraction()));
    }
    t.row(row);
  }
  std::printf("%s", t.render().c_str());

  // Proof-grade verdicts from the exhaustive small-memory analyzer
  // (src/march/analysis.hpp): a '-' prefix marks a class with escapes.
  std::printf("\nexact coverage analysis (exhaustive small-memory proof):\n");
  for (const auto& [name, test] : tests)
    std::printf("  %-9s %s\n", name, march::analyze(*test).summary().c_str());

  std::printf("\nJohnson-background ablation (intra-word state coupling, "
              "IFA-9):\n");
  // The ablation historically ran on its own stream, 12 past the main
  // tables' seed (17 -> 29 at the defaults).
  CampaignSpec ablation = spec;
  ablation.seed = spec.seed + 12;
  for (bool johnson : {false, true}) {
    const auto cov =
        sim::fault_coverage(march::ifa9(), bench_geo(),
                            {FaultKind::CouplingState}, johnson, ablation,
                            CouplingScope::IntraWord);
    std::printf("  %-18s %.0f%%\n",
                johnson ? "bpw+1 backgrounds:" : "single background:",
                100.0 * cov.value[0].fraction());
  }
  std::printf(
      "paper check: IFA-9 covers SAF/TF/CFst/DRF; IFA-13's verifying "
      "reads add SOF; Johnson backgrounds rescue intra-word coupling "
      "coverage.\n");

  // Transparent BIST (Kebichi-Nicolaidis, paper ref [8]): detection
  // without repair, contents preserved.
  std::printf("\ntransparent IFA-9 (signature-based, contents preserved):\n");
  Rng trng(41);
  int detected = 0, preserved_clean = 0;
  const int ttrials = 30;
  for (int i = 0; i < ttrials; ++i) {
    sim::RamModel ram(bench_geo());
    const sim::Fault f = sim::random_fault(FaultKind::StuckAt1, bench_geo(),
                                           trng);
    ram.array().inject(f);
    if (sim::transparent_ifa9(ram).fault_detected) ++detected;
  }
  for (int i = 0; i < 5; ++i) {
    sim::RamModel ram(bench_geo());
    if (sim::transparent_ifa9(ram).contents_preserved) ++preserved_clean;
  }
  std::printf("  SAF detection %d/%d, clean-RAM contents preserved %d/5, "
              "repair capability: none (as published)\n",
              detected, ttrials, preserved_clean);
}

// Machine-readable variant of print_coverage() for --json: the same
// campaigns, emitted as one JSON object (stdout or `path`), with the
// campaign provenance — kernel, threads, seed, per-kernel trial counts —
// so a CI artifact records exactly how the numbers were produced.
void print_coverage_json(const CampaignSpec& spec, const std::string& path) {
  const std::vector<FaultKind> kinds = campaign_kinds();
  const std::vector<std::pair<const char*, const march::MarchTest*>> tests = {
      {"IFA-9", &march::ifa9()},       {"IFA-13", &march::ifa13()},
      {"MATS+", &march::mats_plus()},  {"March C-", &march::march_c_minus()},
      {"March X", &march::march_x()},  {"March Y", &march::march_y()},
  };
  const sim::RamGeometry geo = bench_geo();
  sim::CampaignProvenance prov;
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("fault_coverage");
  j.key("geometry").begin_object();
  j.key("words").value(static_cast<std::int64_t>(geo.words));
  j.key("bpw").value(geo.bpw);
  j.key("bpc").value(geo.bpc);
  j.key("spare_rows").value(geo.spare_rows);
  j.end_object();
  j.key("trials_per_fault").value(spec.trials);
  j.key("coverage").begin_array();
  for (const auto& [name, test] : tests) {
    const auto cov = sim::fault_coverage(*test, geo, kinds, true, spec);
    prov.packed_trials += cov.provenance.packed_trials;
    prov.scalar_trials += cov.provenance.scalar_trials;
    prov.trials += cov.provenance.trials;
    prov.threads = cov.provenance.threads;
    for (const auto& c : cov.value) {
      j.begin_object();
      j.key("test").value(name);
      j.key("fault").value(sim::fault_name(c.kind));
      j.key("detected").value(c.detected);
      j.key("total").value(c.total);
      j.key("fraction").value(c.fraction());
      j.end_object();
    }
  }
  j.end_array();
  j.key("johnson_ablation").begin_object();
  CampaignSpec ablation = spec;
  ablation.seed = spec.seed + 12;
  for (bool johnson : {false, true}) {
    const auto cov =
        sim::fault_coverage(march::ifa9(), geo, {FaultKind::CouplingState},
                            johnson, ablation, CouplingScope::IntraWord);
    prov.packed_trials += cov.provenance.packed_trials;
    prov.scalar_trials += cov.provenance.scalar_trials;
    prov.trials += cov.provenance.trials;
    j.key(johnson ? "johnson_backgrounds" : "single_background")
        .value(cov.value[0].fraction());
  }
  j.end_object();
  j.key("provenance").begin_object();
  j.key("kernel").value(sim::kernel_name(spec.kernel));
  j.key("simd_level").value(simd_level_name(active_simd_level()));
  j.key("seed").value(spec.seed);
  j.key("threads").value(prov.threads);
  j.key("trials").value(prov.trials);
  j.key("packed_trials").value(prov.packed_trials);
  j.key("scalar_trials").value(prov.scalar_trials);
  j.end_object();
  j.end_object();
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_fault_coverage: cannot write '%s'\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_Ifa9Campaign(benchmark::State& state) {
  for (auto _ : state) {
    const auto cov =
        sim::fault_coverage(march::ifa9(), bench_geo(), {FaultKind::StuckAt0},
                            true, CampaignSpec{.trials = 10, .seed = 3});
    benchmark::DoNotOptimize(cov.value[0].detected);
  }
}
BENCHMARK(BM_Ifa9Campaign)->Unit(benchmark::kMillisecond);

// The tentpole measurement: the same single-thread campaign forced onto
// the scalar reference engine (Arg 0) and the packed kernel (Arg 1).
// Identical coverage counts, different wall clock — the packed kernel
// simulates only the words that hold the fault.
void BM_Ifa9CampaignKernel(benchmark::State& state) {
  CampaignSpec spec;
  spec.trials = 24;
  spec.seed = 3;
  spec.threads = 1;
  spec.kernel = state.range(0) == 0 ? SimKernel::Scalar : SimKernel::Packed;
  for (auto _ : state) {
    const auto cov = sim::fault_coverage(
        march::ifa9(), bench_geo(),
        {FaultKind::StuckAt0, FaultKind::CouplingIdem}, true, spec);
    benchmark::DoNotOptimize(cov.value[0].detected);
  }
  state.SetLabel(spec.kernel == SimKernel::Packed ? "packed" : "scalar");
}
BENCHMARK(BM_Ifa9CampaignKernel)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Parallel-engine scaling: the same campaign pinned to 1/2/4/8 threads.
// Results are bit-identical across the sweep (the determinism contract,
// enforced by tests/test_parallel_campaigns.cpp); only the wall clock
// should move, bounded by the machine's core count.
void BM_Ifa9CampaignThreads(benchmark::State& state) {
  const int prev = set_campaign_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto cov =
        sim::fault_coverage(march::ifa9(), bench_geo(), {FaultKind::StuckAt0},
                            true, CampaignSpec{.trials = 96, .seed = 3});
    benchmark::DoNotOptimize(cov.value[0].detected);
  }
  set_campaign_threads(prev);
}
BENCHMARK(BM_Ifa9CampaignThreads)
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
  spec.seed = 17;
  bool json = false;
  std::string json_path;
  std::string kernel = "packed";
  Cli cli("bench_fault_coverage",
          "Section V march-test fault-coverage campaigns.");
  cli.value("--trials", &spec.trials, "random faults per (test, kind) campaign")
      .value("--seed", &spec.seed, "campaign seed")
      .value("--threads", &spec.threads,
             "worker threads (0 = BISRAM_THREADS or hardware)")
      .value("--kernel", &kernel, "simulation kernel: packed|scalar", "K")
      .optional_value("--json", &json, &json_path,
                      "emit the report as JSON (to FILE or stdout) and skip "
                      "the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  try {
    spec.kernel = sim::kernel_by_name(kernel);
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_fault_coverage: %s\n%s", e.what(),
                 cli.usage().c_str());
    return 2;
  }
  if (json) {
    print_coverage_json(spec, json_path);
    return 0;
  }
  print_coverage(spec);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
