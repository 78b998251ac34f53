// Reproduces the Section VI timing claims: "the TLB produces a modest
// delay penalty (of about 1.2 ns with four spare rows and a 0.7-um
// technology)... at least an order of magnitude smaller than the RAM
// access time"; the penalty stays maskable for 1-4 spare rows and the
// tool "will allow a user to generate a RAM array with more spares but
// will not be able to guarantee that the TLB delay penalty can be
// masked". The harness sweeps spare rows and processes.

// `--json [FILE]` emits the sweep as a machine-readable table instead of
// running the Google benchmarks.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "core/timing.hpp"
#include "tech/tech.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;

void write_doc(const char* prog, const JsonWriter& j, const std::string& path) {
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", prog, path.c_str());
    std::exit(2);
  }
  std::fprintf(f, "%s\n", j.str().c_str());
  std::fclose(f);
}

sim::RamGeometry geo_with(int spares) {
  sim::RamGeometry g;
  g.words = 4096;
  g.bpw = 32;
  g.bpc = 4;
  g.spare_rows = spares;
  return g;
}

/// The leaf library of `tech` at the sweep's decoder width, which the
/// spare count does not change.
sta::LeafTiming leaf_of(const tech::Tech& tech) {
  return sta::characterize(
      tech, 2.0, log2_ceil(static_cast<std::uint64_t>(geo_with(0).rows())));
}

void print_tlb() {
  std::printf("\n=== Section VI: TLB address-diversion penalty ===\n");
  TextTable t;
  t.header({"process", "spares", "tlb ns", "access ns", "penalty ratio",
            "maskable (<= precharge phase)"});
  for (const auto& name : tech::technology_names()) {
    const tech::Tech& tech = tech::technology(name);
    const sta::LeafTiming lt = leaf_of(tech);
    for (int spares : {4, 8, 16}) {
      const core::TimingReport r =
          core::estimate_timing(tech, geo_with(spares), 2.0, lt);
      t.row({name, std::to_string(spares),
             strfmt("%.2f", r.tlb_penalty_s * 1e9),
             strfmt("%.2f", r.access_s * 1e9),
             strfmt("%.2f", r.penalty_ratio),
             r.penalty_ratio < 0.5 ? "yes" : "marginal"});
    }
  }
  std::printf("%s", t.render().c_str());
  const double p07 =
      core::tlb_penalty_s(tech::cda_07(), geo_with(4)) * 1e9;
  std::printf(
      "paper check: %.2f ns at 0.7 um with 4 spare rows (paper ~1.2 ns); "
      "penalty grows with spares, motivating the 1-4 spare-row guidance.\n",
      p07);
}

void tlb_json(const std::string& path) {
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("tlb_penalty");
  j.key("module").begin_object();
  j.key("words").value(static_cast<std::int64_t>(4096));
  j.key("bpw").value(32);
  j.key("bpc").value(4);
  j.end_object();
  j.key("sweep").begin_array();
  for (const auto& name : tech::technology_names()) {
    const tech::Tech& tech = tech::technology(name);
    const sta::LeafTiming lt = leaf_of(tech);
    for (int spares : {4, 8, 16}) {
      const core::TimingReport r =
          core::estimate_timing(tech, geo_with(spares), 2.0, lt);
      j.begin_object();
      j.key("process").value(name);
      j.key("spares").value(spares);
      j.key("tlb_ns").value(r.tlb_penalty_s * 1e9);
      j.key("access_ns").value(r.access_s * 1e9);
      j.key("penalty_ratio").value(r.penalty_ratio);
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  write_doc("bench_tlb_delay", j, path);
}

void BM_TimingEstimate(benchmark::State& state) {
  const auto geo = geo_with(4);
  const sta::LeafTiming lt = leaf_of(tech::cda_07());
  for (auto _ : state)
    benchmark::DoNotOptimize(
        core::estimate_timing(tech::cda_07(), geo, 2.0, lt).access_s);
}
BENCHMARK(BM_TimingEstimate);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  Cli cli("bench_tlb_delay",
          "Section VI TLB address-diversion penalty sweep.");
  cli.optional_value("--json", &json, &json_path,
                     "emit the sweep as JSON (to FILE or stdout) and skip "
                     "the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  if (json) {
    tlb_json(json_path);
    return 0;
  }
  print_tlb();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
