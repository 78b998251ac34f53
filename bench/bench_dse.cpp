// DSE engine benchmark: runs one small sweep twice against the same
// persistent cache — cold (empty cache directory) then warm — and
// reports the numbers the acceptance criteria in ROADMAP.md ask for:
// points per second in each mode, the warm-over-cold speedup, the warm
// cache hit rate, and the full-compile / characterization counts that
// prove the warm run re-used everything (zero characterizations, zero
// compiles).
//
// The default --json artifact is committed as BENCH_dse.json and
// regenerated by the CI bench-smoke leg.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "dse/cache.hpp"
#include "dse/engine.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The bench sweep: 2 x 2 x 3 x 2 = 24 points over words, bpw, spares
/// and gate size — small enough for the CI smoke leg, large enough that
/// the cold/warm contrast is unambiguous.
dse::SweepSpec bench_sweep() {
  dse::SweepSpec sweep;
  sweep.base.words = 256;
  sweep.base.bpw = 8;
  sweep.base.bpc = 4;
  sweep.base.spare_rows = 4;
  sweep.base.strap_interval = 16;
  sweep.words = {256, 512};
  sweep.bpw = {8, 16};
  sweep.spare_rows = {4, 8, 16};
  sweep.gate_size = {1.5, 2.5};
  return sweep;
}

/// A fresh, empty directory: a cache made in it starts genuinely cold.
std::string fresh_temp_dir() {
  char tmpl[] = "/tmp/bisram_dse_bench.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) throw Error("bench_dse: mkdtemp failed");
  return dir;
}

struct RunNumbers {
  double seconds = 0;
  dse::SweepStats stats;
  std::string frontier_json;
};

RunNumbers timed_run(const dse::SweepSpec& sweep, const std::string& cache,
                     int threads) {
  dse::RunOptions opt;
  opt.cache_dir = cache;
  opt.threads = threads;
  const auto t0 = std::chrono::steady_clock::now();
  const dse::SweepResult res = dse::run_sweep(sweep, opt);
  RunNumbers n;
  n.seconds = seconds_since(t0);
  n.stats = res.stats;
  n.frontier_json = res.frontier_json();
  return n;
}

void run_json(JsonWriter& j, const char* name, const RunNumbers& n) {
  j.key(name).begin_object();
  j.key("seconds").value(n.seconds);
  j.key("points_per_sec")
      .value(n.seconds > 0 ? static_cast<double>(n.stats.evaluated) / n.seconds
                           : 0.0);
  j.key("evaluated").value(n.stats.evaluated);
  j.key("full_compiles").value(n.stats.full_compiles);
  j.key("characterizations").value(n.stats.characterizations);
  j.key("cache_hits").value(n.stats.cache_hits);
  j.key("cache_misses").value(n.stats.cache_misses);
  j.key("leaf_lookups").value(n.stats.leaf_lookups);
  j.key("leaf_misses").value(n.stats.leaf_misses);
  j.end_object();
}

int report(bool json, const std::string& json_path, int threads) {
  const dse::SweepSpec sweep = bench_sweep();
  const std::string dir = fresh_temp_dir();
  const std::string cache = dir + "/cache";
  const RunNumbers cold = timed_run(sweep, cache, threads);
  const RunNumbers warm = timed_run(sweep, cache, threads);
  std::filesystem::remove_all(dir);

  const bool identical = cold.frontier_json == warm.frontier_json;
  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0;
  const double warm_hit_rate =
      warm.stats.evaluated > 0
          ? static_cast<double>(warm.stats.cache_hits) / warm.stats.evaluated
          : 0;

  if (json) {
    JsonWriter j;
    j.begin_object();
    j.key("bench").value("dse");
    j.key("points").value(cold.stats.points);
    run_json(j, "cold", cold);
    run_json(j, "warm", warm);
    j.key("warm_over_cold_speedup").value(speedup);
    j.key("warm_cache_hit_rate").value(warm_hit_rate);
    j.key("frontier_identical").value(identical);
    j.end_object();
    if (json_path.empty()) {
      std::printf("%s\n", j.str().c_str());
    } else {
      std::ofstream f(json_path);
      if (!f) {
        std::fprintf(stderr, "bench_dse: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      f << j.str() << '\n';
      std::printf("wrote %s\n", json_path.c_str());
    }
  } else {
    TextTable t;
    t.header({"run", "seconds", "points/s", "compiles", "characterizations",
              "cache hits"});
    for (const auto& [name, n] : {std::pair<const char*, const RunNumbers&>{
                                      "cold", cold},
                                  {"warm", warm}})
      t.row({name, strfmt("%.3f", n.seconds),
             strfmt("%.1f", n.seconds > 0
                                ? static_cast<double>(n.stats.evaluated) /
                                      n.seconds
                                : 0.0),
             strfmt("%llu",
                    static_cast<unsigned long long>(n.stats.full_compiles)),
             strfmt("%llu", static_cast<unsigned long long>(
                                n.stats.characterizations)),
             strfmt("%llu",
                    static_cast<unsigned long long>(n.stats.cache_hits))});
    std::fputs(t.render().c_str(), stdout);
    std::printf("\nwarm-over-cold speedup: %.1fx; warm hit rate %.0f%%; "
                "frontier %s\n",
                speedup, warm_hit_rate * 100,
                identical ? "bit-identical" : "DIFFERS");
  }
  // The warm run re-compiling anything is a regression in the cache
  // keying — fail the bench loudly rather than publish a bad artifact.
  if (warm.stats.full_compiles != 0 || warm.stats.characterizations != 0 ||
      !identical) {
    std::fprintf(stderr, "bench_dse: warm run was not pure cache "
                         "(compiles=%llu characterizations=%llu "
                         "identical=%d)\n",
                 static_cast<unsigned long long>(warm.stats.full_compiles),
                 static_cast<unsigned long long>(warm.stats.characterizations),
                 identical ? 1 : 0);
    return 1;
  }
  return 0;
}

void BM_PointFingerprint(benchmark::State& state) {
  const dse::SweepSpec sweep = bench_sweep();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep.point_fingerprint(i));
    i = (i + 1) % sweep.size();
  }
}
BENCHMARK(BM_PointFingerprint);

void BM_CacheRoundTrip(benchmark::State& state) {
  const std::string dir = fresh_temp_dir();
  dse::ResultCache cache(dir + "/cache");
  models::DesignMetrics m;
  m.area_mm2 = 1.25;
  m.yield = 0.93;
  std::uint64_t fp = 0x1234;
  for (auto _ : state) {
    cache.store(fp, m);
    models::DesignMetrics back;
    benchmark::DoNotOptimize(cache.load(fp, &back));
    ++fp;
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheRoundTrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string json_path;
  int threads = 0;
  Cli cli("bench_dse",
          "Cold-vs-warm DSE sweep benchmark (persistent result cache).");
  cli.value("--threads", &threads,
            "worker threads (0 = BISRAM_THREADS or hardware)")
      .optional_value("--json", &json, &json_path,
                      "emit the cold/warm report as JSON (to FILE or "
                      "stdout) and skip the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  try {
    const int rc = report(json, json_path, threads);
    if (rc != 0 || json) return rc;
  } catch (const bisram::Error& e) {
    std::fprintf(stderr, "bench_dse: %s\n", e.what());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
