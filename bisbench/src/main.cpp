// bisbench: one BISRAMGEN benchmark, four workloads.
//
//   bisbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --expected <expected.json> --work-dir <dir> [--trace-out F]
//
// Prints a human-readable report, a provenance line, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the three end-to-end metrics, measured
// with the span recorder off; with --trace 1 they are the per-layer
// metrics, measured from a run with a span around every layer call
// (written as a Chrome trace-event file when --trace-out is given).
// bisbench/run.py builds this program and is the intended entry point.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

#ifndef BISBENCH_BUILD_TYPE
#define BISBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace bisbench;
using bisram::JsonWriter;

struct Workload {
  const char* name;
  WorkloadFn run;
};

const Workload kWorkloads[] = {
    {"fig6_signoff", run_fig6_signoff},
    {"edit_resignoff", run_edit_resignoff},
    {"dse_sweep", run_dse_sweep},
    {"bist_campaigns", run_bist_campaigns},
};

/// Layer calls reported with wall_s, cpu_s, peak_rss_mb and threads.
const char* const kCalls[] = {
    "core.resolve_tech",
    "core.leaf_library",
    "core.assemble",
    "core.datasheet",
    "geom.flatten",
    "geom.load_snapshot",
    "drc.check",
    "drc.incremental_init",
    "extract.extract",
    "extract.incremental_init",
    "sta.analyze_access_path",
    "verify.analyze_controller",
    "dse.run_sweep.cold",
    "dse.run_sweep.resweep",
    "models.evaluate_designs",
    "dse.pareto_frontier",
    "models.bisr_yield_mc.small.plain",
    "models.bisr_yield_mc.small.stratified",
    "models.bisr_yield_mc.large.plain",
    "models.bisr_yield_mc.large.stratified",
    "sim.fault_coverage",
};

/// Per-edit calls, reported with p50_ms, p90_ms and cpu_s.
const char* const kEditCalls[] = {
    "geom.apply",
    "drc.incremental_update",
    "extract.incremental_update",
};

/// Counters (count unit); absent on a workload that never sets them.
const char* const kCounters[] = {
    "geom.shapes",
    "drc.violations",
    "extract.nets",
    "extract.devices",
    "sta.endpoints",
    "geom.apply.dirty_shapes",
    "dse.full_compiles",
    "dse.cache_hits",
    "dse.cache_misses",
    "core.leaf_misses",
    "sta.characterizations",
    "models.bisr_yield_mc.small.plain.die_sims",
    "models.bisr_yield_mc.small.plain.packed_trials",
    "models.bisr_yield_mc.small.plain.scalar_trials",
    "models.bisr_yield_mc.small.stratified.die_sims",
    "models.bisr_yield_mc.small.stratified.strata",
    "models.bisr_yield_mc.small.stratified.packed_trials",
    "models.bisr_yield_mc.small.stratified.scalar_trials",
    "models.bisr_yield_mc.large.plain.die_sims",
    "models.bisr_yield_mc.large.plain.packed_trials",
    "models.bisr_yield_mc.large.plain.scalar_trials",
    "models.bisr_yield_mc.large.stratified.die_sims",
    "models.bisr_yield_mc.large.stratified.strata",
    "models.bisr_yield_mc.large.stratified.packed_trials",
    "models.bisr_yield_mc.large.stratified.scalar_trials",
    "sim.fault_coverage.packed_trials",
    "sim.fault_coverage.scalar_trials",
};

Metrics per_layer(const Recorder& rec) {
  Metrics m;
  const auto& calls = rec.calls();
  for (const char* c : kCalls) {
    const auto it = calls.find(c);
    const std::string n = c;
    if (it == calls.end()) {
      m[n + ".wall_s"] = {0, "s"};
      m[n + ".cpu_s"] = {0, "s"};
      m[n + ".peak_rss_mb"] = {0, "MB"};
      m[n + ".threads"] = {0, "count"};
      continue;
    }
    m[n + ".wall_s"] = {median(it->second.wall_s), "s"};
    m[n + ".cpu_s"] = {median(it->second.cpu_s), "s"};
    m[n + ".peak_rss_mb"] = {median(it->second.peak_rss_mb), "MB"};
    m[n + ".threads"] = {static_cast<double>(it->second.threads), "count"};
  }
  for (const char* c : kEditCalls) {
    const auto it = calls.find(c);
    const std::string n = c;
    const Recorder::CallStats none;
    const Recorder::CallStats& s = it == calls.end() ? none : it->second;
    m[n + ".p50_ms"] = {quantile(s.wall_s, 0.5) * 1e3, "ms"};
    m[n + ".p90_ms"] = {quantile(s.wall_s, 0.9) * 1e3, "ms"};
    m[n + ".cpu_s"] = {median(s.cpu_s), "s"};
  }
  for (const char* c : kCounters) {
    const auto it = rec.counters().find(c);
    m[c] = {it == rec.counters().end() ? 0.0 : it->second, "count"};
  }
  m["util.parallel.threads"] = {
      static_cast<double>(bisram::campaign_threads()), "count"};
  m["trace.overhead_s"] = {median(rec.overhead_s()), "s"};
  return m;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw bisram::Error("cannot read " + path);
  std::stringstream s;
  s << f.rdbuf();
  return s.str();
}

void write_metrics(JsonWriter& j, const Metrics& m) {
  j.begin_object();
  for (const auto& [name, metric] : m) {
    j.key(name).begin_object();
    j.key("value").value(metric.value);
    j.key("unit").value(metric.unit);
    j.end_object();
  }
  j.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expected_path = "bisbench/expected.json";
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  bisram::Cli cli("bisbench",
                  "One BISRAMGEN benchmark: fig6_signoff, edit_resignoff, "
                  "dse_sweep, bist_campaigns.");
  cli.value("--workload", &workload, "workload name")
      .value("--seed", &seed, "input seed")
      .value("--seconds", &seconds, "timed seconds per run")
      .value("--trace", &trace, "0: end-to-end metrics, 1: per-layer metrics")
      .value("--expected", &expected_path, "expected-results file")
      .value("--work-dir", &work_dir, "scratch directory")
      .value("--trace-out", &trace_out, "Chrome trace-event output file");
  cli.parse(&argc, argv);

  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (workload == k.name) w = &k;
  if (w == nullptr) {
    std::fprintf(stderr, "bisbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  try {
    const bisram::JsonValue expected =
        bisram::parse_json(read_file(expected_path), nullptr, expected_path);
    const bool traced = trace != 0;
    RunConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.seconds = seconds;
    cfg.work_dir = work_dir;
    cfg.expected = &need(expected, workload);

    Recorder rec(traced);
    Ledger led;
    Timings tm;
    const RunResult res = w->run(cfg, rec, led, tm);
    const ProcStatus st = proc_status();

    Metrics e2e;
    e2e["setup_s"] = {median(tm.setup_s), "s"};
    e2e["work_per_s"] = {
        tm.work_wall_s > 0 ? tm.work_units / tm.work_wall_s : 0.0, "1/s"};
    // The recorder resets VmHWM at every span boundary, so only an
    // untraced run's readings are operation peaks.
    const bool op_peaks = tm.peak_reset_ok && !tm.op_peak_mb.empty();
    if (!traced)
      e2e["peak_rss_mb"] = {op_peaks ? median(tm.op_peak_mb) : st.vm_hwm_mb,
                            "MB"};

    // --- human-readable report ------------------------------------------
    std::printf("bisbench %s seed %lld: %zu operations in %.2f s timed%s\n",
                workload.c_str(), static_cast<long long>(seed),
                tm.op_s.size(), tm.work_wall_s,
                traced ? " (traced)" : "");
    for (const auto& [name, m] : e2e)
      std::printf("  %-24s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    for (const auto& [name, m] : res.named)
      std::printf("  %-24s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    std::printf("  %-24s %14.6g\n", "fail_ratio",
                static_cast<double>(led.failed()) /
                    static_cast<double>(std::max<std::int64_t>(1, led.attempted())));
    for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
    std::printf("  %lld checks over %lld operations, %lld failed\n",
                static_cast<long long>(led.checks()),
                static_cast<long long>(led.attempted()),
                static_cast<long long>(led.failed()));
    for (const std::string& f : led.failures())
      std::printf("  FAILED: %s\n", f.c_str());

    // --- provenance -------------------------------------------------------
    JsonWriter p;
    p.begin_object();
    p.key("provenance").begin_object();
    p.key("workload").value(workload);
    p.key("seed").value(seed);
    p.key("seconds").value(seconds);
    p.key("trace").value(traced);
    p.key("nproc").value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
    p.key("campaign_threads").value(bisram::campaign_threads());
    const char* env_threads = std::getenv("BISRAM_THREADS");
    p.key("BISRAM_THREADS").value(env_threads ? env_threads : "");
    p.key("simd").value(bisram::simd_level_name(bisram::active_simd_level()));
    p.key("build_type").value(BISBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
    p.key("optimised").value(true);
#else
    p.key("optimised").value(false);
#endif
    p.key("setup_reps").value(kSetupReps);
    if (traced)
      p.key("peak_rss_per_span").value(rec.peak_per_span());
    else
      p.key("peak_rss").value(op_peaks ? "median over operations of VmHWM"
                                       : "process VmHWM");
    p.key("spec").value(res.spec_json);
    p.end_object();
    p.end_object();
    std::printf("%s\n", p.str().c_str());
#ifndef __OPTIMIZE__
    std::printf("WARNING: bisbench was built without optimisation (%s)\n",
                BISBENCH_BUILD_TYPE);
#endif

    if (traced && !trace_out.empty()) {
      std::ofstream f(trace_out);
      f << rec.chrome_trace_json() << '\n';
      if (!f) throw bisram::Error("cannot write " + trace_out);
    }

    // --- result line ------------------------------------------------------
    JsonWriter j;
    j.begin_object();
    j.key("correct").value(led.failed() == 0);
    j.key("attempted").value(led.attempted());
    j.key("failed").value(led.failed());
    j.key("metrics");
    write_metrics(j, traced ? per_layer(rec) : e2e);
    j.end_object();
    std::printf("%s\n", j.str().c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bisbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
