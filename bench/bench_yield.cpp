// Reproduces Fig. 4: yield versus number of defects for a narrow RAM
// array with 1024 rows, bpc = 4 and bpw = 4. Four curves: (a) no spares
// (and no BISR); (b) 4 spares + BISR; (c) 8 spares + BISR; (d) 16 spares
// + BISR. The x axis is the defect mean D*A of the *nonredundant* array;
// each BISR curve grows it by the measured area growth factor of the
// corresponding generated module, exactly as the paper prescribes.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "core/bisramgen.hpp"
#include "models/wafermap.hpp"
#include "models/yield.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bisram;
using sim::CampaignSpec;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sim::RamGeometry fig4_geometry(int spares) {
  sim::RamGeometry g;
  g.words = 4096;  // 1024 rows x bpc 4
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = spares;
  return g;
}

/// Area growth factor (BISR'ed / plain) measured from a generated module.
double growth_factor(int spares) {
  core::RamSpec spec;
  spec.words = 4096;
  spec.bpw = 4;
  spec.bpc = 4;
  spec.spare_rows = spares;
  spec.strap_interval = 0;
  const core::Datasheet ds = core::generate(spec).sheet;
  const double base = ds.array_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
  return (base + ds.spare_mm2 + ds.bist_mm2 + ds.bisr_mm2) / base;
}

/// Small embedded macro used by the end-to-end MC sections: every fault
/// it samples is a stuck-at, so SimKernel::Auto runs fully packed.
sim::RamGeometry mc_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

// Production-density operating point for the sampling comparison: a
// 0.16 cm2 die at 0.5 defects/cm2 gives a per-die defect mean of 0.08,
// so P(K = 0) > 0.9 and plain MC burns >90% of its die simulations on
// defect-free dies. This is the regime the stratified estimator targets.
constexpr double kIsDefectMean = 0.08;
constexpr double kIsAlpha = 2.0;
constexpr double kIsGrowth = 1.05;
constexpr double kIsDensityPerCm2 = 0.5;

/// One measured row of the plain-vs-stratified comparison.
struct SamplingRow {
  const char* name;
  models::BisrYieldMc mc;
  sim::CampaignProvenance prov;
  double seconds;
};

std::vector<SamplingRow> run_sampling_comparison(const CampaignSpec& spec,
                                                 int trials) {
  std::vector<SamplingRow> rows;
  for (sim::SamplingMode mode :
       {sim::SamplingMode::Plain, sim::SamplingMode::Stratified}) {
    CampaignSpec s = spec;
    s.trials = trials;
    s.sampling.mode = mode;
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = models::bisr_yield_mc_with_bist(mc_geo(), kIsDefectMean,
                                                   kIsAlpha, kIsGrowth, s);
    rows.push_back(SamplingRow{sim::sampling_name(mode), r.value, r.provenance,
                               seconds_since(t0)});
  }
  return rows;
}

/// One measured row of the kernel-throughput sweep: the same plain-MC
/// yield campaign on the scalar reference model and the packed kernel,
/// repeated until it has run for kThroughputMinSeconds (a single packed
/// campaign takes about a millisecond, too short to time).
struct ThroughputRow {
  const char* name;
  sim::SimKernel kernel;
  sim::RamGeometry geo;
  std::int64_t die_sims;  ///< per campaign
  int repetitions;
  double seconds;         ///< over all repetitions
  double dies_per_sec() const {
    return seconds > 0.0
               ? static_cast<double>(die_sims) * repetitions / seconds
               : 0.0;
  }
};

constexpr double kThroughputMinSeconds = 0.25;

std::vector<ThroughputRow> run_kernel_throughput(const CampaignSpec& spec) {
  // A production-sized macro (1024 words), so the clock measures the
  // march kernels over real array sizes rather than campaign overhead,
  // and the Fig. 6 array (4096 x 128, bpc 8), where the packed kernel's
  // cost follows the faults rather than the 524,288 bits. Defect mean
  // 3.0 makes essentially every die carry faults.
  const sim::RamGeometry narrow{1024, 4, 4, 4};
  const sim::RamGeometry fig6{4096, 128, 8, 4};
  struct Config {
    const char* name;
    sim::SimKernel kernel;
    sim::RamGeometry geo;
  };
  const Config configs[] = {
      {"scalar", sim::SimKernel::Scalar, narrow},
      {"packed", sim::SimKernel::Packed, narrow},
      {"packed_fig6", sim::SimKernel::Packed, fig6},
  };
  std::vector<ThroughputRow> rows;
  for (const Config& c : configs) {
    CampaignSpec s = spec;
    // The scalar reference is ~2 orders of magnitude slower per die;
    // fewer trials keep the sweep smoke-test friendly while the packed
    // rows still run long enough to time.
    if (c.kernel == sim::SimKernel::Scalar) {
      s.trials = spec.trials / 10 > 40 ? spec.trials / 10 : 40;
    } else {
      s.trials = spec.trials > 400 ? spec.trials : 400;
    }
    s.kernel = c.kernel;
    s.sampling.mode = sim::SamplingMode::Plain;
    // Every repetition is the same seeded campaign, so die_sims is too.
    std::int64_t die_sims = 0;
    int reps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      die_sims = models::bisr_yield_mc_with_bist(c.geo, 3.0, kIsAlpha,
                                                 kIsGrowth, s)
                     .value.die_sims;
      ++reps;
    } while (seconds_since(t0) < kThroughputMinSeconds);
    rows.push_back(ThroughputRow{c.name, c.kernel, c.geo, die_sims, reps,
                                 seconds_since(t0)});
  }
  return rows;
}

models::WaferSpec bench_wafer_spec() {
  models::WaferSpec w;
  w.wafer_mm = 200;
  w.die_w_mm = 4;
  w.die_h_mm = 4;
  w.defects_per_cm2 = kIsDensityPerCm2;
  w.cluster_alpha = kIsAlpha;
  w.ram_fraction = 0.35;
  w.ram_geo = mc_geo();
  return w;
}

/// Crash-safety controls for the wafer-scale streaming campaign; the
/// wafer campaign loops over both sampling modes, so checkpoint and
/// resume paths get per-mode ".plain"/".stratified" suffixes.
struct WaferRunOptions {
  double deadline_ms = 0;      ///< <= 0: no deadline
  std::string checkpoint;      ///< base path; empty = no checkpointing
  std::string resume;          ///< base path; empty = fresh run
  std::int64_t interval = 0;   ///< dies between checkpoints (0 = auto)
};

/// One measured row of the wafer-scale streaming campaign.
struct WaferRow {
  const char* name;
  models::WaferCampaignStats stats;
  sim::CampaignProvenance prov;
  Termination termination = Termination::Completed;
  double seconds;
  double dies_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(stats.dies) / seconds : 0.0;
  }
};

std::vector<WaferRow> run_wafer_campaign(const CampaignSpec& spec,
                                         int wafer_dies,
                                         const WaferRunOptions& opts = {}) {
  const models::WaferSpec wafer = bench_wafer_spec();
  std::vector<WaferRow> rows;
  for (sim::SamplingMode mode :
       {sim::SamplingMode::Plain, sim::SamplingMode::Stratified}) {
    CampaignSpec s = spec;
    s.trials = wafer_dies;
    s.sampling.mode = mode;
    const std::string suffix = std::string(".") + sim::sampling_name(mode);
    if (!opts.checkpoint.empty()) s.checkpoint.path = opts.checkpoint + suffix;
    if (!opts.resume.empty()) s.checkpoint.resume = opts.resume + suffix;
    s.checkpoint.interval = opts.interval;
    CancelToken token;
    if (opts.deadline_ms > 0) {
      token.set_deadline_after_ms(opts.deadline_ms);
      s.cancel = &token;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = models::wafer_yield_campaign(wafer, s);
    rows.push_back(WaferRow{sim::sampling_name(mode), r.value, r.provenance,
                            r.termination, seconds_since(t0)});
  }
  return rows;
}

void print_sampling_sections(const CampaignSpec& spec, int wafer_dies,
                             const WaferRunOptions& wafer_opts) {
  // --- importance sampling vs plain MC ------------------------------
  const int trials = spec.trials >= 4000 ? spec.trials : 4000;
  const double analytic =
      models::bisr_yield(mc_geo(), kIsDefectMean, kIsAlpha, kIsGrowth);
  std::printf(
      "\n=== Importance sampling vs plain MC (defect mean %.2f ~ %.1f/cm2, "
      "%d trials) ===\n",
      kIsDefectMean, kIsDensityPerCm2, trials);
  std::printf("analytic strict-good yield (Stapper/occupancy): %.6f\n",
              analytic);
  TextTable t;
  t.header({"sampling", "strict_good", "bist_repaired", "die sims", "z",
            "dies/sec"});
  const auto rows = run_sampling_comparison(spec, trials);
  for (const SamplingRow& r : rows) {
    const double z = r.mc.strict_good_se > 0.0
                         ? (r.mc.strict_good - analytic) / r.mc.strict_good_se
                         : 0.0;
    t.row({r.name,
           strfmt("%.6f +/- %.6f", r.mc.strict_good, r.mc.strict_good_se),
           strfmt("%.6f +/- %.6f", r.mc.bist_repaired, r.mc.bist_repaired_se),
           strfmt("%lld", static_cast<long long>(r.mc.die_sims)),
           strfmt("%+.2f", z),
           strfmt("%.0f", r.seconds > 0.0 ? r.mc.die_sims / r.seconds : 0.0)});
  }
  std::printf("%s", t.render().c_str());
  if (rows.size() == 2 && rows[1].mc.die_sims > 0)
    std::printf(
        "stratified spends %.1fx fewer die simulations at equal-or-lower "
        "standard error (zero-defect stratum resolved analytically).\n",
        static_cast<double>(rows[0].mc.die_sims) /
            static_cast<double>(rows[1].mc.die_sims));

  // --- kernel throughput --------------------------------------------
  std::printf(
      "\n=== Kernel throughput (plain MC, defect mean 3.0, SIMD level %s) "
      "===\n",
      simd_level_name(active_simd_level()));
  TextTable kt;
  // The repetition count varies with the host like the timings, so it
  // goes to the JSON report only; the determinism recipe strips the
  // timing columns at the end of each row.
  kt.header({"config", "kernel", "geometry", "die sims", "seconds",
             "dies/sec"});
  for (const ThroughputRow& r : run_kernel_throughput(spec))
    kt.row({r.name, sim::kernel_name(r.kernel),
            strfmt("%ux%d bpc %d", r.geo.words, r.geo.bpw, r.geo.bpc),
            strfmt("%lld", static_cast<long long>(r.die_sims)),
            strfmt("%.3f", r.seconds), strfmt("%.0f", r.dies_per_sec())});
  std::printf("%s", kt.render().c_str());

  // --- wafer-scale streaming campaign -------------------------------
  if (wafer_dies > 0) {
    const models::WaferSpec wafer = bench_wafer_spec();
    std::printf(
        "\n=== Wafer-scale streaming campaign (%d dies, %.0fx%.0f mm die, "
        "%.1f defects/cm2) ===\n",
        wafer_dies, wafer.die_w_mm, wafer.die_h_mm, wafer.defects_per_cm2);
    TextTable wt;
    // Timing stays in the last column: EXPERIMENTS.md's determinism
    // recipe diffs thread counts after stripping trailing integers.
    wt.header({"sampling", "yield w/o BISR", "yield w/ BISR", "mean defects",
               "die sims", "termination", "dies/sec"});
    const auto wrows = run_wafer_campaign(spec, wafer_dies, wafer_opts);
    for (const WaferRow& r : wrows)
      wt.row({r.name,
              strfmt("%.6f +/- %.6f", r.stats.yield_without_bisr,
                     r.stats.yield_without_bisr_se),
              strfmt("%.6f +/- %.6f", r.stats.yield_with_bisr,
                     r.stats.yield_with_bisr_se),
              strfmt("%.4f +/- %.4f", r.stats.mean_defects_per_die,
                     r.stats.mean_defects_per_die_se),
              strfmt("%lld", static_cast<long long>(r.stats.die_sims)),
              termination_name(r.termination),
              strfmt("%.0f", r.dies_per_sec())});
    std::printf("%s", wt.render().c_str());
    for (const WaferRow& r : wrows)
      if (r.prov.checkpoints_written > 0)
        std::printf("%s: wrote %lld checkpoint(s)\n", r.name,
                    static_cast<long long>(r.prov.checkpoints_written));
    std::printf("usable dies per physical wafer: %d\n",
                wrows.empty() ? 0 : wrows[0].stats.dies_per_wafer);
  }
}

void print_fig4(const CampaignSpec& spec) {
  std::printf(
      "\n=== Fig. 4: yield vs defects (1024 rows, bpc=4, bpw=4, alpha=2) "
      "===\n");
  const double alpha = 2.0;
  const double g4 = growth_factor(4);
  const double g8 = growth_factor(8);
  const double g16 = growth_factor(16);
  std::printf("measured area growth factors: 4sp %.3f  8sp %.3f  16sp %.3f\n",
              g4, g8, g16);

  TextTable t;
  t.header({"defects", "no spares", "4 spares", "8 spares", "16 spares"});
  for (int d = 0; d <= 400; d += 25) {
    const double m = d;
    t.row({std::to_string(d),
           strfmt("%.4f", models::stapper_yield(m, alpha)),
           strfmt("%.4f", models::bisr_yield(fig4_geometry(4), m, alpha, g4)),
           strfmt("%.4f", models::bisr_yield(fig4_geometry(8), m, alpha, g8)),
           strfmt("%.4f",
                  models::bisr_yield(fig4_geometry(16), m, alpha, g16))});
  }
  std::printf("%s", t.render().c_str());

  // Monte-Carlo cross-check at a few defect means (pattern-exact model).
  std::printf("Monte-Carlo spot checks (4 spares, %d trials):\n", spec.trials);
  for (int d : {25, 50, 100}) {
    const double analytic =
        models::bisr_yield(fig4_geometry(4), d, alpha, g4);
    // Sample the defect-count mixture by direct repairability averaging;
    // each defect count k runs on its own sub-stream of the bench seed.
    double mc = 0.0;
    for (int k = 0; k < 3 * d; ++k) {
      const double pk = models::negbin_pmf(k, d * g4, alpha);
      if (pk < 1e-6) continue;
      CampaignSpec sub = spec;
      sub.seed = spec.seed + static_cast<std::uint64_t>(k);
      mc += pk *
            models::repair_probability_mc(fig4_geometry(4), k, sub).value;
    }
    std::printf("  defects %3d: analytic %.4f  monte-carlo %.4f\n", d,
                analytic, mc);
  }
  std::printf(
      "paper shape check: BISR curves dominate the no-spares curve and "
      "sustain yield to far higher defect counts.\n");

  // Spatial validation: a clustered-defect wafer simulation of a chip
  // embedding this RAM. 'R' dies are the ones BISR rescues.
  models::WaferSpec wafer;
  wafer.wafer_mm = 200;
  wafer.die_w_mm = 12;
  wafer.die_h_mm = 12;
  wafer.defects_per_cm2 = 0.8;
  wafer.ram_fraction = 0.35;
  wafer.ram_geo = fig4_geometry(4);
  const models::WaferResult w = models::simulate_wafer(wafer, 2024);
  std::printf("\nwafer map (%d dies): yield %.3f -> %.3f with BISR\n%s",
              w.dies_total, w.yield_without_bisr(), w.yield_with_bisr(),
              models::render_wafer(w).c_str());
}

// Machine-readable variant of print_fig4() for --json: the analytic
// curves plus the repair-logic discount of models::repair_logic_yield
// and an end-to-end BIST/BISR Monte-Carlo spot check with its campaign
// provenance.
void print_fig4_json(const CampaignSpec& spec, int wafer_dies,
                     const WaferRunOptions& wafer_opts,
                     const std::string& path) {
  const double alpha = 2.0;
  const double g4 = growth_factor(4);
  const double g8 = growth_factor(8);
  const double g16 = growth_factor(16);
  // The repair logic occupies the BIST+BISR share of the grown die.
  const double logic_fraction4 = 1.0 - 1.0 / g4;
  JsonWriter j;
  j.begin_object();
  j.key("benchmark").value("yield");
  j.key("alpha").value(alpha);
  j.key("growth_factors").begin_object();
  j.key("spares4").value(g4);
  j.key("spares8").value(g8);
  j.key("spares16").value(g16);
  j.end_object();
  j.key("curve").begin_array();
  for (int d = 0; d <= 400; d += 25) {
    const double m = d;
    j.begin_object();
    j.key("defects").value(d);
    j.key("no_spares").value(models::stapper_yield(m, alpha));
    j.key("spares4").value(models::bisr_yield(fig4_geometry(4), m, alpha, g4));
    j.key("spares8").value(models::bisr_yield(fig4_geometry(8), m, alpha, g8));
    j.key("spares16")
        .value(models::bisr_yield(fig4_geometry(16), m, alpha, g16));
    // First-order discount for defects landing in the repair machinery
    // itself (every such defect counted fatal — see bench_infra_faults
    // for the outcome-classified version).
    j.key("repair_logic_yield4")
        .value(models::repair_logic_yield(m, alpha, g4, logic_fraction4));
    j.end_object();
  }
  j.end_array();
  // End-to-end BIST/BISR Monte-Carlo under the unified campaign API:
  // stuck-at-only trials, so Auto dispatches to the packed kernel.
  {
    const auto mc =
        models::bisr_yield_mc_with_bist(mc_geo(), 3.0, alpha, g4, spec);
    j.key("bisr_mc_spot_check").begin_object();
    j.key("defect_mean").value(3.0);
    j.key("bist_repaired").value(mc.value.bist_repaired);
    j.key("bist_repaired_se").value(mc.value.bist_repaired_se);
    j.key("strict_good").value(mc.value.strict_good);
    j.key("strict_good_se").value(mc.value.strict_good_se);
    j.key("die_sims").value(mc.value.die_sims);
    j.key("provenance").begin_object();
    j.key("kernel").value(sim::kernel_name(spec.kernel));
    j.key("sampling").value(sim::sampling_name(mc.provenance.sampling));
    j.key("seed").value(mc.provenance.seed);
    j.key("threads").value(mc.provenance.threads);
    j.key("trials").value(mc.provenance.trials);
    j.key("packed_trials").value(mc.provenance.packed_trials);
    j.key("scalar_trials").value(mc.provenance.scalar_trials);
    j.key("strata").value(mc.provenance.strata);
    j.end_object();
    j.end_object();
  }
  // Importance sampling vs plain MC at the production density the
  // stratified estimator targets (see print_sampling_sections).
  {
    const int trials = spec.trials >= 4000 ? spec.trials : 4000;
    const double analytic =
        models::bisr_yield(mc_geo(), kIsDefectMean, kIsAlpha, kIsGrowth);
    j.key("sampling_comparison").begin_object();
    j.key("defect_mean").value(kIsDefectMean);
    j.key("defects_per_cm2").value(kIsDensityPerCm2);
    j.key("alpha").value(kIsAlpha);
    j.key("growth").value(kIsGrowth);
    j.key("trials").value(trials);
    j.key("analytic_strict_good").value(analytic);
    j.key("modes").begin_array();
    for (const SamplingRow& r : run_sampling_comparison(spec, trials)) {
      j.begin_object();
      j.key("sampling").value(r.name);
      j.key("strict_good").value(r.mc.strict_good);
      j.key("strict_good_se").value(r.mc.strict_good_se);
      j.key("bist_repaired").value(r.mc.bist_repaired);
      j.key("bist_repaired_se").value(r.mc.bist_repaired_se);
      j.key("die_sims").value(r.mc.die_sims);
      j.key("z_vs_analytic")
          .value(r.mc.strict_good_se > 0.0
                     ? (r.mc.strict_good - analytic) / r.mc.strict_good_se
                     : 0.0);
      j.key("strata").value(r.prov.strata);
      j.key("seconds").value(r.seconds);
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  // Scalar vs packed kernel throughput on the same plain-MC campaign.
  {
    j.key("kernel_throughput").begin_object();
    j.key("simd_level").value(simd_level_name(active_simd_level()));
    j.key("configs").begin_array();
    for (const ThroughputRow& r : run_kernel_throughput(spec)) {
      j.begin_object();
      j.key("config").value(r.name);
      j.key("kernel").value(sim::kernel_name(r.kernel));
      j.key("words").value(static_cast<std::int64_t>(r.geo.words));
      j.key("bpw").value(r.geo.bpw);
      j.key("bpc").value(r.geo.bpc);
      j.key("spare_rows").value(r.geo.spare_rows);
      j.key("die_sims").value(r.die_sims);
      j.key("repetitions").value(r.repetitions);
      j.key("seconds").value(r.seconds);
      j.key("dies_per_sec").value(r.dies_per_sec());
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  // Wafer-scale streaming campaign (plain and stratified).
  if (wafer_dies > 0) {
    const models::WaferSpec wafer = bench_wafer_spec();
    j.key("wafer_campaign").begin_object();
    j.key("dies").value(wafer_dies);
    j.key("die_w_mm").value(wafer.die_w_mm);
    j.key("die_h_mm").value(wafer.die_h_mm);
    j.key("defects_per_cm2").value(wafer.defects_per_cm2);
    j.key("deadline_ms").value(wafer_opts.deadline_ms);
    j.key("checkpoint_interval").value(wafer_opts.interval);
    j.key("modes").begin_array();
    for (const WaferRow& r : run_wafer_campaign(spec, wafer_dies, wafer_opts)) {
      j.begin_object();
      j.key("sampling").value(r.name);
      j.key("yield_without_bisr").value(r.stats.yield_without_bisr);
      j.key("yield_without_bisr_se").value(r.stats.yield_without_bisr_se);
      j.key("yield_with_bisr").value(r.stats.yield_with_bisr);
      j.key("yield_with_bisr_se").value(r.stats.yield_with_bisr_se);
      j.key("mean_defects_per_die").value(r.stats.mean_defects_per_die);
      j.key("mean_defects_per_die_se").value(r.stats.mean_defects_per_die_se);
      j.key("die_sims").value(r.stats.die_sims);
      j.key("dies_per_wafer").value(r.stats.dies_per_wafer);
      j.key("termination").value(termination_name(r.termination));
      j.key("trials_done").value(r.prov.trials_done);
      j.key("checkpoints_written").value(r.prov.checkpoints_written);
      j.key("seconds").value(r.seconds);
      j.key("dies_per_sec").value(r.dies_per_sec());
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_object();
  if (path.empty()) {
    std::printf("%s\n", j.str().c_str());
  } else {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_yield: cannot write '%s'\n", path.c_str());
      std::exit(2);
    }
    std::fprintf(f, "%s\n", j.str().c_str());
    std::fclose(f);
  }
}

void BM_YieldCurvePoint(benchmark::State& state) {
  const auto geo = fig4_geometry(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::bisr_yield(geo, 100.0, 2.0, 1.05));
  }
}
BENCHMARK(BM_YieldCurvePoint);

void BM_RepairProbability(benchmark::State& state) {
  const auto geo = fig4_geometry(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        models::repair_probability(geo, state.range(0)));
  }
}
BENCHMARK(BM_RepairProbability)->Arg(16)->Arg(128)->Arg(1024);

// Parallel-engine scaling on the pattern-exact yield Monte-Carlo; the
// estimate is bit-identical at every thread count (see
// tests/test_parallel_campaigns.cpp), so only wall clock moves.
void BM_RepairProbabilityMcThreads(benchmark::State& state) {
  const int prev = set_campaign_threads(static_cast<int>(state.range(0)));
  const auto geo = fig4_geometry(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        models::repair_probability_mc(
            geo, 24, sim::CampaignSpec{.trials = 20000, .seed = 99})
            .value);
  }
  set_campaign_threads(prev);
}
BENCHMARK(BM_RepairProbabilityMcThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same sweep on the heavyweight end-to-end BIST/BISR yield campaign.
void BM_BisrYieldMcThreads(benchmark::State& state) {
  const int prev = set_campaign_threads(static_cast<int>(state.range(0)));
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        models::bisr_yield_mc_with_bist(
            g, 3.0, 2.0, 1.05, sim::CampaignSpec{.trials = 200, .seed = 7})
            .value.strict_good);
  }
  set_campaign_threads(prev);
}
BENCHMARK(BM_BisrYieldMcThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.trials = 200;
  spec.seed = 1234;
  bool json = false;
  std::string json_path;
  std::string kernel = "auto";
  int wafer_dies = 1000000;
  WaferRunOptions wafer_opts;
  Cli cli("bench_yield", "Fig. 4 yield-vs-defects curves and MC checks.");
  cli.value("--trials", &spec.trials, "Monte-Carlo trials per spot check")
      .value("--seed", &spec.seed, "campaign seed")
      .value("--threads", &spec.threads,
             "worker threads (0 = BISRAM_THREADS or hardware)")
      .value("--kernel", &kernel, "simulation kernel: auto|packed|scalar", "K")
      .value("--wafer-dies", &wafer_dies,
             "dies for the wafer-scale streaming campaign (0 = skip)")
      .value("--deadline-ms", &wafer_opts.deadline_ms,
             "wall-clock budget per wafer campaign; an expired run reports "
             "a valid partial estimate with termination=deadline")
      .value("--checkpoint", &wafer_opts.checkpoint,
             "write wafer-campaign checkpoints to PATH.plain / "
             "PATH.stratified",
             "PATH")
      .value("--resume", &wafer_opts.resume,
             "resume the wafer campaigns from PATH.plain / PATH.stratified",
             "PATH")
      .value("--checkpoint-interval", &wafer_opts.interval,
             "dies between checkpoints (0 = trials/16)")
      .optional_value("--json", &json, &json_path,
                      "emit the report as JSON (to FILE or stdout) and skip "
                      "the benchmarks")
      .passthrough_prefix("--benchmark_");
  cli.parse(&argc, argv);
  try {
    spec.kernel = sim::kernel_by_name(kernel);
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_yield: %s\n%s", e.what(), cli.usage().c_str());
    return 2;
  }
  if (json) {
    print_fig4_json(spec, wafer_dies, wafer_opts, json_path);
    return 0;
  }
  print_fig4(spec);
  print_sampling_sections(spec, wafer_dies, wafer_opts);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
