#include "dse/engine.hpp"

#include <atomic>
#include <memory>

#include "core/compiler.hpp"
#include "dse/cache.hpp"
#include "dse/pareto.hpp"
#include "sta/leaf.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bisram::dse {

namespace {

/// The datasheet quantities the models consume. base area is the
/// paper's Table-I denominator: array + decoders + periphery, spares
/// and BIST/BISR logic excluded.
models::EvalInputs eval_inputs(const core::Datasheet& ds) {
  models::EvalInputs in;
  in.geo = ds.geo;
  in.area_mm2 = ds.area_mm2;
  in.base_area_mm2 = ds.array_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
  in.access_s = ds.timing.access_s;
  in.overhead_pct = ds.overhead_pct;
  return in;
}

void point_json(JsonWriter& j, const PointResult& p) {
  j.begin_object();
  j.key("index").value(static_cast<std::uint64_t>(p.index));
  j.key("fingerprint")
      .value(strfmt("%016llx",
                    static_cast<unsigned long long>(p.fingerprint)));
  j.key("words").value(static_cast<std::uint64_t>(p.spec.words));
  j.key("bpw").value(p.spec.bpw);
  j.key("bpc").value(p.spec.bpc);
  j.key("spare_rows").value(p.spec.spare_rows);
  j.key("gate_size").value(p.spec.gate_size);
  j.key("technology").value(p.spec.technology);
  if (!p.error.empty()) {
    j.key("error").value(p.error);
    j.end_object();
    return;
  }
  j.key("area_mm2").value(p.metrics.area_mm2);
  j.key("yield").value(p.metrics.yield);
  j.key("mttf_hours").value(p.metrics.mttf_hours);
  j.key("cost_usd").value(p.metrics.cost_usd);
  j.key("access_ns").value(p.metrics.access_ns);
  j.key("overhead_pct").value(p.metrics.overhead_pct);
  j.end_object();
}

}  // namespace

SweepResult run_sweep(const SweepSpec& sweep, const RunOptions& opt) {
  SweepResult res;
  const std::size_t n = sweep.size();
  res.points.resize(n);
  res.stats.points = n;

  ResultCache cache(opt.cache_dir);
  // One shared deck-pure cache; each point opens its own single-threaded
  // session on it (sessions are cheap, the cache is where reuse lives).
  auto compile_cache = std::make_shared<core::CompileCache>();
  std::atomic<std::uint64_t> full_compiles{0};
  std::atomic<std::uint64_t> invalid{0};
  const std::uint64_t chars_before = sta::characterization_count();

  // chunk = 1: a lattice point is a full compile — coarse enough that
  // per-chunk scheduling overhead is noise, and it gives cancellation
  // its tightest latency (one point).
  parallel_for(
      static_cast<std::int64_t>(n), /*chunk=*/1,
      [&](std::int64_t idx) {
        PointResult& pr = res.points[static_cast<std::size_t>(idx)];
        pr.index = static_cast<std::size_t>(idx);
        pr.spec = sweep.point(pr.index);
        try {
          pr.spec.validate();
        } catch (const SpecError& e) {
          // A lattice corner the generator rejects (words not divisible
          // by bpc, unsupported spare count...) is data, not an error:
          // record it and move on to the next point.
          pr.error = e.what();
          invalid.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        pr.fingerprint = point_fingerprint(pr.spec, sweep.eval);
        if (cache.load(pr.fingerprint, &pr.metrics)) {
          pr.evaluated = true;
          pr.from_cache = true;
          return;
        }
        try {
          core::Compiler session(compile_cache);
          const tech::Tech& t = session.resolve_tech(pr.spec);
          const core::Assembled a = session.assemble(pr.spec, t);
          const core::Datasheet ds = session.datasheet(pr.spec, t, a);
          full_compiles.fetch_add(1, std::memory_order_relaxed);
          pr.metrics = models::evaluate_design(eval_inputs(ds), sweep.eval);
        } catch (const Error& e) {
          // A corner that passes validate() but trips the generator or
          // timing engine deeper in (extraction shorts, STA port checks)
          // is still just one bad point; the rest of the sweep proceeds.
          pr.error = e.what();
          invalid.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        cache.store(pr.fingerprint, pr.metrics);
        pr.evaluated = true;
      },
      opt.threads, opt.cancel);

  // Frontier over exactly the evaluated subset, in index order — the
  // compaction keeps the scan deterministic and makes a cancelled run's
  // frontier valid for the points it did evaluate.
  std::vector<std::size_t> eval_idx;
  std::vector<models::DesignMetrics> eval_metrics;
  for (const PointResult& p : res.points) {
    if (!p.evaluated) continue;
    eval_idx.push_back(p.index);
    eval_metrics.push_back(p.metrics);
  }
  for (std::size_t k : pareto_frontier(eval_metrics))
    res.frontier.push_back(eval_idx[k]);

  res.stats.evaluated = eval_idx.size();
  res.stats.invalid = invalid.load();
  const ResultCache::Stats cs = cache.stats();
  res.stats.cache_hits = cs.hits;
  res.stats.cache_misses = cs.misses;
  res.stats.cache_rejected = cs.rejected;
  res.stats.full_compiles = full_compiles.load();
  res.stats.characterizations = sta::characterization_count() - chars_before;
  const core::CompileCache::Stats ls = compile_cache->stats();
  res.stats.leaf_lookups = ls.leaf_lookups;
  res.stats.leaf_misses = ls.leaf_misses;
  res.stats.termination = opt.cancel && opt.cancel->stop_requested()
                              ? opt.cancel->stop_reason()
                              : Termination::Completed;
  return res;
}

std::string SweepResult::frontier_json() const {
  JsonWriter j;
  j.begin_object();
  j.key("schema").value(static_cast<std::uint64_t>(kDseSchemaVersion));
  j.key("frontier").begin_array();
  for (std::size_t i : frontier) point_json(j, points[i]);
  j.end_array();
  j.end_object();
  return j.str();
}

std::string SweepResult::json(bool include_all_points) const {
  JsonWriter j;
  j.begin_object();
  j.key("schema").value(static_cast<std::uint64_t>(kDseSchemaVersion));
  j.key("termination").value(termination_name(stats.termination));
  j.key("stats").begin_object();
  j.key("points").value(stats.points);
  j.key("evaluated").value(stats.evaluated);
  j.key("invalid").value(stats.invalid);
  j.key("cache_hits").value(stats.cache_hits);
  j.key("cache_misses").value(stats.cache_misses);
  j.key("cache_rejected").value(stats.cache_rejected);
  j.key("full_compiles").value(stats.full_compiles);
  j.key("characterizations").value(stats.characterizations);
  j.key("leaf_lookups").value(stats.leaf_lookups);
  j.key("leaf_misses").value(stats.leaf_misses);
  j.end_object();
  j.key("frontier").begin_array();
  for (std::size_t i : frontier) point_json(j, points[i]);
  j.end_array();
  if (include_all_points) {
    j.key("points").begin_array();
    for (const PointResult& p : points)
      if (p.evaluated || !p.error.empty()) point_json(j, p);
    j.end_array();
  }
  j.end_object();
  return j.str();
}

}  // namespace bisram::dse
