// dse_sweep: an architect exploring the design space. One operation is
// a cold dse::run_sweep over a 72-point lattice into an empty cache
// directory, then the same sweep widened with gate_size 2.0 (108
// points, 36 new) against that directory. The frontier of each run must
// equal a dominance scan the benchmark does itself, no point may carry
// an error, and every point the widened sweep served from the cache
// must equal the cold sweep's metrics exactly.
//
// run_sweep is one opaque call, so the traced run additionally drives
// the whole cold lattice one point at a time, serially, through the
// Compiler stages -> models::evaluate_designs -> dse::pareto_frontier,
// once per run (in its first operation); its core.* spans are those
// serial sums. The replay's wall time counts against the run's seconds,
// so a traced run lasts as long as an untraced one.

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/compiler.hpp"
#include "dse/engine.hpp"
#include "dse/pareto.hpp"
#include "sta/leaf.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace bisbench {

using namespace bisram;

namespace {

/// The sweep constants file the eval block is read from.
constexpr const char* kEvalFile = "examples/sweeps/fig6_spares.json";

dse::SweepSpec lattice(const models::EvalParams& eval, bool widened) {
  dse::SweepSpec s;
  s.base.bpc = 8;
  s.base.strap_interval = 16;
  s.words = {256, 1024};
  s.bpw = {16, 32};
  s.spare_rows = {4, 8, 16};
  s.gate_size = widened ? std::vector<double>{1.5, 2.0, 2.5}
                        : std::vector<double>{1.5, 2.5};
  s.tech = {{"cda.5u3m1p", nullptr},
            {"cda.7u3m1p", nullptr},
            {"mos.6u3m1pHP", nullptr}};
  s.eval = eval;
  return s;
}

/// Our own dominance test over the four objectives (area and cost
/// minimized, yield and MTTF maximized).
bool beats(const models::DesignMetrics& a, const models::DesignMetrics& b) {
  const bool no_worse = a.area_mm2 <= b.area_mm2 && a.yield >= b.yield &&
                        a.mttf_hours >= b.mttf_hours && a.cost_usd <= b.cost_usd;
  const bool better = a.area_mm2 < b.area_mm2 || a.yield > b.yield ||
                      a.mttf_hours > b.mttf_hours || a.cost_usd < b.cost_usd;
  return no_worse && better;
}

/// Frontier lattice indices by brute-force dominance scan.
std::vector<std::size_t> own_frontier(const std::vector<dse::PointResult>& pts) {
  std::vector<std::size_t> f;
  for (const dse::PointResult& p : pts) {
    if (!p.evaluated) continue;
    bool dominated = false;
    for (const dse::PointResult& q : pts)
      if (q.evaluated && beats(q.metrics, p.metrics)) {
        dominated = true;
        break;
      }
    if (!dominated) f.push_back(p.index);
  }
  return f;
}

bool same_metrics(const models::DesignMetrics& a,
                  const models::DesignMetrics& b) {
  return a.area_mm2 == b.area_mm2 && a.yield == b.yield &&
         a.mttf_hours == b.mttf_hours && a.cost_usd == b.cost_usd &&
         a.access_ns == b.access_ns && a.overhead_pct == b.overhead_pct;
}

using Key = std::tuple<std::uint32_t, int, int, double, std::string>;
Key key_of(const core::RamSpec& s) {
  return {s.words, s.bpw, s.spare_rows, s.gate_size, s.technology};
}

std::vector<std::size_t> index_list(const JsonValue& v) {
  std::vector<std::size_t> out;
  for (const JsonValue& x : v.items())
    out.push_back(static_cast<std::size_t>(x.as_i64()));
  return out;
}

void check_sweep(const dse::SweepResult& r, const char* what,
                 std::size_t points, std::uint64_t hits,
                 const std::vector<std::size_t>& frontier, Ledger& led) {
  std::size_t errors = 0;
  for (const dse::PointResult& p : r.points)
    if (!p.error.empty() || !p.evaluated) ++errors;
  led.check(r.points.size() == points && errors == 0,
            strfmt("%s: %zu points with %zu errors, expected %zu clean",
                   what, r.points.size(), errors, points));
  led.check(r.stats.cache_hits == hits &&
                r.stats.full_compiles == points - hits,
            strfmt("%s: %llu cache hits / %llu compiles, expected %llu / %llu",
                   what, static_cast<unsigned long long>(r.stats.cache_hits),
                   static_cast<unsigned long long>(r.stats.full_compiles),
                   static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(points - hits)));
  led.check(r.frontier == own_frontier(r.points),
            strfmt("%s: frontier differs from the dominance scan", what));
  led.check(r.frontier == frontier,
            strfmt("%s: frontier differs from the expected file", what));
}

/// The traced-only serial replay (see the file comment).
void serial_replay(const dse::SweepSpec& sweep, const dse::SweepResult& cold,
                   Recorder& rec, Ledger& led) {
  auto cache = std::make_shared<core::CompileCache>();
  std::vector<models::EvalInputs> inputs;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const core::RamSpec spec = sweep.point(i);
    core::Compiler session(cache);
    const tech::Tech* t = nullptr;
    {
      Recorder::Span s(rec, "core.resolve_tech");
      t = &session.resolve_tech(spec);
    }
    {
      Recorder::Span s(rec, "core.leaf_library");
      session.leaf_library(*t, spec.gate_size,
                           std::max(1, log2_ceil(static_cast<std::uint64_t>(
                                           spec.geometry().total_rows()))));
    }
    std::optional<core::Assembled> a;
    {
      Recorder::Span s(rec, "core.assemble");
      a.emplace(session.assemble(spec, *t));
    }
    core::Datasheet ds;
    {
      Recorder::Span s(rec, "core.datasheet");
      ds = session.datasheet(spec, *t, *a);
    }
    models::EvalInputs in;
    in.geo = ds.geo;
    in.area_mm2 = ds.area_mm2;
    in.base_area_mm2 = ds.array_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
    in.access_s = ds.timing.access_s;
    in.overhead_pct = ds.overhead_pct;
    inputs.push_back(in);
  }
  std::vector<models::DesignMetrics> m;
  {
    Recorder::Span s(rec, "models.evaluate_designs");
    m = models::evaluate_designs(inputs, sweep.eval, /*threads=*/1);
  }
  std::vector<std::size_t> front;
  {
    Recorder::Span s(rec, "dse.pareto_frontier");
    front = dse::pareto_frontier(m);
  }
  bool same = m.size() == cold.points.size();
  std::vector<dse::PointResult> pts;
  for (std::size_t k = 0; same && k < m.size(); ++k) {
    same = same_metrics(m[k], cold.points[k].metrics);
    dse::PointResult p;
    p.index = k;
    p.metrics = m[k];
    p.evaluated = true;
    pts.push_back(p);
  }
  led.check(same, "serial replay: metrics differ from run_sweep's");
  led.check(front == own_frontier(pts) && front == cold.frontier,
            "serial replay: pareto_frontier differs from the dominance scan "
            "or from run_sweep's frontier");
  rec.set("core.leaf_misses", static_cast<double>(cache->stats().leaf_misses));
}

}  // namespace

RunResult run_dse_sweep(const RunConfig& cfg, Recorder& rec, Ledger& led,
                        Timings& tm) {
  const JsonValue& exp = *cfg.expected;
  const std::vector<std::size_t> cold_front = index_list(need(exp, "frontier"));
  const std::vector<std::size_t> wide_front =
      index_list(need(exp, "widened_frontier"));

  // Set-up: read the eval constants, then warm the pool and every deck
  // with one small compile each (a private CompileCache per compile, so
  // nothing the sweeps use is pre-computed).
  dse::SweepSpec cold_spec, wide_spec;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::ifstream f(kEvalFile);
    if (!f) throw Error(std::string("cannot read ") + kEvalFile);
    std::stringstream text;
    text << f.rdbuf();
    const models::EvalParams eval =
        dse::SweepSpec::from_json(text.str(), nullptr, kEvalFile).eval;
    cold_spec = lattice(eval, false);
    wide_spec = lattice(eval, true);
    for (const dse::TechChoice& tc : cold_spec.tech) {
      core::RamSpec small = cold_spec.point(0);
      small.technology = tc.name;
      core::Compiler().run(small);
    }
    tm.setup_s.push_back(seconds_since(t0));
  }

  RunResult res;
  std::vector<double> cold_s, resweep_s;
  double timed = 0;
  while (another_fits(tm.op_s, timed, cfg.seconds)) {
    const std::string dir = fresh_dir(cfg.work_dir, "dse");
    dse::RunOptions opt;
    opt.cache_dir = dir;
    tm.start_op();
    const Clock::time_point t0 = Clock::now();
    dse::SweepResult cold, wide;
    const std::uint64_t chars0 = sta::characterization_count();
    led.begin_op();
    try {
      {
        Recorder::Span s(rec, "dse.run_sweep.cold");
        cold = dse::run_sweep(cold_spec, opt);
      }
      cold_s.push_back(seconds_since(t0));
      const Clock::time_point t1 = Clock::now();
      {
        Recorder::Span s(rec, "dse.run_sweep.resweep");
        wide = dse::run_sweep(wide_spec, opt);
      }
      resweep_s.push_back(seconds_since(t1));
    } catch (const std::exception& e) {
      led.fail(std::string("run_sweep threw: ") + e.what());
      remove_tree(dir);
      break;
    }
    const double wall = seconds_since(t0);
    tm.end_op(wall);
    timed += wall;
    check_sweep(cold, "cold sweep", cold_spec.size(), 0, cold_front, led);
    led.begin_op();
    check_sweep(wide, "widened sweep", wide_spec.size(), cold_spec.size(),
                wide_front, led);
    // Cache hits must reproduce the cold sweep's metrics bit for bit.
    std::map<Key, models::DesignMetrics> by_spec;
    for (const dse::PointResult& p : cold.points)
      by_spec[key_of(p.spec)] = p.metrics;
    std::size_t matched = 0;
    for (const dse::PointResult& p : wide.points) {
      const auto it = by_spec.find(key_of(p.spec));
      if (it != by_spec.end() && same_metrics(it->second, p.metrics)) ++matched;
    }
    led.check(matched == cold.points.size(),
              "widened sweep: cached points differ from the cold sweep");

    rec.set("dse.full_compiles",
            static_cast<double>(cold.stats.full_compiles +
                                wide.stats.full_compiles));
    rec.set("dse.cache_hits", static_cast<double>(wide.stats.cache_hits));
    rec.set("dse.cache_misses", static_cast<double>(cold.stats.cache_misses +
                                                    wide.stats.cache_misses));
    rec.set("sta.characterizations",
            static_cast<double>(sta::characterization_count() - chars0));
    if (rec.enabled() && tm.op_s.size() == 1) {
      const Clock::time_point t2 = Clock::now();
      serial_replay(cold_spec, cold, rec, led);
      timed += seconds_since(t2);
    }
    rec.end_op();
    res.notes = {strfmt(
        "cold: %zu points, %llu compiles, %llu leaf characterizations, "
        "frontier %zu; widened: %zu points, %llu cache hits, %llu compiles, "
        "frontier %zu",
        cold.points.size(),
        static_cast<unsigned long long>(cold.stats.full_compiles),
        static_cast<unsigned long long>(cold.stats.characterizations),
        cold.frontier.size(), wide.points.size(),
        static_cast<unsigned long long>(wide.stats.cache_hits),
        static_cast<unsigned long long>(wide.stats.full_compiles),
        wide.frontier.size())};
    for (const auto& [name, r] : {std::pair{"cold", &cold}, {"widened", &wide}}) {
      std::string ids;
      for (std::size_t i : r->frontier)
        ids += (ids.empty() ? "" : ", ") + std::to_string(i);
      res.notes.push_back(std::string(name) + " frontier indices: [" + ids + "]");
    }
    remove_tree(dir);
  }
  // Both sweeps are the work: cold compiles plus the widened sweep's
  // cache reads and stores, over the wall time of the two together.
  tm.work_units =
      static_cast<double>((cold_spec.size() + wide_spec.size()) * tm.op_s.size());
  for (double s : tm.op_s) tm.work_wall_s += s;
  res.named["sweep_points_per_s"] = {
      static_cast<double>(cold_spec.size()) / median(cold_s), "points/s"};
  res.named["resweep_s"] = {median(resweep_s), "s"};
  res.named["sweeps"] = {static_cast<double>(cold_s.size()), "count"};
  res.spec_json =
      "{\"base\":{\"bpc\":8,\"strap_interval\":16},\"words\":[256,1024],"
      "\"bpw\":[16,32],\"spare_rows\":[4,8,16],\"gate_size\":[1.5,2.5],"
      "\"widened_gate_size\":[1.5,2.0,2.5],\"technology\":[\"cda.5u3m1p\","
      "\"cda.7u3m1p\",\"mos.6u3m1pHP\"],\"eval_from\":\"" +
      std::string(kEvalFile) +
      "\",\"traced_serial_replay\":\"whole cold lattice, first operation\","
      "\"work_unit\":\"lattice points of the cold sweep plus the widened "
      "sweep, over the wall time of both\"}";
  return res;
}

}  // namespace bisbench
