// The DSE engine (src/dse): lattice enumeration, sweep-spec parsing,
// Pareto extraction against a brute-force oracle, the persistent result
// cache (cold/warm bit-identity, zero warm recharacterization, and the
// rejection drills — corrupted, version-skewed and wrong-fingerprint
// entries must recompute, never crash), deadline cancellation, and
// thread-count invariance.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "dse/cache.hpp"
#include "dse/engine.hpp"
#include "dse/pareto.hpp"
#include "dse/space.hpp"
#include "sta/leaf.hpp"
#include "util/diag.hpp"
#include "util/error.hpp"

namespace bisram::dse {
namespace {

std::string temp_dir() {
  char tmpl[] = "/tmp/bisram_dse_test.XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  if (d == nullptr) throw Error("mkdtemp failed");
  return d;
}

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.base.words = 256;
  sweep.base.bpw = 8;
  sweep.base.bpc = 4;
  sweep.base.spare_rows = 4;
  sweep.base.strap_interval = 16;
  sweep.spare_rows = {4, 8, 16};
  sweep.gate_size = {1.5, 2.5};
  sweep.eval.defects_per_cm2 = 0.8;
  return sweep;
}

bool has_code(const DiagEngine& diag, const std::string& code) {
  for (const Diagnostic& d : diag.diagnostics())
    if (d.code == code) return true;
  return false;
}

TEST(SweepSpace, MixedRadixEnumeratesTheFullLattice) {
  SweepSpec sweep = small_sweep();
  sweep.words = {256, 512};
  sweep.bpw = {8, 16};
  ASSERT_EQ(sweep.size(), 2u * 2u * 3u * 2u);
  // words varies fastest.
  EXPECT_EQ(sweep.point(0).words, 256u);
  EXPECT_EQ(sweep.point(1).words, 512u);
  EXPECT_EQ(sweep.point(0).bpw, sweep.point(1).bpw);
  EXPECT_EQ(sweep.point(2).bpw, 16);
  // Every point is distinct and fingerprints are collision-free here.
  std::set<std::uint64_t> fps;
  for (std::size_t i = 0; i < sweep.size(); ++i)
    fps.insert(sweep.point_fingerprint(i));
  EXPECT_EQ(fps.size(), sweep.size());
  EXPECT_THROW(sweep.point(sweep.size()), SpecError);
}

TEST(SweepSpace, EmptyAxesMeanBaseValueOnly) {
  SweepSpec sweep;
  sweep.base.words = 1024;
  EXPECT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.point(0).words, 1024u);
}

TEST(SweepSpace, FingerprintsAreContentBased) {
  const SweepSpec a = small_sweep();
  SweepSpec b = small_sweep();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.point_fingerprint(3), b.point_fingerprint(3));
  b.eval.defects_per_cm2 *= 2;  // eval params are part of point identity
  EXPECT_NE(a.point_fingerprint(3), b.point_fingerprint(3));
  SweepSpec c = small_sweep();
  c.gate_size = {1.5, 2.6};
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(SweepSpace, FromJsonParsesAxesBaseAndEval) {
  const SweepSpec sweep = SweepSpec::from_json(
      "{ \"base\": {\"words\": 256, \"bpw\": 8, \"bpc\": 4},\n"
      "  \"axes\": {\"spare_rows\": [4, 8], \"gate_size\": [1.5, 2.0],\n"
      "             \"technology\": [\"cda.7u3m1p\", \"cda.5u3m1p\"]},\n"
      "  \"eval\": {\"defects_per_cm2\": 1.5, \"wafer_cost_usd\": 2000} }");
  EXPECT_EQ(sweep.base.words, 256u);
  EXPECT_EQ(sweep.size(), 2u * 2u * 2u);
  EXPECT_EQ(sweep.eval.defects_per_cm2, 1.5);
  EXPECT_EQ(sweep.eval.wafer_cost_usd, 2000);
  EXPECT_EQ(sweep.eval.cluster_alpha, 2.0);  // default survives
  // The technology axis resolves decks by content fingerprint.
  EXPECT_NE(sweep.point_fingerprint(0), sweep.point_fingerprint(4));
}

TEST(SweepSpace, FromJsonStableCodes) {
  struct Case {
    const char* text;
    const char* code;
  };
  const Case cases[] = {
      {"[]", "sweep-bad-type"},
      {"{\"axes\": {\"words\": []}}", "sweep-empty-axis"},
      {"{\"axes\": {\"words\": [1.5]}}", "sweep-bad-type"},
      {"{\"axes\": {\"wordz\": [1]}}", "sweep-unknown-field"},
      {"{\"frobnicate\": 1}", "sweep-unknown-field"},
      {"{\"eval\": {\"defects_per_cm2\": -1}}", "spec-bad-value"},
      {"{\"axes\": {\"technology\": [\"intel.10nm\"]}}", "spec-bad-value"},
      {"{\"base\": {\"words\": \"many\"}}", "spec-bad-type"},
  };
  for (const Case& c : cases) {
    DiagEngine diag("sweep.json");
    SweepSpec::from_json(c.text, &diag, "sweep.json");
    EXPECT_TRUE(has_code(diag, c.code)) << c.text << " wanted " << c.code;
  }
  EXPECT_THROW(SweepSpec::from_json("{\"axes\": 3}"), DiagError);
}

TEST(SweepSpace, FromJsonRejectsOversizedLattices) {
  // 1024 x 1024 x 2 = 2^21 > kMaxPoints, every axis value individually
  // legal: reported as one structured error, no attempt to enumerate.
  std::string axis = "[";
  for (int i = 1; i <= 1024; ++i) axis += (i > 1 ? "," : "") +
                                          std::to_string(i);
  axis += "]";
  DiagEngine diag("sweep.json");
  SweepSpec::from_json("{\"axes\": {\"words\": " + axis +
                           ", \"bpw\": " + axis +
                           ", \"spare_rows\": [4, 8]}}",
                       &diag, "sweep.json");
  EXPECT_TRUE(has_code(diag, "sweep-too-large"));
}

TEST(Pareto, MatchesBruteForceOracle) {
  // Hand-built metric set with known structure: duplicates, a dominated
  // chain, and incomparable trade-off points.
  auto m = [](double area, double yield, double mttf, double cost) {
    models::DesignMetrics d;
    d.area_mm2 = area;
    d.yield = yield;
    d.mttf_hours = mttf;
    d.cost_usd = cost;
    return d;
  };
  const std::vector<models::DesignMetrics> pts = {
      m(1, 0.9, 100, 10),  // 0: frontier
      m(2, 0.9, 100, 10),  // 1: dominated by 0
      m(1, 0.8, 100, 10),  // 2: dominated by 0
      m(0.5, 0.5, 50, 20),  // 3: frontier (cheapest area)
      m(1, 0.9, 100, 10),  // 4: duplicate of 0 -> both stay
      m(3, 0.99, 500, 5),  // 5: frontier (best everything else)
  };
  const std::vector<std::size_t> frontier = pareto_frontier(pts);
  // Brute-force oracle, written independently of dominates().
  std::vector<std::size_t> oracle;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      const auto &a = pts[j], &b = pts[i];
      if (a.area_mm2 <= b.area_mm2 && a.yield >= b.yield &&
          a.mttf_hours >= b.mttf_hours && a.cost_usd <= b.cost_usd &&
          (a.area_mm2 < b.area_mm2 || a.yield > b.yield ||
           a.mttf_hours > b.mttf_hours || a.cost_usd < b.cost_usd))
        dominated = true;
    }
    if (!dominated) oracle.push_back(i);
  }
  EXPECT_EQ(frontier, oracle);
  EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 3, 4, 5}));
}

TEST(DseEngine, ExhaustiveLatticeFrontierEqualsBruteForce) {
  const SweepSpec sweep = small_sweep();
  const SweepResult res = run_sweep(sweep, {});
  ASSERT_EQ(res.stats.evaluated, sweep.size());
  // Oracle: dominance over every evaluated point, straight from the
  // definition.
  std::vector<std::size_t> oracle;
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < res.points.size(); ++j)
      if (i != j && dominates(res.points[j].metrics, res.points[i].metrics))
        dominated = true;
    if (!dominated) oracle.push_back(i);
  }
  EXPECT_EQ(res.frontier, oracle);
  EXPECT_FALSE(res.frontier.empty());
}

TEST(DseEngine, ColdThenWarmIsPureCacheAndBitIdentical) {
  const SweepSpec sweep = small_sweep();
  RunOptions opt;
  opt.cache_dir = temp_dir() + "/cache";

  const SweepResult cold = run_sweep(sweep, opt);
  EXPECT_EQ(cold.stats.full_compiles, sweep.size());
  EXPECT_EQ(cold.stats.cache_hits, 0u);

  const std::uint64_t chars_before = sta::characterization_count();
  const SweepResult warm = run_sweep(sweep, opt);
  // The acceptance bar: a warm rerun performs zero characterizations
  // and zero full compiles — every point is a file read.
  EXPECT_EQ(sta::characterization_count(), chars_before);
  EXPECT_EQ(warm.stats.characterizations, 0u);
  EXPECT_EQ(warm.stats.full_compiles, 0u);
  EXPECT_EQ(warm.stats.cache_hits, sweep.size());
  EXPECT_EQ(warm.frontier_json(), cold.frontier_json());
}

TEST(DseEngine, WidenedSweepReusesEveryOldPoint) {
  SweepSpec sweep = small_sweep();
  RunOptions opt;
  opt.cache_dir = temp_dir() + "/cache";
  run_sweep(sweep, opt);
  // Widen the gate-size axis: only the new column compiles.
  sweep.gate_size = {1.5, 2.5, 3.5};
  const SweepResult widened = run_sweep(sweep, opt);
  EXPECT_EQ(widened.stats.cache_hits, 6u);
  EXPECT_EQ(widened.stats.full_compiles, 3u);
}

TEST(DseEngine, RepeatedAxisValueSharesOneCacheEntry) {
  // Equal lattice points have equal fingerprints, so parallel workers
  // finish the same compile together and store one cache entry at the
  // same instant. Every store must publish: the sweep completes, and
  // its warm rerun is all hits. The race window is short, so each round
  // sweeps into a fresh directory for another chance to collide.
  SweepSpec sweep;
  sweep.base.words = 256;
  sweep.base.bpw = 16;
  sweep.base.bpc = 8;
  sweep.base.strap_interval = 16;
  sweep.spare_rows = std::vector<int>(16, 4);
  for (int round = 0; round < 4; ++round) {
    RunOptions opt;
    opt.threads = 4;
    opt.cache_dir = temp_dir() + "/cache";
    const SweepResult cold = run_sweep(sweep, opt);
    EXPECT_EQ(cold.stats.evaluated, sweep.size());
    EXPECT_EQ(cold.stats.invalid, 0u);
    const SweepResult warm = run_sweep(sweep, opt);
    EXPECT_EQ(warm.stats.cache_hits, sweep.size());
    EXPECT_EQ(warm.stats.full_compiles, 0u);
    EXPECT_EQ(warm.frontier_json(), cold.frontier_json());
  }
}

TEST(DseEngine, ThreadCountInvariantFrontier) {
  const SweepSpec sweep = small_sweep();
  auto frontier_at = [&](int threads) {
    RunOptions opt;
    opt.threads = threads;
    return run_sweep(sweep, opt).frontier_json();
  };
  const std::string one = frontier_at(1);
  EXPECT_EQ(one, frontier_at(2));
  EXPECT_EQ(one, frontier_at(8));
}

TEST(DseEngine, InvalidLatticeCornersAreRecordedNotFatal) {
  SweepSpec sweep = small_sweep();
  sweep.spare_rows = {4, 5};  // 5 is not a paper-supported spare count
  const SweepResult res = run_sweep(sweep, {});
  EXPECT_EQ(res.stats.invalid, 2u);  // 5-spare column, both gate sizes
  EXPECT_EQ(res.stats.evaluated, 2u);
  for (std::size_t i : res.frontier)
    EXPECT_TRUE(res.points[i].evaluated);
  for (const PointResult& p : res.points)
    if (!p.evaluated) EXPECT_FALSE(p.error.empty());
}

TEST(DseEngine, ExpiredDeadlineYieldsValidEmptyPartial) {
  const SweepSpec sweep = small_sweep();
  CancelToken cancel;
  cancel.set_deadline_after_ms(0);  // already expired
  RunOptions opt;
  opt.cancel = &cancel;
  const SweepResult res = run_sweep(sweep, opt);
  EXPECT_EQ(res.stats.termination, Termination::Deadline);
  EXPECT_EQ(res.stats.evaluated, 0u);
  EXPECT_TRUE(res.frontier.empty());
  EXPECT_NE(res.json().find("deadline"), std::string::npos);
}

TEST(DseEngine, CancelledRunKeepsEvaluatedSubsetConsistent) {
  // Cancel mid-run (after the token observes the first chunk) — the
  // result must stay internally consistent whatever completed.
  SweepSpec sweep = small_sweep();
  sweep.gate_size = {1.5, 2.0, 2.5, 3.0};
  CancelToken cancel;
  cancel.cancel();
  RunOptions opt;
  opt.cancel = &cancel;
  const SweepResult res = run_sweep(sweep, opt);
  EXPECT_EQ(res.stats.termination, Termination::Cancelled);
  EXPECT_LE(res.stats.evaluated, sweep.size());
  for (std::size_t i : res.frontier) {
    EXPECT_LT(i, res.points.size());
    EXPECT_TRUE(res.points[i].evaluated);
  }
}

// --- persistent cache rejection drills --------------------------------

class CacheRejection : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = temp_dir() + "/cache";
    sweep_ = small_sweep();
    sweep_.gate_size = {1.5};  // 3 points: quick to recompute
    RunOptions opt;
    opt.cache_dir = dir_;
    cold_ = run_sweep(sweep_, opt);
    ASSERT_EQ(cold_.stats.full_compiles, 3u);
  }

  /// Rewrites one byte at `offset` (from the start or, negative, from
  /// the end) of the given point's cache entry.
  void flip_byte(std::size_t point, long offset) {
    ResultCache cache(dir_);
    const std::string path = cache.entry_path(cold_.points[point].fingerprint);
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(0, std::ios::end);
    const long size = static_cast<long>(f.tellg());
    const long pos = offset >= 0 ? offset : size + offset;
    f.seekg(pos);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(pos);
    f.write(&c, 1);
  }

  SweepResult rerun() {
    RunOptions opt;
    opt.cache_dir = dir_;
    return run_sweep(sweep_, opt);
  }

  std::string dir_;
  SweepSpec sweep_;
  SweepResult cold_;
};

TEST_F(CacheRejection, CorruptPayloadRecomputesThatPointOnly) {
  flip_byte(1, -3);  // inside payload/CRC: CRC check fails
  const SweepResult res = rerun();
  EXPECT_EQ(res.stats.cache_rejected, 1u);
  EXPECT_EQ(res.stats.cache_hits, 2u);
  EXPECT_EQ(res.stats.full_compiles, 1u);  // only the damaged point
  EXPECT_EQ(res.frontier_json(), cold_.frontier_json());
  // The rewrite repaired the entry: the next run is fully warm again.
  const SweepResult healed = rerun();
  EXPECT_EQ(healed.stats.cache_hits, 3u);
  EXPECT_EQ(healed.stats.full_compiles, 0u);
}

TEST_F(CacheRejection, VersionSkewRecomputes) {
  flip_byte(0, 8);  // the format-version word
  const SweepResult res = rerun();
  EXPECT_EQ(res.stats.cache_rejected, 1u);
  EXPECT_EQ(res.stats.full_compiles, 1u);
  EXPECT_EQ(res.frontier_json(), cold_.frontier_json());
}

TEST_F(CacheRejection, WrongFingerprintEntryRecomputes) {
  // Swap two entries' file names: both now hold the other point's
  // payload, and both must be rejected by the embedded fingerprint.
  ResultCache cache(dir_);
  const std::string a = cache.entry_path(cold_.points[0].fingerprint);
  const std::string b = cache.entry_path(cold_.points[1].fingerprint);
  const std::string tmp = dir_ + "/swap.tmp";
  ASSERT_EQ(std::rename(a.c_str(), tmp.c_str()), 0);
  ASSERT_EQ(std::rename(b.c_str(), a.c_str()), 0);
  ASSERT_EQ(std::rename(tmp.c_str(), b.c_str()), 0);
  const SweepResult res = rerun();
  EXPECT_EQ(res.stats.cache_rejected, 2u);
  EXPECT_EQ(res.stats.full_compiles, 2u);
  EXPECT_EQ(res.frontier_json(), cold_.frontier_json());
}

TEST_F(CacheRejection, TruncatedEntryRecomputes) {
  ResultCache cache(dir_);
  const std::string path = cache.entry_path(cold_.points[2].fingerprint);
  // Truncate to half the header.
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << "BSRC";
  f.close();
  const SweepResult res = rerun();
  EXPECT_EQ(res.stats.cache_rejected, 1u);
  EXPECT_EQ(res.stats.full_compiles, 1u);
  EXPECT_EQ(res.frontier_json(), cold_.frontier_json());
}

TEST(ResultCache, NoDirectoryMeansAlwaysMiss) {
  ResultCache cache("");
  EXPECT_FALSE(cache.persistent());
  models::DesignMetrics m;
  m.area_mm2 = 1;
  cache.store(42, m);  // no-op
  models::DesignMetrics out;
  EXPECT_FALSE(cache.load(42, &out));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(ResultCache, RoundTripsExactDoubles) {
  ResultCache cache(temp_dir() + "/cache");
  models::DesignMetrics m;
  m.area_mm2 = 1.0 / 3.0;
  m.yield = 0.123456789012345;
  m.mttf_hours = 5.115e6;
  m.cost_usd = 0.082142857;
  m.access_ns = 17.25;
  m.overhead_pct = 6.9999999;
  cache.store(7, m);
  models::DesignMetrics out;
  ASSERT_TRUE(cache.load(7, &out));
  EXPECT_EQ(out.area_mm2, m.area_mm2);  // bit-exact, not approximate
  EXPECT_EQ(out.yield, m.yield);
  EXPECT_EQ(out.mttf_hours, m.mttf_hours);
  EXPECT_EQ(out.cost_usd, m.cost_usd);
  EXPECT_EQ(out.access_ns, m.access_ns);
  EXPECT_EQ(out.overhead_pct, m.overhead_pct);
}

}  // namespace
}  // namespace bisram::dse
