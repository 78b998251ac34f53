// Kill-and-resume equivalence for the checkpointed campaigns: a run
// that is stopped at a checkpoint boundary, then resumed from the file,
// must finish with results *bit-identical* to an uninterrupted run — at
// every thread count and every checkpoint cadence. The deterministic
// "kill" is CheckpointSpec::pause_after, which stops the campaign at
// the first segment boundary past N trials and force-writes the
// checkpoint, exactly what a SIGTERM between two segments would leave
// on disk. The rejection half of the suite proves damaged checkpoint
// files (truncated, bit-flipped, wrong version, wrong campaign, wrong
// spec, counts that cannot come from the trials they claim) are refused
// with a clean SpecError instead of resuming from garbage, that the
// campaigns without a checkpoint codec refuse checkpointing, and that
// concurrent writers of one path each publish a whole file.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "march/march.hpp"
#include "models/reliability.hpp"
#include "models/wafermap.hpp"
#include "models/yield.hpp"
#include "sim/fault_sim.hpp"
#include "sim/infra_faults.hpp"
#include "util/checkpoint.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace bisram {
namespace {

/// Forces the engine to `n` threads for the enclosing scope.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) : prev_(set_campaign_threads(n)) {}
  ~ThreadGuard() { set_campaign_threads(prev_); }

 private:
  int prev_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

/// Two checkpoint cadences: the trials/16 default and a deliberately
/// tiny interval that clamps to one segment per chunk — the densest
/// boundary grid the engine supports.
constexpr std::int64_t kIntervals[] = {0, 1};

sim::RamGeometry small_geo() {
  sim::RamGeometry g;
  g.words = 64;
  g.bpw = 4;
  g.bpc = 4;
  g.spare_rows = 4;
  return g;
}

models::WaferSpec wafer_spec() {
  models::WaferSpec w;
  w.wafer_mm = 150;
  w.die_w_mm = 10;
  w.die_h_mm = 10;
  w.defects_per_cm2 = 1.0;
  w.cluster_alpha = 2.0;
  w.ram_fraction = 0.3;
  w.ram_geo = small_geo();
  return w;
}

std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "bisram_" + name + ".ckpt";
}

/// Removes the file on scope exit so reruns start clean.
class FileJanitor {
 public:
  explicit FileJanitor(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~FileJanitor() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_wafer_equal(const models::WaferCampaignStats& a,
                        const models::WaferCampaignStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.yield_with_bisr, b.yield_with_bisr) << what;
  EXPECT_EQ(a.yield_with_bisr_se, b.yield_with_bisr_se) << what;
  EXPECT_EQ(a.yield_without_bisr, b.yield_without_bisr) << what;
  EXPECT_EQ(a.yield_without_bisr_se, b.yield_without_bisr_se) << what;
  EXPECT_EQ(a.mean_defects_per_die, b.mean_defects_per_die) << what;
  EXPECT_EQ(a.mean_defects_per_die_se, b.mean_defects_per_die_se) << what;
  EXPECT_EQ(a.die_sims, b.die_sims) << what;
}

void expect_yield_equal(const models::BisrYieldMc& a,
                        const models::BisrYieldMc& b,
                        const std::string& what) {
  EXPECT_EQ(a.bist_repaired, b.bist_repaired) << what;
  EXPECT_EQ(a.bist_repaired_se, b.bist_repaired_se) << what;
  EXPECT_EQ(a.strict_good, b.strict_good) << what;
  EXPECT_EQ(a.strict_good_se, b.strict_good_se) << what;
  EXPECT_EQ(a.die_sims, b.die_sims) << what;
}

/// The shared drill: uninterrupted reference, then pause -> resume at
/// every (threads, interval) combination, asserting bitwise equality.
template <typename Run, typename Equal>
void kill_and_resume_drill(Run&& run, Equal&& equal, const char* tag,
                           std::int64_t trials = 20000) {
  ThreadGuard serial(1);
  sim::CampaignSpec base{.trials = trials, .seed = 42};
  const auto reference = run(base);
  ASSERT_EQ(reference.termination, Termination::Completed);
  for (int threads : kThreadCounts) {
    ThreadGuard guard(threads);
    for (std::int64_t interval : kIntervals) {
      FileJanitor file(scratch_path(std::string(tag) + "_t" +
                                    std::to_string(threads) + "_i" +
                                    std::to_string(interval)));
      sim::CampaignSpec first = base;
      first.checkpoint.path = file.path();
      first.checkpoint.interval = interval;
      first.checkpoint.pause_after = base.trials / 3;
      const auto paused = run(first);
      const std::string what = std::string(tag) + ", " +
                               std::to_string(threads) + " threads, interval " +
                               std::to_string(interval);
      ASSERT_EQ(paused.termination, Termination::Cancelled) << what;
      ASSERT_GT(paused.provenance.checkpoints_written, 0) << what;
      ASSERT_LT(paused.provenance.trials_done, base.trials) << what;

      sim::CampaignSpec second = base;
      second.checkpoint.resume = file.path();
      second.checkpoint.interval = interval;
      const auto resumed = run(second);
      ASSERT_EQ(resumed.termination, Termination::Resumed) << what;
      equal(reference.value, resumed.value, what);
    }
  }
}

TEST(KillAndResume, WaferPlainBitIdentical) {
  const models::WaferSpec wafer = wafer_spec();
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Plain;
        return models::wafer_yield_campaign(wafer, s);
      },
      expect_wafer_equal, "wafer_plain");
}

TEST(KillAndResume, WaferStratifiedBitIdentical) {
  const models::WaferSpec wafer = wafer_spec();
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Stratified;
        return models::wafer_yield_campaign(wafer, s);
      },
      expect_wafer_equal, "wafer_strat");
}

TEST(KillAndResume, YieldPlainBitIdentical) {
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Plain;
        return models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05,
                                               s);
      },
      expect_yield_equal, "yield_plain", /*trials=*/1600);
}

TEST(KillAndResume, YieldStratifiedBitIdentical) {
  kill_and_resume_drill(
      [&](sim::CampaignSpec s) {
        s.sampling.mode = sim::SamplingMode::Stratified;
        return models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05,
                                               s);
      },
      expect_yield_equal, "yield_strat", /*trials=*/1600);
}

TEST(KillAndResume, TwoConsecutivePausesStillBitIdentical) {
  // Kill, resume, kill again, resume again: the chain of partial files
  // must compose to the uninterrupted answer.
  const models::WaferSpec wafer = wafer_spec();
  sim::CampaignSpec base{.trials = 20000, .seed = 42};
  ThreadGuard guard(2);
  const auto reference = models::wafer_yield_campaign(wafer, base);

  FileJanitor file(scratch_path("two_pauses"));
  sim::CampaignSpec leg = base;
  leg.checkpoint.path = file.path();
  leg.checkpoint.pause_after = 5000;
  const auto first = models::wafer_yield_campaign(wafer, leg);
  ASSERT_EQ(first.termination, Termination::Cancelled);

  leg.checkpoint.resume = file.path();
  leg.checkpoint.pause_after = 6000;  // past the restored point
  const auto second = models::wafer_yield_campaign(wafer, leg);
  ASSERT_EQ(second.termination, Termination::Cancelled);
  ASSERT_GT(second.provenance.trials_done, 0);

  sim::CampaignSpec last = base;
  last.checkpoint.resume = file.path();
  const auto final_run = models::wafer_yield_campaign(wafer, last);
  ASSERT_EQ(final_run.termination, Termination::Resumed);
  expect_wafer_equal(reference.value, final_run.value, "two pauses");
}

TEST(KillAndResume, ResumeAtCheckpointEqualsCompletedFileIsIgnored) {
  // Pausing past the end is a no-op kill: the campaign completes and
  // reports Completed, not Cancelled.
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("pause_past_end"));
  sim::CampaignSpec s{.trials = 4000, .seed = 9};
  s.checkpoint.path = file.path();
  s.checkpoint.pause_after = 400000;
  const auto r = models::wafer_yield_campaign(wafer, s);
  EXPECT_EQ(r.termination, Termination::Completed);
}

// --- damaged-file rejection ------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a real wafer checkpoint and returns its bytes.
std::string make_checkpoint(const models::WaferSpec& wafer,
                            const std::string& path) {
  sim::CampaignSpec s{.trials = 20000, .seed = 42};
  s.checkpoint.path = path;
  s.checkpoint.pause_after = 5000;
  const auto r = models::wafer_yield_campaign(wafer, s);
  EXPECT_EQ(r.termination, Termination::Cancelled);
  return read_file(path);
}

TEST(CheckpointRejection, DamagedFilesAreRefusedCleanly) {
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("damaged"));
  const std::string good = make_checkpoint(wafer, file.path());
  ASSERT_GT(good.size(), 24u);

  sim::CampaignSpec resume{.trials = 20000, .seed = 42};
  resume.checkpoint.resume = file.path();
  auto expect_refused = [&](const std::string& bytes, const char* what) {
    write_file(file.path(), bytes);
    EXPECT_THROW(models::wafer_yield_campaign(wafer, resume), SpecError)
        << what;
  };

  expect_refused(good.substr(0, good.size() / 2), "truncated payload");
  expect_refused(good.substr(0, 6), "shorter than the header");
  expect_refused(std::string(), "empty file");

  std::string flipped = good;
  flipped[flipped.size() / 2] =
      static_cast<char>(flipped[flipped.size() / 2] ^ 0x40);
  expect_refused(flipped, "bit flip in the payload (CRC)");

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  expect_refused(bad_magic, "wrong magic");

  std::string bad_version = good;
  bad_version[8] = static_cast<char>(bad_version[8] ^ 0x7f);
  expect_refused(bad_version, "wrong format version");

  // The intact file still resumes — the damage above was the problem,
  // not the harness.
  write_file(file.path(), good);
  const auto ok = models::wafer_yield_campaign(wafer, resume);
  EXPECT_EQ(ok.termination, Termination::Resumed);
}

TEST(CheckpointRejection, WrongSpecOrCampaignFingerprint) {
  const models::WaferSpec wafer = wafer_spec();
  FileJanitor file(scratch_path("fingerprint"));
  make_checkpoint(wafer, file.path());

  // Different seed: the streams would not line up.
  sim::CampaignSpec wrong_seed{.trials = 20000, .seed = 43};
  wrong_seed.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, wrong_seed), SpecError);

  // Different trial budget: the segment grid would not line up.
  sim::CampaignSpec wrong_trials{.trials = 30000, .seed = 42};
  wrong_trials.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, wrong_trials), SpecError);

  // Different wafer geometry: a different experiment entirely.
  models::WaferSpec other = wafer;
  other.defects_per_cm2 = 2.0;
  sim::CampaignSpec same{.trials = 20000, .seed = 42};
  same.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(other, same), SpecError);

  // A wafer checkpoint fed to the BIST yield campaign.
  sim::CampaignSpec cross{.trials = 20000, .seed = 42};
  cross.checkpoint.resume = file.path();
  EXPECT_THROW(
      models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05, cross),
      SpecError);

  // A plain-mode checkpoint fed to a stratified resume of the same spec.
  sim::CampaignSpec cross_mode{.trials = 20000, .seed = 42};
  cross_mode.sampling.mode = sim::SamplingMode::Stratified;
  cross_mode.checkpoint.resume = file.path();
  EXPECT_THROW(models::wafer_yield_campaign(wafer, cross_mode), SpecError);

  // A missing file is a clean error, not a silent fresh start.
  sim::CampaignSpec missing{.trials = 20000, .seed = 42};
  missing.checkpoint.resume = file.path() + ".nowhere";
  EXPECT_THROW(models::wafer_yield_campaign(wafer, missing), SpecError);
}

// --- counts that cannot come from the trials they claim ---------------
// These files carry a valid CRC and fingerprint; only the counts are
// wrong. The payload layout (sim/campaign.hpp's run_streams) is the
// current stream index, the trials folded into it, then one accumulator
// per stream up to it: 5 words for the wafer campaign (good, saved,
// Welford count, mean, m2), 2 for the BIST yield campaign (repaired,
// strict).

constexpr std::size_t kHeaderBytes = 32;

std::int64_t payload_word(const std::string& bytes, std::size_t word) {
  std::int64_t v = 0;
  std::memcpy(&v, bytes.data() + kHeaderBytes + 8 * word, sizeof v);
  return v;
}

/// Recomputes the trailing CRC after an edit.
std::string resealed(std::string bytes) {
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  return bytes;
}

std::string with_word(std::string bytes, std::size_t word,
                      std::int64_t value) {
  std::memcpy(bytes.data() + kHeaderBytes + 8 * word, &value, sizeof value);
  return resealed(std::move(bytes));
}

/// One zero word appended to the payload, with the size field to match.
std::string with_trailing_word(std::string bytes) {
  bytes.insert(bytes.size() - 4, 8, '\0');
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 24, sizeof n);
  n += 8;
  std::memcpy(bytes.data() + 24, &n, sizeof n);
  return resealed(std::move(bytes));
}

TEST(CheckpointRejection, InconsistentCountsWithValidCrcAreRefused) {
  using Run = std::function<void(const sim::CampaignSpec&)>;
  struct Case {
    const char* name;
    sim::SamplingMode mode;
    int trials;
    std::size_t acc_words;  ///< payload words per stream accumulator
    Run run;
  };
  const models::WaferSpec wafer = wafer_spec();
  const Run wafer_run = [&](const sim::CampaignSpec& s) {
    models::wafer_yield_campaign(wafer, s);
  };
  const Run yield_run = [&](const sim::CampaignSpec& s) {
    models::bisr_yield_mc_with_bist(small_geo(), 3.0, 2.0, 1.05, s);
  };
  const Case cases[] = {
      {"wafer plain", sim::SamplingMode::Plain, 20000, 5, wafer_run},
      {"wafer stratified", sim::SamplingMode::Stratified, 20000, 5,
       wafer_run},
      {"yield plain", sim::SamplingMode::Plain, 1600, 2, yield_run},
      {"yield stratified", sim::SamplingMode::Stratified, 1600, 2,
       yield_run},
  };
  const std::int64_t nan_bits =
      std::bit_cast<std::int64_t>(std::numeric_limits<double>::quiet_NaN());
  const std::int64_t negative_bits = std::bit_cast<std::int64_t>(-1.0);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    FileJanitor file(scratch_path("inconsistent"));
    sim::CampaignSpec base{.trials = c.trials, .seed = 42};
    base.sampling.mode = c.mode;
    sim::CampaignSpec pause = base;
    pause.checkpoint.path = file.path();
    pause.checkpoint.pause_after = c.trials / 3;
    c.run(pause);
    const std::string good = read_file(file.path());
    sim::CampaignSpec resume = base;
    resume.checkpoint.resume = file.path();

    const std::int64_t stream = payload_word(good, 0);
    const std::int64_t done = payload_word(good, 1);
    // Word offsets of stream 0's accumulator (finished whenever the pause
    // landed past it) and of the current stream's.
    const std::size_t first = 2;
    const std::size_t cur =
        first + static_cast<std::size_t>(stream) * c.acc_words;
    std::vector<std::pair<const char*, std::string>> bad = {
        {"stream index past the last stream", with_word(good, 0, 1 << 20)},
        {"trials past the stream", with_word(good, 1, 1 << 30)},
        {"a trailing payload word", with_trailing_word(good)},
    };
    if (c.mode == sim::SamplingMode::Plain)  // one long stream, paused early
      bad.push_back(
          {"trials off a segment boundary", with_word(good, 1, done - 1)});
    if (c.acc_words == 5) {  // good <= saved <= n, count == n, finite moments
      // With `good` at the trial count the yield without BISR would
      // exceed the yield with it.
      bad.push_back({"good set to the trial count", with_word(good, cur, done)});
      bad.push_back({"negative good", with_word(good, cur, -1)});
      bad.push_back(
          {"saved above the trials", with_word(good, cur + 1, done + 1)});
      bad.push_back({"Welford count off the trials",
                     with_word(good, cur + 2, done + 1)});
      bad.push_back({"NaN mean", with_word(good, cur + 3, nan_bits)});
      bad.push_back({"negative m2", with_word(good, cur + 4, negative_bits)});
      bad.push_back({"stream 0 saving a million dies",
                     with_word(good, first + 1, 1000000)});
    } else {  // strict <= repaired <= n
      bad.push_back({"strict above repaired",
                     with_word(with_word(good, cur, 0), cur + 1, 1)});
      bad.push_back(
          {"repaired above the trials", with_word(good, cur, done + 1)});
      bad.push_back({"negative strict", with_word(good, cur + 1, -1)});
      bad.push_back({"stream 0 with repaired 0 and strict 239",
                     with_word(with_word(good, first, 0), first + 1, 239)});
      bad.push_back({"stream 0 repairing a million dies",
                     with_word(good, first, 1000000)});
    }
    for (const auto& [what, bytes] : bad) {
      write_file(file.path(), bytes);
      try {
        c.run(resume);
        ADD_FAILURE() << what << ": resumed";
      } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find(file.path()), std::string::npos)
            << what << ": " << e.what();
      }
    }
    // The untouched file still resumes.
    write_file(file.path(), good);
    EXPECT_NO_THROW(c.run(resume));
  }
}

TEST(CheckpointRejection, CampaignsWithoutCheckpointsRefuseThem) {
  const sim::RamGeometry geo = small_geo();
  sim::InfraTrialConfig cfg;
  using Run = std::function<void(const sim::CampaignSpec&)>;
  const std::pair<const char*, Run> campaigns[] = {
      {"bisr_yield_mc_with_infra",
       [&](const sim::CampaignSpec& s) {
         models::bisr_yield_mc_with_infra(geo, 2.0, 2.0, 1.05, 0.08, s);
       }},
      {"fault_coverage",
       [&](const sim::CampaignSpec& s) {
         sim::fault_coverage(march::ifa9(), geo, {sim::FaultKind::StuckAt0},
                             true, s);
       }},
      {"infra_fault_campaign",
       [&](const sim::CampaignSpec& s) {
         sim::infra_fault_campaign(geo, cfg, s);
       }},
      {"reliability_mc",
       [&](const sim::CampaignSpec& s) {
         models::reliability_mc(geo, 1e-9, 5e5, s);
       }},
      {"repair_probability_mc",
       [&](const sim::CampaignSpec& s) {
         models::repair_probability_mc(geo, 4, s);
       }},
  };
  FileJanitor file(scratch_path("no_checkpoints"));
  for (const auto& [name, run] : campaigns) {
    for (bool resume : {false, true}) {
      sim::CampaignSpec s{.trials = 8, .seed = 1};
      (resume ? s.checkpoint.resume : s.checkpoint.path) = file.path();
      const char* field = resume ? "checkpoint.resume" : "checkpoint.path";
      try {
        run(s);
        ADD_FAILURE() << name << " accepted " << field;
      } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << field << ": " << e.what();
      }
    }
  }
  EXPECT_FALSE(std::filesystem::exists(file.path()));
}

TEST(CheckpointPublish, ConcurrentWritersOfOnePathAllSucceed) {
  // Equal DSE points, or two sweeps sharing a cache directory, publish
  // one entry path at the same instant. Every publish must succeed, the
  // file must always hold one writer's complete checkpoint, and no temp
  // file may be left behind.
  FileJanitor file(scratch_path("concurrent_publish"));
  constexpr std::uint64_t kFingerprint = 0xC0FFEEULL;
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        CheckpointWriter ck(kFingerprint);
        ck.i64(w).i64(r);
        try {
          ck.save(file.path());
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  CheckpointReader back(file.path(), kFingerprint);
  const std::int64_t w = back.i64();
  const std::int64_t r = back.i64();
  EXPECT_TRUE(w >= 0 && w < kWriters) << w;
  EXPECT_TRUE(r >= 0 && r < kRounds) << r;
  EXPECT_EQ(back.remaining(), 0u);

  const std::filesystem::path target(file.path());
  const std::string temp_prefix = target.filename().string() + ".";
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path()))
    EXPECT_NE(entry.path().filename().string().rfind(temp_prefix, 0), 0u)
        << "leftover temp file " << entry.path();
}

}  // namespace
}  // namespace bisram
