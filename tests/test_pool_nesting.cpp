// A pooled section entered inside std::call_once while every pool worker
// is busy elsewhere: the DSE sweep's shape, where sweep points on the
// pool share CompileCache's once-per-key leaf characterization, and the
// characterization runs pooled passes of its own. The section's caller
// must finish the section without running anyone else's job. If it ran
// a queued job of the outer section instead, that job would enter the
// same call_once on the thread already inside it, and never return.
//
// The setup needs a pool whose workers are known and all busy, so this
// test has a binary of its own: the pool grows to the widest section a
// process has asked for and keeps its workers. Every section names its
// width, so BISRAM_THREADS does not change the setup. A watchdog ends
// the process with a failure at a deadline instead of letting it hang.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "util/parallel.hpp"

namespace bisram {
namespace {

constexpr int kThreads = 4;  // each section: the caller and 3 workers
constexpr auto kDeadline = std::chrono::seconds(3);

TEST(PoolNesting, CallOnceSectionFinishesWhileEveryWorkerIsBusy) {
  std::mutex m;
  std::condition_variable cv;
  int occupying = 0;  // participants inside the occupying section
  bool done = false;  // the outer section has returned

  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, kDeadline, [&] { return done; })) {
      std::fprintf(stderr,
                   "PoolNesting: the sections did not finish within %lld s "
                   "(deadlock)\n",
                   static_cast<long long>(kDeadline.count()));
      std::fflush(stderr);
      std::_Exit(1);
    }
  });

  // Every pool worker joins this section and stays in it until the
  // outer section ends, or until the deadline.
  std::thread occupier([&] {
    parallel_for(
        kThreads, 1,
        [&](std::int64_t) {
          std::unique_lock<std::mutex> lock(m);
          ++occupying;
          cv.notify_all();
          cv.wait_for(lock, kDeadline, [&] { return done; });
        },
        kThreads);
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return occupying == kThreads; });
  }

  std::once_flag once;
  std::atomic<int> outer_items{0};
  std::atomic<int> inner_items{0};
  std::atomic<int> once_runs{0};
  parallel_for(
      8, 1,
      [&](std::int64_t) {
        std::call_once(once, [&] {
          once_runs.fetch_add(1);
          parallel_for(
              16, 1, [&](std::int64_t) { inner_items.fetch_add(1); },
              kThreads);
        });
        outer_items.fetch_add(1);
      },
      kThreads);
  {
    std::lock_guard<std::mutex> lock(m);
    done = true;
  }
  cv.notify_all();
  occupier.join();
  watchdog.join();

  EXPECT_EQ(once_runs.load(), 1);
  EXPECT_EQ(inner_items.load(), 16);
  EXPECT_EQ(outer_items.load(), 8);
}

}  // namespace
}  // namespace bisram
