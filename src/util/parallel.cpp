#include "util/parallel.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "util/error.hpp"

namespace bisram {

namespace {

std::atomic<int> g_override{0};

/// Slots per pool chunk of UnionFind's linear passes.
constexpr std::int64_t kSlotChunk = 16384;

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

/// A lazily-grown pool of detached worker threads fed from one queue.
/// Workers are created on demand up to the largest participant count any
/// campaign has requested (capped), and persist for the process lifetime
/// — campaign granularity is coarse enough that parking idle workers on
/// a condition variable costs nothing measurable.
class Pool {
 public:
  static Pool& instance() {
    static Pool* p = new Pool;  // intentionally leaked: workers may still
    return *p;                  // be parked at static destruction time
  }

  void submit(int count, const std::function<void()>& job) {
    std::unique_lock<std::mutex> lock(m_);
    grow(count);
    for (int i = 0; i < count; ++i) queue_.push_back(job);
    cv_.notify_all();
  }

  /// Pops and runs one queued job on the calling thread; false when the
  /// queue is empty. Lets a thread blocked in run_on_pool help drain the
  /// queue instead of waiting: with nested parallel sections every
  /// worker can be parked inside an outer wait, and without helping the
  /// inner jobs they are waiting on would never be picked up (deadlock).
  bool try_run_one() {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(m_);
      if (queue_.empty()) return false;
      job = std::move(queue_.front());
      queue_.erase(queue_.begin());
    }
    job();
    return true;
  }

 private:
  void grow(int target) {  // caller holds m_
    static constexpr int kMaxWorkers = 256;
    if (target > kMaxWorkers) target = kMaxWorkers;
    while (spawned_ < target) {
      ++spawned_;
      std::thread([this] { worker(); }).detach();
    }
  }

  void worker() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [this] { return !queue_.empty(); });
        job = std::move(queue_.front());
        queue_.erase(queue_.begin());
      }
      job();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;
  int spawned_ = 0;
};

}  // namespace

int campaign_threads() {
  if (const char* env = std::getenv("BISRAM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096)
      return static_cast<int>(v);
  }
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced > 0) return forced;
  return hardware_threads();
}

int set_campaign_threads(int n) {
  require(n >= 0, "set_campaign_threads: thread count must be >= 0");
  return g_override.exchange(n, std::memory_order_relaxed);
}

void UnionFind::reset(std::size_t n) const {
  parent_->resize(n);
  std::uint32_t* const up = parent_->data();
  parallel_for(static_cast<std::int64_t>(n), kSlotChunk, [up](std::int64_t i) {
    up[i] = static_cast<std::uint32_t>(i);
  });
}

void UnionFind::flatten() const {
  // Each slot stores its root. The walk writes nothing but its own slot,
  // so a slot once set to its root stays there.
  parallel_for(static_cast<std::int64_t>(parent_->size()), kSlotChunk,
               [this](std::int64_t i) {
                 auto x = static_cast<std::uint32_t>(i);
                 for (std::uint32_t px;
                      (px = slot(x).load(std::memory_order_relaxed)) != x;)
                   x = px;
                 slot(static_cast<std::uint32_t>(i))
                     .store(x, std::memory_order_relaxed);
               });
}

namespace detail {

void run_on_pool(int threads, const std::function<void()>& body) {
  ensure(threads >= 1, "run_on_pool: need >= 1 participant");
  const int helpers = threads - 1;
  if (helpers == 0) {
    body();
    return;
  }

  struct Sync {
    std::mutex m;
    std::condition_variable cv;
    int remaining;
    std::exception_ptr error;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = helpers;

  Pool::instance().submit(helpers, [sync, &body] {
    std::exception_ptr err;
    try {
      body();
    } catch (...) {
      err = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(sync->m);
    if (err && !sync->error) sync->error = err;
    if (--sync->remaining == 0) sync->cv.notify_all();
  });

  std::exception_ptr caller_error;
  try {
    body();
  } catch (...) {
    caller_error = std::current_exception();
  }
  // Help-while-waiting: drain pool jobs instead of parking. A nested
  // parallel section queues its helper jobs on the same global pool;
  // if every worker is blocked here waiting on its own helpers, those
  // jobs would otherwise never run. The timed wait only bounds how
  // stale our "queue is empty" observation can get — completion itself
  // is signalled through the condition variable as usual.
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(sync->m);
      if (sync->remaining == 0) break;
    }
    if (Pool::instance().try_run_one()) continue;
    std::unique_lock<std::mutex> lock(sync->m);
    if (sync->cv.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return sync->remaining == 0; }))
      break;
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (sync->error) std::rethrow_exception(sync->error);
}

}  // namespace detail

}  // namespace bisram
