#include "util/parallel.hpp"

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
/// a condition variable costs nothing measurable. Only workers run
/// queued jobs: a thread waiting in run_on_pool runs none.
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
                 settle(static_cast<std::uint32_t>(i));
               });
}

void UnionFind::flatten(const std::vector<std::uint32_t>& ids) const {
  parallel_for(static_cast<std::int64_t>(ids.size()), kSlotChunk,
               [&](std::int64_t i) {
                 settle(ids[static_cast<std::size_t>(i)]);
               });
}

void UnionFind::settle(std::uint32_t id) const {
  std::uint32_t x = id;
  for (std::uint32_t px; (px = slot(x).load(std::memory_order_relaxed)) != x;)
    x = px;
  slot(id).store(x, std::memory_order_relaxed);
}

namespace detail {

void run_on_pool(int threads, const std::function<void()>& body) {
  ensure(threads >= 1, "run_on_pool: need >= 1 participant");
  const int helpers = threads - 1;
  if (helpers == 0) {
    body();
    return;
  }

  // A helper job runs the body only if it claims the section while it
  // is open; one dequeued after the caller closed it returns without
  // touching `body`, which lives on the caller's stack.
  struct Sync {
    std::mutex m;
    std::condition_variable cv;
    bool open = true;
    int running = 0;  // helpers that claimed and have not returned
    std::exception_ptr error;
  };
  auto sync = std::make_shared<Sync>();

  Pool::instance().submit(helpers, [sync, &body] {
    {
      std::unique_lock<std::mutex> lock(sync->m);
      if (!sync->open) return;
      ++sync->running;
    }
    std::exception_ptr err;
    try {
      body();
    } catch (...) {
      err = std::current_exception();
    }
    std::unique_lock<std::mutex> lock(sync->m);
    if (err && !sync->error) sync->error = err;
    if (--sync->running == 0) sync->cv.notify_all();
  });

  std::exception_ptr caller_error;
  try {
    body();
  } catch (...) {
    caller_error = std::current_exception();
  }
  // The body leaves no work unclaimed, so the caller closes the section
  // and waits only for the helpers already in it, never for a queued job.
  {
    std::unique_lock<std::mutex> lock(sync->m);
    sync->open = false;
    sync->cv.wait(lock, [&] { return sync->running == 0; });
  }
  if (caller_error) std::rethrow_exception(caller_error);
  if (sync->error) std::rethrow_exception(sync->error);
}

}  // namespace detail

}  // namespace bisram
