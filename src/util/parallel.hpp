#pragma once
// Deterministic parallel campaign engine.
//
// Every Monte-Carlo campaign in this repo (fault coverage, yield,
// reliability, wafer maps) is embarrassingly parallel: `trials`
// independent experiments folded by an associative combiner. This header
// provides the one primitive they all share, `parallel_reduce`, built on
// a small lazily-grown thread pool with dynamic chunk scheduling.
//
// The determinism contract — the reason this engine is trustworthy:
//   * each trial draws from its own RNG sub-stream (util/rng.hpp's
//     stream_seed), so the random numbers a trial sees never depend on
//     which thread ran it or in what order;
//   * per-trial results are folded in strict index order within a chunk,
//     and chunk partials are folded in strict chunk order on the calling
//     thread, so the floating-point association is fixed by the chunk
//     size alone — never by the thread count or the scheduler.
// Hence results are bit-identical for any BISRAM_THREADS value, which
// tests/test_parallel_campaigns.cpp enforces.
//
// The signoff engines (drc/, extract/) build on two more primitives kept
// to the same contract: parallel_collect, which joins per-chunk lists in
// chunk order, and UnionFind, whose labels are component minima.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "util/cancel.hpp"

namespace bisram {

/// Worker-thread count campaigns use: the BISRAM_THREADS environment
/// variable when set to a positive integer, else a programmatic override
/// (set_campaign_threads), else the hardware concurrency. Always >= 1;
/// 1 selects the plain serial path (no pool involvement at all).
int campaign_threads();

/// Programmatic override for campaign_threads() (tests, benchmarks).
/// Pass 0 to restore the environment/hardware default. Returns the
/// previous override. Note BISRAM_THREADS, when set, still wins: the
/// environment is the operator's knob of last resort.
int set_campaign_threads(int n);

namespace detail {
/// Runs body() on the calling thread and on up to `threads` - 1 pool
/// workers. body must be safe to run from multiple threads, and the
/// caller's run alone must finish the work (parallel_reduce's body
/// claims chunks from a shared counter until none is left). A worker
/// joins only if it starts before the caller, its own run done, closes
/// the section; one that starts later returns at once. The caller then
/// waits only for the workers that joined, and a waiting thread runs no
/// other section's job, so a section entered under a lock or
/// std::call_once never waits on a job that waits on the same lock.
/// Exceptions thrown by pool workers are captured and rethrown on the
/// caller.
void run_on_pool(int threads, const std::function<void()>& body);
}  // namespace detail

/// Folds `per_trial(i)` for i in [0, trials) with `combine`, splitting
/// the index space into fixed `chunk`-sized blocks that worker threads
/// claim dynamically from a shared counter. `combine(acc, value)` must be
/// associative; `identity` is its neutral element. The fold order is a
/// pure function of (trials, chunk) — see the header comment — so for a
/// fixed chunk size the result is bit-identical no matter how many
/// threads execute it. `threads` <= 0 means campaign_threads().
///
/// Cancellation: when `cancel` is non-null, every participant polls
/// cancel->stop_requested() before claiming each chunk and stops claiming
/// once it fires; chunks already in flight finish (latency is bounded by
/// one chunk of work). The returned fold then covers exactly the chunks
/// that completed — a valid partial result as long as the accumulator
/// carries its own sample count. An attached-but-silent token perturbs
/// nothing: the fold order and result are bit-identical to a run with no
/// token at all.
template <typename T, typename PerTrial, typename Combine>
T parallel_reduce(std::int64_t trials, std::int64_t chunk, T identity,
                  PerTrial&& per_trial, Combine&& combine, int threads = 0,
                  const CancelToken* cancel = nullptr) {
  if (trials <= 0) return identity;
  if (chunk < 1) chunk = 1;
  if (threads <= 0) threads = campaign_threads();

  const std::int64_t nchunks = (trials + chunk - 1) / chunk;
  if (threads == 1 || nchunks == 1) {
    // Serial path: identical association (chunked fold) as the parallel
    // path, just executed in place.
    T acc = identity;
    for (std::int64_t c = 0; c < nchunks; ++c) {
      if (cancel && cancel->stop_requested()) break;
      const std::int64_t lo = c * chunk;
      const std::int64_t hi = std::min(trials, lo + chunk);
      T part = identity;
      for (std::int64_t i = lo; i < hi; ++i) part = combine(std::move(part), per_trial(i));
      acc = combine(std::move(acc), std::move(part));
    }
    return acc;
  }

  if (threads > nchunks) threads = static_cast<int>(nchunks);
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  std::vector<char> finished(static_cast<std::size_t>(nchunks), 0);
  std::atomic<std::int64_t> next{0};
  detail::run_on_pool(threads, [&] {
    for (std::int64_t c;
         !(cancel && cancel->stop_requested()) &&
         (c = next.fetch_add(1, std::memory_order_relaxed)) < nchunks;) {
      const std::int64_t lo = c * chunk;
      const std::int64_t hi = std::min(trials, lo + chunk);
      T part = identity;
      for (std::int64_t i = lo; i < hi; ++i) part = combine(std::move(part), per_trial(i));
      partials[static_cast<std::size_t>(c)] = std::move(part);
      finished[static_cast<std::size_t>(c)] = 1;
    }
  });
  // The pool join publishes every worker's writes; fold only the chunks
  // that actually ran (on an uninterrupted run that is all of them, and
  // folding in chunk order keeps the association thread-independent).
  T acc = identity;
  for (std::int64_t c = 0; c < nchunks; ++c) {
    if (!finished[static_cast<std::size_t>(c)]) continue;
    acc = combine(std::move(acc), std::move(partials[static_cast<std::size_t>(c)]));
  }
  return acc;
}

/// Runs `per_item(i)` for i in [0, items) for side effects only (each
/// item must touch disjoint state). Same scheduling, thread-count and
/// cancellation semantics as parallel_reduce.
template <typename PerItem>
void parallel_for(std::int64_t items, std::int64_t chunk, PerItem&& per_item,
                  int threads = 0, const CancelToken* cancel = nullptr) {
  struct Nothing {};
  parallel_reduce<Nothing>(
      items, chunk, Nothing{},
      [&](std::int64_t i) {
        per_item(i);
        return Nothing{};
      },
      [](Nothing, Nothing) { return Nothing{}; }, threads, cancel);
}

/// Runs `fn(lo, hi, list)` for every fixed `chunk`-sized block [lo, hi)
/// of [0, n) on the pool, each block appending to a list of its own, and
/// appends the lists to `out` in block order: the list one serial scan
/// over [0, n) would append, at any thread count. Each list is reserved
/// `reserve` entries on the calling thread, so a block that stays within
/// that leaves the workers' heaps alone. `out` grows geometrically
/// (exactly on its first fill), as appends would grow it, and each list
/// is freed once appended.
template <typename T, typename Fn>
void parallel_collect(std::int64_t n, std::int64_t chunk, std::vector<T>& out,
                      Fn&& fn, std::size_t reserve = 0) {
  if (n <= 0) return;
  std::vector<std::vector<T>> lists(
      static_cast<std::size_t>((n + chunk - 1) / chunk));
  if (reserve > 0)
    for (auto& list : lists) list.reserve(reserve);
  parallel_for(static_cast<std::int64_t>(lists.size()), 1,
               [&](std::int64_t c) {
                 fn(c * chunk, std::min(n, (c + 1) * chunk),
                    lists[static_cast<std::size_t>(c)]);
               });
  std::size_t total = out.size();
  for (const auto& list : lists) total += list.size();
  if (total > out.capacity()) out.reserve(std::max(total, 2 * out.capacity()));
  for (auto& list : lists) {
    out.insert(out.end(), std::make_move_iterator(list.begin()),
               std::make_move_iterator(list.end()));
    std::vector<T>().swap(list);
  }
}

/// A lock-free union-find over caller-owned parent slots, one per id in
/// [0, n). A union links the larger root under the smaller, by CAS so
/// only while it still is a root, so every tree's root is its least
/// member whatever order and threads the unions ran in: the labels
/// flatten() leaves are the same at any thread count. find() and unite()
/// may run concurrently from pool workers; reset() and flatten() run on
/// the caller with no union in flight. The object is a view (one
/// pointer), made where it is used.
class UnionFind {
 public:
  explicit UnionFind(std::vector<std::uint32_t>& parent) : parent_(&parent) {}

  /// Sizes the slots to `n` and makes every id its own component.
  void reset(std::size_t n) const;

  /// The root of x's tree, halving the path on the way. Lock-free: a slot
  /// only ever moves to an ancestor.
  std::uint32_t find(std::uint32_t x) const {
    constexpr auto relaxed = std::memory_order_relaxed;
    for (;;) {
      const std::uint32_t px = slot(x).load(relaxed);
      if (px == x) return x;
      const std::uint32_t gx = slot(px).load(relaxed);
      if (gx != px) slot(x).store(gx, relaxed);
      x = gx;
    }
  }

  /// Joins the components of x and y, from any thread.
  void unite(std::uint32_t x, std::uint32_t y) const {
    for (;;) {
      x = find(x);
      y = find(y);
      if (x == y) return;
      if (x < y) std::swap(x, y);
      std::uint32_t root = x;
      if (slot(x).compare_exchange_weak(root, y, std::memory_order_relaxed))
        return;
    }
  }

  /// Once every union is done: each slot holds its component's least id.
  void flatten() const;
  /// flatten() for the listed ids alone: each listed slot holds its
  /// component's least id, and no other slot is written. For a caller
  /// that knows which slots its unions can have reached.
  void flatten(const std::vector<std::uint32_t>& ids) const;

 private:
  /// Stores id's root in its slot, writing no other slot.
  void settle(std::uint32_t id) const;
  std::atomic_ref<std::uint32_t> slot(std::uint32_t x) const {
    return std::atomic_ref<std::uint32_t>((*parent_)[x]);
  }

  std::vector<std::uint32_t>* parent_;
};

}  // namespace bisram
