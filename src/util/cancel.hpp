#pragma once
// Cooperative cancellation and deadlines for long-running campaigns.
//
// A CancelToken is a tiny thread-safe flag plus an optional wall-clock
// deadline. The owner (a service request handler, a CLI signal handler,
// a test) cancels or arms the deadline; workers poll stop_requested() at
// chunk boundaries — never mid-trial — so cancellation latency is one
// chunk of work, and a cancelled campaign still returns a *valid*
// partial estimate built from the chunks that completed (all the
// accumulators in this repo carry their own sample counts).
//
// The token is intentionally poll-only: no callbacks, no interruption
// points inside trial bodies. That keeps the deterministic parallel
// engine's contract intact — an uncancelled run with a token attached is
// bit-identical to a run with no token at all — and makes the
// cancellation path trivially data-race-free (tests run it under TSan).

#include <atomic>
#include <cstdint>

namespace bisram {

/// How a campaign run ended (sim::CampaignResult::termination).
enum class Termination : std::uint8_t {
  Completed,  ///< every requested trial ran
  Deadline,   ///< the token's wall-clock deadline expired mid-run
  Cancelled,  ///< CancelToken::cancel() (or a pause request) stopped it
  Resumed,    ///< completed, after resuming from a checkpoint file
};

/// "completed", "deadline", "cancelled", "resumed".
const char* termination_name(Termination t);

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cooperative cancellation. Safe from any thread, any time;
  /// idempotent.
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }

  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms (or re-arms) a wall-clock deadline `ms` milliseconds from now.
  /// Non-positive `ms` makes the deadline already expired.
  void set_deadline_after_ms(double ms) noexcept;

  /// True once the armed deadline has passed (false when none is armed).
  bool expired() const noexcept;

  /// The one predicate workers poll: cancelled or past the deadline.
  bool stop_requested() const noexcept { return cancelled() || expired(); }

  /// How a run that observed stop_requested() should label itself: an
  /// explicit cancel() wins over a deadline expiry.
  Termination stop_reason() const noexcept {
    return cancelled() ? Termination::Cancelled : Termination::Deadline;
  }

 private:
  std::atomic<bool> cancelled_{false};
  /// steady_clock time_since_epoch in ns; 0 = no deadline armed.
  std::atomic<std::int64_t> deadline_ns_{0};
};

}  // namespace bisram
