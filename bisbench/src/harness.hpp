#pragma once
// Measurement plumbing shared by the four workloads: wall/CPU clocks,
// /proc/self/status sampling, order statistics, the span recorder that
// produces the per-layer metrics (and a Chrome trace-event file), and
// the correctness ledger behind "correct"/"attempted"/"failed".
//
// Everything here lives in the benchmark, not in the library: the
// library is driven only through its public calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace bisbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Process CPU time (user + system, every thread) from getrusage.
double process_cpu_s();

/// The two /proc/self/status fields the benchmark samples.
struct ProcStatus {
  double vm_hwm_mb = 0;  ///< peak resident set so far (VmHWM)
  int threads = 0;       ///< live threads (Threads)
};
ProcStatus proc_status();

/// Resets the process's VmHWM to its current resident set (writes "5" to
/// /proc/self/clear_refs). False where the kernel refuses.
bool reset_peak_rss();

/// Order statistics over a sample (linear interpolation between closest
/// ranks). Empty samples give 0.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// True while another operation fits the run: none has run yet, or the
/// timed total plus the median operation stays within `seconds`. Runs
/// therefore end near `seconds` instead of overshooting by an operation.
inline bool another_fits(const std::vector<double>& op_s, double timed,
                         double seconds) {
  return op_s.empty() || timed + median(op_s) <= seconds;
}

/// Records a span around every layer call. Disabled, a Span costs one
/// branch; enabled, each span samples wall time, process CPU time,
/// VmHWM and the thread count at both ends.
///
/// VmHWM is a process-wide high-water mark, so the recorder resets it
/// at every span boundary (reset_peak_rss) and folds each reading into
/// every open span: a span's peak_rss_mb is the highest resident set
/// seen while it was open, not the process peak so far. Resets make the
/// process's own VmHWM meaningless afterwards, which is why the
/// end-to-end peak_rss_mb comes from untraced runs only.
///
/// Per-layer numbers are aggregated per *operation* of the workload:
/// span times of the same name add up until end_op(), which closes one
/// sample per name. A call made once per operation therefore reports
/// its own time; a call made many times per operation (the DSE replay's
/// per-point compile stages, the three Fig. 4 spare counts) reports the
/// per-operation sum.
class Recorder {
 public:
  explicit Recorder(bool enabled);

  bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Recorder& rec, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Recorder* rec_ = nullptr;  ///< null when the recorder is off
    std::size_t event_ = 0;
    Clock::time_point start_;
    double cpu0_ = 0;
  };

  /// Closes the current operation: every span name seen since the last
  /// end_op() contributes one (wall, cpu) sample.
  void end_op();

  /// Sets a counter (a no-op when disabled).
  void set(const std::string& name, double v);

  struct CallStats {
    std::vector<double> wall_s;  ///< one per operation
    std::vector<double> cpu_s;
    /// One per operation: the highest resident set seen inside any call
    /// of this name during the operation.
    std::vector<double> peak_rss_mb;
    int threads = 0;  ///< Threads after the call (max over calls)
  };
  const std::map<std::string, CallStats>& calls() const { return calls_; }
  const std::map<std::string, double>& counters() const { return counters_; }

  /// Wall time the recorder itself spent sampling inside the timed
  /// region (what a traced operation costs over an untraced one),
  /// summed per operation; one sample per end_op().
  const std::vector<double>& overhead_s() const { return overhead_s_; }
  /// Summed wall time of the top-level spans (those with no enclosing
  /// span), one sample per end_op().
  const std::vector<double>& top_level_s() const { return top_level_s_; }

  /// True when VmHWM could be reset at span boundaries, so peak_rss_mb
  /// is per span; false means every span reports the process peak.
  bool peak_per_span() const { return peak_per_span_; }

  /// Chrome trace-event JSON ("X" complete events; loads in Perfetto
  /// and chrome://tracing).
  std::string chrome_trace_json() const;

 private:
  struct Event {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double start_us = 0;
    double dur_us = 0;
    double cpu_s = 0;
    double peak_rss_mb = 0;  ///< highest VmHWM reading while open
    int threads = 0;
  };
  struct Pending {
    double wall_s = 0;
    double cpu_s = 0;
    double peak_rss_mb = 0;
  };

  /// Folds the current VmHWM into every open span, then resets it.
  ProcStatus sample_peak();

  bool enabled_;
  bool peak_per_span_ = false;
  Clock::time_point epoch_;
  std::vector<Event> events_;
  std::vector<int> open_;  ///< stack of open event indices
  std::map<std::string, Pending> pending_;
  std::map<std::string, CallStats> calls_;
  std::map<std::string, double> counters_;
  double pending_overhead_s_ = 0;
  double pending_top_level_s_ = 0;
  std::vector<double> overhead_s_;
  std::vector<double> top_level_s_;
};

/// The correctness ledger. Every operation counts as attempted; an
/// operation fails when any check attributed to it fails or when it
/// throws. Failures are kept with a message, never dropped.
class Ledger {
 public:
  /// Starts a new operation; checks until the next begin_op() belong
  /// to it.
  void begin_op();
  /// Records one check of the current operation (a check before the
  /// first begin_op() opens an operation of its own).
  bool check(bool ok, const std::string& what);
  /// The current operation threw.
  void fail(const std::string& what);

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  std::int64_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t checks_ = 0;
  bool current_failed_ = false;
  std::vector<std::string> failures_;
};

/// A metric as printed on the result line.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What a workload run hands back to main().
struct RunResult {
  /// The workload's own user-facing figures under their descriptive
  /// names (signoff_s, edit_p50_ms, sweep_points_per_s, ...), printed
  /// in the human-readable report.
  Metrics named;
  /// Extra lines for the report (checks, z-scores, counts).
  std::vector<std::string> notes;
  /// Workload spec echoed into the provenance block.
  std::string spec_json;
};

/// Everything a workload needs from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;  ///< scratch space inside the checkout
  const bisram::JsonValue* expected = nullptr;  ///< this workload's block
};

/// A fresh, empty directory under `parent` (created with its parents).
std::string fresh_dir(const std::string& parent, const std::string& stem);
/// Recursively removes `path` (best effort).
void remove_tree(const std::string& path);

/// Expected-file accessors that throw bisram::Error naming the key.
const bisram::JsonValue& need(const bisram::JsonValue& obj,
                              const std::string& key);
double need_num(const bisram::JsonValue& obj, const std::string& key);
std::int64_t need_int(const bisram::JsonValue& obj, const std::string& key);

}  // namespace bisbench
