#pragma once
// The four workloads. Each one sets up kSetupReps times (setup_s is the
// median), then repeats its operation while another one fits in
// cfg.seconds of timed work, checking every operation's outputs as it
// goes.

#include <string>
#include <vector>

#include "harness.hpp"

namespace bisbench {

/// What every workload returns besides its RunResult: the set-up times,
/// the per-operation wall times (they pace the run, see another_fits)
/// and peak resident sets, and the work done, which becomes work_per_s.
struct Timings {
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<double> op_s;     ///< one per timed operation
  /// VmHWM reached during each timed operation (VmHWM is reset when the
  /// operation starts). peak_rss_mb is their median: the process's
  /// one-off high-water mark moved 10% between seeds with set-up and
  /// untimed full-scan checks, which are not the operation's memory.
  std::vector<double> op_peak_mb;
  bool peak_reset_ok = true;  ///< every reset succeeded
  double work_units = 0;      ///< the workload's unit of work, summed
  double work_wall_s = 0;     ///< wall time the work units took

  /// Call right before an operation's timed part.
  void start_op() { peak_reset_ok = reset_peak_rss() && peak_reset_ok; }
  /// Call right after it, with its wall time.
  void end_op(double wall) {
    op_s.push_back(wall);
    op_peak_mb.push_back(proc_status().vm_hwm_mb);
  }
};

using WorkloadFn = RunResult (*)(const RunConfig&, Recorder&, Ledger&,
                                 Timings&);

RunResult run_fig6_signoff(const RunConfig& cfg, Recorder& rec, Ledger& led,
                           Timings& tm);
RunResult run_edit_resignoff(const RunConfig& cfg, Recorder& rec, Ledger& led,
                             Timings& tm);
RunResult run_dse_sweep(const RunConfig& cfg, Recorder& rec, Ledger& led,
                        Timings& tm);
RunResult run_bist_campaigns(const RunConfig& cfg, Recorder& rec, Ledger& led,
                             Timings& tm);

/// Number of set-up repetitions per run.
inline constexpr int kSetupReps = 5;

}  // namespace bisbench
