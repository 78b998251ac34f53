#pragma once
// Cell-level fault models and the fault-injectable bit array.
//
// IFA-9 (the test BISRAMGEN microprograms) targets the functional faults
// that inductive fault analysis derives from layout defects: stuck-at,
// transition, coupling (state/idempotent/inversion), stuck-open, and
// data-retention faults. This module implements those semantics at the
// bit level so the BIST engine can be evaluated for coverage.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"

namespace bisram::sim {

/// Physical bit position inside the (regular + spare) cell array.
struct CellAddr {
  int row = 0;
  int col = 0;
  friend bool operator==(const CellAddr&, const CellAddr&) = default;
};

enum class FaultKind : std::uint8_t {
  StuckAt0,       ///< cell always 0
  StuckAt1,       ///< cell always 1
  TransitionUp,   ///< cell cannot make a 0 -> 1 transition
  TransitionDown, ///< cell cannot make a 1 -> 0 transition
  CouplingIdem,   ///< aggressor transition (dir_rising) forces victim to value
  CouplingInv,    ///< aggressor transition (dir_rising) inverts victim
  CouplingState,  ///< aggressor entering state `value` forces victim to value2
  StuckOpen,      ///< cell disconnected; reads return the column's last sensed value
  Retention,      ///< cell decays to `value` after the retention time elapses
};

/// Time after which an unrefreshed Retention-faulty cell decays; the
/// paper waits ~100 ms per delay element (BistConfig::retention_wait_s).
inline constexpr double kRetentionThresholdS = 0.08;

/// Human-readable fault name ("SAF0", "CFid", ...).
const char* fault_name(FaultKind kind);

/// One injected fault. `victim` is the affected cell; `aggressor` is used
/// by the coupling kinds only.
struct Fault {
  FaultKind kind = FaultKind::StuckAt0;
  CellAddr victim;
  CellAddr aggressor;
  bool dir_rising = true;  ///< aggressor transition direction (CFid/CFin)
  bool value = false;      ///< forced/decay value (CFid/CFst/DRF); CFst trigger state
  bool value2 = false;     ///< CFst forced victim value
};

/// A rows x cols array of bits with injectable faults. Reads and writes go
/// through the fault semantics; peek/poke bypass them (for tests).
class FaultyArray {
 public:
  FaultyArray(int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Adds a fault; throws when its cells are out of range.
  void inject(const Fault& fault);
  void clear_faults();
  std::size_t fault_count() const { return faults_.size(); }

  /// Functional write with fault semantics (transition faults may mask the
  /// write; the write may trigger coupling faults on other cells).
  void write(int row, int col, bool v);

  /// Functional read with fault semantics (stuck values, stuck-open
  /// returning stale column data, retention decay).
  bool read(int row, int col);

  /// Advances simulated wall-clock time (data-retention decay after
  /// kRetentionThresholdS).
  void elapse(double seconds);

  // Raw access bypassing all fault semantics.
  bool peek(int row, int col) const;
  void poke(int row, int col, bool v);

 private:
  std::size_t index(int row, int col) const;
  void check(const CellAddr& a) const;
  void apply_aggressor_effects(const CellAddr& aggr, bool old_v, bool new_v);

  int rows_, cols_;
  std::vector<std::uint8_t> bits_;
  std::vector<Fault> faults_;
  // victim-index and aggressor-index keyed by flat cell index.
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_victim_;
  std::unordered_map<std::size_t, std::vector<std::size_t>> by_aggressor_;
  std::vector<std::uint8_t> column_last_sense_;
  double now_s_ = 0.0;
  // Last refresh time per Retention fault (parallel to faults_).
  std::vector<double> refresh_time_;
};

}  // namespace bisram::sim
