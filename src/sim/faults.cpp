#include "sim/faults.hpp"

namespace bisram::sim {

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::StuckAt0: return "SAF0";
    case FaultKind::StuckAt1: return "SAF1";
    case FaultKind::TransitionUp: return "TF<0->1>";
    case FaultKind::TransitionDown: return "TF<1->0>";
    case FaultKind::CouplingIdem: return "CFid";
    case FaultKind::CouplingInv: return "CFin";
    case FaultKind::CouplingState: return "CFst";
    case FaultKind::StuckOpen: return "SOF";
    case FaultKind::Retention: return "DRF";
  }
  return "?";
}

FaultyArray::FaultyArray(int rows, int cols)
    : rows_(rows), cols_(cols),
      bits_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0),
      column_last_sense_(static_cast<std::size_t>(cols), 0) {
  require(rows > 0 && cols > 0, "FaultyArray: non-positive dimensions");
}

std::size_t FaultyArray::index(int row, int col) const {
  ensure(row >= 0 && row < rows_ && col >= 0 && col < cols_,
         "FaultyArray: cell out of range");
  return static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(col);
}

void FaultyArray::check(const CellAddr& a) const { (void)index(a.row, a.col); }

void FaultyArray::inject(const Fault& fault) {
  check(fault.victim);
  const bool coupling = fault.kind == FaultKind::CouplingIdem ||
                        fault.kind == FaultKind::CouplingInv ||
                        fault.kind == FaultKind::CouplingState;
  if (coupling) {
    check(fault.aggressor);
    require(!(fault.aggressor == fault.victim),
            "FaultyArray: coupling fault with aggressor == victim");
  }
  const std::size_t id = faults_.size();
  faults_.push_back(fault);
  refresh_time_.push_back(now_s_);
  by_victim_[index(fault.victim.row, fault.victim.col)].push_back(id);
  if (coupling)
    by_aggressor_[index(fault.aggressor.row, fault.aggressor.col)].push_back(id);
}

void FaultyArray::clear_faults() {
  faults_.clear();
  refresh_time_.clear();
  by_victim_.clear();
  by_aggressor_.clear();
}

void FaultyArray::elapse(double seconds) {
  require(seconds >= 0, "elapse: negative time");
  now_s_ += seconds;
}

void FaultyArray::apply_aggressor_effects(const CellAddr& aggr, bool old_v,
                                          bool new_v) {
  auto it = by_aggressor_.find(index(aggr.row, aggr.col));
  if (it == by_aggressor_.end()) return;
  for (std::size_t id : it->second) {
    const Fault& f = faults_[id];
    const std::size_t vi = index(f.victim.row, f.victim.col);
    switch (f.kind) {
      case FaultKind::CouplingIdem:
        if (old_v != new_v && new_v == f.dir_rising)
          bits_[vi] = f.value ? 1 : 0;
        break;
      case FaultKind::CouplingInv:
        if (old_v != new_v && new_v == f.dir_rising) bits_[vi] ^= 1;
        break;
      default:
        // CouplingState is a *static* condition evaluated when the victim
        // is read (see read()); write-time application would be masked by
        // the word-parallel write of the victim's own bit.
        break;
    }
  }
}

void FaultyArray::write(int row, int col, bool v) {
  const std::size_t i = index(row, col);
  const bool old_v = bits_[i] != 0;
  bool effective = v;
  bool stored = true;

  auto it = by_victim_.find(i);
  if (it != by_victim_.end()) {
    for (std::size_t id : it->second) {
      Fault& f = faults_[id];
      switch (f.kind) {
        case FaultKind::StuckAt0: effective = false; break;
        case FaultKind::StuckAt1: effective = true; break;
        case FaultKind::TransitionUp:
          if (!old_v && v) effective = old_v;  // cannot rise
          break;
        case FaultKind::TransitionDown:
          if (old_v && !v) effective = old_v;  // cannot fall
          break;
        case FaultKind::StuckOpen:
          stored = false;  // cell is disconnected; write is lost
          break;
        case FaultKind::Retention:
          refresh_time_[id] = now_s_;  // a write refreshes the cell
          break;
        default:
          break;
      }
    }
  }

  if (stored) bits_[i] = effective ? 1 : 0;
  const bool new_v = bits_[i] != 0;
  if (new_v != old_v || v != old_v)
    apply_aggressor_effects({row, col}, old_v, new_v);
}

bool FaultyArray::read(int row, int col) {
  const std::size_t i = index(row, col);
  bool value = bits_[i] != 0;

  auto it = by_victim_.find(i);
  if (it != by_victim_.end()) {
    for (std::size_t id : it->second) {
      Fault& f = faults_[id];
      switch (f.kind) {
        case FaultKind::StuckAt0: value = false; break;
        case FaultKind::StuckAt1: value = true; break;
        case FaultKind::Retention:
          if (now_s_ - refresh_time_[id] >= kRetentionThresholdS) {
            bits_[i] = f.value ? 1 : 0;
            value = f.value;
          }
          break;
        case FaultKind::StuckOpen:
          // The bit line keeps its previous sensed value; the sense
          // amplifier re-latches that stale level.
          value = column_last_sense_[static_cast<std::size_t>(col)] != 0;
          break;
        case FaultKind::CouplingState: {
          // Victim forced to value2 while the aggressor sits in its
          // trigger state.
          const std::size_t ai = index(f.aggressor.row, f.aggressor.col);
          if ((bits_[ai] != 0) == f.value) {
            bits_[i] = f.value2 ? 1 : 0;
            value = f.value2;
          }
          break;
        }
        default:
          break;
      }
    }
  }
  column_last_sense_[static_cast<std::size_t>(col)] = value ? 1 : 0;
  return value;
}

bool FaultyArray::peek(int row, int col) const {
  return bits_[index(row, col)] != 0;
}

void FaultyArray::poke(int row, int col, bool v) {
  bits_[index(row, col)] = v ? 1 : 0;
}

}  // namespace bisram::sim
