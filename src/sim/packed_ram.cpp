#include "sim/packed_ram.hpp"

#include <algorithm>
#include <tuple>

namespace bisram::sim {

namespace {

bool is_coupling(FaultKind kind) {
  return kind == FaultKind::CouplingIdem || kind == FaultKind::CouplingInv ||
         kind == FaultKind::CouplingState;
}

/// The n low bits set, n in [0, 64].
std::uint64_t low_bits(int n) { return n >= 64 ? ~0ull : (1ull << n) - 1; }

}  // namespace

PackedRam::PackedRam(const RamGeometry& geo, const std::vector<Fault>& faults)
    : geo_([&] {
        geo.validate();
        return geo;
      }()),
      lanes_per_word_(static_cast<std::size_t>(geo_.bpw + 63) / 64),
      tlb_(std::max(1, geo_.spare_words())) {
  // Validate the overlays and collect the special word addresses.
  auto add_cell = [&](const CellAddr& c) {
    require(c.row >= 0 && c.row < geo_.total_rows() && c.col >= 0 &&
                c.col < geo_.cols(),
            "PackedRam: fault cell out of range");
    if (c.row < geo_.rows()) specials_.push_back(word_of(c));
  };
  for (const Fault& f : faults) {
    add_cell(f.victim);
    if (is_coupling(f.kind)) {
      require(!(f.aggressor == f.victim),
              "PackedRam: coupling fault with aggressor == victim");
      add_cell(f.aggressor);
    }
  }
  std::sort(specials_.begin(), specials_.end());
  specials_.erase(std::unique(specials_.begin(), specials_.end()),
                  specials_.end());

  // Resolve every victim and aggressor to its (slot, bit) once, so the
  // march kernels never search for a cell.
  overlays_.reserve(faults.size());
  for (const Fault& f : faults) {
    Overlay o;
    o.fault = f;
    o.victim = locate(f.victim);
    const auto id = static_cast<std::uint32_t>(overlays_.size());
    hooks_.push_back({o.victim, id, true});
    if (is_coupling(f.kind)) {
      o.aggressor = locate(f.aggressor);
      hooks_.push_back({o.aggressor, id, false});
    }
    overlays_.push_back(o);
  }
  // Group the hooks by cell, cells by (slot, bit); within a cell the
  // overlay index keeps FaultyArray's injection order.
  std::sort(hooks_.begin(), hooks_.end(), [](const Hook& a, const Hook& b) {
    return std::tie(a.at.slot, a.at.bit, a.overlay) <
           std::tie(b.at.slot, b.at.bit, b.overlay);
  });

  const std::size_t slots =
      specials_.size() + static_cast<std::size_t>(geo_.spare_words());
  lanes_.assign(slots * lanes_per_word_, 0);
  overlay_.assign(slots * lanes_per_word_, 0);
  slot_cells_.assign(slots + 1, 0);
  for (std::uint32_t h = 0; h < hooks_.size(); ++h) {
    const Loc at = hooks_[h].at;
    if (h == 0 || at.slot != hooks_[h - 1].at.slot ||
        at.bit != hooks_[h - 1].at.bit) {
      cells_.push_back({at, h, h});
      ++slot_cells_[at.slot + 1];
      overlay_[lane_of(at)] |= 1ull << (at.bit % 64);
    }
    ++cells_.back().last;
  }
  for (std::size_t s = 0; s < slots; ++s) slot_cells_[s + 1] += slot_cells_[s];

  // The open columns, and each overlay cell's index into them.
  for (const Fault& f : faults)
    if (f.kind == FaultKind::StuckOpen) open_.push_back({f.victim.col, false});
  if (open_.empty()) return;
  std::sort(open_.begin(), open_.end(),
            [](const OpenColumn& a, const OpenColumn& b) {
              return a.col < b.col;
            });
  open_.erase(std::unique(open_.begin(), open_.end(),
                          [](const OpenColumn& a, const OpenColumn& b) {
                            return a.col == b.col;
                          }),
              open_.end());
  for (OverlayCell& cell : cells_) {
    const int col = cell.at.bit * geo_.bpc + group_of(cell.at.slot);
    const auto it = std::lower_bound(
        open_.begin(), open_.end(), col,
        [](const OpenColumn& o, int c) { return o.col < c; });
    if (it != open_.end() && it->col == col)
      cell.open = static_cast<int>(it - open_.begin());
  }
}

std::uint32_t PackedRam::word_of(const CellAddr& c) const {
  const int row = c.row < geo_.rows() ? c.row : c.row - geo_.rows();
  return static_cast<std::uint32_t>(row) *
             static_cast<std::uint32_t>(geo_.bpc) +
         static_cast<std::uint32_t>(c.col % geo_.bpc);
}

PackedRam::Loc PackedRam::locate(const CellAddr& c) const {
  const std::uint32_t word = word_of(c);
  const int bit = c.col / geo_.bpc;
  if (c.row >= geo_.rows())
    return {static_cast<std::uint32_t>(specials_.size()) + word, bit};
  const auto it = std::lower_bound(specials_.begin(), specials_.end(), word);
  return {static_cast<std::uint32_t>(it - specials_.begin()), bit};
}

bool PackedRam::peek(int row, int col) const {
  require(row >= 0 && row < geo_.total_rows() && col >= 0 &&
              col < geo_.cols(),
          "PackedRam::peek: cell out of range");
  if (row < geo_.rows() && !std::binary_search(specials_.begin(),
                                               specials_.end(),
                                               word_of({row, col})))
    return (col / geo_.bpc < bulk_ones_) != bulk_complemented_;
  return get(locate({row, col}));
}

void PackedRam::elapse(double seconds) {
  require(seconds >= 0, "elapse: negative time");
  now_s_ += seconds;
}

std::uint32_t PackedRam::slot_of(std::size_t s) const {
  if (repair_enabled_) {
    if (const auto spare = tlb_.lookup(specials_[s])) {
      ensure(*spare < geo_.spare_words(),
             "RamGeometry: spare index out of range");
      return static_cast<std::uint32_t>(specials_.size()) +
             static_cast<std::uint32_t>(*spare);
    }
  }
  return static_cast<std::uint32_t>(s);
}

int PackedRam::group_of(std::uint32_t slot) const {
  const std::uint32_t word =
      slot < specials_.size()
          ? specials_[slot]
          : slot - static_cast<std::uint32_t>(specials_.size());
  return static_cast<int>(word % static_cast<std::uint32_t>(geo_.bpc));
}

std::size_t PackedRam::lane_of(Loc at) const {
  return at.slot * lanes_per_word_ + static_cast<std::size_t>(at.bit / 64);
}

bool PackedRam::get(Loc at) const {
  return (lanes_[lane_of(at)] >> (at.bit % 64)) & 1u;
}

void PackedRam::set(Loc at, bool v) {
  std::uint64_t& word = lanes_[lane_of(at)];
  const std::uint64_t bit = 1ull << (at.bit % 64);
  word = v ? word | bit : word & ~bit;
}

std::uint64_t PackedRam::pattern_lane(std::size_t lane, int ones,
                                      bool complemented) const {
  const int lo = static_cast<int>(lane) * 64;
  const std::uint64_t fill = low_bits(std::clamp(ones - lo, 0, 64));
  return complemented ? low_bits(std::min(64, geo_.bpw - lo)) ^ fill : fill;
}

void PackedRam::kernel_write(int ones, bool complemented) {
  bulk_ones_ = ones;
  bulk_complemented_ = complemented;
}

bool PackedRam::kernel_read_clean(int ones, bool complemented) const {
  if (specials_.size() == geo_.words) return true;  // no bulk word
  if (complemented == bulk_complemented_) return ones == bulk_ones_;
  // Opposite senses agree only when one pattern is all-0 and the other
  // all-1: (0, c) and (bpw, !c).
  return (ones == 0 && bulk_ones_ == geo_.bpw) ||
         (ones == geo_.bpw && bulk_ones_ == 0);
}

void PackedRam::sense_bulk(std::uint32_t lo, std::uint32_t hi, int ones,
                           bool complemented) {
  const auto bpc = static_cast<std::uint32_t>(geo_.bpc);
  for (OpenColumn& o : open_) {
    // The first address at or past lo in the column's group (bpc is a
    // power of two).
    const auto group = static_cast<std::uint32_t>(o.col % geo_.bpc);
    if (lo + ((group - lo) & (bpc - 1)) < hi)
      o.sensed = (o.col / geo_.bpc < ones) != complemented;
  }
}

void PackedRam::write_cell(const OverlayCell& cell, bool v) {
  const bool old_v = get(cell.at);
  bool effective = v;
  bool stored = true;
  for (std::uint32_t h = cell.first; h < cell.last; ++h) {
    if (!hooks_[h].victim) continue;
    Overlay& o = overlays_[hooks_[h].overlay];
    switch (o.fault.kind) {
      case FaultKind::StuckAt0: effective = false; break;
      case FaultKind::StuckAt1: effective = true; break;
      case FaultKind::TransitionUp:
        if (!old_v && v) effective = old_v;  // cannot rise
        break;
      case FaultKind::TransitionDown:
        if (old_v && !v) effective = old_v;  // cannot fall
        break;
      case FaultKind::StuckOpen:
        stored = false;  // the cell is disconnected: the write is lost
        break;
      case FaultKind::Retention:
        o.refreshed_s = now_s_;  // a write refreshes the cell
        break;
      default:
        break;
    }
  }
  if (!stored) effective = old_v;
  set(cell.at, effective);
  if (effective == old_v && v == old_v) return;
  for (std::uint32_t h = cell.first; h < cell.last; ++h) {
    if (hooks_[h].victim) continue;
    const Overlay& o = overlays_[hooks_[h].overlay];
    const Fault& f = o.fault;
    if (old_v == effective || effective != f.dir_rising) continue;
    // CouplingState is a static condition evaluated at victim read time,
    // exactly as in FaultyArray.
    if (f.kind == FaultKind::CouplingIdem)
      set(o.victim, f.value);
    else if (f.kind == FaultKind::CouplingInv)
      set(o.victim, !get(o.victim));
  }
}

bool PackedRam::read_cell(const OverlayCell& cell) {
  bool value = get(cell.at);
  for (std::uint32_t h = cell.first; h < cell.last; ++h) {
    if (!hooks_[h].victim) continue;
    const Overlay& o = overlays_[hooks_[h].overlay];
    const Fault& f = o.fault;
    switch (f.kind) {
      case FaultKind::StuckAt0: value = false; break;
      case FaultKind::StuckAt1: value = true; break;
      case FaultKind::CouplingState:
        if (get(o.aggressor) == f.value) {
          set(cell.at, f.value2);
          value = f.value2;
        }
        break;
      case FaultKind::Retention:
        if (now_s_ - o.refreshed_s >= kRetentionThresholdS) {
          set(cell.at, f.value);
          value = f.value;
        }
        break;
      case FaultKind::StuckOpen:
        // The bit line keeps its previous sensed value.
        value = open_[static_cast<std::size_t>(cell.open)].sensed;
        break;
      default:
        break;
    }
  }
  if (cell.open >= 0) open_[static_cast<std::size_t>(cell.open)].sensed = value;
  return value;
}

void PackedRam::write_special(std::size_t s, int ones, bool complemented) {
  const std::uint32_t slot = slot_of(s);
  for (std::size_t l = 0; l < lanes_per_word_; ++l) {
    std::uint64_t& w = lanes_[slot * lanes_per_word_ + l];
    const std::uint64_t m = overlay_[slot * lanes_per_word_ + l];
    w = (w & m) | (pattern_lane(l, ones, complemented) & ~m);
  }
  // Overlay bits in ascending order, as RamModel::write_word walks them:
  // an aggressor at bit i that flips a victim at bit j > i is overwritten
  // when bit j is written.
  for (std::uint32_t c = slot_cells_[slot]; c < slot_cells_[slot + 1]; ++c)
    write_cell(cells_[c], (cells_[c].at.bit < ones) != complemented);
}

bool PackedRam::read_special_matches(std::size_t s, int ones,
                                     bool complemented) {
  const std::uint32_t slot = slot_of(s);
  std::uint64_t diff = 0;
  for (std::size_t l = 0; l < lanes_per_word_; ++l)
    diff |= (lanes_[slot * lanes_per_word_ + l] ^
             pattern_lane(l, ones, complemented)) &
            ~overlay_[slot * lanes_per_word_ + l];
  bool ok = diff == 0;
  // Read every overlay bit even after a mismatch, in ascending order:
  // reads carry side effects (CouplingState and Retention rewrite the
  // stored victim value).
  for (std::uint32_t c = slot_cells_[slot]; c < slot_cells_[slot + 1]; ++c)
    if (read_cell(cells_[c]) != ((cells_[c].at.bit < ones) != complemented))
      ok = false;
  // read_cell latched the overlay bits; the plain bits of the slot's open
  // columns latch what the lanes hold.
  for (OpenColumn& o : open_) {
    if (o.col % geo_.bpc != group_of(slot)) continue;
    const Loc at{slot, o.col / geo_.bpc};
    if (!((overlay_[lane_of(at)] >> (at.bit % 64)) & 1u)) o.sensed = get(at);
  }
  return ok;
}

PackedBistEngine::PackedBistEngine(PackedRam& ram, BistConfig config)
    : ram_(ram), config_(config) {
  require(config_.test != nullptr, "PackedBistEngine: null march test");
  require(config_.max_passes >= 2,
          "PackedBistEngine: needs at least two passes");
}

std::optional<bool> PackedBistEngine::run_pass(int pass, BistResult& result) {
  const march::MarchTest& test = *config_.test;
  const RamGeometry& geo = ram_.geometry();

  ram_.set_repair_enabled(pass >= 2);

  bool clean = true;
  int ones = 0;  // Johnson fill count (DataGen::reset)
  const int backgrounds = config_.johnson_backgrounds ? geo.bpw + 1 : 1;
  const auto& specials = ram_.special_addresses();
  const std::size_t n = specials.size();
  for (int bg = 0; bg < backgrounds; ++bg) {
    for (const auto& element : test.elements()) {
      if (element.is_delay) {
        // As in BistEngine: the clock advances so retention faults can
        // decay, and the wait costs no cycles.
        ram_.elapse(config_.retention_wait_s);
        continue;
      }

      // Bulk words, op-major: O(1) per op. The cycle counter covers the
      // *whole* sweep (special addresses included) because the scalar
      // engine counts one cycle per op per address regardless of where
      // the word lives.
      for (march::Op op : element.ops) {
        result.cycles += geo.words;
        const bool v = march::op_value(op);
        if (!march::is_read(op)) {
          ram_.kernel_write(ones, v);
        } else if (!ram_.kernel_read_clean(ones, v)) {
          return std::nullopt;  // bulk invariant broke: rerun scalar
        }
      }

      // Special addresses, address-major in sweep order — the order the
      // scalar engine encounters mismatches in, which fixes the TLB's
      // strictly increasing spare assignment. Bulk and special words
      // touch disjoint cells and only specials record into the TLB; they
      // meet only in the open columns' sensed bits, so before each
      // special (and after the last) the bulk words of the gap since the
      // previous one latch their bit, from the element's last read op.
      const bool up = march::ascending(element.order);
      auto last_read = element.ops.rend();
      if (ram_.has_open_columns())
        last_read = std::find_if(element.ops.rbegin(), element.ops.rend(),
                                 march::is_read);
      const bool latch = last_read != element.ops.rend();
      const bool v_last = latch && march::op_value(*last_read);
      std::uint32_t lo = 0, hi = geo.words;  // addresses not yet swept
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = up ? i : n - 1 - i;
        if (up) {
          if (latch) ram_.sense_bulk(lo, specials[s], ones, v_last);
          lo = specials[s] + 1;
        } else {
          if (latch) ram_.sense_bulk(specials[s] + 1, hi, ones, v_last);
          hi = specials[s];
        }
        for (march::Op op : element.ops) {
          const bool v = march::op_value(op);
          if (!march::is_read(op)) {
            ram_.write_special(s, ones, v);
            continue;
          }
          if (ram_.read_special_matches(s, ones, v)) continue;
          clean = false;
          // Same recording rule as BistEngine::run_pass: every
          // mismatching read records; pass 1 dedups via the CAM compare,
          // pass >= 2 forces a fresh entry (the mapped spare proved bad).
          const auto spare =
              ram_.tlb().record(specials[s], /*force_new=*/pass >= 2);
          if (!spare) result.tlb_overflow = true;
        }
      }
      if (latch) ram_.sense_bulk(lo, hi, ones, v_last);  // the last gap
    }
    if (config_.johnson_backgrounds && ones < geo.bpw) ++ones;
  }
  return clean;
}

std::optional<BistResult> PackedBistEngine::run() {
  BistResult result;
  for (int pass = 1; pass <= config_.max_passes; ++pass) {
    const std::optional<bool> clean = run_pass(pass, result);
    if (!clean) return std::nullopt;
    ++result.passes_run;
    if (pass == 1) result.pass1_clean = *clean;
    result.spares_used = ram_.tlb().used();

    if (*clean) {
      result.repair_successful = true;
      break;
    }
    if (result.tlb_overflow) break;
  }
  ram_.set_repair_enabled(true);
  return result;
}

BistResult run_bist(const RamGeometry& geo, const std::vector<Fault>& faults,
                    const BistConfig& config, SimKernel kernel,
                    SimKernel* kernel_used) {
  if (kernel != SimKernel::Scalar) {
    PackedRam ram(geo, faults);
    if (const auto result = PackedBistEngine(ram, config).run()) {
      if (kernel_used) *kernel_used = SimKernel::Packed;
      return *result;
    }
  }
  RamModel ram(geo);
  for (const Fault& f : faults) ram.array().inject(f);
  if (kernel_used) *kernel_used = SimKernel::Scalar;
  return BistEngine(ram, config).run();
}

}  // namespace bisram::sim
