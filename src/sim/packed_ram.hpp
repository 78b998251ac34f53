#pragma once
// Fault-proportional BIST kernel.
//
// The scalar path (RamModel + BistEngine) executes a march one cell at a
// time: every op touches bpw cells through hash-map fault lookups. But
// BIST write patterns are address-independent — within one background
// every word receives the same Johnson pattern or its complement — and
// no fault ever touches a word that holds none of its cells. PackedRam
// splits the words in two:
//   * the bulk: every regular word that holds no overlay victim or
//     aggressor. Each bulk word holds the last background written to the
//     bulk, so the bulk is one (ones, complemented) pair, and a march op
//     on it costs O(1) whatever the array size;
//   * the special words (regular words that hold an overlay victim or
//     aggressor) and every spare word, stored as ceil(bpw / 64) uint64_t
//     lanes each. A word op assigns or compares the lanes on the bits
//     with no fault behaviour, then runs FaultyArray's write/read
//     semantics on the overlay bits in ascending bit order — the order
//     RamModel walks a word, which keeps intra-word coupling identical.
// A die therefore costs O(faults x backgrounds x ops), not O(array bits),
// and allocates nothing array-sized. The run is bit-identical to the
// scalar engine — BistResult, TLB contents and final array state — which
// tests/test_packed_equivalence.cpp enforces on hand-built cases and
// random geometries and fault lists.
//
// Overlay kinds: stuck-at, transition, the three coupling models, data
// retention (a write refreshes the victim; a read once the threshold has
// passed decays it; the clock advances at each Delay element, as in
// BistEngine) and stuck-open.
//
// Stuck-open: a write to the victim is lost (coupling can still flip its
// stored bit) and a read returns the value its column's sense amplifier
// last latched. PackedRam keeps that latched bit for each *open column*
// — a physical column holding a stuck-open victim, in a regular or a
// spare row — starting at 0 and carried across elements, backgrounds
// and passes, as FaultyArray's column_last_sense_ is. Every read of any
// cell of an open column sets it:
//   * a bulk word's last read in an element leaves the bulk's bit,
//     (bit < ones) != v for the last read op's data v, in its columns
//     (kernel_read_clean guarantees the bulk held it). The engine walks
//     the specials in sweep order; before each one, and after the last,
//     the open columns whose group (address mod bpc) some bulk address
//     of the gap falls in latch that bit;
//   * a special word's read latches the open columns of the slot it
//     reads — its own, or the spare the TLB diverts it to (group spare
//     mod bpc) — bit by bit: overlay bits as read_cell returns them, the
//     others from the lanes.
// The victim's own read takes the latched value from before that read,
// and later hooks on the cell apply in injection order. The cost is
// O(specials x open columns) per element, with no array-sized state.
//
// The packed engine aborts (returns nullopt) if a bulk read ever expects
// a pattern other than the one the bulk holds — impossible in any flow
// that starts each background with a write, but the abort keeps the
// dispatcher safe for ill-formed marches: the caller simply reruns the
// trial on the scalar path from scratch.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/bist.hpp"
#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"

namespace bisram::sim {

/// The packed RAM: the symbolic bulk, lanes for the special and spare
/// words, the overlay fault set, the open columns' sensed bits and the
/// BISR TLB. Construction validates the geometry and the fault list
/// (throws SpecError when a cell is out of range or a coupling fault
/// couples a cell to itself) and costs O(faults + spare words).
class PackedRam {
 public:
  PackedRam(const RamGeometry& geo, const std::vector<Fault>& faults);

  const RamGeometry& geometry() const { return geo_; }
  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }

  void set_repair_enabled(bool on) { repair_enabled_ = on; }
  bool repair_enabled() const { return repair_enabled_; }

  /// Raw cell value bypassing fault semantics (the packed counterpart of
  /// FaultyArray::peek; row may address spare rows).
  bool peek(int row, int col) const;

  /// Word addresses containing an overlay victim or aggressor cell, in
  /// ascending order — the addresses the march kernels must simulate
  /// cell-exactly.
  const std::vector<std::uint32_t>& special_addresses() const {
    return specials_;
  }

  /// Data-retention wait (FaultyArray::elapse).
  void elapse(double seconds);

  // --- bulk march kernels, O(1) each ----------------------------------------
  // `ones` is the Johnson fill count of the active background (bit k of
  // the pattern is k < ones); `complemented` is the op's data sense
  // (r1/w1).

  /// Writes the pattern into every bulk word.
  void kernel_write(int ones, bool complemented);

  /// True when every bulk word holds the pattern. False signals a broken
  /// bulk invariant — the caller must abandon the packed run (see header
  /// comment).
  bool kernel_read_clean(int ones, bool complemented) const;

  /// True when some column holds a stuck-open victim.
  bool has_open_columns() const { return !open_.empty(); }

  /// The bulk words among addresses [lo, hi) were read, the last time
  /// with data sense `complemented`: each open column one of them shares
  /// a column group with latches the bulk's bit.
  void sense_bulk(std::uint32_t lo, std::uint32_t hi, int ones,
                  bool complemented);

  // --- cell-exact path: special word `s`, an index into special_addresses()

  /// Writes the pattern word through the address path (TLB diversion
  /// when repair is enabled), mirroring RamModel::write_word +
  /// FaultyArray::write bit for bit.
  void write_special(std::size_t s, int ones, bool complemented);

  /// Reads the word through the address path, applying read fault
  /// semantics (CouplingState's and Retention's stored-value mutations
  /// included), latches what it read into the open columns of the slot
  /// it read, and returns true when every bit matches the pattern.
  bool read_special_matches(std::size_t s, int ones, bool complemented);

 private:
  /// A cell as (word slot, bit): slots [0, specials) are the special
  /// words in address order, followed by one slot per spare word.
  struct Loc {
    std::uint32_t slot = 0;
    int bit = 0;
  };
  struct Overlay {
    Fault fault;
    Loc victim;
    Loc aggressor;            ///< coupling kinds only
    double refreshed_s = 0;   ///< Retention: last write to the victim
  };
  /// One overlay's role at one cell.
  struct Hook {
    Loc at;
    std::uint32_t overlay = 0;  ///< index into overlays_
    bool victim = true;         ///< false: the overlay's aggressor
  };
  /// A victim or aggressor cell with its hooks_ [first, last), in
  /// injection order.
  struct OverlayCell {
    Loc at;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    int open = -1;  ///< index into open_ of the cell's column, or -1
  };
  /// A physical column holding a stuck-open victim and the value its
  /// sense amplifier last latched.
  struct OpenColumn {
    int col = 0;
    bool sensed = false;
  };

  /// The word holding cell `c`: its address in a regular row, its spare
  /// index in a spare row (bit col / bpc of word row * bpc + col % bpc).
  std::uint32_t word_of(const CellAddr& c) const;
  Loc locate(const CellAddr& c) const;
  /// The slot special word `s` reads and writes: its own, or the spare's
  /// the TLB diverts it to.
  std::uint32_t slot_of(std::size_t s) const;
  /// The column group (address mod bpc) of slot `slot`'s cells.
  int group_of(std::uint32_t slot) const;
  std::size_t lane_of(Loc at) const;
  bool get(Loc at) const;
  void set(Loc at, bool v);
  /// Lane `lane` of the pattern word; bits past bpw are zero.
  std::uint64_t pattern_lane(std::size_t lane, int ones,
                             bool complemented) const;

  /// FaultyArray::write / read semantics at one overlay cell.
  void write_cell(const OverlayCell& cell, bool v);
  bool read_cell(const OverlayCell& cell);

  RamGeometry geo_;
  std::size_t lanes_per_word_ = 0;
  int bulk_ones_ = 0;  ///< the bulk's background; (0, false) is all-zero
  bool bulk_complemented_ = false;
  std::vector<std::uint32_t> specials_;
  std::vector<std::uint64_t> lanes_;    ///< [slot * lanes_per_word_ + lane]
  std::vector<std::uint64_t> overlay_;  ///< overlay bits, same layout
  std::vector<Overlay> overlays_;
  std::vector<Hook> hooks_;         ///< by (slot, bit, overlay)
  std::vector<OverlayCell> cells_;  ///< by (slot, bit)
  std::vector<std::uint32_t> slot_cells_;  ///< slot s: [s], [s + 1] of cells_
  std::vector<OpenColumn> open_;           ///< by column
  double now_s_ = 0.0;
  Tlb tlb_;
  bool repair_enabled_ = false;
};

/// The BIST/BISR flow of sim/bist.hpp executed on the packed kernel.
/// Mirrors BistEngine pass for pass: pass 1 marches the raw array and
/// records mismatching addresses, pass >= 2 re-marches with diversion.
class PackedBistEngine {
 public:
  PackedBistEngine(PackedRam& ram, BistConfig config = {});

  /// Runs the complete flow. Returns nullopt when the bulk invariant
  /// broke mid-run (rerun the trial on the scalar engine); the result is
  /// otherwise bit-identical to BistEngine::run() on an equally-faulted
  /// RamModel.
  std::optional<BistResult> run();

 private:
  std::optional<bool> run_pass(int pass, BistResult& result);

  PackedRam& ram_;
  BistConfig config_;
};

/// Kernel dispatch: runs the BIST/BISR flow for a RAM of geometry `geo`
/// carrying `faults`, on the requested kernel. Auto and Packed run the
/// packed kernel, which expresses every fault kind; Scalar forces the
/// reference path. A packed run that aborts falls back to a fresh scalar
/// run, so both produce identical results. When `kernel_used` is
/// non-null it receives the kernel that produced the returned result
/// (Packed or Scalar).
BistResult run_bist(const RamGeometry& geo, const std::vector<Fault>& faults,
                    const BistConfig& config = {},
                    SimKernel kernel = SimKernel::Auto,
                    SimKernel* kernel_used = nullptr);

}  // namespace bisram::sim
