#pragma once
// Bit-plane fault-simulation kernel.
//
// The scalar path (RamModel + BistEngine) executes a march one cell at a
// time: every op touches bpw cells through hash-map fault lookups and a
// heap-allocated Word. But BIST write patterns are address-independent —
// within one march op every cell of a physical column receives the same
// Johnson-background bit — so for the overwhelming majority of cells a
// march op is a single masked 64-bit splat or compare per column.
//
// PackedRam exploits that: the (regular + spare) array is stored as
// uint64_t bit-planes, one plane per physical column, 64 rows per plane
// word. Injected faults become *sparse overlays*: the word addresses
// whose cells host an overlay victim or aggressor form a small "special"
// set that is simulated cell-exactly (mirroring FaultyArray's write/read
// semantics, including coupling side effects and TLB diversion), while
// every other address is handled by the word-parallel kernels. Because
// no fault ever touches a non-special regular cell, and bulk writes
// store exactly the written pattern, the packed run is bit-identical to
// the scalar engine — BistResult, TLB contents and final array state —
// which tests/test_packed_equivalence.cpp enforces on random geometries
// and fault lists.
//
// Overlay-expressible kinds: stuck-at, transition, and all three
// coupling models. StuckOpen (reads depend on the column's last sensed
// value — an address-order-dependent global) and Retention (wall-clock
// decay) are not expressible as sparse overlays; run_bist() dispatches
// those fault lists to the scalar model. The packed engine also aborts
// (returns nullopt) if a word-parallel read ever observes a bulk cell
// deviating from its pattern — impossible in any flow that starts each
// background with a write, but the abort keeps the dispatcher safe for
// ill-formed marches: the caller simply reruns the trial on the scalar
// path from scratch.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/bist.hpp"
#include "sim/campaign.hpp"
#include "sim/ram_model.hpp"

namespace bisram::sim {

/// True when `kind` can run on the bit-plane kernel as a sparse overlay.
bool packed_supported(FaultKind kind);

/// True when every fault in the list is overlay-expressible.
bool packed_supported(const std::vector<Fault>& faults);

/// Precomputed plane images of the Johnson backgrounds for one geometry:
/// for each (ones, complemented) pair, the full [col][w] bit-plane image
/// every bulk cell would hold after a clean write of that background.
/// The bulk march kernels reduce to one masked stream assign/compare
/// against these images (util/simd.hpp). Images are built lazily on
/// first use; the table is not thread-safe and lives inside one PackedRam.
class PackedPatternTable {
 public:
  explicit PackedPatternTable(const RamGeometry& geo);

  /// The plane image (cols * plane-words-per-column 64-bit words) of the
  /// background with Johnson fill `ones`, sense `complemented`.
  const std::uint64_t* pattern(int ones, bool complemented) const;

 private:
  RamGeometry geo_;
  int pw_ = 0;
  std::size_t words_ = 0;
  mutable std::vector<std::vector<std::uint64_t>> cache_;
};

/// The bit-plane RAM: planes indexed [column][row / 64], spares included,
/// plus the overlay fault set and the BISR TLB. Construction validates
/// the geometry and the fault list (throws SpecError when a fault kind is
/// not overlay-expressible or a cell is out of range).
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
  bool peek(int row, int col) const { return get_bit(row, col); }

  /// Word addresses containing an overlay victim or aggressor cell, in
  /// ascending order — the addresses the march kernels must simulate
  /// cell-exactly.
  const std::vector<std::uint32_t>& special_addresses() const {
    return specials_;
  }

  // --- word-parallel march kernels (bulk cells) -----------------------------
  // `ones` is the Johnson fill count of the active background (pattern
  // bit of column c is (c / bpc < ones)); `complemented` is the op's data
  // sense (r1/w1). Both kernels cover every non-special regular cell; the
  // special addresses and all spare rows are masked out.

  /// Writes the pattern into all bulk cells: one masked splat per plane
  /// word.
  void kernel_write(int ones, bool complemented);

  /// True when every bulk cell matches the pattern (one masked XOR per
  /// plane word). False signals a broken bulk invariant — the caller must
  /// abandon the packed run (see header comment).
  bool kernel_read_clean(int ones, bool complemented) const;

  // --- cell-exact path (special addresses and spares) -----------------------

  /// Writes the pattern word to `addr` through the address path (TLB
  /// diversion when repair is enabled), mirroring RamModel::write_word +
  /// FaultyArray::write bit for bit.
  void write_word_exact(std::uint32_t addr, int ones, bool complemented);

  /// Reads the word at `addr` through the address path, applying read
  /// fault semantics (including CouplingState's stored-value mutation),
  /// and returns true when every bit matches the expected pattern.
  bool read_word_matches(std::uint32_t addr, int ones, bool complemented);

 private:
  std::size_t plane_index(int col, int w) const {
    return static_cast<std::size_t>(col) * static_cast<std::size_t>(pw_) +
           static_cast<std::size_t>(w);
  }
  bool get_bit(int row, int col) const;
  void set_bit(int row, int col, bool v);
  std::int64_t cell_index(int row, int col) const {
    return static_cast<std::int64_t>(row) * geo_.cols() + col;
  }
  bool pattern_bit(int col, int ones, bool complemented) const {
    return (col / geo_.bpc < ones) != complemented;
  }

  /// FaultyArray::write semantics restricted to the overlay kinds.
  void write_cell(int row, int col, bool v);
  /// FaultyArray::read semantics restricted to the overlay kinds.
  bool read_cell(int row, int col);

  RamGeometry geo_;
  int pw_ = 0;  ///< plane words per column: ceil(total_rows / 64)
  std::vector<std::uint64_t> planes_;      ///< [col * pw_ + w]
  std::vector<std::uint64_t> write_mask_;  ///< bulk cells per plane word
  PackedPatternTable patterns_;
  std::vector<Fault> faults_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_victim_;
  std::unordered_map<std::int64_t, std::vector<std::size_t>> by_aggressor_;
  std::vector<std::uint32_t> specials_;
  Tlb tlb_;
  bool repair_enabled_ = false;
};

/// The BIST/BISR flow of sim/bist.hpp executed on the bit-plane kernel.
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
/// carrying `faults`, on the requested kernel.
///   * Auto — packed when the fault list is overlay-expressible, scalar
///     otherwise (per-trial dispatch; both produce identical results);
///   * Packed — forced; throws SpecError when a fault cannot be expressed
///     as an overlay;
///   * Scalar — forced reference path.
/// A packed run that aborts falls back to a fresh scalar run. When
/// `kernel_used` is non-null it receives the kernel that produced the
/// returned result (Packed or Scalar).
BistResult run_bist(const RamGeometry& geo, const std::vector<Fault>& faults,
                    const BistConfig& config = {},
                    SimKernel kernel = SimKernel::Auto,
                    SimKernel* kernel_used = nullptr);

}  // namespace bisram::sim
