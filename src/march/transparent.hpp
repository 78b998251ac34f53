#pragma once
// Transparent BIST transformation (Kebichi & Nicolaidis 1992, the
// paper's reference [8]): turns a march test into one that leaves the
// RAM's normal-mode contents unmodified. Initializing writes are
// dropped; every remaining operation is reinterpreted *relative to the
// initial cell data d* — r0 becomes "read, expect d", r1 "read, expect
// ~d", w1 "write ~d", and so on. Detection uses signature comparison
// (src/sim/transparent.hpp) because absolute expected values are
// unknown.

#include "march/march.hpp"

namespace bisram::march {

/// One transparent operation: value = initial_data XOR invert.
struct TransparentOp {
  bool read = false;
  bool invert = false;  ///< complement of the initial data
};

struct TransparentElement {
  Order order = Order::Either;
  std::vector<TransparentOp> ops;
  bool is_delay = false;
};

/// A transparent march test.
class TransparentTest {
 public:
  TransparentTest(std::string name, std::vector<TransparentElement> elements);

  const std::string& name() const { return name_; }
  const std::vector<TransparentElement>& elements() const { return elements_; }

  /// True when a fault-free run returns every cell to its initial value
  /// (the transformation guarantees it for tests whose per-address write
  /// parity is even).
  bool restores_contents() const;

  std::size_t ops_per_address() const;

 private:
  std::string name_;
  std::vector<TransparentElement> elements_;
};

/// Derives the transparent version of `test`:
///  * leading initializing elements (write-only, Either order) are
///    dropped — the memory's own contents play the role of the
///    background;
///  * each op's data sense is re-based so the first (dropped) write
///    polarity maps to "initial data".
/// Throws SpecError when the test has no initializing element to anchor
/// the polarity.
TransparentTest make_transparent(const MarchTest& test);

}  // namespace bisram::march
