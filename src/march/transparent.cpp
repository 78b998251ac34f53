#include "march/transparent.hpp"

#include "util/error.hpp"

namespace bisram::march {

TransparentTest::TransparentTest(std::string name,
                                 std::vector<TransparentElement> elements)
    : name_(std::move(name)), elements_(std::move(elements)) {
  require(!elements_.empty(), "TransparentTest: no elements");
}

bool TransparentTest::restores_contents() const {
  // The final written polarity must be "not inverted" (i.e. the last
  // write restores d). Scan for the last write.
  for (auto e = elements_.rbegin(); e != elements_.rend(); ++e) {
    for (auto op = e->ops.rbegin(); op != e->ops.rend(); ++op) {
      if (!op->read) return !op->invert;
    }
  }
  return true;  // read-only transparent test
}

std::size_t TransparentTest::ops_per_address() const {
  std::size_t n = 0;
  for (const auto& e : elements_) n += e.ops.size();
  return n;
}

TransparentTest make_transparent(const MarchTest& test) {
  const auto& elements = test.elements();
  // Find the leading initializing element: write-only.
  std::size_t first = 0;
  bool found_init = false;
  bool init_value = false;
  while (first < elements.size()) {
    const Element& e = elements[first];
    if (e.is_delay) {
      ++first;
      continue;
    }
    bool write_only = true;
    for (Op op : e.ops)
      if (is_read(op)) write_only = false;
    if (!write_only) break;
    // The polarity the march establishes; later ops are re-based on it.
    found_init = true;
    init_value = op_value(e.ops.back());
    ++first;
  }
  require(found_init,
          "make_transparent: march has no initializing write element");

  std::vector<TransparentElement> out;
  for (std::size_t i = first; i < elements.size(); ++i) {
    const Element& e = elements[i];
    TransparentElement te;
    te.order = e.order;
    te.is_delay = e.is_delay;
    for (Op op : e.ops) {
      // A march op with value v (0/1) addresses a cell the initializer
      // set to init_value; transparently the cell holds d, so the op's
      // effective inversion is v XOR init_value.
      te.ops.push_back({is_read(op), op_value(op) != init_value});
    }
    out.push_back(std::move(te));
  }
  TransparentTest derived(test.name() + " (transparent)", std::move(out));
  if (!derived.restores_contents()) {
    // Standard transparent practice: append a restoring sweep writing
    // the initial data back, so normal-mode contents survive the test.
    auto elements = derived.elements();
    TransparentElement restore;
    restore.order = Order::Either;
    restore.ops.push_back({false, false});  // write d
    elements.push_back(std::move(restore));
    return TransparentTest(derived.name(), std::move(elements));
  }
  return derived;
}

}  // namespace bisram::march
