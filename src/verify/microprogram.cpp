#include "verify/microprogram.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "verify/product_model.hpp"

namespace bisram::verify {

using microcode::kCondCount;
using microcode::kCtrlCount;

namespace {

constexpr std::uint32_t kCondSpace = 1u << kCondCount;

/// Bit-mask form of one product term, split at the state/condition and
/// next-state/control boundaries so table filling is a handful of ANDs.
struct TermMasks {
  std::uint32_t smask = 0, sval = 0;  ///< over the state-bit columns
  std::uint32_t cmask = 0, cval = 0;  ///< over the condition columns
  std::uint16_t next = 0;             ///< next-state code asserted
  std::uint32_t controls = 0;         ///< control word asserted
};

std::vector<TermMasks> term_masks(const microcode::PlaPersonality& pla,
                                  int state_bits) {
  std::vector<TermMasks> out;
  out.reserve(static_cast<std::size_t>(pla.terms()));
  for (const auto& term : pla.product_terms()) {
    TermMasks m;
    for (int i = 0; i < state_bits; ++i) {
      const char c = term.and_row[static_cast<std::size_t>(i)];
      if (c == '-') continue;
      m.smask |= 1u << i;
      if (c == '1') m.sval |= 1u << i;
    }
    for (int i = 0; i < kCondCount; ++i) {
      const char c = term.and_row[static_cast<std::size_t>(state_bits + i)];
      if (c == '-') continue;
      m.cmask |= 1u << i;
      if (c == '1') m.cval |= 1u << i;
    }
    for (int i = 0; i < state_bits; ++i)
      if (term.or_row[static_cast<std::size_t>(i)] == '1')
        m.next |= static_cast<std::uint16_t>(1u << i);
    for (int i = 0; i < kCtrlCount; ++i)
      if (term.or_row[static_cast<std::size_t>(state_bits + i)] == '1')
        m.controls |= 1u << i;
    out.push_back(m);
  }
  return out;
}

}  // namespace

PlaTable tabulate(const microcode::PlaPersonality& pla, int state_bits,
                  bool with_terms) {
  require(state_bits >= 1 && state_bits <= 14,
          "verify: state register width out of range (1..14 flip-flops)");
  require(pla.inputs() == state_bits + kCondCount,
          "verify: personality input width is not state bits + condition "
          "count — not a state-assigned controller PLA");
  require(pla.outputs() == state_bits + kCtrlCount,
          "verify: personality output width is not state bits + control "
          "count — not a state-assigned controller PLA");

  PlaTable table;
  table.state_bits = state_bits;
  table.num_codes = 1 << state_bits;
  const std::size_t entries =
      static_cast<std::size_t>(table.num_codes) * kCondSpace;
  table.next.assign(entries, 0);
  table.controls.assign(entries, 0);
  if (with_terms) table.matched.assign(entries, {});

  const auto masks = term_masks(pla, state_bits);
  for (int code = 0; code < table.num_codes; ++code) {
    const auto ucode = static_cast<std::uint32_t>(code);
    for (std::uint32_t conds = 0; conds < kCondSpace; ++conds) {
      const std::size_t at = table.index(code, conds);
      for (std::size_t t = 0; t < masks.size(); ++t) {
        const TermMasks& m = masks[t];
        if ((ucode & m.smask) != m.sval || (conds & m.cmask) != m.cval)
          continue;
        table.next[at] |= m.next;
        table.controls[at] |= m.controls;
        if (with_terms) table.matched[at].push_back(static_cast<std::uint16_t>(t));
      }
    }
  }
  return table;
}

namespace {

/// DFS frame of the hang/bound analysis.
struct Frame {
  std::size_t state;
  std::size_t at;  ///< stack position (for witness extraction)
  int nsucc;
  int visited_succ;
  std::size_t succ[3];
  bool terminal;
};

std::vector<bool> input_vector(int code, std::uint32_t conds, int state_bits) {
  std::vector<bool> in(static_cast<std::size_t>(state_bits + kCondCount));
  for (int i = 0; i < state_bits; ++i)
    in[static_cast<std::size_t>(i)] = ((code >> i) & 1) != 0;
  for (int i = 0; i < kCondCount; ++i)
    in[static_cast<std::size_t>(state_bits + i)] = ((conds >> i) & 1) != 0;
  return in;
}

}  // namespace

MicroReport analyze_controller(const microcode::AssembledController& ctrl,
                               const VerifyOptions& options) {
  const PlaTable table = tabulate(ctrl.pla, ctrl.state_bits, true);
  const detail::DatapathDims dims(options);
  const std::size_t dp_count = dims.size();
  const std::size_t product =
      dp_count * static_cast<std::size_t>(table.num_codes);
  require(product <= options.max_product_states,
          strfmt("verify: product model needs %zu states (cap %zu); shrink "
                 "VerifyOptions::words/bpw or raise max_product_states",
                 product, options.max_product_states));

  MicroReport rep;
  rep.state_bits = ctrl.state_bits;
  rep.declared_states = ctrl.num_states;
  rep.terms = ctrl.pla.terms();

  const std::size_t start =
      static_cast<std::size_t>(ctrl.initial_state) * dp_count + dims.initial();

  // --- phase 1: full reachability, clocking through done signals --------
  // Hardware never stops evaluating the planes; the DONE states hold
  // their signal via self-loop terms. Following terminal edges too keeps
  // those terms from being misreported as dead.
  std::vector<std::uint8_t> visited(product, 0);
  std::vector<std::uint8_t> point_seen(table.next.size(), 0);
  std::vector<std::uint8_t> code_seen(static_cast<std::size_t>(table.num_codes),
                                      0);
  {
    std::vector<std::size_t> stack{start};
    visited[start] = 1;
    std::size_t succ[3];
    while (!stack.empty()) {
      const std::size_t s = stack.back();
      stack.pop_back();
      ++rep.product_states_explored;
      const auto code = static_cast<int>(s / dp_count);
      const std::size_t dp = s % dp_count;
      const std::uint32_t conds = dims.conds_of(dp);
      const std::size_t at = table.index(code, conds);
      point_seen[at] = 1;
      code_seen[static_cast<std::size_t>(code)] = 1;
      const int n = dims.step(dp, table.controls[at], succ);
      for (int i = 0; i < n; ++i) {
        const std::size_t ns =
            static_cast<std::size_t>(table.next[at]) * dp_count + succ[i];
        if (!visited[ns]) {
          visited[ns] = 1;
          stack.push_back(ns);
        }
      }
    }
  }

  // --- lint over reachable input points ---------------------------------
  std::vector<std::uint8_t> fired(static_cast<std::size_t>(rep.terms), 0);
  for (int code = 0; code < table.num_codes; ++code) {
    for (std::uint32_t conds = 0; conds < kCondSpace; ++conds) {
      const std::size_t at = table.index(code, conds);
      if (!point_seen[at]) continue;
      const auto& matched = table.matched[at];
      for (std::uint16_t t : matched) fired[t] = 1;
      // Cross-check the table against the personality's own point check.
      ensure(ctrl.pla.is_deterministic_for(
                 input_vector(code, conds, ctrl.state_bits)) ==
                 (matched.size() == 1),
             "verify: transition table disagrees with matching_terms");
      if (matched.empty()) {
        rep.unspecified.push_back({code, conds});
      } else if (matched.size() >= 2) {
        TermOverlap o;
        o.at = {code, conds};
        o.terms.assign(matched.begin(), matched.end());
        const auto& first =
            ctrl.pla.product_terms()[static_cast<std::size_t>(matched[0])];
        for (std::uint16_t t : matched)
          if (ctrl.pla.product_terms()[static_cast<std::size_t>(t)].or_row !=
              first.or_row)
            o.output_conflict = true;
        rep.overlaps.push_back(std::move(o));
      }
    }
  }
  // Coarse FSM view: code-level reachability with the conditions left
  // free. A term dead even here is stale microcode; a term alive here
  // but dead in the exact model is a defensive cover of a condition
  // combination the datapath invariants exclude.
  std::vector<std::uint8_t> fired_free(static_cast<std::size_t>(rep.terms), 0);
  {
    std::vector<std::uint8_t> free_code(
        static_cast<std::size_t>(table.num_codes), 0);
    std::vector<int> stack{ctrl.initial_state};
    free_code[static_cast<std::size_t>(ctrl.initial_state)] = 1;
    while (!stack.empty()) {
      const int code = stack.back();
      stack.pop_back();
      for (std::uint32_t conds = 0; conds < kCondSpace; ++conds) {
        const std::size_t at = table.index(code, conds);
        for (std::uint16_t t : table.matched[at]) fired_free[t] = 1;
        const int next = table.next[at];
        if (!free_code[static_cast<std::size_t>(next)]) {
          free_code[static_cast<std::size_t>(next)] = 1;
          stack.push_back(next);
        }
      }
    }
  }
  for (int t = 0; t < rep.terms; ++t) {
    if (!fired_free[static_cast<std::size_t>(t)])
      rep.dead_terms.push_back(t);
    else if (!fired[static_cast<std::size_t>(t)])
      rep.vacuous_terms.push_back(t);
  }
  for (int code = 0; code < table.num_codes; ++code) {
    if (code_seen[static_cast<std::size_t>(code)]) {
      rep.reachable_codes.push_back(code);
      if (code >= ctrl.num_states) rep.reachable_undeclared.push_back(code);
    } else if (code < ctrl.num_states) {
      rep.unreachable_states.push_back(code);
    }
  }

  // --- phase 2: hang analysis -------------------------------------------
  // Restricted to edges that assert neither SigDone nor SigFail: a cycle
  // here is a reachable loop no input sequence can ever finish from; its
  // absence makes the non-terminal region a DAG whose longest path is a
  // sound watchdog budget.
  std::vector<std::uint8_t> color(product, 0);  // 0 white, 1 grey, 2 black
  std::vector<std::uint32_t> bound(product, 0);
  std::vector<Frame> frames;
  frames.reserve(1024);

  auto open_frame = [&](std::size_t s) {
    Frame f;
    f.state = s;
    f.at = frames.size();
    f.visited_succ = 0;
    const auto code = static_cast<int>(s / dp_count);
    const std::size_t dp = s % dp_count;
    const std::size_t at = table.index(code, dims.conds_of(dp));
    f.terminal = (table.controls[at] & detail::kTerminalMask) != 0;
    f.nsucc = f.terminal ? 0 : dims.step(dp, table.controls[at], f.succ);
    if (!f.terminal)
      for (int i = 0; i < f.nsucc; ++i)
        f.succ[i] =
            static_cast<std::size_t>(table.next[at]) * dp_count + f.succ[i];
    color[s] = 1;
    frames.push_back(f);
  };

  rep.hang_free = true;
  open_frame(start);
  while (!frames.empty() && rep.hang_free) {
    Frame& f = frames.back();
    if (f.visited_succ == f.nsucc) {
      // Post-order: close the frame. A terminal state costs one cycle
      // (the cycle that asserts the signal); otherwise one cycle plus
      // the worst successor.
      std::uint32_t b = 1;
      for (int i = 0; i < f.nsucc; ++i)
        b = std::max(b, 1 + bound[f.succ[i]]);
      bound[f.state] = b;
      color[f.state] = 2;
      frames.pop_back();
      continue;
    }
    const std::size_t ns = f.succ[f.visited_succ++];
    if (color[ns] == 0) {
      open_frame(ns);
    } else if (color[ns] == 1) {
      // Back edge: a reachable cycle that never signals done/fail.
      rep.hang_free = false;
      std::size_t i = frames.size();
      while (i > 0 && frames[i - 1].state != ns) --i;
      for (std::size_t k = (i > 0 ? i - 1 : 0); k < frames.size(); ++k) {
        const int code = static_cast<int>(frames[k].state / dp_count);
        if (rep.hang_cycle.empty() || rep.hang_cycle.back() != code)
          rep.hang_cycle.push_back(code);
      }
    }
  }
  if (rep.hang_free) rep.worst_case_cycles = bound[start];

  return rep;
}

std::string MicroReport::summary(
    const std::vector<std::string>& state_names) const {
  auto name_of = [&](int code) {
    if (code < static_cast<int>(state_names.size()))
      return state_names[static_cast<std::size_t>(code)];
    return strfmt("code%d", code);
  };
  std::string s = strfmt(
      "microprogram: %d states in %d flip-flops, %d product terms; "
      "reachable %zu/%d",
      declared_states, state_bits, terms, reachable_codes.size(),
      declared_states);
  if (!unreachable_states.empty()) {
    s += "; unreachable:";
    for (int c : unreachable_states) (s += ' ') += name_of(c);
  }
  if (!reachable_undeclared.empty())
    s += strfmt("; %zu undeclared codes entered", reachable_undeclared.size());
  s += strfmt("; dead terms %zu; vacuous (defensive) terms %zu; overlaps "
              "%zu; unspecified inputs %zu",
              dead_terms.size(), vacuous_terms.size(), overlaps.size(),
              unspecified.size());
  if (hang_free) {
    s += strfmt("; hang-free (worst case %llu cycles)",
                static_cast<unsigned long long>(worst_case_cycles));
  } else {
    s += "; HANG POSSIBLE via";
    for (int c : hang_cycle) (s += ' ') += name_of(c);
  }
  return s;
}

}  // namespace bisram::verify
