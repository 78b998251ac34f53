#include "geom/cif_reader.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <map>
#include <sstream>

#include "util/diag.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bisram::geom {

namespace {

/// Coordinate magnitude cap for parsed geometry. Downstream arithmetic
/// (box centres, bloats, int64 areas in DRC) must never overflow, so the
/// reader bounds every coordinate to +/- 2e9 database units — 20 m of
/// silicon at 10 nm/unit, far beyond any real layout, and small enough
/// that products of two spans stay inside int64.
constexpr std::int64_t kCoordLimit = 2'000'000'000;

struct Tok {
  std::string text;
  int line = 0;
  int col = 0;
};

struct Command {
  std::vector<Tok> tokens;
  int line = 0;  ///< position of the first token
  int col = 0;
};

/// Splits raw CIF text into ';'-terminated commands, tracking the
/// 1-based line/column of every token and stripping (nestable) (...)
/// comments. Never throws: lexical damage becomes diagnostics and the
/// lexer keeps going — garbage in, positions out.
std::vector<Command> lex_cif(const std::string& text, DiagEngine& diag) {
  std::vector<Command> cmds;
  Command cur;
  Tok tok;
  int line = 1, col = 0;
  int paren = 0, paren_line = 0, paren_col = 0;

  auto flush_tok = [&] {
    if (!tok.text.empty()) {
      cur.tokens.push_back(tok);
      tok.text.clear();
    }
  };
  auto flush_cmd = [&] {
    flush_tok();
    if (!cur.tokens.empty()) {
      cur.line = cur.tokens[0].line;
      cur.col = cur.tokens[0].col;
      cmds.push_back(std::move(cur));
    }
    cur = Command{};
  };

  for (char c : text) {
    if (c == '\n') {
      ++line;
      col = 0;
    } else {
      ++col;
    }
    if (paren > 0) {  // inside a comment: only track nesting
      if (c == '(') ++paren;
      if (c == ')') --paren;
      continue;
    }
    switch (c) {
      case '(':
        flush_tok();
        paren = 1;
        paren_line = line;
        paren_col = col;
        break;
      case ')':
        diag.error("cif-unbalanced-comment", "')' without a matching '('",
                   line, col);
        break;
      case ';':
        flush_cmd();
        break;
      case ' ':
      case '\t':
      case '\r':
      case '\n':
      case '\f':
      case '\v':
        flush_tok();
        break;
      default:
        if (tok.text.empty()) {
          tok.line = line;
          tok.col = col;
        }
        tok.text += c;
    }
  }
  if (paren > 0)
    diag.error("cif-unbalanced-comment",
               "comment opened here is never closed", paren_line, paren_col);
  flush_cmd();  // accept a trailing command without ';' (lenient, as ever)
  return cmds;
}

/// strtoll with full-token validation: rejects empty, partial, and
/// out-of-range tokens instead of throwing or truncating.
bool parse_i64(const Tok& t, std::int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(t.text.c_str(), &end, 10);
  if (errno == ERANGE || end == t.text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_int(const Tok& t, int* out) {
  std::int64_t v = 0;
  if (!parse_i64(t, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_f64(const Tok& t, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.text.c_str(), &end);
  if (errno == ERANGE || end == t.text.c_str() || *end != '\0' ||
      !std::isfinite(v))
    return false;
  *out = v;
  return true;
}

bool layer_by_cif(const std::string& code, Layer* out) {
  for (Layer l : all_layers())
    if (layer_cif_code(l) == code) {
      *out = l;
      return true;
    }
  return false;
}

/// Parses the orientation suffix of a call: tokens between the cell id
/// and the final "T x y".
bool orient_from_tokens(const std::vector<Tok>& tokens, std::size_t begin,
                        std::size_t end, Orient* out) {
  std::string key;
  for (std::size_t i = begin; i < end; ++i) {
    if (!key.empty()) key += ' ';
    key += tokens[i].text;
  }
  static const std::map<std::string, Orient> kMap = {
      {"", Orient::R0},
      {"R 0 1", Orient::R90},
      {"R -1 0", Orient::R180},
      {"R 0 -1", Orient::R270},
      {"M Y", Orient::MX},
      {"M Y R 0 1", Orient::MXR90},
      {"M X", Orient::MY},
      {"M X R 0 1", Orient::MYR90},
  };
  auto it = kMap.find(key);
  if (it == kMap.end()) return false;
  *out = it->second;
  return true;
}

CifDesign parse_cif(const std::string& text, DiagEngine& diag) {
  CifDesign design;
  const std::vector<Command> cmds = lex_cif(text, diag);

  std::map<int, std::shared_ptr<Cell>> by_id;
  std::shared_ptr<Cell> current;
  int current_id = -1;
  int ds_line = 0, ds_col = 0;  // where the open definition started
  Layer current_layer = Layer::Metal1;
  int top_call = -1;
  int next_anon = 0;

  for (const Command& cmd : cmds) {
    if (diag.saturated()) break;  // pathological input: stop at the cap
    const std::vector<Tok>& tokens = cmd.tokens;
    const std::string& head = tokens[0].text;

    if (head == "DS") {
      if (current != nullptr) {
        diag.error("cif-nested-ds",
                   "definition start inside an open definition (missing "
                   "DF?)",
                   cmd.line, cmd.col);
        current.reset();  // recover: implicitly close the open definition
      }
      if (tokens.size() < 4) {
        diag.error("cif-bad-ds", "DS needs an id and a scale (DS id a b)",
                   cmd.line, cmd.col);
        continue;
      }
      int id = 0;
      double a = 0, b = 0;
      if (!parse_int(tokens[1], &id) || id < 0) {
        diag.error("cif-bad-number",
                   "'" + tokens[1].text + "' is not a valid symbol id",
                   tokens[1].line, tokens[1].col);
        continue;
      }
      if (!parse_f64(tokens[2], &a) || !parse_f64(tokens[3], &b) || a <= 0 ||
          b <= 0) {
        diag.error("cif-bad-scale",
                   "DS scale factors must be positive numbers",
                   tokens[2].line, tokens[2].col);
        continue;
      }
      // a/b converts DBU (lambda/10) to centimicrons (10 nm), so one
      // lambda is (a/b)*10 DBU-units of 10 nm = (a/b)*100 nm.
      design.lambda_nm = a / b * 100.0;
      if (by_id.count(id))
        diag.warning("cif-redefined-symbol",
                     "symbol " + std::to_string(id) +
                         " redefined; earlier uses keep the old definition",
                     cmd.line, cmd.col);
      current_id = id;
      ds_line = cmd.line;
      ds_col = cmd.col;
      current = std::make_shared<Cell>("cif_cell_" +
                                       std::to_string(next_anon++));
      by_id[current_id] = current;
    } else if (head == "DF") {
      if (current == nullptr) {
        diag.error("cif-df-without-ds", "DF without an open DS", cmd.line,
                   cmd.col);
        continue;
      }
      current.reset();
    } else if (head == "9") {
      if (current == nullptr || tokens.size() < 2) {
        diag.error("cif-stray-name",
                   "cell name outside a definition or without a name",
                   cmd.line, cmd.col);
        continue;
      }
      // Rebuild the cell under its real name (names arrive after DS).
      auto named = std::make_shared<Cell>(tokens[1].text);
      by_id[current_id] = named;
      current = named;
    } else if (head == "L") {
      if (current == nullptr || tokens.size() < 2) {
        diag.error("cif-stray-layer",
                   "layer select outside a definition or without a code",
                   cmd.line, cmd.col);
        continue;
      }
      Layer layer = current_layer;
      if (!layer_by_cif(tokens[1].text, &layer)) {
        diag.error("cif-unknown-layer",
                   "unknown layer code '" + tokens[1].text + "'",
                   tokens[1].line, tokens[1].col);
        continue;  // keep the previous layer selection
      }
      current_layer = layer;
    } else if (head == "B") {
      if (current == nullptr) {
        diag.error("cif-stray-box", "box outside a definition", cmd.line,
                   cmd.col);
        continue;
      }
      if (tokens.size() < 5) {
        diag.error("cif-bad-box", "B needs width, height and centre "
                   "(B w h cx cy)",
                   cmd.line, cmd.col);
        continue;
      }
      std::int64_t v[4] = {0, 0, 0, 0};
      bool ok = true;
      for (int i = 0; i < 4 && ok; ++i) {
        if (!parse_i64(tokens[static_cast<std::size_t>(i) + 1], &v[i])) {
          const Tok& t = tokens[static_cast<std::size_t>(i) + 1];
          diag.error("cif-bad-number",
                     "'" + t.text + "' is not a valid coordinate", t.line,
                     t.col);
          ok = false;
        } else if (v[i] < -kCoordLimit || v[i] > kCoordLimit) {
          const Tok& t = tokens[static_cast<std::size_t>(i) + 1];
          diag.error("cif-coordinate-overflow",
                     "coordinate magnitude exceeds the supported range",
                     t.line, t.col);
          ok = false;
        }
      }
      if (!ok) continue;
      const Coord w = v[0], h = v[1], cx = v[2], cy = v[3];
      if (w < 2 || h < 2) {
        diag.error("cif-degenerate-box",
                   "box must be at least 2x2 database units", cmd.line,
                   cmd.col);
        continue;
      }
      current->add_shape(current_layer,
                         Rect::ltrb(cx - w / 2, cy - h / 2, cx + w / 2,
                                    cy + h / 2));
    } else if (head == "C") {
      if (tokens.size() < 2) {
        diag.error("cif-bad-call", "C needs a symbol id", cmd.line, cmd.col);
        continue;
      }
      int id = 0;
      if (!parse_int(tokens[1], &id)) {
        diag.error("cif-bad-number",
                   "'" + tokens[1].text + "' is not a valid symbol id",
                   tokens[1].line, tokens[1].col);
        continue;
      }
      auto it = by_id.find(id);
      if (it == by_id.end()) {
        diag.error("cif-undefined-symbol",
                   "call of undefined symbol " + std::to_string(id),
                   cmd.line, cmd.col);
        continue;
      }
      if (current == nullptr) {
        top_call = id;  // the trailing top-level call
        continue;
      }
      if (it->second == current) {
        // A cell instantiating itself would knot the shared_ptr graph
        // into a cycle (an unbounded layout and a guaranteed leak).
        diag.error("cif-recursive-call",
                   "symbol " + std::to_string(id) + " calls itself",
                   cmd.line, cmd.col);
        continue;
      }
      // Grammar from the writer: C id [orient tokens] T x y.
      std::size_t t_pos = tokens.size();
      for (std::size_t i = 2; i < tokens.size(); ++i)
        if (tokens[i].text == "T") t_pos = i;
      if (t_pos != tokens.size() && t_pos + 2 >= tokens.size()) {
        diag.error("cif-bad-transform",
                   "T needs both offsets (T x y)", tokens[t_pos].line,
                   tokens[t_pos].col);
        continue;
      }
      Orient orient = Orient::R0;
      Point offset{0, 0};
      const std::size_t orient_end =
          t_pos < tokens.size() ? t_pos : tokens.size();
      if (!orient_from_tokens(tokens, 2, orient_end, &orient)) {
        diag.error("cif-bad-transform", "unsupported transform", cmd.line,
                   cmd.col);
        continue;
      }
      if (t_pos < tokens.size()) {
        std::int64_t x = 0, y = 0;
        if (!parse_i64(tokens[t_pos + 1], &x) ||
            !parse_i64(tokens[t_pos + 2], &y) || x < -kCoordLimit ||
            x > kCoordLimit || y < -kCoordLimit || y > kCoordLimit) {
          diag.error("cif-bad-number", "invalid call offset",
                     tokens[t_pos + 1].line, tokens[t_pos + 1].col);
          continue;
        }
        offset = {x, y};
      }
      current->add_instance(
          strfmt("i%zu", current->instances().size()), it->second,
          Transform(orient, offset));
    } else if (head == "E") {
      break;
    } else {
      diag.error("cif-unknown-command",
                 "unsupported command '" + head + "'", cmd.line, cmd.col);
    }
  }

  if (current != nullptr)
    diag.error("cif-unterminated-definition",
               "definition opened here is never closed (missing DF)",
               ds_line, ds_col);
  if (top_call < 0)
    diag.error("cif-no-top-call", "no top-level call before E", 0, 0);

  for (auto& [id, cell] : by_id) {
    if (design.library.contains(cell->name())) {
      diag.error("cif-duplicate-cell",
                 "two symbols are both named '" + cell->name() + "'", 0, 0);
      continue;
    }
    design.library.add(cell);
  }
  if (top_call >= 0) design.top = by_id.at(top_call);
  return design;
}

}  // namespace

CifDesign read_cif(std::istream& is, DiagEngine* diag) {
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  if (diag) return parse_cif(text, *diag);
  DiagEngine local("<cif>");
  CifDesign design = parse_cif(text, local);
  local.throw_if_errors();  // legacy contract: SpecError on malformed input
  return design;
}

CifDesign read_cif_string(const std::string& text, DiagEngine* diag) {
  std::istringstream ss(text);
  return read_cif(ss, diag);
}

}  // namespace bisram::geom
