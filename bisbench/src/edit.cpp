// edit_resignoff: a designer iterating on layout. Set-up generates a
// slice of the Fig. 6 organisation, flattens it and saves a snapshot.
// The timed part reopens the session (load_snapshot plus construction
// of IncrementalDrc and IncrementalExtract), then applies seeded
// CellEdits, each followed by both engines' update. Untimed full
// drc::check / extract::extract scans of the edited database must equal
// the incremental answers, periodically and after the last edit.

#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cells/leaf_cells.hpp"
#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workloads.hpp"

namespace bisbench {

using namespace bisram;

namespace {

/// A 64-word slice of the Fig. 6 organisation.
constexpr std::uint32_t kWords = 64;
/// Edits per run: at least this many, more while time remains.
constexpr int kMinEdits = 100;
/// Spacing (DBU) of the columns that added leaf cells are placed in.
constexpr geom::Coord kAddGap = 4000;
/// Full scans run after every this many edits (and after the last).
constexpr int kCheckEvery = 100;

core::RamSpec slice_spec(std::uint32_t words) {
  core::RamSpec spec;
  spec.words = words;
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  spec.technology = "cda.7u3m1p";
  return spec;
}

const geom::Instance& child(const geom::Cell& c, const std::string& name) {
  for (const geom::Instance& i : c.instances())
    if (i.name == name) return i;
  throw Error("edit_resignoff: no instance " + name + " in " + c.name());
}

struct Placed {
  std::string path;
  geom::Transform local;  ///< original placement in the parent
  geom::CellPtr cell;
};

/// The edits a designer makes on this macro, as the workload lists them:
/// Move of a bit cell or of a whole RAMARRAY/rowN, Move or Remove of a
/// ROWDEC instance, Replace of a bit cell, Add of a leaf cell at top
/// level. No record of real editing sessions exists to weight them, so
/// the mix is uniform: every block of kKinds edits holds each kind once,
/// in a seeded order.
enum class EditKind { MoveBit, MoveRow, MoveDecoder, RemoveDecoder, ReplaceBit, AddLeaf };
constexpr EditKind kBlock[] = {EditKind::MoveBit,     EditKind::MoveRow,
                               EditKind::MoveDecoder, EditKind::RemoveDecoder,
                               EditKind::ReplaceBit,  EditKind::AddLeaf};
constexpr std::size_t kKinds = std::size(kBlock);

/// Seeded edit generator over the live hierarchy. It mirrors every edit
/// it emits, so each edit addresses an instance that exists in the
/// database at that point. Moves displace an instance by a few DBU from
/// its original placement, and a removed decoder is put back (an Add at
/// its original name and placement) by the next remove-kind edit, so
/// the layout jitters around the generated one instead of drifting
/// further from it with every edit, and a slice with a dozen decoders
/// supports any number of removals.
class EditGen {
 public:
  EditGen(const geom::Cell& top, const tech::Tech& t, std::uint64_t seed)
      : rng_(seed), bbox_(top.bbox()) {
    const geom::Instance& array = child(top, "RAMARRAY");
    for (const geom::Instance& row : array.cell->instances())
      rows_.push_back({"RAMARRAY/" + row.name, row.transform, row.cell});
    // Every row instantiates the same row cell; its bit cells ("b*",
    // straps excluded) are the per-row edit targets.
    const geom::Cell& row_cell = *array.cell->instances().front().cell;
    for (const geom::Instance& b : row_cell.instances())
      if (b.name.rfind("b", 0) == 0)
        bits_.push_back({b.name, b.transform, b.cell});
    const geom::Instance& dec = child(top, "ROWDEC");
    for (const geom::Instance& d : dec.cell->instances())
      decoders_.push_back({"ROWDEC/" + d.name, d.transform, d.cell});
    fresh_bit_ = cells::sram_cell_6t(lib_, t);
    add_cells_ = {fresh_bit_, cells::precharge_cell(lib_, t, 2.0),
                  cells::cam_cell(lib_, t)};
  }

  /// The next edit and a short label of its kind.
  geom::CellEdit next(std::string* label) {
    if (deck_.empty()) deal();
    const EditKind kind = deck_.back();
    deck_.pop_back();
    geom::CellEdit e;
    switch (kind) {
      case EditKind::MoveBit: {
        const Placed& row = rows_[rng_.below(rows_.size())];
        const Placed& b = bits_[rng_.below(bits_.size())];
        e.kind = geom::CellEdit::Kind::Move;
        e.path = row.path + "/" + b.path;
        e.transform = nudge(b.local);
        *label = "move bit";
        break;
      }
      case EditKind::MoveRow: {
        const Placed& r = rows_[rng_.below(rows_.size())];
        e.kind = geom::CellEdit::Kind::Move;
        e.path = r.path;
        e.transform = nudge(r.local);
        *label = "move row";
        break;
      }
      case EditKind::RemoveDecoder:
        if (removed_) {
          e.kind = geom::CellEdit::Kind::Add;
          e.path = "ROWDEC";
          e.name = removed_->path.substr(e.path.size() + 1);
          e.cell = removed_->cell;
          e.transform = removed_->local;
          decoders_.push_back(*removed_);
          removed_.reset();
          *label = "restore decoder";
        } else {
          const std::size_t k = rng_.below(decoders_.size());
          e.kind = geom::CellEdit::Kind::Remove;
          e.path = decoders_[k].path;
          removed_ = decoders_[k];
          decoders_.erase(decoders_.begin() + static_cast<std::ptrdiff_t>(k));
          *label = "remove decoder";
        }
        break;
      case EditKind::MoveDecoder: {
        const Placed& d = decoders_[rng_.below(decoders_.size())];
        e.kind = geom::CellEdit::Kind::Move;
        e.path = d.path;
        e.transform = nudge(d.local);
        *label = "move decoder";
        break;
      }
      case EditKind::ReplaceBit: {
        const Placed& row = rows_[rng_.below(rows_.size())];
        const Placed& b = bits_[rng_.below(bits_.size())];
        e.kind = geom::CellEdit::Kind::Replace;
        e.path = row.path + "/" + b.path;
        e.cell = fresh_bit_;
        *label = "replace bit";
        break;
      }
      case EditKind::AddLeaf: {
        // Adds land on a grid right of the macro: an Add that overlaps
        // existing geometry can leave IncrementalExtract with more nets
        // than a full extract (seen with a CAM cell dropped onto the
        // array's bottom edge), which would fail every later check.
        const int slot = adds_++;
        e.kind = geom::CellEdit::Kind::Add;
        e.path = "";
        e.name = strfmt("bench_add%d", slot);
        e.cell = add_cells_[rng_.below(add_cells_.size())];
        e.transform = geom::Transform::translate(
            bbox_.hi.x + kAddGap * (1 + slot % 4),
            bbox_.lo.y + kAddGap * (slot / 4));
        *label = "add leaf";
        break;
      }
    }
    return e;
  }

 private:
  /// Refills the deck with one shuffled block.
  void deal() {
    deck_.assign(std::begin(kBlock), std::end(kBlock));
    for (std::size_t i = deck_.size(); i > 1; --i)
      std::swap(deck_[i - 1], deck_[rng_.below(i)]);
  }

  /// The original placement displaced by a nonzero step of up to 8 DBU.
  geom::Transform nudge(const geom::Transform& t) {
    const auto step = [&] {
      return static_cast<geom::Coord>(rng_.below(8)) * 2 - 8;  // -8..6
    };
    geom::Coord dx = step(), dy = step();
    if (dx == 0 && dy == 0) dx = 8;
    return geom::Transform::translate(dx, dy).compose(t);
  }

  Rng rng_;
  geom::Rect bbox_;
  geom::Library lib_;
  geom::CellPtr fresh_bit_;
  std::vector<geom::CellPtr> add_cells_;
  std::vector<Placed> rows_;
  std::vector<Placed> bits_;  ///< bit instances of the row cell
  std::vector<Placed> decoders_;  ///< live decoders
  std::optional<Placed> removed_;  ///< the decoder taken out, if any
  std::vector<EditKind> deck_;
  int adds_ = 0;
};

bool same_violations(const std::vector<drc::Violation>& a,
                     const std::vector<drc::Violation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const drc::Violation& x = a[i];
    const drc::Violation& y = b[i];
    if (!(x.kind == y.kind && x.layer == y.layer && x.a == y.a &&
          x.b == y.b && x.note == y.note && x.path_a == y.path_a &&
          x.path_b == y.path_b))
      return false;
  }
  return true;
}

bool same_extraction(const extract::Extracted& a,
                     const extract::Extracted& b) {
  if (a.net_count != b.net_count || !(a.port_net == b.port_net) ||
      !(a.net_cap_f == b.net_cap_f) || a.devices.size() != b.devices.size())
    return false;
  for (std::size_t i = 0; i < a.devices.size(); ++i) {
    const extract::Device& x = a.devices[i];
    const extract::Device& y = b.devices[i];
    if (!(x.type == y.type && x.gate == y.gate && x.source == y.source &&
          x.drain == y.drain && x.w_um == y.w_um && x.l_um == y.l_um &&
          x.path == y.path))
      return false;
  }
  return true;
}

std::uint64_t dirty_shapes(const geom::EditResult& r) {
  std::uint64_t n = 0;
  for (const geom::ShapeSplice& s : r.splice)
    n += (s.old_end - s.begin) + (s.new_end - s.begin);
  return n;
}

}  // namespace

RunResult run_edit_resignoff(const RunConfig& cfg, Recorder& rec, Ledger& led,
                             Timings& tm) {
  const JsonValue& exp = *cfg.expected;
  const core::RamSpec spec = slice_spec(kWords);
  const std::string dir = fresh_dir(cfg.work_dir, "edit");
  const std::string snap = dir + "/slice.snap";

  // Set-up: generate, flatten, save the snapshot (kSetupReps times; the
  // last hierarchy seeds the edit generator).
  std::optional<core::Assembled> gen;
  const tech::Tech* t = nullptr;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    core::Compiler session;
    t = &session.resolve_tech(spec);
    gen.emplace(session.assemble(spec, *t));
    const geom::LayoutDB db(*gen->top, drc::tile_size_for(*t));
    db.save_snapshot(snap);
    tm.setup_s.push_back(seconds_since(t0));
  }
  EditGen edits(*gen->top, *t, stream_seed(cfg.seed, 0x6564));

  RunResult res;
  // --- reopen ----------------------------------------------------------
  led.begin_op();
  const Clock::time_point r0 = Clock::now();
  std::unique_ptr<geom::LayoutDB> db;
  {
    Recorder::Span s(rec, "geom.load_snapshot");
    db = geom::LayoutDB::load_snapshot(snap);
  }
  std::unique_ptr<drc::IncrementalDrc> idrc;
  {
    Recorder::Span s(rec, "drc.incremental_init");
    idrc = std::make_unique<drc::IncrementalDrc>(*db, *t);
  }
  std::unique_ptr<extract::IncrementalExtract> iext;
  {
    Recorder::Span s(rec, "extract.incremental_init");
    iext = std::make_unique<extract::IncrementalExtract>(*db, *t);
  }
  const double reopen_s = seconds_since(r0);
  rec.end_op();
  led.check(static_cast<std::int64_t>(db->shape_count()) ==
                need_int(exp, "shapes"),
            strfmt("reopen: %zu shapes, expected %lld", db->shape_count(),
                   static_cast<long long>(need_int(exp, "shapes"))));
  led.check(static_cast<std::int64_t>(idrc->report().size()) ==
                need_int(exp, "drc_violations"),
            "reopen: DRC violation count differs from the expected file");
  led.check(iext->result().net_count == need_int(exp, "nets") &&
                static_cast<std::int64_t>(iext->result().devices.size()) ==
                    need_int(exp, "devices"),
            "reopen: extracted nets/devices differ from the expected file");

  res.notes.push_back(strfmt(
      "reopened: %zu shapes, %zu DRC violations, %d nets, %zu devices",
      db->shape_count(), idrc->report().size(), iext->result().net_count,
      iext->result().devices.size()));

  // --- seeded edits ----------------------------------------------------
  std::vector<double> dirty;
  std::map<std::string, std::vector<double>> by_kind;  ///< edit wall times
  double timed = reopen_s;
  int n = 0;
  int scans = 0;
  while (n < kMinEdits || another_fits(tm.op_s, timed, cfg.seconds)) {
    led.begin_op();
    std::string label;
    const geom::CellEdit e = edits.next(&label);
    tm.start_op();
    const Clock::time_point t0 = Clock::now();
    try {
      geom::EditResult r;
      {
        Recorder::Span s(rec, "geom.apply");
        r = db->apply(e);
      }
      {
        Recorder::Span s(rec, "drc.incremental_update");
        idrc->update(r);
      }
      {
        Recorder::Span s(rec, "extract.incremental_update");
        iext->update(r);
      }
      dirty.push_back(static_cast<double>(dirty_shapes(r)));
    } catch (const std::exception& ex) {
      led.fail(label + " " + e.path + " threw: " + ex.what());
      break;
    }
    const double wall = seconds_since(t0);
    rec.end_op();
    by_kind[label].push_back(wall);
    tm.end_op(wall);
    timed += wall;
    ++n;
    const bool last =
        !(n < kMinEdits || another_fits(tm.op_s, timed, cfg.seconds));
    if (n % kCheckEvery == 0 || last) {
      ++scans;
      const std::string at = strfmt("edit %d (%s %s)", n, label.c_str(),
                                    e.path.empty() ? e.name.c_str()
                                                   : e.path.c_str());
      led.check(same_violations(idrc->report(), drc::check(*db, *t)),
                at + ": incremental DRC differs from a full scan");
      led.check(same_extraction(iext->result(), extract::extract(*db, *t)),
                at + ": incremental extract differs from a full scan");
    }
  }
  tm.work_units = static_cast<double>(n);
  tm.work_wall_s = timed;
  rec.set("geom.shapes", static_cast<double>(db->shape_count()));
  rec.set("drc.violations", static_cast<double>(idrc->report().size()));
  rec.set("extract.nets", iext->result().net_count);
  rec.set("extract.devices", static_cast<double>(iext->result().devices.size()));
  rec.set("geom.apply.dirty_shapes", median(dirty));

  res.named["reopen_s"] = {reopen_s, "s"};
  res.named["edit_p50_ms"] = {quantile(tm.op_s, 0.5) * 1e3, "ms"};
  res.named["edit_p90_ms"] = {quantile(tm.op_s, 0.9) * 1e3, "ms"};
  res.named["edits"] = {static_cast<double>(n), "count"};
  res.notes.push_back(strfmt(
      "%d edits, %d full-scan comparisons; final %zu shapes, %zu DRC "
      "violations, %d nets, %zu devices; median dirty shapes/edit %.0f",
      n, scans,
      db->shape_count(), idrc->report().size(), iext->result().net_count,
      iext->result().devices.size(), median(dirty)));
  double edit_total = 0;
  for (double s : tm.op_s) edit_total += s;
  std::string shares;
  for (const auto& [kind, walls] : by_kind) {
    double sum = 0;
    for (double s : walls) sum += s;
    shares += strfmt("%s%s: %zu edits, p50 %.1f ms, %.1f%% of edit time",
                     shares.empty() ? "" : "; ", kind.c_str(), walls.size(),
                     median(walls) * 1e3, 100.0 * sum / edit_total);
  }
  res.notes.push_back("by kind: " + shares);
  res.spec_json = strfmt(
      "{\"words\":%u,\"bpw\":%d,\"bpc\":%d,\"spare_rows\":%d,"
      "\"strap_interval\":%d,\"technology\":\"%s\",\"min_edits\":%d,"
      "\"check_every\":%d,\"edit_mix\":{\"weights\":{\"move bit\":1,"
      "\"move row\":1,\"move decoder\":1,\"remove or restore decoder\":1,"
      "\"replace bit\":1,\"add leaf\":1},\"block\":%zu,\"basis\":\"uniform "
      "over the listed edit kinds; no usage data to weight them\"},"
      "\"work_unit\":\"edits re-signed off, reopen included in the wall "
      "time\"}",
      spec.words, spec.bpw, spec.bpc, spec.spare_rows, spec.strap_interval,
      spec.technology.c_str(), kMinEdits, kCheckEvery, kKinds);
  iext.reset();
  idrc.reset();
  db.reset();
  remove_tree(dir);
  return res;
}

}  // namespace bisbench
