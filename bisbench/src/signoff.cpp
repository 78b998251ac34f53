// fig6_signoff: the Fig. 6 organisation signed off cold, call by call:
// resolve_tech -> leaf_library -> assemble -> datasheet (DRC off) ->
// LayoutDB flatten -> drc::check -> extract::extract ->
// sta::analyze_access_path (deck clock, 4 paths) ->
// verify::analyze_controller. Every operation uses a fresh Compiler
// session, so nothing is memoized across operations.

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/compiler.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/layout_db.hpp"
#include "sta/access_path.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"
#include "verify/microprogram.hpp"
#include "workloads.hpp"

namespace bisbench {

using namespace bisram;

namespace {

/// Words of the signed-off slice; the full Fig. 6 macro has 4096.
constexpr std::uint32_t kWords = 128;
/// Words and bits per word of the set-up warm-up macro.
constexpr std::uint32_t kWarmupWords = 16;
constexpr int kWarmupBpw = 16;
/// Wall time a traced signoff may spend outside its top-level spans
/// beyond the recorder's own overhead.
constexpr double kUntimedSlackS = 0.002;

/// The Fig. 6 macro's organisation (bpw 128, bpc 8, 4 spare rows, strap
/// 32, gate 2.0, cda.7u3m1p, IFA-9, 2 passes) at `words` words.
core::RamSpec fig6_org(std::uint32_t words) {
  core::RamSpec spec;
  spec.words = words;
  spec.bpw = 128;
  spec.bpc = 8;
  spec.spare_rows = 4;
  spec.strap_interval = 32;
  spec.gate_size = 2.0;
  spec.technology = "cda.7u3m1p";
  spec.max_passes = 2;
  spec.run_drc = false;
  return spec;
}

/// Flattened shape count from a hierarchy walk of our own, memoized per
/// cell: an independent cross-check of LayoutDB::shape_count().
std::uint64_t census(const geom::Cell& c,
                     std::unordered_map<const geom::Cell*, std::uint64_t>& memo) {
  if (auto it = memo.find(&c); it != memo.end()) return it->second;
  std::uint64_t n = c.shapes().size();
  for (const geom::Instance& inst : c.instances()) n += census(*inst.cell, memo);
  memo[&c] = n;
  return n;
}

/// What one signoff produces, kept alive until after the clock stops so
/// teardown is not timed.
struct Signoff {
  std::optional<core::Assembled> assembled;
  core::Datasheet sheet;
  std::unique_ptr<geom::LayoutDB> db;
  std::vector<drc::Violation> violations;
  extract::Extracted netlist;
  sta::AccessTiming timing;
  verify::MicroReport micro;
};

void sign_off(const core::RamSpec& spec, Recorder& rec, Signoff& out) {
  core::Compiler session;  // private cache: a cold leaf library
  const tech::Tech* t = nullptr;
  {
    Recorder::Span s(rec, "core.resolve_tech");
    t = &session.resolve_tech(spec);
  }
  const int row_bits = std::max(
      1, log2_ceil(static_cast<std::uint64_t>(spec.geometry().total_rows())));
  sta::LeafTiming lt;
  {
    Recorder::Span s(rec, "core.leaf_library");
    lt = session.leaf_library(*t, spec.gate_size, row_bits);
  }
  {
    Recorder::Span s(rec, "core.assemble");
    out.assembled.emplace(session.assemble(spec, *t));
  }
  {
    Recorder::Span s(rec, "core.datasheet");
    out.sheet = session.datasheet(spec, *t, *out.assembled);
  }
  {
    Recorder::Span s(rec, "geom.flatten");
    out.db = std::make_unique<geom::LayoutDB>(*out.assembled->top,
                                              drc::tile_size_for(*t));
  }
  {
    Recorder::Span s(rec, "drc.check");
    out.violations = drc::check(*out.db, *t);
  }
  {
    Recorder::Span s(rec, "extract.extract");
    out.netlist = extract::extract(*out.db, *t);
  }
  {
    Recorder::Span s(rec, "sta.analyze_access_path");
    sta::AnalyzeOptions opt;
    opt.clock_period_s = t->timing.clock_period_s;
    opt.k_paths = 4;
    out.timing = sta::analyze_access_path(*t, spec.geometry(), spec.gate_size,
                                          lt, opt);
  }
  {
    Recorder::Span s(rec, "verify.analyze_controller");
    verify::VerifyOptions vo;
    vo.bpw = std::min(vo.bpw, spec.bpw);
    vo.johnson_backgrounds = spec.johnson_backgrounds;
    out.micro = verify::analyze_controller(out.assembled->trpla, vo);
  }
}

bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

void check_signoff(const Signoff& s, const core::RamSpec& spec,
                   const JsonValue& exp, Ledger& led) {
  std::unordered_map<const geom::Cell*, std::uint64_t> memo;
  const std::uint64_t shapes = s.db->shape_count();
  led.check(shapes == static_cast<std::uint64_t>(need_int(exp, "shapes")),
            strfmt("signoff: %llu shapes, expected %lld",
                   static_cast<unsigned long long>(shapes),
                   static_cast<long long>(need_int(exp, "shapes"))));
  led.check(shapes == census(*s.assembled->top, memo),
            "signoff: LayoutDB shape count differs from the hierarchy census");
  led.check(static_cast<std::int64_t>(s.violations.size()) ==
                need_int(exp, "drc_violations"),
            strfmt("signoff: %zu DRC violations, expected %lld",
                   s.violations.size(),
                   static_cast<long long>(need_int(exp, "drc_violations"))));
  led.check(s.netlist.net_count == need_int(exp, "nets"),
            strfmt("signoff: %d nets, expected %lld", s.netlist.net_count,
                   static_cast<long long>(need_int(exp, "nets"))));
  led.check(static_cast<std::int64_t>(s.netlist.devices.size()) ==
                need_int(exp, "devices"),
            strfmt("signoff: %zu devices, expected %lld",
                   s.netlist.devices.size(),
                   static_cast<long long>(need_int(exp, "devices"))));
  // Microprogram verdicts: deterministic, hang-free, fully reachable,
  // no dead terms, and the pinned worst-case cycle bound.
  led.check(s.micro.clean(), "signoff: microprogram verdict is not clean");
  led.check(static_cast<std::int64_t>(s.micro.worst_case_cycles) ==
                need_int(exp, "worst_case_cycles"),
            "signoff: microprogram worst-case cycles changed");
  // Timing verdict: constrained by the deck clock, setup-clean, one read
  // and one write endpoint per data bit.
  const sta::StaReport& r = s.timing.report;
  led.check(r.setup_clean(), "signoff: timing has negative slack");
  led.check(r.endpoint_count == static_cast<std::size_t>(2 * spec.bpw),
            "signoff: timing endpoint count is not 2 x bpw");
  led.check(near(s.timing.access_s * 1e9, need_num(exp, "access_ns"), 1e-9),
            strfmt("signoff: access %.6f ns, expected %.6f ns",
                   s.timing.access_s * 1e9, need_num(exp, "access_ns")));
  led.check(near(s.sheet.area_mm2, need_num(exp, "area_mm2"), 1e-9),
            strfmt("signoff: area %.6f mm2, expected %.6f mm2",
                   s.sheet.area_mm2, need_num(exp, "area_mm2")));
}

}  // namespace

RunResult run_fig6_signoff(const RunConfig& cfg, Recorder& rec, Ledger& led,
                           Timings& tm) {
  const JsonValue& exp = *cfg.expected;
  const core::RamSpec spec = fig6_org(kWords);

  // Set-up: warm the campaign pool, the allocator and every code path
  // on a small macro of the same organisation (its own Compiler, so the
  // timed signoffs stay cold).
  Recorder off(false);
  core::RamSpec warm_spec = fig6_org(kWarmupWords);
  warm_spec.bpw = kWarmupBpw;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    Signoff warm;
    sign_off(warm_spec, off, warm);
    tm.setup_s.push_back(seconds_since(t0));
  }

  RunResult res;
  double timed = 0;
  double shapes = 0;
  while (another_fits(tm.op_s, timed, cfg.seconds)) {
    led.begin_op();
    Signoff s;
    tm.start_op();
    const Clock::time_point t0 = Clock::now();
    try {
      sign_off(spec, rec, s);
    } catch (const std::exception& e) {
      led.fail(std::string("signoff threw: ") + e.what());
      break;
    }
    const double wall = seconds_since(t0);
    rec.end_op();
    if (rec.enabled()) {
      // The nine top-level calls cover the signoff: what is left over is
      // the recorder's sampling plus the few statements between the calls
      // and the session's teardown, which kUntimedSlackS bounds.
      const double gap = wall - rec.top_level_s().back();
      led.check(gap >= 0 && gap <= rec.overhead_s().back() + kUntimedSlackS,
                strfmt("traced signoff: %.6f s outside the top-level spans, "
                       "recorder overhead %.6f s plus slack %g s",
                       gap, rec.overhead_s().back(), kUntimedSlackS));
    }
    tm.end_op(wall);
    timed += wall;
    shapes += static_cast<double>(s.db->shape_count());
    check_signoff(s, spec, exp, led);

    rec.set("geom.shapes", static_cast<double>(s.db->shape_count()));
    rec.set("drc.violations", static_cast<double>(s.violations.size()));
    rec.set("extract.nets", s.netlist.net_count);
    rec.set("extract.devices", static_cast<double>(s.netlist.devices.size()));
    rec.set("sta.endpoints",
            static_cast<double>(s.timing.report.endpoint_count));
    res.notes = {
        strfmt("shapes %zu, DRC violations %zu, nets %d, devices %zu",
               s.db->shape_count(), s.violations.size(), s.netlist.net_count,
               s.netlist.devices.size()),
        strfmt("microprogram %s, worst case %llu cycles; timing access "
               "%.12g ns, WNS %+.4f ns over %zu endpoints; area %.12g mm2",
               s.micro.clean() ? "clean" : "NOT CLEAN",
               static_cast<unsigned long long>(s.micro.worst_case_cycles),
               s.timing.access_s * 1e9, s.timing.report.wns_s * 1e9,
               s.timing.report.endpoint_count, s.sheet.area_mm2)};
  }
  tm.work_units = shapes;
  tm.work_wall_s = timed;
  if (rec.enabled()) {
    std::vector<double> gap;
    for (std::size_t i = 0; i < tm.op_s.size(); ++i)
      gap.push_back(tm.op_s[i] - rec.top_level_s()[i]);
    res.notes.push_back(strfmt(
        "traced: top-level spans sum to %.6f s of a %.6f s signoff (median "
        "gap %.3f ms, recorder overhead %.3f ms)",
        median(rec.top_level_s()), median(tm.op_s), median(gap) * 1e3,
        median(rec.overhead_s()) * 1e3));
  }
  res.named["signoff_s"] = {median(tm.op_s), "s"};
  res.named["signoffs"] = {static_cast<double>(tm.op_s.size()), "count"};
  res.spec_json = strfmt(
      "{\"words\":%u,\"bpw\":%d,\"bpc\":%d,\"spare_rows\":%d,"
      "\"strap_interval\":%d,\"gate_size\":%g,\"technology\":\"%s\","
      "\"test\":\"%s\",\"max_passes\":%d,\"setup_words\":%u,\"setup_bpw\":%d,"
      "\"work_unit\":\"flattened shapes signed off\"}",
      spec.words, spec.bpw, spec.bpc, spec.spare_rows, spec.strap_interval,
      spec.gate_size, spec.technology.c_str(), spec.test->name().c_str(),
      spec.max_passes, kWarmupWords, kWarmupBpw);
  return res;
}

}  // namespace bisbench
