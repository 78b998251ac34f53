#include "core/compiler.hpp"

#include <utility>

#include "geom/layout_db.hpp"
#include "macro/macros.hpp"
#include "util/error.hpp"
#include "util/math.hpp"
#include "util/strings.hpp"

namespace bisram::core {

// --- CompileCache -----------------------------------------------------------

sta::LeafTiming CompileCache::leaf_timing(const tech::Tech& t,
                                          double gate_size, int row_bits) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::string key =
      strfmt("%016llx/%.6g/%d",
             static_cast<unsigned long long>(tech::fingerprint(t)), gate_size,
             row_bits);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = leaf_.find(key);
    if (it == leaf_.end())
      it = leaf_.emplace(key, std::make_shared<Entry>()).first;
    entry = it->second;
  }
  // First caller does the work; concurrent requesters for the same key
  // block here (on the entry, not the map) and then read the result.
  std::call_once(entry->once, [&] {
    entry->lt = sta::characterize(t, gate_size, row_bits);
    misses_.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->lt;
}

CompileCache::Stats CompileCache::stats() const {
  Stats s;
  s.leaf_lookups = lookups_.load(std::memory_order_relaxed);
  s.leaf_misses = misses_.load(std::memory_order_relaxed);
  return s;
}

// --- Compiler ---------------------------------------------------------------

Compiler::Compiler(std::shared_ptr<CompileCache> cache)
    : cache_(std::move(cache)) {
  require(cache_ != nullptr, "Compiler: null shared cache");
}

const tech::Tech& Compiler::resolve_tech(const RamSpec& spec) {
  spec.validate();
  if (spec.custom_tech) {
    // Retain the deck so the returned reference has session lifetime
    // even if the caller's spec (and its shared_ptr) goes away first.
    owned_decks_.push_back(spec.custom_tech);
    return *owned_decks_.back();
  }
  return tech::technology(spec.technology);
}

const tech::Tech& Compiler::adopt_tech(tech::Tech deck) {
  owned_decks_.push_back(
      std::make_shared<const tech::Tech>(std::move(deck)));
  return *owned_decks_.back();
}

sta::LeafTiming Compiler::leaf_library(const tech::Tech& t, double gate_size,
                                       int row_bits) {
  return cache_->leaf_timing(t, gate_size, row_bits);
}

Assembled Compiler::assemble(const RamSpec& spec, const tech::Tech& t) {
  const sim::RamGeometry geo = spec.geometry();

  // The control program comes first: its PLA shape sizes the TRPLA macro.
  Assembled out{std::make_unique<geom::Library>(),
                nullptr,
                microcode::build_trpla(*spec.test, spec.max_passes),
                {},
                {},
                0, 0, 0, 0, 0, 0, 0, 0};
  geom::Library& lib = *out.library;

  macro::MacroOptions opt;
  opt.gate_size = spec.gate_size;
  opt.strap_interval = spec.strap_interval;
  opt.strap_width_lambda = spec.strap_width_lambda;

  // --- macrocells ----------------------------------------------------------
  const auto array = macro::ram_array(lib, t, geo, opt);
  const auto decoders = macro::row_decoder_column(lib, t, geo.rows(), opt);
  const auto periphery = macro::column_periphery(lib, t, geo, opt);
  const int addr_bits = log2_ceil(std::max<std::uint64_t>(geo.words, 2));
  const auto addgen = macro::addgen_macro(lib, t, addr_bits);
  const auto datagen = macro::datagen_macro(lib, t, geo.bpw);
  const auto streg = macro::streg_macro(lib, t, out.trpla.state_bits);
  const auto tlb = macro::tlb_macro(lib, t, geo.spare_words(), addr_bits);
  const auto trpla_cell = macro::trpla_macro(lib, t, out.trpla.pla);

  // --- place and route -------------------------------------------------------
  const std::vector<pnr::Block> blocks = {
      {"RAMARRAY", array},   {"ROWDEC", decoders}, {"COLPERIPH", periphery},
      {"ADDGEN", addgen},    {"DATAGEN", datagen}, {"STREG", streg},
      {"TLB", tlb},          {"TRPLA", trpla_cell},
  };
  const std::vector<pnr::Net> nets = {
      {"wordlines", {{0, "decoder_side"}, {1, "wl_out"}}},
      {"bitlines", {{0, "column_side"}, {2, "bitline_top"}}},
      {"address", {{3, "bus"}, {1, "addr_in"}, {6, "addr_in"}}},
      {"data", {{4, "bus"}, {2, "data_out"}}},
      {"spare_select", {{6, "spare_out"}, {0, "decoder_side"}}},
      {"control",
       {{7, "outputs"}, {3, "control"}, {4, "control"}, {5, "control"}}},
      {"state", {{5, "bus"}, {7, "inputs"}}},
  };
  pnr::FloorplanOptions fp_opt;
  // Keep a 12-lambda halo between macros: wells may legally overhang a
  // macro's active area by a few lambda, and the halo keeps well spacing
  // satisfied across block boundaries.
  fp_opt.spacing = geom::dbu(12);
  out.plan = pnr::floorplan(blocks, nets, fp_opt);
  out.top = pnr::build_top(lib, t, "bisram_top", blocks, nets, out.plan,
                           &out.route);

  out.array_total_mm2 = macro::macro_area_mm2(t, *array);
  out.decoder_mm2 = macro::macro_area_mm2(t, *decoders);
  out.periphery_mm2 = macro::macro_area_mm2(t, *periphery);
  out.addgen_mm2 = macro::macro_area_mm2(t, *addgen);
  out.datagen_mm2 = macro::macro_area_mm2(t, *datagen);
  out.streg_mm2 = macro::macro_area_mm2(t, *streg);
  out.tlb_mm2 = macro::macro_area_mm2(t, *tlb);
  out.trpla_mm2 = macro::macro_area_mm2(t, *trpla_cell);
  return out;
}

Datasheet Compiler::datasheet(const RamSpec& spec, const tech::Tech& t,
                              const Assembled& a) {
  const sim::RamGeometry geo = spec.geometry();
  Datasheet ds;
  ds.geo = geo;
  ds.technology = t.name;
  const geom::Rect bbox = a.top->bbox();
  ds.width_um = t.um(bbox.width());
  ds.height_um = t.um(bbox.height());
  ds.area_mm2 = t.mm2(bbox.area());

  ds.spare_mm2 = a.array_total_mm2 * geo.spare_rows / geo.total_rows();
  ds.array_mm2 = a.array_total_mm2 - ds.spare_mm2;
  ds.decoder_mm2 = a.decoder_mm2;
  ds.periphery_mm2 = a.periphery_mm2;
  ds.bist_mm2 = a.addgen_mm2 + a.datagen_mm2 + a.streg_mm2 + a.trpla_mm2;
  ds.bisr_mm2 = a.tlb_mm2;
  const double base = ds.array_mm2 + ds.decoder_mm2 + ds.periphery_mm2;
  ds.overhead_pct = 100.0 * (ds.bist_mm2 + ds.bisr_mm2) / base;
  ds.controller_pct = 100.0 * a.trpla_mm2 / a.array_total_mm2;

  const int row_bits =
      std::max(1, log2_ceil(static_cast<std::uint64_t>(geo.rows())));
  ds.timing = estimate_timing(t, geo, spec.gate_size,
                              leaf_library(t, spec.gate_size, row_bits));
  ds.power = estimate_power(t, geo, ds.timing.access_s);

  const int backgrounds = spec.johnson_backgrounds ? geo.bpw + 1 : 1;
  ds.test_cycles =
      march::test_cycles(*spec.test, geo.words, backgrounds) * 2;  // two passes
  ds.test_time_s =
      static_cast<double>(ds.test_cycles) * ds.timing.access_s +
      static_cast<double>(spec.test->delay_count() * backgrounds * 2) * 0.1;
  ds.controller_states = a.trpla.num_states;
  ds.controller_terms = a.trpla.pla.terms();
  ds.state_register_bits = a.trpla.state_bits;
  ds.rectangularity = a.plan.rectangularity;

  if (spec.run_drc) {
    // One shared flatten for signoff-grade checks on the finished top.
    const geom::LayoutDB db(*a.top, drc::tile_size_for(t));
    ds.drc_violations = drc::check(db, t).size();
  }
  return ds;
}

Generated Compiler::run(const RamSpec& spec) {
  const tech::Tech& t = resolve_tech(spec);
  Assembled a = assemble(spec, t);
  Datasheet ds = datasheet(spec, t, a);
  return Generated{std::move(a.library), std::move(a.top), std::move(ds),
                   std::move(a.trpla), std::move(a.plan), a.route};
}

}  // namespace bisram::core
