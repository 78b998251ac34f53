#pragma once
// The staged compile API: core::generate() split into a session object
// so that many compiles can share the expensive deck-pure intermediates.
//
// The one-shot generate(spec) runs four stages that have very different
// reuse profiles:
//
//   resolve_tech   pure function of the spec's deck reference; cheap.
//   leaf_library   SPICE gate sizing + leaf-cell extraction + netlist
//                  STA. A pure function of (rule deck, gate size,
//                  decoder width) — nothing else. This is the expensive
//                  part worth memoizing across compiles: a DSE sweep of
//                  thousands of specs over three decks needs it a
//                  handful of times, not thousands.
//   assemble       macro generation, floorplan, route. Spec-specific.
//   datasheet      areas, timing (reusing the leaf library), power,
//                  test length; optional DRC.
//
// `Compiler` is one compile session. Sessions are single-threaded (one
// session per worker), but any number of concurrent sessions may share
// one `CompileCache`, which is thread-safe and computes each missing
// entry exactly once (latecomers block on the entry, not the map). The
// session also *owns* every deck it resolves — RamSpec::custom_tech is a
// shared_ptr, and adopt_tech() lets a caller hand over a parsed deck by
// value — so the historical "must outlive the generate() call" raw
// pointer footgun is gone.
//
// generate(spec) in bisramgen.hpp is now the thin one-call wrapper
// `Compiler().run(spec)`; existing callers migrate mechanically.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bisramgen.hpp"
#include "core/spec.hpp"
#include "sta/leaf.hpp"
#include "tech/tech.hpp"

namespace bisram::core {

/// Thread-safe cache of deck-pure intermediates, shared between any
/// number of concurrent Compiler sessions. Keys are deck *fingerprints*
/// (tech/tech.hpp), never deck names, so user decks that share a name
/// but differ in any rule can never alias each other's entries.
class CompileCache {
 public:
  CompileCache() = default;
  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  /// The characterized leaf library for (deck, gate size, decoder
  /// width). On a miss sta::characterize() (SPICE sizing, extraction,
  /// netlist STA) runs exactly once — concurrent requesters for the
  /// same key block on the in-flight computation rather than repeating
  /// it. This is the one leaf-library memo.
  sta::LeafTiming leaf_timing(const tech::Tech& t, double gate_size,
                              int row_bits);

  struct Stats {
    std::uint64_t leaf_lookups = 0;  ///< leaf_timing() calls
    std::uint64_t leaf_misses = 0;   ///< characterizations actually run
    std::uint64_t leaf_hits() const { return leaf_lookups - leaf_misses; }
  };
  Stats stats() const;

 private:
  struct Entry {
    std::once_flag once;
    sta::LeafTiming lt;
  };
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> leaf_;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Everything the assemble stage produces: the cell library and top
/// cell, the assembled controller, the floorplan and route tallies, and
/// the per-macro areas the datasheet stage folds into its breakdown.
struct Assembled {
  std::unique_ptr<geom::Library> library;
  geom::CellPtr top;
  microcode::AssembledController trpla;
  pnr::FloorplanResult plan;
  pnr::RouteStats route;

  // Per-macro silicon areas (mm^2) for the datasheet breakdown.
  double array_total_mm2 = 0;  ///< regular + spare rows together
  double decoder_mm2 = 0;
  double periphery_mm2 = 0;
  double addgen_mm2 = 0;
  double datagen_mm2 = 0;
  double streg_mm2 = 0;
  double tlb_mm2 = 0;
  double trpla_mm2 = 0;
};

/// One compile session. Single-threaded by contract; share a
/// CompileCache (not a session) across threads.
class Compiler {
 public:
  /// A session with a private cache (memoizes within the session only).
  Compiler() : cache_(std::make_shared<CompileCache>()) {}
  /// A session on a shared cache (the DSE engine's mode: one cache,
  /// many sessions in flight).
  explicit Compiler(std::shared_ptr<CompileCache> cache);

  const std::shared_ptr<CompileCache>& cache() const { return cache_; }

  /// Stage 1: validates the spec and resolves its deck — the registry
  /// entry named by spec.technology, or the spec's own custom deck. The
  /// returned reference lives as long as the session (custom decks are
  /// retained by the session, registry decks are process-static).
  /// Throws bisram::SpecError on an invalid spec.
  const tech::Tech& resolve_tech(const RamSpec& spec);

  /// Hands the session a deck by value (e.g. fresh from
  /// tech::read_tech_file) and returns a reference with session
  /// lifetime. Use spec_for() or RamSpec::custom_tech to point a spec
  /// at it.
  const tech::Tech& adopt_tech(tech::Tech deck);

  /// Stage 2: the deck-pure leaf library via the session's cache.
  /// row_bits is the decoder width, max(1, ceil(log2 rows)).
  sta::LeafTiming leaf_library(const tech::Tech& t, double gate_size,
                               int row_bits);

  /// Stage 3: macro generation, floorplan and route for one spec.
  /// Requires a validated spec (resolve_tech() validates).
  Assembled assemble(const RamSpec& spec, const tech::Tech& t);

  /// Stage 4: the datasheet for an assembled module — areas from the
  /// assembly, timing through the shared leaf library, power and test
  /// length; runs DRC when spec.run_drc is set.
  Datasheet datasheet(const RamSpec& spec, const tech::Tech& t,
                      const Assembled& a);

  /// All four stages: exactly what core::generate(spec) has always
  /// returned, but sharing this session's cache and deck ownership.
  Generated run(const RamSpec& spec);

 private:
  std::shared_ptr<CompileCache> cache_;
  std::vector<std::shared_ptr<const tech::Tech>> owned_decks_;
};

}  // namespace bisram::core
