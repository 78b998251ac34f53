#pragma once
// The design-space exploration engine: evaluates every point of a
// SweepSpec lattice and reports the Pareto frontier over area / yield /
// MTTF / cost.
//
// Execution layers three caches, cheapest first:
//
//   1. the persistent ResultCache — a warm rerun of a sweep is pure
//      file reads: zero compiles, zero characterizations;
//   2. the shared core::CompileCache — within a cold run, the deck-pure
//      leaf library (SPICE sizing + extraction + netlist STA) is
//      computed once per (deck, gate size, decoder width) and shared by
//      every in-flight point, not once per point;
//   3. the full staged compile (core::Compiler) for genuinely new
//      points, whose results are published back to layer 1.
//
// Points run on the deterministic campaign pool (util/parallel.hpp,
// chunk size 1): each point's metrics are a pure function of its spec,
// every point lands at its own lattice index, and the frontier scan
// walks indices in order — so the report (and its JSON) is
// bit-identical for any BISRAM_THREADS value, cold or warm.
//
// Cancellation follows the campaign convention: a CancelToken deadline
// stops the run at a point boundary and the result is a *valid partial*
// — evaluated points keep their metrics, the frontier is computed over
// exactly the evaluated subset, and stats.termination records why.

#include <cstdint>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "dse/space.hpp"
#include "models/batch.hpp"
#include "util/cancel.hpp"

namespace bisram::dse {

/// One lattice point's outcome.
struct PointResult {
  std::size_t index = 0;          ///< lattice index (SweepSpec::point)
  core::RamSpec spec;             ///< the resolved point spec
  std::uint64_t fingerprint = 0;  ///< its persistent-cache key
  models::DesignMetrics metrics;
  bool evaluated = false;   ///< metrics are meaningful
  bool from_cache = false;  ///< served by the persistent cache
  std::string error;        ///< validation failure (point skipped) when
                            ///< non-empty
};

struct SweepStats {
  std::uint64_t points = 0;     ///< lattice size
  std::uint64_t evaluated = 0;  ///< points with metrics (<= points when
                                ///< cancelled)
  std::uint64_t invalid = 0;    ///< lattice combinations RamSpec rejects
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_rejected = 0;  ///< entries failing validation
  std::uint64_t full_compiles = 0;   ///< staged compiles actually run
  std::uint64_t characterizations = 0;  ///< sta characterization runs
  std::uint64_t leaf_lookups = 0;    ///< CompileCache leaf requests
  std::uint64_t leaf_misses = 0;
  Termination termination = Termination::Completed;
};

struct SweepResult {
  std::vector<PointResult> points;     ///< all lattice points, index order
  std::vector<std::size_t> frontier;   ///< indices into `points`, ascending
  SweepStats stats;

  /// The machine-readable report: sweep stats, the frontier (with each
  /// member's spec knobs and metrics), and optionally every evaluated
  /// point. The stats section reflects *this run* (a warm rerun has
  /// different hit counts than a cold one, by design); everything else
  /// is deterministic.
  std::string json(bool include_all_points = false) const;

  /// Just the frontier array — no run stats. This is the bit-identity
  /// contract: byte-identical for any BISRAM_THREADS value and across
  /// cold/warm reruns of the same completed sweep.
  std::string frontier_json() const;
};

struct RunOptions {
  /// Persistent cache root holding the DesignMetrics ResultCache
  /// entries; empty = in-memory only.
  std::string cache_dir;
  int threads = 0;        ///< 0 = BISRAM_THREADS / hardware
  const CancelToken* cancel = nullptr;
};

/// Evaluates the sweep. Throws bisram::Error only for environment
/// failures (unwritable cache directory); bad lattice points are
/// recorded per-point, and cancellation returns a valid partial result.
SweepResult run_sweep(const SweepSpec& sweep, const RunOptions& opt = {});

}  // namespace bisram::dse
