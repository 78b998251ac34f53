#pragma once
// The persistent DSE result cache: one small checkpoint-format file per
// evaluated lattice point, named by the point's fingerprint, holding
// its DesignMetrics. Re-running a sweep (or widening it) turns every
// already-evaluated point into a file read instead of a full compile —
// that is the warm-cache path the bench and the acceptance criteria
// measure.
//
// The format and its failure behavior are inherited wholesale from
// util/checkpoint.hpp: entries are written atomically (publish_atomic:
// unique temp file + fsync + rename) and validated on load (magic,
// version, CRC32, fingerprint).
// A corrupt, truncated, version-skewed or wrong-fingerprint entry is a
// *miss*, never an error: load() swallows the reader's typed exception,
// counts a rejection, and the engine recomputes and rewrites the entry.
// The DSE schema version is mixed into every fingerprint
// (dse::point_fingerprint), so bumping kDseSchemaVersion orphans stale
// entries through the same fingerprint check.

#include <atomic>
#include <cstdint>
#include <string>

#include "models/batch.hpp"

namespace bisram::dse {

/// A directory of per-point result entries. Thread-safe, and safe
/// across processes sharing one directory: load() and store() on
/// distinct fingerprints are independent files, and concurrent stores
/// of one fingerprint — equal lattice points in one sweep, or two
/// sweeps over one directory — each publish a whole entry through
/// their own temp file, so the last rename wins and a load never sees
/// a torn one.
class ResultCache {
 public:
  /// Opens (and creates, including one parent level) the cache
  /// directory. An empty path means "no persistent cache": every load
  /// misses and store() is a no-op, so the engine code has one path.
  explicit ResultCache(std::string dir);

  /// True when the cache persists to disk (a directory was given).
  bool persistent() const { return !dir_.empty(); }

  /// Reads the entry for `fingerprint` into `*out`. Returns false —
  /// never throws — for a missing entry or one that fails any
  /// validation (counted in stats().rejected).
  bool load(std::uint64_t fingerprint, models::DesignMetrics* out);

  /// Atomically publishes the entry for `fingerprint`. I/O failures
  /// propagate (bisram::Error): a cache directory that cannot be
  /// written is a real environment problem, unlike a stale entry.
  void store(std::uint64_t fingerprint, const models::DesignMetrics& m);

  struct Stats {
    std::uint64_t hits = 0;      ///< load() returned a valid entry
    std::uint64_t misses = 0;    ///< no entry on disk
    std::uint64_t rejected = 0;  ///< entry present but failed validation
    std::uint64_t stores = 0;
  };
  Stats stats() const;

  /// The entry path for a fingerprint (tests corrupt entries in place).
  std::string entry_path(std::uint64_t fingerprint) const;

 private:
  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> stores_{0};
};

}  // namespace bisram::dse
