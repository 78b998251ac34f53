#pragma once
// Crash-safe campaign checkpoints.
//
// A checkpoint file is a small, self-validating binary snapshot of a
// campaign's accumulator state at a deterministic fold boundary. The
// format is deliberately paranoid — long yield campaigns run for hours
// and a checkpoint that silently resumes the wrong campaign (or resumes
// from a torn write) is worse than no checkpoint at all:
//
//   offset  size  field
//   0       8     magic "BSRCKPT\0"
//   8       4     format version (little-endian u32, currently 1)
//   12      4     reserved (0)
//   16      8     campaign fingerprint (u64) — a hash of every parameter
//                 that the bit-exact result depends on (spec fields,
//                 seed, trial count, chunk size, sampling plan inputs).
//                 Resume refuses a checkpoint whose fingerprint differs.
//   24      8     payload byte count (u64)
//   32      n     payload: campaign-defined sequence of u64/i64/f64
//                 (f64 stored as IEEE-754 bit patterns — exact)
//   32+n    4     CRC32 (polynomial 0xEDB88320) over bytes [0, 32+n)
//
// Writes go through publish_atomic(): atomic and durable, so a crash at
// any instant leaves either the previous checkpoint or the new one,
// never a torn file, and writers racing on one path each publish a
// whole file. Readers validate magic,
// version, size, CRC and fingerprint before handing out a single payload
// word, and every failure is a typed SpecError naming the file and the
// exact reason (tests/test_checkpoint_resume.cpp exercises corrupted,
// truncated and wrong-version files under ASan).

#include <cstddef>
#include <cstdint>
#include <string>

namespace bisram {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `n` bytes, continuing
/// from `crc` (pass 0 to start).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc = 0);

/// Incremental campaign-parameter hash: mix in every value the bit-exact
/// result depends on; equal parameter sequences give equal fingerprints.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v);
  Fingerprint& mix_i64(std::int64_t v);
  Fingerprint& mix_f64(double v);  ///< by IEEE bit pattern
  Fingerprint& mix_str(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x42495352414d4b50ULL;  // "BISRAMKP"
};

/// Atomic, durable publish of `bytes` to `path`. The bytes go to a
/// unique temp file in the same directory (mkstemp "<path>.XXXXXX",
/// mode 0644), which is fsync'ed, renamed over `path`, and then the
/// directory entry is fsync'ed. Any number of writers, threads or
/// processes, may publish the same path at once: each has its own temp
/// file and rename is atomic, so `path` always holds one writer's
/// complete bytes. Throws bisram::Error prefixed with `what` on any I/O
/// failure; the temp file is unlinked on every error path and the
/// previous file at `path` is never damaged.
void publish_atomic(const std::string& path, const std::string& bytes,
                    const char* what);

/// Accumulates a payload, then publishes it atomically.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::uint64_t fingerprint)
      : fingerprint_(fingerprint) {}

  CheckpointWriter& u64(std::uint64_t v);
  CheckpointWriter& i64(std::int64_t v);
  CheckpointWriter& f64(double v);

  /// Atomic, durable publish to `path` through publish_atomic(). Throws
  /// bisram::Error on any I/O failure; the previous checkpoint at `path`
  /// is never damaged.
  void save(const std::string& path) const;

 private:
  std::string payload_;
  std::uint64_t fingerprint_ = 0;
};

/// Loads and fully validates a checkpoint file, then streams the payload
/// back in write order. The constructor throws bisram::SpecError on a
/// missing/unreadable file, bad magic, unsupported version, truncated
/// header or payload, CRC mismatch, or a fingerprint that does not match
/// `expected_fingerprint`; u64()/i64()/f64() throw on reads past the
/// payload end.
class CheckpointReader {
 public:
  CheckpointReader(const std::string& path,
                   std::uint64_t expected_fingerprint);

  std::uint64_t u64();
  std::int64_t i64();
  double f64();

  /// Bytes not yet consumed (0 once the campaign read everything back).
  std::size_t remaining() const { return payload_.size() - pos_; }

 private:
  std::string path_;
  std::string payload_;
  std::size_t pos_ = 0;
};

}  // namespace bisram
