#include "util/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bisram {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'R', 'C', 'K', 'P', 'T', '\0'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 32;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const std::string& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  return v;
}

/// Directory part of `path` ("." when none) for the post-rename fsync.
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash + 1);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i)
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  return ~crc;
}

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  h_ = splitmix64_mix(h_ ^ v);
  return *this;
}

Fingerprint& Fingerprint::mix_i64(std::int64_t v) {
  return mix(static_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix_f64(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix_str(const std::string& s) {
  mix(s.size());
  std::uint64_t word = 0;
  int n = 0;
  for (unsigned char c : s) {
    word = (word << 8) | c;
    if (++n == 8) {
      mix(word);
      word = 0;
      n = 0;
    }
  }
  if (n) mix(word);
  return *this;
}

void publish_atomic(const std::string& path, const std::string& bytes,
                    const char* what) {
  // A unique temp name per call: a fixed "<path>.tmp" lets two writers
  // of one path truncate each other's file and lose the second rename.
  std::string tmp = path + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0)
    throw Error(strfmt("%s: cannot create '%s': %s", what, tmp.c_str(),
                       std::strerror(errno)));
  std::size_t off = 0;
  bool ok = ::fchmod(fd, 0644) == 0;
  while (ok && off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      off += static_cast<std::size_t>(n);
    }
  }
  if (ok && ::fsync(fd) != 0) ok = false;
  const int saved_errno = errno;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    throw Error(strfmt("%s: cannot write '%s': %s", what, tmp.c_str(),
                       std::strerror(saved_errno)));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    throw Error(strfmt("%s: cannot publish '%s': %s", what, path.c_str(),
                       std::strerror(e)));
  }
  // Durability of the rename itself; failure here is not fatal to
  // correctness (the file content is valid either way).
  const int dfd = ::open(dir_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

CheckpointWriter& CheckpointWriter::u64(std::uint64_t v) {
  put_u64(payload_, v);
  return *this;
}

CheckpointWriter& CheckpointWriter::i64(std::int64_t v) {
  return u64(static_cast<std::uint64_t>(v));
}

CheckpointWriter& CheckpointWriter::f64(double v) {
  return u64(std::bit_cast<std::uint64_t>(v));
}

void CheckpointWriter::save(const std::string& path) const {
  require(!path.empty(), "checkpoint: empty path");
  std::string doc;
  doc.reserve(kHeaderBytes + payload_.size() + 4);
  doc.append(kMagic, sizeof kMagic);
  put_u32(doc, kVersion);
  put_u32(doc, 0);  // reserved
  put_u64(doc, fingerprint_);
  put_u64(doc, payload_.size());
  doc += payload_;
  put_u32(doc, crc32(doc.data(), doc.size()));

  publish_atomic(path, doc, "checkpoint");
}

CheckpointReader::CheckpointReader(const std::string& path,
                                   std::uint64_t expected_fingerprint)
    : path_(path) {
  std::ifstream f(path, std::ios::binary);
  require(static_cast<bool>(f),
          strfmt("checkpoint: cannot open '%s'", path.c_str()));
  std::string doc((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
  require(doc.size() >= kHeaderBytes + 4,
          strfmt("checkpoint: '%s' is truncated (%zu bytes; a valid file "
                 "has at least %zu)",
                 path.c_str(), doc.size(), kHeaderBytes + 4));
  require(std::memcmp(doc.data(), kMagic, sizeof kMagic) == 0,
          strfmt("checkpoint: '%s' is not a BISRAM checkpoint (bad magic)",
                 path.c_str()));
  const std::uint32_t version = get_u32(doc, 8);
  require(version == kVersion,
          strfmt("checkpoint: '%s' has format version %u; this build reads "
                 "version %u",
                 path.c_str(), version, kVersion));
  const std::uint64_t payload_bytes = get_u64(doc, 24);
  require(payload_bytes == doc.size() - kHeaderBytes - 4,
          strfmt("checkpoint: '%s' payload length %llu does not match the "
                 "file size (truncated or padded file)",
                 path.c_str(),
                 static_cast<unsigned long long>(payload_bytes)));
  const std::uint32_t stored_crc = get_u32(doc, doc.size() - 4);
  const std::uint32_t actual_crc = crc32(doc.data(), doc.size() - 4);
  require(stored_crc == actual_crc,
          strfmt("checkpoint: '%s' failed its CRC32 check (stored %08x, "
                 "computed %08x) — the file is corrupted",
                 path.c_str(), stored_crc, actual_crc));
  const std::uint64_t fp = get_u64(doc, 16);
  require(fp == expected_fingerprint,
          strfmt("checkpoint: '%s' belongs to a different campaign "
                 "(fingerprint %016llx, this campaign is %016llx) — seed, "
                 "trial count, spec or sampling parameters differ",
                 path.c_str(), static_cast<unsigned long long>(fp),
                 static_cast<unsigned long long>(expected_fingerprint)));
  payload_ = doc.substr(kHeaderBytes, payload_bytes);
}

std::uint64_t CheckpointReader::u64() {
  require(pos_ + 8 <= payload_.size(),
          strfmt("checkpoint: '%s' payload underrun (campaign state "
                 "mismatch)",
                 path_.c_str()));
  const std::uint64_t v = get_u64(payload_, pos_);
  pos_ += 8;
  return v;
}

std::int64_t CheckpointReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

}  // namespace bisram
