#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace shedmon::obs {

// Errors from writing, reading or validating a pipeline snapshot: bad magic,
// version mismatch, truncated stream, or a pipeline state that cannot be
// snapshotted (mid-interval, custom queries, custom oracle).
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

inline constexpr std::string_view kSnapshotMagic = "SHEDSNAP";
// v2 appends an FNV-1a checksum trailer so a torn or bit-flipped snapshot is
// rejected with a clear SnapshotError instead of silently restoring garbage.
// v3 drops the per-query previous-bin cycle count no decision read.
// v4 drops the config record's bound on splitting one query's batch.
inline constexpr uint32_t kSnapshotVersion = 4;
inline constexpr uint64_t kSnapshotFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kSnapshotFnvPrime = 0x100000001b3ULL;

// Little-endian binary primitives for the versioned snapshot format. The
// encoding is explicitly byte-ordered (not memcpy-of-struct) so snapshots
// written on one machine restore on any other, and doubles round-trip
// bit-exactly via their IEEE-754 payload — the foundation of the
// snapshot -> restore -> snapshot byte-identity guarantee.
//
// Both sides maintain a running FNV-1a 64 checksum over every byte written /
// read (magic and version included). The writer seals a stream with
// Trailer(); the reader verifies the trailer as its final call.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::ostream& out) : out_(out) {}

  void Magic();  // magic + version header
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v);
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view v);
  void RngState(const std::array<uint64_t, 4>& s);
  // Appends the running checksum; must be the last write of the stream.
  void Trailer();

 private:
  void Bytes(const void* data, size_t len);

  std::ostream& out_;
  uint64_t sum_ = kSnapshotFnvOffset;  // running FNV-1a over the stream
};

class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in) : in_(in) {}

  // Validates magic + version; throws SnapshotError on mismatch.
  void Magic();
  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int64_t I64();
  double F64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  std::array<uint64_t, 4> RngState();
  // Reads the checksum trailer and throws SnapshotError when it does not
  // match the bytes consumed so far; must be the reader's final call.
  void Trailer();

 private:
  void Bytes(void* data, size_t len);

  std::istream& in_;
  uint64_t sum_ = kSnapshotFnvOffset;  // running FNV-1a over the stream
};

}  // namespace shedmon::obs
