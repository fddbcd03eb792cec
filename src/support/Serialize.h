//===- support/Serialize.h - Versioned binary snapshot I/O -------*- C++ -*-===//
//
// Part of the PROM reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level plumbing of the detector snapshot format.
///
/// A snapshot file is: the 8-byte magic "PROMSNAP", a host-endian
/// payload written through ByteWriter, and a trailing FNV-1a checksum of
/// everything before it. ByteReader memory-maps nothing and trusts
/// nothing: every read is bounds-checked, vector lengths are validated
/// against the remaining bytes before allocation, and the checksum is
/// verified before any field is consumed — truncated, oversized, or
/// bit-flipped files fail loading instead of producing a detector with
/// silently wrong calibration state.
///
/// Doubles round-trip through their IEEE-754 bit patterns, so restored
/// calibration scores are bit-identical to the saved ones (snapshots are
/// restart artifacts for the serving runtime, not a cross-architecture
/// interchange format: byte order is fixed to the host's, which the
/// supported targets share). An f64vec holds finite values only: the
/// writer refuses to write a file with a NaN or an infinity in one, and
/// the reader fails on one.
///
/// The rotation helpers at the bottom manage a *directory* of snapshots
/// for the serving runtime: generation-numbered files (snapshot.N.bin)
/// plus a `latest` pointer committed by atomic rename. rotateSnapshot()
/// and loadLatestSnapshot() are the whole protocol, so a crash between
/// writing a generation and committing the pointer never leaves a reader
/// pointing at a partial file. The byte-level layout of each generation
/// file is documented in docs/SNAPSHOT_FORMAT.md.
///
//===----------------------------------------------------------------------===//

#ifndef PROM_SUPPORT_SERIALIZE_H
#define PROM_SUPPORT_SERIALIZE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace prom {
namespace support {

/// FNV-1a over \p N bytes; the snapshot integrity checksum.
uint64_t fnv1a(const uint8_t *Data, size_t N);

/// Appends primitive values to a byte buffer and writes the final
/// checksummed file.
class ByteWriter {
public:
  void writeU8(uint8_t V) { Bytes.push_back(V); }
  void writeU32(uint32_t V);
  void writeU64(uint64_t V);
  void writeI32(int32_t V) { writeU32(static_cast<uint32_t>(V)); }
  void writeF64(double V);
  /// Length-prefixed UTF-8 string.
  void writeString(const std::string &S);
  /// Length-prefixed vector of doubles; a non-finite value makes
  /// writeFile() fail.
  void writeDoubleVec(const std::vector<double> &V);

  const std::vector<uint8_t> &bytes() const { return Bytes; }

  /// Writes magic + payload + FNV-1a checksum to \p Path. Returns false on
  /// I/O failure, and without writing anything when a vector held a
  /// non-finite value.
  bool writeFile(const std::string &Path) const;

private:
  std::vector<uint8_t> Bytes;
  bool NonFinite = false; ///< A vector held a non-finite value.
};

/// Bounds-checked reader over a loaded snapshot file. After any failed
/// read, failed() is sticky and every subsequent read returns a default.
class ByteReader {
public:
  /// Reads \p Path with one sized read, verifies the magic and the
  /// trailing checksum, and exposes the payload between them in place.
  /// Returns false (and leaves the reader failed) for missing, short, or
  /// corrupt files.
  bool loadFile(const std::string &Path);

  bool failed() const { return Failed; }
  /// True when the payload was consumed exactly.
  bool atEnd() const { return !Failed && Cursor == End; }

  uint8_t readU8();
  uint32_t readU32();
  uint64_t readU64();
  int32_t readI32() { return static_cast<int32_t>(readU32()); }
  double readF64();
  std::string readString();
  /// Reads a length-prefixed vector; the length is validated against the
  /// remaining payload before anything is allocated, and a non-finite
  /// value fails the read.
  std::vector<double> readDoubleVec();

private:
  bool take(size_t N, const uint8_t *&Out);

  std::vector<uint8_t> Bytes; ///< The whole file: magic, payload, checksum.
  size_t Cursor = 0;          ///< Next payload byte.
  size_t End = 0;             ///< One past the payload (the checksum).
  bool Failed = true;         ///< Until loadFile succeeds.
};

//===----------------------------------------------------------------------===//
// Snapshot rotation
//
// A rotation directory holds generation-numbered snapshot files
// ("snapshot.N.bin", N strictly increasing) and a `latest` pointer file
// whose content is the file name of the committed generation. Every
// writer goes through rotateSnapshot() and every reader through
// loadLatestSnapshot(), so one module numbers, commits, prunes and
// resolves generations. A crash at any point leaves a loadable state
// behind, and a published generation is never rewritten.
//===----------------------------------------------------------------------===//

/// Generations a rotation keeps on disk after it commits; the one the
/// `latest` pointer names always survives as well.
constexpr size_t SnapshotGenerationsKept = 3;

/// File name of generation \p Gen ("snapshot.<Gen>.bin").
std::string snapshotGenerationFile(uint64_t Gen);

/// Creates \p Dir if it does not exist, including missing parent
/// components (mkdir -p semantics; fleet tenants nest their rotation
/// directories under a common root). Returns false when the path cannot
/// be used as a directory.
bool ensureDirectory(const std::string &Dir);

/// Generation numbers of every "snapshot.N.bin" in \p Dir, ascending.
std::vector<uint64_t> listSnapshotGenerations(const std::string &Dir);

/// Atomically points \p Dir/latest at generation \p Gen (temp file +
/// rename). rotateSnapshot() is the only library caller; tests use it to
/// build crash states.
bool commitLatestPointer(const std::string &Dir, uint64_t Gen);

/// Generation the `latest` pointer names, or 0 when the pointer is
/// missing/unparseable (generations start at 1).
uint64_t latestPointerGeneration(const std::string &Dir);

/// Deletes old generations, keeping the newest \p KeepCount and — always —
/// the generation the `latest` pointer names. Returns how many files were
/// removed. rotateSnapshot() is the only library caller.
size_t pruneSnapshotGenerations(const std::string &Dir, size_t KeepCount);

/// Writes the next generation into \p Dir in the crash-safe order:
///  1. \p Save writes the file under a temp name ("snapshot.tmp.*") that
///     no other writer uses and that no reader ever opens;
///  2. link(2) publishes it as the generation after the newest on disk,
///     moving on to the next number when another writer took that one;
///  3. the `latest` pointer is committed;
///  4. the directory is pruned to SnapshotGenerationsKept.
/// link(2) never replaces a file, so concurrent writers get distinct
/// numbers and a published generation is never rewritten (the directory
/// must be on a filesystem with hard links). Returns the committed
/// generation, or 0 when any step before the prune fails; the previously
/// committed generation then stays the one loadLatestSnapshot() serves.
/// Retries and backoff are the caller's.
uint64_t rotateSnapshot(const std::string &Dir,
                        const std::function<bool(const std::string &)> &Save);

/// Restores the newest usable generation of \p Dir through \p Load,
/// which reads the file it is given once and returns whether it loaded
/// (and must leave its target untouched when it did not). The generation
/// `latest` names goes first; when it does not load (a stale pointer, a
/// corrupt file, or one of another kind), every other generation follows,
/// newest first. Returns the generation that loaded, or 0 when none did.
uint64_t
loadLatestSnapshot(const std::string &Dir,
                   const std::function<bool(const std::string &)> &Load);

} // namespace support
} // namespace prom

#endif // PROM_SUPPORT_SERIALIZE_H
