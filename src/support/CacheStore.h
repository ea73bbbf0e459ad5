//===- support/CacheStore.h - Persistent digest-keyed blob store *- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, append-only, digest-keyed blob store: the disk tier
/// behind the in-memory ShardedCache instances (SummaryCache,
/// SliceCache, RefinementCache). The content-addressed caches die with
/// the process; persisting their serialized payloads under the same
/// 128-bit digests lets a restarted AliasService -- or a freshly
/// onboarded tenant in the serving registry -- warm-start from prior
/// work instead of re-solving whole clusters.
///
/// Layout: a directory of segment files, each a sequence of records
///
///   [u32 magic][u8 family][u8 version][u16 reserved]
///   [u64 keyHi][u64 keyLo][u32 payloadLen][u32 crc][payload bytes]
///
/// where crc is CRC-32 over (family, version, key, payloadLen, payload)
/// serialized little-endian. open() scans every segment and stops at
/// the first invalid record (bad magic, length past EOF, crc mismatch):
/// everything before it is indexed, everything after is treated as a
/// torn tail and overwritten by subsequent appends. A corrupted or
/// truncated store therefore degrades to clean misses -- the crc makes
/// a *wrong* payload unrepresentable short of a 2^-32 collision, and a
/// miss merely re-runs the analysis the cache would have skipped.
///
/// Semantics mirror ShardedCache: among records of one codec version
/// put() is first-wins (a key already present is never overwritten --
/// keys are content digests, so a second writer computed an identical
/// value), get() returns the payload plus the codec version it was
/// written with (the caller treats a version mismatch as a miss). A
/// record of the same family but a *different* version supersedes the
/// indexed one, in put() and in the open() scan alike: a version-skewed
/// record is a miss its reader re-solves, and the re-solved record must
/// replace it rather than lose to it forever. compact() rewrites the
/// live records into fresh segments, dropping torn tails, first-wins
/// losers and superseded versions.
///
/// Concurrency: all operations are serialized by one internal mutex --
/// the store is the *slow* tier consulted only on in-memory misses, so
/// lock granularity is not on any hot path. One CacheStore instance may
/// be shared by many caches and tenants within a process. A get() that
/// misses the index re-scans the segment tails first (rescanTails), so
/// a reader also sees records another store instance or process
/// appended after its open(). Concurrent *writers* from separate
/// processes are not supported: their appends can interleave.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_CACHESTORE_H
#define BSAA_SUPPORT_CACHESTORE_H

#include "support/ContentHash.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace support {

/// CRC-32 (IEEE 802.3, reflected) with chaining: pass a previous return
/// value as \p Seed to continue a running checksum.
uint32_t crc32(const void *Data, size_t Len, uint32_t Seed = 0);

//===----------------------------------------------------------------------===//
// Bounds-checked binary (de)serialization
//===----------------------------------------------------------------------===//

/// Little-endian byte-stream writer backing the payload codecs.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u16(uint16_t V) { le(V, 2); }
  void u32(uint32_t V) { le(V, 4); }
  void u64(uint64_t V) { le(V, 8); }
  void i8(int8_t V) { u8(static_cast<uint8_t>(V)); }

  const std::vector<uint8_t> &bytes() const { return Buf; }
  std::vector<uint8_t> take() { return std::move(Buf); }

private:
  /// Appends the low \p N bytes of \p V, least significant first.
  void le(uint64_t V, size_t N) {
    size_t At = Buf.size();
    Buf.resize(At + N);
    for (size_t I = 0; I < N; ++I)
      Buf[At + I] = static_cast<uint8_t>(V >> (8 * I));
  }

  std::vector<uint8_t> Buf;
};

/// Bounds-checked reader over an untrusted byte range: any overrun trips
/// the failure flag and returns 0, so a decoder can parse straight-line
/// and check ok() once at the end. This is what keeps a malformed (but
/// crc-valid, e.g. version-skewed) payload from ever crashing a decode
/// -- it can only fail it.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Len) : P(Data), Len(Len) {}

  uint8_t u8() { return static_cast<uint8_t>(le(1)); }
  uint16_t u16() { return static_cast<uint16_t>(le(2)); }
  uint32_t u32() { return static_cast<uint32_t>(le(4)); }
  uint64_t u64() { return le(8); }
  int8_t i8() { return static_cast<int8_t>(u8()); }

  /// True if every read so far was in bounds.
  bool ok() const { return !Failed; }
  /// True if the reader consumed the input exactly.
  bool atEnd() const { return !Failed && Pos == Len; }
  size_t remaining() const { return Failed ? 0 : Len - Pos; }

  /// Marks the stream failed (decoders call this on semantic-validation
  /// failures so one ok() check covers both kinds).
  void fail() { Failed = true; }

private:
  /// The next \p N bytes as a little-endian value, with one bounds
  /// check; 0 and a failed stream if fewer remain.
  uint64_t le(size_t N) {
    if (Len - Pos < N) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (size_t I = 0; I < N; ++I)
      V |= uint64_t(P[Pos + I]) << (8 * I);
    Pos += N;
    return V;
  }

  const uint8_t *P;
  size_t Len;
  size_t Pos = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// The store
//===----------------------------------------------------------------------===//

struct CacheStoreOptions {
  /// Appends past this size rotate to a fresh segment file.
  uint64_t MaxSegmentBytes = 64ull << 20;
};

/// Store accounting (counters cumulative since open()).
struct CacheStoreCounters {
  uint64_t Gets = 0;
  uint64_t GetHits = 0;
  uint64_t Puts = 0;          ///< Records actually appended.
  uint64_t PutDuplicates = 0; ///< put() dropped by first-wins.
  uint64_t Records = 0;       ///< Live (indexed) records.
  uint64_t LiveBytes = 0;     ///< Payload bytes of live records.
  uint64_t CorruptDropped = 0; ///< Records dropped at open() (torn tail
                               ///< or corruption); rest of segment
                               ///< skipped.
  uint64_t TailRescans = 0;    ///< Index misses that re-scanned segment
                               ///< tails for records appended by another
                               ///< store instance since open().
  uint64_t Segments = 0;

  double hitRate() const {
    return Gets ? double(GetHits) / double(Gets) : 0.0;
  }
};

/// Append-only, digest-keyed, crc-checked persistent blob store.
class CacheStore {
public:
  /// One fetched record: the payload plus the codec version it was
  /// written with (callers treat unexpected versions as a miss).
  struct Record {
    std::vector<uint8_t> Payload;
    uint8_t Version = 0;
  };

  /// Opens (creating if absent) the store at \p Dir and indexes every
  /// valid record. Throws std::runtime_error if the directory cannot be
  /// created or opened; corrupted *contents* never throw -- invalid
  /// records are dropped and counted in counters().CorruptDropped.
  static std::shared_ptr<CacheStore> open(const std::string &Dir,
                                          CacheStoreOptions Opts = {});

  ~CacheStore();

  CacheStore(const CacheStore &) = delete;
  CacheStore &operator=(const CacheStore &) = delete;

  /// Fetches the record stored under \p K, or nullopt if the key is
  /// absent, was stored under a different \p Family, or fails its crc
  /// re-check (bit rot after open). Never throws on corruption.
  std::optional<Record> get(const Digest &K, uint8_t Family);

  /// Appends \p Payload under \p K unless the key is already present
  /// with the same \p Version (first-wins, matching ShardedCache); a
  /// record of the same family and another version is superseded.
  /// Returns true if the record was appended.
  bool put(const Digest &K, uint8_t Family, uint8_t Version,
           const std::vector<uint8_t> &Payload);

  bool contains(const Digest &K) const;

  /// Live records (first-wins survivors).
  uint64_t size() const;

  /// Rewrites live records into fresh segments and deletes the old
  /// files: drops torn tails, corrupt regions, first-wins losers and
  /// superseded versions.
  /// Returns the number of records carried over.
  uint64_t compact();

  CacheStoreCounters counters() const;

  const std::string &directory() const { return Dir; }

private:
  CacheStore(std::string Dir, CacheStoreOptions Opts);

  struct IndexEntry {
    uint32_t Segment = 0;      ///< Index into Segments.
    uint64_t PayloadOffset = 0;
    uint32_t PayloadLen = 0;
    uint8_t Family = 0;
    uint8_t Version = 0;
    uint32_t Crc = 0;
  };

  struct Segment {
    std::string Path;
    int Fd = -1;
    uint64_t Tail = 0; ///< Logical end: first byte past the last valid
                       ///< record (appends overwrite any torn tail).
  };

  /// Scans one segment file, indexing valid records; stops at the first
  /// invalid one. Called under Mu (or before the store is shared).
  void scanSegment(uint32_t SegIdx);

  /// Indexes records of segment \p SegIdx in [Off, End), stopping at the
  /// first invalid one; returns the offset just past the last valid
  /// record. \p CountCorrupt distinguishes the open() scan (an invalid
  /// record is a real torn tail) from tail rescans (the record may be a
  /// concurrent writer's half-flushed append -- transient, not counted,
  /// retried on the next rescan). Called under Mu.
  uint64_t scanRecords(uint32_t SegIdx, uint64_t Off, uint64_t End,
                       bool CountCorrupt);

  /// Staleness recovery on an index miss: picks up records another
  /// CacheStore instance (same process or not) appended past the tails
  /// indexed so far, and discovers whole segment files created since
  /// open(). Without this a long-lived reader sharing a directory with
  /// a writer permanently misses everything written after its open().
  /// Called under Mu.
  void rescanTails();

  /// True if a record of (\p Family, \p Version) replaces \p Old in the
  /// index: same family, different codec version.
  static bool supersedes(uint8_t Family, uint8_t Version,
                         const IndexEntry &Old);

  /// Indexes \p E under \p K: a new key, or a superseding version of
  /// an indexed one; otherwise the indexed record wins. Keeps LiveBytes
  /// in step. Called under Mu.
  void indexRecord(const Digest &K, const IndexEntry &E);

  /// Appends a record to the active segment, rotating first if needed.
  /// Called under Mu. Returns false if the write failed (store becomes
  /// read-only for safety).
  bool appendRecord(const Digest &K, uint8_t Family, uint8_t Version,
                    const std::vector<uint8_t> &Payload);

  /// Opens a fresh segment file with the next index. Called under Mu.
  bool rotateSegment();

  std::string Dir;
  CacheStoreOptions Opts;

  mutable std::mutex Mu;
  std::vector<Segment> Segments;
  uint32_t NextSegmentIndex = 0; ///< Numeric suffix for new files.
  std::unordered_map<Digest, IndexEntry, DigestHash> Index;
  bool WriteFailed = false;

  // Counters (under Mu; the store has no lock-free paths).
  uint64_t Gets = 0, GetHits = 0, Puts = 0, PutDuplicates = 0;
  uint64_t CorruptDropped = 0, LiveBytes = 0, TailRescans = 0;
};

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_CACHESTORE_H
