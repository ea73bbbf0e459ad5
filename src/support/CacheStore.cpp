//===- support/CacheStore.cpp - Persistent digest-keyed blob store --------===//

#include "support/CacheStore.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace bsaa;
using namespace bsaa::support;

//===----------------------------------------------------------------------===//
// CRC-32
//===----------------------------------------------------------------------===//

namespace {

/// Slicing-by-8 tables: T[0] is the classic bytewise table, and T[K][I]
/// advances T[K-1][I] by one more zero byte, so eight table lookups
/// fold eight input bytes at once.
struct Crc32Tables {
  uint32_t T[8][256];
  Crc32Tables() {
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[0][I] = C;
    }
    for (uint32_t I = 0; I < 256; ++I)
      for (int K = 1; K < 8; ++K)
        T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xffu];
  }
};

const Crc32Tables &crcTables() {
  static const Crc32Tables Tables;
  return Tables;
}

uint32_t loadLe32(const uint8_t *P) {
  return uint32_t(P[0]) | (uint32_t(P[1]) << 8) | (uint32_t(P[2]) << 16) |
         (uint32_t(P[3]) << 24);
}

} // namespace

uint32_t bsaa::support::crc32(const void *Data, size_t Len, uint32_t Seed) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  const auto &T = crcTables().T;
  uint32_t C = Seed ^ 0xffffffffu;
  for (; Len >= 8; P += 8, Len -= 8) {
    uint32_t Lo = loadLe32(P) ^ C;
    uint32_t Hi = loadLe32(P + 4);
    C = T[7][Lo & 0xffu] ^ T[6][(Lo >> 8) & 0xffu] ^
        T[5][(Lo >> 16) & 0xffu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xffu] ^
        T[2][(Hi >> 8) & 0xffu] ^ T[1][(Hi >> 16) & 0xffu] ^ T[0][Hi >> 24];
  }
  for (; Len > 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

//===----------------------------------------------------------------------===//
// On-disk format constants
//===----------------------------------------------------------------------===//

namespace {

/// Per-segment file header: magic only (format evolution happens at the
/// record level via the per-record version byte).
constexpr uint64_t SegmentMagic = 0x3147455341415342ull; // "BSAASEG1"
constexpr size_t SegmentHeaderSize = 8;

constexpr uint32_t RecordMagic = 0x43525342u; // "BSRC"
/// magic(4) family(1) version(1) reserved(2) keyHi(8) keyLo(8)
/// payloadLen(4) crc(4)
constexpr size_t RecordHeaderSize = 32;
/// Offset of the crc-covered span within the header (family..payloadLen).
constexpr size_t CrcSpanBegin = 4;
constexpr size_t CrcSpanEnd = 28;

void packRecordHeader(ByteWriter &W, const Digest &K, uint8_t Family,
                      uint8_t Version, uint32_t PayloadLen) {
  W.u32(RecordMagic);
  W.u8(Family);
  W.u8(Version);
  W.u16(0);
  W.u64(K.Hi);
  W.u64(K.Lo);
  W.u32(PayloadLen);
  // crc appended by the caller once the payload is known.
}

uint32_t recordCrc(const uint8_t *Header, const uint8_t *Payload,
                   size_t PayloadLen) {
  uint32_t C = crc32(Header + CrcSpanBegin, CrcSpanEnd - CrcSpanBegin);
  return crc32(Payload, PayloadLen, C);
}

bool preadAll(int Fd, void *Buf, size_t Len, uint64_t Offset) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  while (Len > 0) {
    ssize_t N = ::pread(Fd, P, Len, static_cast<off_t>(Offset));
    if (N <= 0)
      return false;
    P += N;
    Offset += static_cast<uint64_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool pwriteAll(int Fd, const void *Buf, size_t Len, uint64_t Offset) {
  const uint8_t *P = static_cast<const uint8_t *>(Buf);
  while (Len > 0) {
    ssize_t N = ::pwrite(Fd, P, Len, static_cast<off_t>(Offset));
    if (N <= 0)
      return false;
    P += N;
    Offset += static_cast<uint64_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return true;
}

uint64_t fileSize(int Fd) {
  struct stat St;
  if (::fstat(Fd, &St) != 0)
    return 0;
  return static_cast<uint64_t>(St.st_size);
}

std::string segmentPath(const std::string &Dir, uint32_t Index) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "store-%08u.seg", Index);
  return Dir + "/" + Buf;
}

} // namespace

//===----------------------------------------------------------------------===//
// Open / scan
//===----------------------------------------------------------------------===//

CacheStore::CacheStore(std::string DirIn, CacheStoreOptions OptsIn)
    : Dir(std::move(DirIn)), Opts(OptsIn) {}

std::shared_ptr<CacheStore> CacheStore::open(const std::string &Dir,
                                             CacheStoreOptions Opts) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw std::runtime_error("CacheStore: cannot create directory " + Dir);

  // Not make_shared: the constructor is private.
  std::shared_ptr<CacheStore> Store(new CacheStore(Dir, Opts));

  // Discover existing segments in index order (scan order defines
  // first-wins across segments, and indices only ever grow).
  std::vector<uint32_t> Indices;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    throw std::runtime_error("CacheStore: cannot open directory " + Dir);
  while (struct dirent *E = ::readdir(D)) {
    unsigned Idx = 0;
    if (std::sscanf(E->d_name, "store-%8u.seg", &Idx) == 1)
      Indices.push_back(Idx);
  }
  ::closedir(D);
  std::sort(Indices.begin(), Indices.end());

  for (uint32_t Idx : Indices) {
    std::string Path = segmentPath(Dir, Idx);
    int Fd = ::open(Path.c_str(), O_RDWR);
    if (Fd < 0)
      continue; // Unreadable segment: behave as if absent.
    Store->Segments.push_back(Segment{Path, Fd, 0});
    Store->scanSegment(static_cast<uint32_t>(Store->Segments.size() - 1));
    Store->NextSegmentIndex = Idx + 1;
  }
  return Store;
}

CacheStore::~CacheStore() {
  for (Segment &S : Segments)
    if (S.Fd >= 0)
      ::close(S.Fd);
}

void CacheStore::scanSegment(uint32_t SegIdx) {
  Segment &S = Segments[SegIdx];
  uint64_t End = fileSize(S.Fd);

  uint8_t Header[SegmentHeaderSize];
  if (End < SegmentHeaderSize || !preadAll(S.Fd, Header, sizeof(Header), 0) ||
      std::memcmp(Header, &SegmentMagic, sizeof(SegmentMagic)) != 0) {
    // Unrecognized file: never index from it, never append into it
    // (Tail = 0 marks it dead; appends go to a fresh segment).
    S.Tail = 0;
    if (End > 0)
      ++CorruptDropped;
    return;
  }

  S.Tail = scanRecords(SegIdx, SegmentHeaderSize, End, /*CountCorrupt=*/true);
}

uint64_t CacheStore::scanRecords(uint32_t SegIdx, uint64_t Off, uint64_t End,
                                 bool CountCorrupt) {
  Segment &S = Segments[SegIdx];
  std::vector<uint8_t> Payload;
  while (Off + RecordHeaderSize <= End) {
    uint8_t RH[RecordHeaderSize];
    if (!preadAll(S.Fd, RH, sizeof(RH), Off))
      break;
    ByteReader R(RH, sizeof(RH));
    uint32_t Magic = R.u32();
    uint8_t Family = R.u8();
    uint8_t Version = R.u8();
    (void)R.u16(); // reserved
    Digest K;
    K.Hi = R.u64();
    K.Lo = R.u64();
    uint32_t PayloadLen = R.u32();
    uint32_t Crc = R.u32();
    if (Magic != RecordMagic || Off + RecordHeaderSize + PayloadLen > End) {
      if (CountCorrupt)
        ++CorruptDropped;
      break; // Torn or corrupt: everything from here on is garbage.
    }
    Payload.resize(PayloadLen);
    if (PayloadLen &&
        !preadAll(S.Fd, Payload.data(), PayloadLen, Off + RecordHeaderSize)) {
      if (CountCorrupt)
        ++CorruptDropped;
      break;
    }
    if (recordCrc(RH, Payload.data(), PayloadLen) != Crc) {
      if (CountCorrupt)
        ++CorruptDropped;
      break;
    }
    IndexEntry E;
    E.Segment = SegIdx;
    E.PayloadOffset = Off + RecordHeaderSize;
    E.PayloadLen = PayloadLen;
    E.Family = Family;
    E.Version = Version;
    E.Crc = Crc;
    indexRecord(K, E);
    Off += RecordHeaderSize + PayloadLen;
  }
  return Off; // Appends into this segment overwrite any torn tail.
}

void CacheStore::rescanTails() {
  ++TailRescans;

  // Existing segments first (their records were written earliest, which
  // preserves the open()-scan first-wins order as closely as possible):
  // index anything appended past the tail recorded so far. A dead
  // segment (Tail == 0: unrecognized file at open) stays dead.
  for (uint32_t I = 0; I < Segments.size(); ++I) {
    Segment &S = Segments[I];
    if (S.Tail < SegmentHeaderSize)
      continue;
    uint64_t End = fileSize(S.Fd);
    if (End > S.Tail)
      S.Tail = scanRecords(I, S.Tail, End, /*CountCorrupt=*/false);
  }

  // Then whole segment files created since open() (a writer that
  // rotated). A file whose header is not valid yet may still be mid-
  // creation: skip it without adding, so a later rescan retries.
  std::vector<uint32_t> NewIndices;
  if (DIR *D = ::opendir(Dir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      unsigned Idx = 0;
      if (std::sscanf(E->d_name, "store-%8u.seg", &Idx) == 1 &&
          Idx >= NextSegmentIndex)
        NewIndices.push_back(Idx);
    }
    ::closedir(D);
  }
  std::sort(NewIndices.begin(), NewIndices.end());
  for (uint32_t Idx : NewIndices) {
    std::string Path = segmentPath(Dir, Idx);
    int Fd = ::open(Path.c_str(), O_RDWR);
    if (Fd < 0)
      continue;
    uint8_t Header[SegmentHeaderSize];
    uint64_t End = fileSize(Fd);
    if (End < SegmentHeaderSize || !preadAll(Fd, Header, sizeof(Header), 0) ||
        std::memcmp(Header, &SegmentMagic, sizeof(SegmentMagic)) != 0) {
      ::close(Fd);
      continue;
    }
    Segments.push_back(Segment{std::move(Path), Fd, SegmentHeaderSize});
    NextSegmentIndex = Idx + 1;
    uint32_t SegIdx = static_cast<uint32_t>(Segments.size() - 1);
    Segments[SegIdx].Tail =
        scanRecords(SegIdx, SegmentHeaderSize, End, /*CountCorrupt=*/false);
  }
}

//===----------------------------------------------------------------------===//
// Get / put
//===----------------------------------------------------------------------===//

std::optional<CacheStore::Record> CacheStore::get(const Digest &K,
                                                  uint8_t Family) {
  std::lock_guard<std::mutex> Lock(Mu);
  ++Gets;
  auto It = Index.find(K);
  if (It == Index.end()) {
    // The key may have been appended by another store instance sharing
    // this directory after our open() indexed the tails: re-scan before
    // declaring a miss, so long-lived readers see a writer's appends.
    rescanTails();
    It = Index.find(K);
  }
  if (It == Index.end() || It->second.Family != Family)
    return std::nullopt;
  const IndexEntry &E = It->second;

  Record Rec;
  Rec.Version = E.Version;
  Rec.Payload.resize(E.PayloadLen);
  if (E.PayloadLen && !preadAll(Segments[E.Segment].Fd, Rec.Payload.data(),
                                E.PayloadLen, E.PayloadOffset))
    return std::nullopt;

  // Re-check the crc against bit rot since open(): re-derive the
  // header span from the index entry (same little-endian packing).
  ByteWriter W;
  packRecordHeader(W, K, E.Family, E.Version, E.PayloadLen);
  if (recordCrc(W.bytes().data(), Rec.Payload.data(), E.PayloadLen) != E.Crc)
    return std::nullopt;

  ++GetHits;
  return Rec;
}

bool CacheStore::contains(const Digest &K) const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Index.find(K) != Index.end();
}

uint64_t CacheStore::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Index.size();
}

bool CacheStore::rotateSegment() {
  std::string Path = segmentPath(Dir, NextSegmentIndex);
  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  if (!pwriteAll(Fd, &SegmentMagic, sizeof(SegmentMagic), 0)) {
    ::close(Fd);
    ::unlink(Path.c_str());
    return false;
  }
  ++NextSegmentIndex;
  Segments.push_back(Segment{std::move(Path), Fd, SegmentHeaderSize});
  return true;
}

bool CacheStore::appendRecord(const Digest &K, uint8_t Family,
                              uint8_t Version,
                              const std::vector<uint8_t> &Payload) {
  // Rotate when the active segment is full, dead (Tail == 0 marks an
  // unrecognized file), or absent.
  bool NeedFresh = Segments.empty() || Segments.back().Tail == 0 ||
                   Segments.back().Tail + RecordHeaderSize + Payload.size() >
                       Opts.MaxSegmentBytes;
  if (NeedFresh && !rotateSegment())
    return false;
  Segment &S = Segments.back();

  ByteWriter W;
  packRecordHeader(W, K, Family, Version,
                   static_cast<uint32_t>(Payload.size()));
  uint32_t Crc = recordCrc(W.bytes().data(), Payload.data(), Payload.size());
  W.u32(Crc);

  // Header first, then payload, at the tracked tail: a crash mid-write
  // leaves a record that fails validation at the next open (torn tail),
  // never a record with a wrong payload.
  if (!pwriteAll(S.Fd, W.bytes().data(), W.bytes().size(), S.Tail))
    return false;
  if (!Payload.empty() &&
      !pwriteAll(S.Fd, Payload.data(), Payload.size(), S.Tail + W.bytes().size()))
    return false;

  IndexEntry E;
  E.Segment = static_cast<uint32_t>(Segments.size() - 1);
  E.PayloadOffset = S.Tail + RecordHeaderSize;
  E.PayloadLen = static_cast<uint32_t>(Payload.size());
  E.Family = Family;
  E.Version = Version;
  E.Crc = Crc;
  S.Tail += RecordHeaderSize + Payload.size();
  indexRecord(K, E);
  return true;
}

bool CacheStore::supersedes(uint8_t Family, uint8_t Version,
                            const IndexEntry &Old) {
  return Family == Old.Family && Version != Old.Version;
}

void CacheStore::indexRecord(const Digest &K, const IndexEntry &E) {
  auto [It, Inserted] = Index.try_emplace(K, E);
  if (!Inserted) {
    if (!supersedes(E.Family, E.Version, It->second))
      return; // The indexed record wins: first-wins within a version.
    LiveBytes -= It->second.PayloadLen;
    It->second = E;
  }
  LiveBytes += E.PayloadLen;
}

bool CacheStore::put(const Digest &K, uint8_t Family, uint8_t Version,
                     const std::vector<uint8_t> &Payload) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (WriteFailed)
    return false;
  auto It = Index.find(K);
  if (It != Index.end() && !supersedes(Family, Version, It->second)) {
    ++PutDuplicates; // First-wins: content digests mean identical value.
    return false;
  }
  if (!appendRecord(K, Family, Version, Payload)) {
    // A failed write may have left partial bytes at the tail; the crc
    // makes them harmless at the next open, but further appends into
    // the same region could assemble a misleading byte soup. Go
    // read-only for safety.
    WriteFailed = true;
    return false;
  }
  ++Puts;
  return true;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

uint64_t CacheStore::compact() {
  std::lock_guard<std::mutex> Lock(Mu);

  // Pull every live record into memory (the store holds cluster-sized
  // blobs, not the whole corpus; compaction is rare and offline).
  struct Live {
    Digest K;
    uint8_t Family;
    uint8_t Version;
    std::vector<uint8_t> Payload;
  };
  std::vector<Live> Records;
  Records.reserve(Index.size());
  for (const auto &[K, E] : Index) {
    Live L;
    L.K = K;
    L.Family = E.Family;
    L.Version = E.Version;
    L.Payload.resize(E.PayloadLen);
    if (E.PayloadLen && !preadAll(Segments[E.Segment].Fd, L.Payload.data(),
                                  E.PayloadLen, E.PayloadOffset))
      continue; // Unreadable record: drop it (a miss, never a wrong hit).
    Records.push_back(std::move(L));
  }

  for (Segment &S : Segments) {
    if (S.Fd >= 0)
      ::close(S.Fd);
    ::unlink(S.Path.c_str());
  }
  Segments.clear();
  Index.clear();
  LiveBytes = 0;
  WriteFailed = false;

  uint64_t Carried = 0;
  for (const Live &L : Records) {
    if (!appendRecord(L.K, L.Family, L.Version, L.Payload)) {
      WriteFailed = true;
      break;
    }
    ++Carried;
  }
  return Carried;
}

CacheStoreCounters CacheStore::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStoreCounters C;
  C.Gets = Gets;
  C.GetHits = GetHits;
  C.Puts = Puts;
  C.PutDuplicates = PutDuplicates;
  C.Records = Index.size();
  C.LiveBytes = LiveBytes;
  C.CorruptDropped = CorruptDropped;
  C.TailRescans = TailRescans;
  C.Segments = Segments.size();
  return C;
}
