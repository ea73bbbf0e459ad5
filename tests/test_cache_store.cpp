//===- tests/test_cache_store.cpp - Persistent store + codecs -------------===//
//
// The persistence tentpole's oracles:
//
//  * the CacheStore survives reopen, rotation, and compaction with
//    first-wins semantics, and degrades every corruption -- torn tails,
//    flipped payload bytes, version skew -- to a clean miss, never a
//    wrong answer and never a crash (run under ASan/UBSan presets);
//  * the three blob codecs round-trip (property-tested over random
//    seeds: encode(decode(encode(x))) == encode(x)) and reject every
//    truncation of a valid payload;
//  * a ShardedCache with a store attached writes through, revives
//    memory misses from disk, and never charges a racing loser;
//  * a warm-restart pipeline run (all-fresh caches over a populated
//    store) is byte-identical in replayable stats JSON to the cold run
//    that populated it.
//
//===----------------------------------------------------------------------===//

#include "core/BootstrapDriver.h"
#include "core/StoreCodecs.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/StateCodec.h"
#include "support/CacheStore.h"
#include "support/Statistics.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <thread>

using namespace bsaa;
using support::ByteReader;
using support::ByteWriter;
using support::CacheStore;
using support::Digest;

namespace {

/// Self-cleaning store directory under the system temp dir.
struct TempDir {
  std::string Path;
  TempDir() {
    std::string Tmpl =
        (std::filesystem::temp_directory_path() / "bsaa_store_XXXXXX")
            .string();
    char *P = ::mkdtemp(Tmpl.data());
    EXPECT_NE(P, nullptr);
    Path = Tmpl;
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

Digest key(uint64_t Hi, uint64_t Lo) { return Digest{Hi, Lo}; }

std::vector<uint8_t> payload(std::initializer_list<int> Bytes) {
  std::vector<uint8_t> P;
  for (int B : Bytes)
    P.push_back(static_cast<uint8_t>(B));
  return P;
}

/// The single segment file the tests corrupt (asserts exactly one).
std::string onlySegment(const std::string &Dir) {
  std::string Found;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    EXPECT_TRUE(Found.empty()) << "expected exactly one segment";
    Found = E.path().string();
  }
  EXPECT_FALSE(Found.empty());
  return Found;
}

void corruptByteAt(const std::string &File, uint64_t Offset) {
  std::fstream F(File,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.good());
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = 0;
  F.read(&C, 1);
  ASSERT_TRUE(F.good());
  F.seekp(static_cast<std::streamoff>(Offset));
  C = static_cast<char>(C ^ 0x5a);
  F.write(&C, 1);
}

std::unique_ptr<ir::Program> generate(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 8;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 3;
  Cfg.RecursionPercent = 10;
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

/// Everything a run reports except wall-clock and cache provenance.
std::string replayableJson(const core::BootstrapResult &R) {
  core::StatsJsonOptions O;
  O.IncludeTimings = false;
  O.IncludeCacheStats = false;
  return core::toStatsJson(R, O);
}

core::BootstrapResult runIsolated(const ir::Program &P,
                                  const core::BootstrapOptions &Opts) {
  Statistics::global().clear();
  core::BootstrapDriver Driver(P, Opts);
  return Driver.runAll();
}

/// Fresh caches + store wiring over \p Dir (the shape a restarted
/// process builds).
core::BootstrapOptions storeBackedOptions(const std::string &Dir) {
  core::BootstrapOptions Opts;
  Opts.AndersenThreshold = 4;
  Opts.EngineOpts.StepBudget = 20000;
  Opts.SummaryCache = std::make_shared<fscs::SummaryCache>();
  Opts.RelevantSliceCache = std::make_shared<core::SliceCache>();
  Opts.AndersenRefinementCache = std::make_shared<core::RefinementCache>();
  Opts.StorePath = Dir;
  core::openStoreAndAttach(Opts);
  return Opts;
}

} // namespace

//===--------------------------------------------------------------------===//
// CRC and byte IO
//===--------------------------------------------------------------------===//

TEST(Crc32, KnownVectorAndChaining) {
  const char *S = "123456789";
  EXPECT_EQ(support::crc32(S, 9), 0xcbf43926u); // IEEE check value.
  // Chained halves must equal the one-shot checksum.
  uint32_t Half = support::crc32(S, 4);
  EXPECT_EQ(support::crc32(S + 4, 5, Half), support::crc32(S, 9));
  EXPECT_EQ(support::crc32(S, 0), 0u);
}

namespace {

/// The classic one-byte-at-a-time CRC-32 the sliced one must equal.
uint32_t bytewiseCrc32(const uint8_t *P, size_t Len, uint32_t Seed) {
  uint32_t C = Seed ^ 0xffffffffu;
  for (size_t I = 0; I < Len; ++I) {
    C ^= P[I];
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
  }
  return C ^ 0xffffffffu;
}

} // namespace

TEST(Crc32, SlicingBy8MatchesBytewiseReference) {
  // Every length 0..300 at every start alignment: the sliced loop, its
  // bytewise tail, and the hand-off between them all get exercised.
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    std::mt19937_64 Rng(Seed);
    std::vector<uint8_t> Buf(300 + 8);
    for (uint8_t &B : Buf)
      B = static_cast<uint8_t>(Rng());
    uint32_t Chain = static_cast<uint32_t>(Rng());
    for (size_t Align = 0; Align < 8; ++Align)
      for (size_t Len = 0; Len <= 300; ++Len) {
        const uint8_t *P = Buf.data() + Align;
        ASSERT_EQ(support::crc32(P, Len), bytewiseCrc32(P, Len, 0))
            << "seed " << Seed << " align " << Align << " len " << Len;
        ASSERT_EQ(support::crc32(P, Len, Chain), bytewiseCrc32(P, Len, Chain))
            << "seed " << Seed << " align " << Align << " len " << Len;
      }
  }
}

TEST(ByteIo, RoundTrip) {
  ByteWriter W;
  W.u8(0xab);
  W.u16(0x1234);
  W.u32(0xdeadbeef);
  W.u64(0x0123456789abcdefull);
  W.i8(-5);
  ByteReader R(W.bytes().data(), W.bytes().size());
  EXPECT_EQ(R.u8(), 0xab);
  EXPECT_EQ(R.u16(), 0x1234);
  EXPECT_EQ(R.u32(), 0xdeadbeefu);
  EXPECT_EQ(R.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(R.i8(), -5);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteIo, OverrunFailsSticky) {
  ByteWriter W;
  W.u16(7);
  ByteReader R(W.bytes().data(), W.bytes().size());
  // A composite read past the end may still surface in-bounds low
  // bytes; the *flag* is the contract, and decoders check it at the
  // end, so no partial value ever escapes a malformed stream.
  (void)R.u32(); // Overruns.
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.u64(), 0u); // Sticky: fully failed reads return 0.
  EXPECT_EQ(R.remaining(), 0u);
  EXPECT_FALSE(R.atEnd()); // Failed != cleanly consumed.
}

//===--------------------------------------------------------------------===//
// Store basics
//===--------------------------------------------------------------------===//

TEST(CacheStore, PutGetFirstWinsReopen) {
  TempDir Dir;
  {
    auto S = CacheStore::open(Dir.Path);
    EXPECT_EQ(S->size(), 0u);
    EXPECT_TRUE(S->put(key(1, 2), /*Family=*/1, /*Version=*/3,
                       payload({10, 20, 30})));
    // First-wins: same key never overwritten.
    EXPECT_FALSE(S->put(key(1, 2), 1, 3, payload({99})));
    EXPECT_TRUE(S->put(key(1, 3), 2, 1, payload({})));

    auto R = S->get(key(1, 2), 1);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->Version, 3);
    EXPECT_EQ(R->Payload, payload({10, 20, 30}));
    // Family mismatch is a miss, not an error.
    EXPECT_FALSE(S->get(key(1, 2), 2).has_value());
    EXPECT_FALSE(S->get(key(9, 9), 1).has_value());

    auto C = S->counters();
    EXPECT_EQ(C.Puts, 2u);
    EXPECT_EQ(C.PutDuplicates, 1u);
    EXPECT_EQ(C.Records, 2u);
    EXPECT_EQ(C.GetHits, 1u);
    EXPECT_EQ(C.Gets, 3u);
  }
  // Reopen: everything survives, including the empty payload.
  auto S = CacheStore::open(Dir.Path);
  EXPECT_EQ(S->size(), 2u);
  auto R = S->get(key(1, 2), 1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Payload, payload({10, 20, 30}));
  auto E = S->get(key(1, 3), 2);
  ASSERT_TRUE(E.has_value());
  EXPECT_TRUE(E->Payload.empty());
  EXPECT_EQ(S->counters().CorruptDropped, 0u);
}

TEST(CacheStore, OtherVersionSupersedesInPutScanAndCompact) {
  TempDir Dir;
  const Digest K = key(5, 6);
  {
    auto S = CacheStore::open(Dir.Path);
    ASSERT_TRUE(S->put(K, /*Family=*/1, /*Version=*/1, payload({1, 1, 1})));
    // First-wins among records of one version.
    EXPECT_FALSE(S->put(K, 1, 1, payload({7})));
    // Another family under the key never replaces it either.
    EXPECT_FALSE(S->put(K, 2, 2, payload({7})));
    // A new codec version of the same family supersedes.
    ASSERT_TRUE(S->put(K, 1, 2, payload({2, 2})));
    EXPECT_FALSE(S->put(K, 1, 2, payload({9, 9})));
    auto R = S->get(K, 1);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->Version, 2);
    EXPECT_EQ(R->Payload, payload({2, 2}));
    auto C = S->counters();
    EXPECT_EQ(C.Records, 1u);
    EXPECT_EQ(C.LiveBytes, 2u);
    EXPECT_EQ(C.Puts, 2u);
    EXPECT_EQ(C.PutDuplicates, 3u);
  }
  {
    // The open() scan applies the same rule: the later v2 record wins
    // over the v1 record before it in the segment.
    auto S = CacheStore::open(Dir.Path);
    auto R = S->get(K, 1);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->Version, 2);
    EXPECT_EQ(R->Payload, payload({2, 2}));
    EXPECT_EQ(S->counters().LiveBytes, 2u);
    EXPECT_EQ(S->compact(), 1u);
  }
  // Compaction kept only the superseding record.
  auto S = CacheStore::open(Dir.Path);
  auto R = S->get(K, 1);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->Version, 2);
  EXPECT_EQ(R->Payload, payload({2, 2}));
  EXPECT_EQ(std::filesystem::file_size(onlySegment(Dir.Path)),
            8u + 32u + 2u);
}

TEST(CacheStore, SegmentRotationAndCompact) {
  TempDir Dir;
  support::CacheStoreOptions Opts;
  Opts.MaxSegmentBytes = 256; // Force rotation every few records.
  {
    auto S = CacheStore::open(Dir.Path, Opts);
    for (uint64_t I = 0; I < 32; ++I)
      EXPECT_TRUE(S->put(key(I, I * 7 + 1), 1, 1,
                         std::vector<uint8_t>(40, uint8_t(I))));
    EXPECT_GT(S->counters().Segments, 1u);
  }
  {
    auto S = CacheStore::open(Dir.Path, Opts);
    EXPECT_EQ(S->size(), 32u);
    for (uint64_t I = 0; I < 32; ++I) {
      auto R = S->get(key(I, I * 7 + 1), 1);
      ASSERT_TRUE(R.has_value()) << I;
      EXPECT_EQ(R->Payload, std::vector<uint8_t>(40, uint8_t(I)));
    }
    EXPECT_EQ(S->compact(), 32u);
    EXPECT_EQ(S->size(), 32u);
    // Still all readable post-compaction...
    for (uint64_t I = 0; I < 32; ++I)
      EXPECT_TRUE(S->get(key(I, I * 7 + 1), 1).has_value()) << I;
  }
  // ...and after a reopen of the compacted layout.
  auto S = CacheStore::open(Dir.Path, Opts);
  EXPECT_EQ(S->size(), 32u);
  EXPECT_EQ(S->counters().CorruptDropped, 0u);
}

TEST(CacheStore, ReaderSeesWriterAppendsAfterOpen) {
  // Staleness regression: a reader that opened first must observe
  // records a second store instance appends afterwards -- both appends
  // into the segment the reader already indexed (tail rescan) and
  // appends into segment files created after its open().
  TempDir Dir;
  support::CacheStoreOptions Opts;
  Opts.MaxSegmentBytes = 256; // Force the writer to rotate.

  auto Writer = CacheStore::open(Dir.Path, Opts);
  ASSERT_TRUE(Writer->put(key(1, 1), 1, 1, payload({1})));

  auto Reader = CacheStore::open(Dir.Path, Opts);
  ASSERT_TRUE(Reader->get(key(1, 1), 1).has_value());
  EXPECT_EQ(Reader->counters().TailRescans, 0u);

  // Tail append into the already-indexed segment.
  ASSERT_TRUE(Writer->put(key(2, 2), 1, 1, payload({2, 2})));
  auto R2 = Reader->get(key(2, 2), 1);
  ASSERT_TRUE(R2.has_value()) << "tail rescan must find the new record";
  EXPECT_EQ(R2->Payload, payload({2, 2}));
  EXPECT_EQ(Reader->counters().TailRescans, 1u);

  // Enough records to rotate the writer into fresh segment files.
  for (uint64_t I = 10; I < 26; ++I)
    ASSERT_TRUE(Writer->put(key(I, I), 1, 1,
                            std::vector<uint8_t>(40, uint8_t(I))));
  ASSERT_GT(Writer->counters().Segments, 1u) << "rotation did not happen";
  for (uint64_t I = 10; I < 26; ++I) {
    auto R = Reader->get(key(I, I), 1);
    ASSERT_TRUE(R.has_value()) << "record " << I << " in a new segment";
    EXPECT_EQ(R->Payload, std::vector<uint8_t>(40, uint8_t(I))) << I;
  }

  auto C = Reader->counters();
  EXPECT_GE(C.TailRescans, 2u);
  EXPECT_EQ(C.CorruptDropped, 0u)
      << "rescans must not count live appends as corruption";
  // A genuinely absent key still misses (after one more rescan).
  EXPECT_FALSE(Reader->get(key(99, 99), 1).has_value());
}

//===--------------------------------------------------------------------===//
// Fault injection: every corruption is a clean miss
//===--------------------------------------------------------------------===//

TEST(CacheStoreFaults, TruncatedSegmentDropsTailOnly) {
  TempDir Dir;
  {
    auto S = CacheStore::open(Dir.Path);
    EXPECT_TRUE(S->put(key(1, 1), 1, 1, payload({1, 2, 3, 4})));
    EXPECT_TRUE(S->put(key(2, 2), 1, 1, payload({5, 6, 7, 8})));
  }
  std::string Seg = onlySegment(Dir.Path);
  // Chop mid-way through the second record's payload.
  uint64_t Full = std::filesystem::file_size(Seg);
  std::filesystem::resize_file(Seg, Full - 2);

  auto S = CacheStore::open(Dir.Path);
  EXPECT_EQ(S->size(), 1u) << "torn tail dropped, prefix kept";
  EXPECT_GE(S->counters().CorruptDropped, 1u);
  EXPECT_TRUE(S->get(key(1, 1), 1).has_value());
  EXPECT_FALSE(S->get(key(2, 2), 1).has_value()) << "clean miss";

  // The store stays writable: the torn region is overwritten.
  EXPECT_TRUE(S->put(key(3, 3), 1, 1, payload({9})));
  auto S2 = CacheStore::open(Dir.Path);
  EXPECT_EQ(S2->size(), 2u);
  EXPECT_TRUE(S2->get(key(3, 3), 1).has_value());
}

TEST(CacheStoreFaults, FlippedPayloadByteFailsCrc) {
  TempDir Dir;
  uint64_t HeaderEnd;
  {
    auto S = CacheStore::open(Dir.Path);
    EXPECT_TRUE(S->put(key(4, 4), 1, 1, payload({1, 2, 3, 4})));
    EXPECT_TRUE(S->put(key(5, 5), 1, 1, payload({5, 6, 7, 8})));
    HeaderEnd = std::filesystem::file_size(onlySegment(Dir.Path));
  }
  // Flip one byte of the *second* record's payload (last 4 bytes).
  corruptByteAt(onlySegment(Dir.Path), HeaderEnd - 2);
  auto S = CacheStore::open(Dir.Path);
  EXPECT_EQ(S->size(), 1u);
  EXPECT_GE(S->counters().CorruptDropped, 1u);
  EXPECT_TRUE(S->get(key(4, 4), 1).has_value());
  EXPECT_FALSE(S->get(key(5, 5), 1).has_value());
}

TEST(CacheStoreFaults, FlippedCrcByteFailsRecord) {
  TempDir Dir;
  uint64_t SegHeader = 8, RecordHeader = 32;
  {
    auto S = CacheStore::open(Dir.Path);
    EXPECT_TRUE(S->put(key(6, 6), 1, 1, payload({1, 2, 3, 4})));
  }
  // The crc field is the last 4 header bytes of the (only) record.
  corruptByteAt(onlySegment(Dir.Path), SegHeader + RecordHeader - 1);
  auto S = CacheStore::open(Dir.Path);
  EXPECT_EQ(S->size(), 0u);
  EXPECT_GE(S->counters().CorruptDropped, 1u);
  EXPECT_FALSE(S->get(key(6, 6), 1).has_value());
}

TEST(CacheStoreFaults, GarbageFileIsIgnored) {
  TempDir Dir;
  {
    std::ofstream F(Dir.Path + "/store-00000000.seg", std::ios::binary);
    F << "this is not a segment file at all";
  }
  auto S = CacheStore::open(Dir.Path); // Must not throw.
  EXPECT_EQ(S->size(), 0u);
  EXPECT_GE(S->counters().CorruptDropped, 1u);
  // Appends land in a *fresh* segment, never inside the garbage.
  EXPECT_TRUE(S->put(key(7, 7), 1, 1, payload({1})));
  auto S2 = CacheStore::open(Dir.Path);
  EXPECT_TRUE(S2->get(key(7, 7), 1).has_value());
}

//===--------------------------------------------------------------------===//
// Codec round-trips
//===--------------------------------------------------------------------===//

namespace {

fscs::Condition randomCondition(std::mt19937_64 &Rng) {
  fscs::Condition C;
  size_t N = Rng() % 4;
  for (size_t I = 0; I < N; ++I) {
    fscs::ConstraintAtom A;
    A.Loc = static_cast<ir::LocId>(Rng() % 50);
    A.Kind = static_cast<fscs::ConstraintKind>(Rng() % 4);
    A.A = static_cast<ir::VarId>(Rng() % 20);
    A.B = static_cast<ir::VarId>(Rng() % 20);
    C = C.conjoin(A, /*MaxAtoms=*/4);
  }
  return C;
}

ir::Ref randomRef(std::mt19937_64 &Rng) {
  return ir::Ref{static_cast<ir::VarId>(Rng() % 100),
                 static_cast<int8_t>(int(Rng() % 4) - 1)};
}

/// A randomized but invariant-respecting CachedClusterRun. Seeds that
/// are multiples of 4 are flagged runs, which keep their accounting
/// only. The others carry an exported state: canonical conditions,
/// distinct key slots, tuples anchored at their key, KeyIndex as the
/// engine keeps it, no traversal scaffolding and no flags.
fscs::CachedClusterRun randomRun(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  fscs::CachedClusterRun Run;
  Run.Dove.DepthLevels = static_cast<uint32_t>(Rng() % 8);
  Run.Dove.FsciQueries = static_cast<uint32_t>(Rng() % 100);
  Run.Dove.Complete = Rng() % 2;
  Run.Stats.Steps = Rng();
  Run.Stats.SummaryTuples = Rng() % 1000;
  if (Seed % 4 == 0) {
    Run.Stats.Keys = Rng() % 1000;
    Run.Stats.BudgetHit = Rng() % 2;
    Run.Stats.Approximated = !Run.Stats.BudgetHit || Rng() % 2;
    return Run;
  }
  fscs::SummaryEngine::State &St = Run.Engine;

  size_t NumKeys = 1 + Rng() % 5;
  while (St.Keys.size() < NumKeys) {
    fscs::SummaryEngine::KeyState K;
    K.AnchorLoc = static_cast<ir::LocId>(Rng() % 200);
    K.R = randomRef(Rng);
    bool Taken = false;
    for (const auto &Other : St.Keys)
      Taken |= Other.AnchorLoc == K.AnchorLoc && Other.R == K.R;
    if (!Taken)
      St.Keys.push_back(std::move(K));
  }
  for (auto &K : St.Keys) {
    size_t NR = Rng() % 4;
    for (size_t I = 0; I < NR; ++I) {
      fscs::SummaryTuple T;
      T.Anchor = K.R;
      T.AnchorLoc = K.AnchorLoc;
      T.Origin = randomRef(Rng);
      T.Cond = randomCondition(Rng);
      K.Results.push_back(std::move(T));
    }
    for (size_t I = 0, N = Rng() % 4; I < N; ++I)
      K.WaiterHashes.insert(Rng());
  }
  EXPECT_TRUE(St.rebuildKeyIndex());
  for (size_t I = 0, N = Rng() % 5; I < N; ++I) {
    SparseBitVector B;
    for (size_t J = 0, M = Rng() % 40; J < M; ++J)
      B.set(static_cast<uint32_t>(Rng() % 4096));
    auto V = static_cast<ir::VarId>(Rng() % 100);
    auto Loc = static_cast<ir::LocId>(Rng() % 200);
    St.FsciMemo[fscs::SummaryEngine::State::fsciKey(V, Loc)] = std::move(B);
  }
  St.Steps = Run.Stats.Steps;
  Run.Stats.Keys = NumKeys;
  return Run;
}

std::vector<uint8_t> encodeRun(const fscs::CachedClusterRun &Run) {
  ByteWriter W;
  fscs::encodeCachedClusterRun(Run, W);
  return W.take();
}

bool decodes(const std::vector<uint8_t> &Bytes) {
  fscs::CachedClusterRun Back;
  return fscs::decodeCachedClusterRun(Bytes.data(), Bytes.size(), Back);
}

} // namespace

TEST(StateCodec, RoundTripRandomSeeds) {
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    fscs::CachedClusterRun Run = randomRun(Seed);
    std::vector<uint8_t> Bytes = encodeRun(Run);

    fscs::CachedClusterRun Back;
    ASSERT_TRUE(fscs::decodeCachedClusterRun(Bytes.data(), Bytes.size(), Back))
        << "seed " << Seed;
    // Encoding is deterministic (sorted hash sets, ordered maps), so
    // byte equality of re-encoding == semantic equality of the runs.
    EXPECT_EQ(Bytes, encodeRun(Back)) << "seed " << Seed;
    // The derived fields come back as the engine keeps them.
    EXPECT_EQ(Back.Engine.KeyIndex, Run.Engine.KeyIndex) << "seed " << Seed;
    ASSERT_EQ(Back.Engine.Keys.size(), Run.Engine.Keys.size());
    for (size_t K = 0; K < Run.Engine.Keys.size(); ++K) {
      const auto &A = Run.Engine.Keys[K].Results;
      const auto &B = Back.Engine.Keys[K].Results;
      ASSERT_EQ(A.size(), B.size()) << "seed " << Seed;
      for (size_t I = 0; I < A.size(); ++I) {
        EXPECT_EQ(A[I].Anchor, B[I].Anchor) << "seed " << Seed;
        EXPECT_EQ(A[I].AnchorLoc, B[I].AnchorLoc) << "seed " << Seed;
      }
    }
  }
}

TEST(StateCodec, FlaggedRunKeepsOnlyItsAccounting) {
  // The accounting takes 35 bytes: dovetail (4 + 4 + 1) and engine
  // (8 + 8 + 8 + 1 + 1). A flagged run ends there; an unflagged one
  // adds its state, here an empty one: key count, memo count, steps.
  fscs::CachedClusterRun Flagged = randomRun(4);
  ASSERT_TRUE(Flagged.Stats.flagged());
  EXPECT_EQ(encodeRun(Flagged).size(), 35u);
  fscs::CachedClusterRun Empty = Flagged;
  Empty.Stats.BudgetHit = Empty.Stats.Approximated = false;
  EXPECT_EQ(encodeRun(Empty).size(), 35u + 4 + 4 + 8);

  fscs::CachedClusterRun Back;
  std::vector<uint8_t> Bytes = encodeRun(Flagged);
  ASSERT_TRUE(fscs::decodeCachedClusterRun(Bytes.data(), Bytes.size(), Back));
  EXPECT_TRUE(Back.Engine.Keys.empty() && Back.Engine.KeyIndex.empty() &&
              Back.Engine.FsciMemo.empty() && Back.Engine.Steps == 0);
  EXPECT_EQ(Back.Stats.Steps, Flagged.Stats.Steps);
  EXPECT_EQ(Back.Stats.BudgetHit, Flagged.Stats.BudgetHit);
  EXPECT_EQ(Back.Stats.Approximated, Flagged.Stats.Approximated);
  EXPECT_EQ(encodeRun(Back), Bytes);
}

TEST(StateCodec, RoundTripSpilledCondition) {
  // Eight atoms: twice the inline capacity, so the condition lives on
  // the heap on both sides of the round trip.
  fscs::Condition C;
  for (uint32_t I = 0; I < 8; ++I)
    C = C.conjoin(fscs::ConstraintAtom{8 - I, fscs::ConstraintKind::NotPointsTo,
                                       I, I + 1},
                  /*MaxAtoms=*/8);
  ASSERT_EQ(C.size(), 8u);
  ASSERT_GT(C.size(), fscs::Condition::InlineAtoms);

  fscs::CachedClusterRun Run = randomRun(3);
  Run.Engine.Keys[0].Results.push_back(
      fscs::SummaryTuple{Run.Engine.Keys[0].R, Run.Engine.Keys[0].AnchorLoc,
                         ir::Ref{1, 0}, C});
  std::vector<uint8_t> Bytes = encodeRun(Run);
  fscs::CachedClusterRun Back;
  ASSERT_TRUE(fscs::decodeCachedClusterRun(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Engine.Keys[0].Results.back().Cond, C);
  EXPECT_EQ(Back.Engine.Keys[0].Results.back().Cond.hash(), C.hash());
  EXPECT_EQ(encodeRun(Back), Bytes);
}

TEST(StateCodec, FsciMemoEncodesInAscendingOrder) {
  // The memo is a hash table; whatever its slot order, the record lists
  // (V, Loc) ascending. One chunk per set keeps every entry 24 bytes.
  const std::pair<ir::VarId, ir::LocId> Inserted[] = {
      {5, 2}, {1, 9}, {5, 1}, {0, 0}, {1, 3}, {0xfffffffe, 7}, {2, 0}};
  fscs::CachedClusterRun Run;
  for (const auto &[V, Loc] : Inserted)
    Run.Engine.FsciMemo[fscs::SummaryEngine::State::fsciKey(V, Loc)].set(
        V % 64);
  std::vector<uint8_t> Bytes = encodeRun(Run);

  ByteReader R(Bytes.data(), Bytes.size());
  for (int I = 0; I < 35; ++I)
    R.u8(); // The unflagged accounting...
  EXPECT_EQ(R.u32(), 0u); // ...and no keys.
  ASSERT_EQ(R.u32(), std::size(Inserted));
  std::vector<std::pair<ir::VarId, ir::LocId>> Written;
  for (size_t I = 0; I < std::size(Inserted); ++I) {
    ir::VarId V = R.u32();
    ir::LocId Loc = R.u32();
    Written.emplace_back(V, Loc);
    EXPECT_EQ(R.u32(), 1u); // One chunk...
    EXPECT_EQ(R.u32(), 0u); // ...at base 0...
    EXPECT_EQ(R.u64(), uint64_t(1) << (V % 64)); // ...holding V % 64.
  }
  ASSERT_TRUE(R.ok());
  std::vector<std::pair<ir::VarId, ir::LocId>> Want(std::begin(Inserted),
                                                    std::end(Inserted));
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Written, Want);

  // encode(decode(encode(S))) == encode(S).
  fscs::CachedClusterRun Back;
  ASSERT_TRUE(fscs::decodeCachedClusterRun(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Engine.FsciMemo.size(), std::size(Inserted));
  EXPECT_EQ(encodeRun(Back), Bytes);

  // The decoder holds the order strict: two entries swapped, or one
  // written twice, is rejected.
  const size_t First = 35 + 4 + 4, Entry = 24;
  std::vector<uint8_t> Swapped = Bytes;
  std::swap_ranges(Swapped.begin() + First, Swapped.begin() + First + Entry,
                   Swapped.begin() + First + Entry);
  EXPECT_FALSE(decodes(Swapped));
  std::vector<uint8_t> Repeated = Bytes;
  std::copy(Repeated.begin() + First, Repeated.begin() + First + Entry,
            Repeated.begin() + First + Entry);
  EXPECT_FALSE(decodes(Repeated));
  // The last entry, (0xfffffffe, 7), raised to (InvalidVar, InvalidLoc):
  // still ascending, but that key marks an empty memo slot.
  std::vector<uint8_t> Reserved = Bytes;
  const size_t Last = First + (std::size(Inserted) - 1) * Entry;
  std::fill(Reserved.begin() + Last, Reserved.begin() + Last + 8, 0xff);
  EXPECT_FALSE(decodes(Reserved));
}

TEST(StateCodec, EveryTruncationRejected) {
  // Seed 44 is a flagged run, 41 carries a state.
  for (uint64_t Seed : {41u, 44u}) {
    std::vector<uint8_t> Bytes = encodeRun(randomRun(Seed));
    ASSERT_GT(Bytes.size(), 4u);
    for (size_t Len = 0; Len < Bytes.size(); ++Len) {
      fscs::CachedClusterRun Back;
      EXPECT_FALSE(fscs::decodeCachedClusterRun(Bytes.data(), Len, Back))
          << "seed " << Seed << ": prefix of length " << Len << " decoded";
    }
  }
}

TEST(StateCodec, InvalidStructuresRejected) {
  fscs::CachedClusterRun Run = randomRun(7);
  {
    // Two keys in one index slot.
    fscs::CachedClusterRun Bad = Run;
    Bad.Engine.Keys.push_back(Bad.Engine.Keys[0]);
    EXPECT_FALSE(decodes(encodeRun(Bad)));
  }
  {
    // A key with no index slot: a Deref outside -1..2, or the one key
    // the flat index cannot hold.
    fscs::CachedClusterRun Bad = Run;
    Bad.Engine.Keys[0].R.Deref = 3;
    EXPECT_FALSE(decodes(encodeRun(Bad)));
    Bad = Run;
    Bad.Engine.Keys[0].AnchorLoc = ir::InvalidLoc;
    Bad.Engine.Keys[0].R.Var = ir::InvalidVar;
    EXPECT_FALSE(decodes(encodeRun(Bad)));
  }
  // The flag bytes sit at offsets 33 (BudgetHit) and 34
  // (Approximated), at the end of the accounting.
  for (size_t Flag : {33u, 34u}) {
    // A flagged record that carries a state.
    std::vector<uint8_t> Bytes = encodeRun(Run);
    ASSERT_TRUE(decodes(Bytes));
    Bytes[Flag] = 1;
    EXPECT_FALSE(decodes(Bytes)) << "flag at " << Flag;
  }
  {
    // An unflagged record that lacks one.
    std::vector<uint8_t> Bytes = encodeRun(randomRun(8));
    ASSERT_TRUE(decodes(Bytes));
    Bytes[33] = Bytes[34] = 0;
    EXPECT_FALSE(decodes(Bytes));
  }
  // A flag byte other than 0 or 1 (Complete at offset 8) would
  // re-encode differently.
  for (size_t Flag : {8u, 33u, 34u}) {
    std::vector<uint8_t> Bytes = encodeRun(randomRun(8));
    Bytes[Flag] = 2;
    EXPECT_FALSE(decodes(Bytes)) << "flag at " << Flag;
  }
  {
    // Trailing garbage.
    std::vector<uint8_t> Bytes = encodeRun(Run);
    Bytes.push_back(0);
    EXPECT_FALSE(decodes(Bytes));
  }
}

TEST(StateCodec, OldVersionRecordMissesThenIsSupersededByReSolve) {
  // A store written by the previous summary codec: its record is a
  // version-skewed miss; the re-solved run written through must then be
  // served after a reopen and after compaction instead of losing to
  // the old record forever.
  TempDir Dir;
  const Digest K = key(77, 78);
  const fscs::CachedClusterRun Run = randomRun(12);
  {
    auto Store = CacheStore::open(Dir.Path);
    ASSERT_TRUE(Store->put(K, fscs::StoreFamilySummary,
                           fscs::SummaryCodecVersion - 1, payload({1, 2, 3})));
    fscs::SummaryCache Cache;
    Cache.attachStore(Store);
    EXPECT_EQ(Cache.lookup(K), nullptr) << "version skew must miss";
    Cache.insert(K, Run); // The re-solve, written through.
    EXPECT_EQ(Cache.counters().StorePuts, 1u);
    EXPECT_EQ(Store->counters().Records, 1u);
  }
  auto ServedFresh = [&] {
    auto Store = CacheStore::open(Dir.Path);
    fscs::SummaryCache Cache;
    Cache.attachStore(Store);
    std::shared_ptr<const fscs::CachedClusterRun> Hit = Cache.lookup(K);
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(encodeRun(*Hit), encodeRun(Run));
    EXPECT_EQ(Cache.counters().StoreHits, 1u);
    EXPECT_EQ(Store->counters().LiveBytes, encodeRun(Run).size());
  };
  ServedFresh();
  EXPECT_EQ(CacheStore::open(Dir.Path)->compact(), 1u);
  ServedFresh();
}

TEST(StoreCodecs, SliceRoundTrip) {
  core::RelevantSlice S;
  S.TrackedRefs = {ir::Ref::direct(3), ir::Ref::deref(7),
                   ir::Ref::addrOf(1)};
  S.Statements = {2, 5, 9, 11};
  ByteWriter W;
  core::encodeRelevantSlice(S, W);
  core::RelevantSlice Back;
  ASSERT_TRUE(
      core::decodeRelevantSlice(W.bytes().data(), W.bytes().size(), Back));
  EXPECT_EQ(Back.TrackedRefs, S.TrackedRefs);
  EXPECT_EQ(Back.Statements, S.Statements);
  for (size_t Len = 0; Len < W.bytes().size(); ++Len) {
    core::RelevantSlice T;
    EXPECT_FALSE(core::decodeRelevantSlice(W.bytes().data(), Len, T));
  }
}

TEST(StoreCodecs, ClusterVectorRoundTrip) {
  std::vector<core::Cluster> Cs(2);
  Cs[0].Members = {1, 4, 6};
  Cs[0].TrackedRefs = {ir::Ref::direct(1)};
  Cs[0].Statements = {3, 8};
  Cs[0].SourcePartition = 5;
  Cs[1].Members = {9};
  Cs[1].SourcePartition = UINT32_MAX;
  ByteWriter W;
  core::encodeClusterVector(Cs, W);
  std::vector<core::Cluster> Back;
  ASSERT_TRUE(
      core::decodeClusterVector(W.bytes().data(), W.bytes().size(), Back));
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(Back[0].Members, Cs[0].Members);
  EXPECT_EQ(Back[0].TrackedRefs, Cs[0].TrackedRefs);
  EXPECT_EQ(Back[0].Statements, Cs[0].Statements);
  EXPECT_EQ(Back[0].SourcePartition, 5u);
  EXPECT_EQ(Back[1].Members, Cs[1].Members);
  EXPECT_EQ(Back[1].SourcePartition, UINT32_MAX);
  for (size_t Len = 0; Len < W.bytes().size(); ++Len) {
    std::vector<core::Cluster> T;
    EXPECT_FALSE(core::decodeClusterVector(W.bytes().data(), Len, T));
  }
}

//===--------------------------------------------------------------------===//
// ShardedCache + store tier
//===--------------------------------------------------------------------===//

TEST(ShardedCacheStore, WriteThroughAndRevive) {
  TempDir Dir;
  Digest K = key(11, 22);
  core::RelevantSlice S;
  S.TrackedRefs = {ir::Ref::direct(2)};
  S.Statements = {1, 2, 3};
  {
    core::SliceCache Cache;
    core::attachSliceStore(Cache, CacheStore::open(Dir.Path));
    EXPECT_EQ(Cache.lookup(K), nullptr); // Store is empty too.
    Cache.insert(K, S, /*ApproxBytes=*/64);
    auto C = Cache.counters();
    EXPECT_EQ(C.StorePuts, 1u);
    EXPECT_EQ(C.StoreMisses, 1u);
    EXPECT_EQ(C.Inserts, 1u);
  }
  // "Restart": fresh cache, reopened store.
  core::SliceCache Cache;
  core::attachSliceStore(Cache, CacheStore::open(Dir.Path));
  auto Hit = Cache.lookup(K);
  ASSERT_NE(Hit, nullptr) << "revived from disk";
  EXPECT_EQ(Hit->TrackedRefs, S.TrackedRefs);
  EXPECT_EQ(Hit->Statements, S.Statements);
  auto C = Cache.counters();
  EXPECT_EQ(C.StoreHits, 1u);
  EXPECT_EQ(C.Hits, 1u) << "store revival counts as a hit";
  EXPECT_EQ(C.Inserts, 0u) << "revival is not an insert";
  EXPECT_GT(C.Bytes, 0u) << "revived entry charges the gauge";
  // Second lookup is a pure memory hit.
  EXPECT_NE(Cache.lookup(K), nullptr);
  EXPECT_EQ(Cache.counters().StoreHits, 1u);
}

TEST(ShardedCacheStore, VersionMismatchIsMiss) {
  TempDir Dir;
  Digest K = key(31, 32);
  auto Store = CacheStore::open(Dir.Path);
  // A payload written by a hypothetical *newer* slice codec.
  ByteWriter W;
  core::RelevantSlice S;
  S.Statements = {4};
  core::encodeRelevantSlice(S, W);
  ASSERT_TRUE(Store->put(K, core::StoreFamilySlice,
                         core::SliceCodecVersion + 1, W.bytes()));

  core::SliceCache Cache;
  core::attachSliceStore(Cache, Store);
  EXPECT_EQ(Cache.lookup(K), nullptr) << "version skew must miss";
  auto C = Cache.counters();
  EXPECT_EQ(C.StoreMisses, 1u);
  EXPECT_EQ(C.Misses, 1u);
}

TEST(ShardedCacheRace, LoserPaysNothing) {
  support::ShardedCache<std::vector<int>> Cache;
  Digest K = key(1, 5);
  Cache.insert(K, std::vector<int>{1, 2, 3}, /*ApproxBytes=*/1000);
  // Same-key insert (the lost-race shape): returns the winner, charges
  // nothing, performs no allocation on the pre-check path.
  auto Winner = Cache.insert(K, std::vector<int>{9, 9, 9}, 5000);
  EXPECT_EQ((*Winner)[0], 1) << "first wins";
  auto C = Cache.counters();
  EXPECT_EQ(C.Inserts, 1u);
  EXPECT_EQ(C.Bytes, 1000u) << "loser's ApproxBytes never charged";

  // Hammer one key from many threads; the gauge must end exactly one
  // payload wide no matter how the race interleaves.
  support::ShardedCache<std::vector<int>> Hot;
  Digest HK = key(2, 7);
  std::vector<std::thread> Ts;
  for (int I = 0; I < 8; ++I)
    Ts.emplace_back([&Hot, HK] {
      for (int J = 0; J < 50; ++J)
        Hot.insert(HK, std::vector<int>{7}, 128);
    });
  for (auto &T : Ts)
    T.join();
  auto H = Hot.counters();
  EXPECT_EQ(H.Inserts, 1u);
  EXPECT_EQ(H.Bytes, 128u);
  EXPECT_EQ((*Hot.lookup(HK))[0], 7);
}

//===--------------------------------------------------------------------===//
// Warm-restart byte-identity oracle
//===--------------------------------------------------------------------===//

TEST(WarmRestart, ByteIdenticalStatsAcrossSeeds) {
  for (uint64_t Seed : {3u, 17u, 91u}) {
    auto P = generate(Seed);
    ASSERT_TRUE(P);
    TempDir Dir;

    // Cold: fresh caches, empty store; populates it via write-through.
    core::BootstrapOptions Cold = storeBackedOptions(Dir.Path);
    core::BootstrapResult RCold = runIsolated(*P, Cold);
    std::string JCold = replayableJson(RCold);
    EXPECT_GT(Cold.SummaryCache->counters().StorePuts, 0u) << Seed;

    // Warm restart: all-fresh caches over a reopened store -- the
    // state a new process starts in.
    core::BootstrapOptions Warm = storeBackedOptions(Dir.Path);
    core::BootstrapResult RWarm = runIsolated(*P, Warm);
    EXPECT_EQ(JCold, replayableJson(RWarm))
        << "warm restart must replay bit-identical stats (seed " << Seed
        << ")";
    auto C = Warm.SummaryCache->counters();
    EXPECT_GT(C.StoreHits, 0u) << Seed;
    EXPECT_EQ(C.Inserts, 0u)
        << "warm run should revive every summary, not recompute (seed "
        << Seed << ")";
  }
}

TEST(WarmRestart, CorruptStoreDegradesToColdButIdentical) {
  auto P = generate(23);
  ASSERT_TRUE(P);
  TempDir Dir;
  core::BootstrapOptions Cold = storeBackedOptions(Dir.Path);
  std::string JCold = replayableJson(runIsolated(*P, Cold));

  // Vandalize every segment: flip a byte in each record region.
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
    uint64_t Size = std::filesystem::file_size(E.path());
    for (uint64_t Off = 9; Off < Size; Off += 37)
      corruptByteAt(E.path().string(), Off);
  }

  core::BootstrapOptions Warm = storeBackedOptions(Dir.Path);
  core::BootstrapResult RWarm = runIsolated(*P, Warm);
  EXPECT_EQ(JCold, replayableJson(RWarm))
      << "corruption may only cost misses, never change results";
}
