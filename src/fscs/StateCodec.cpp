//===- fscs/StateCodec.cpp - CachedClusterRun <-> bytes -------------------===//

#include "fscs/StateCodec.h"

#include <algorithm>
#include <cassert>

using namespace bsaa;
using namespace bsaa::fscs;
using support::ByteReader;
using support::ByteWriter;

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

namespace {

void encodeRef(const ir::Ref &R, ByteWriter &W) {
  W.u32(R.Var);
  W.i8(R.Deref);
}

void encodeCondition(const Condition &C, ByteWriter &W) {
  W.u8(C.isFalse() ? 1 : 0);
  W.u32(static_cast<uint32_t>(C.atoms().size()));
  for (const ConstraintAtom &A : C.atoms()) {
    W.u32(A.Loc);
    W.u8(static_cast<uint8_t>(A.Kind));
    W.u32(A.A);
    W.u32(A.B);
  }
}

/// Hash sets are serialized sorted for determinism.
void encodeHashSet(const U64HashSet &S, ByteWriter &W) {
  std::vector<uint64_t> V;
  V.reserve(S.size());
  S.forEach([&V](uint64_t H) { V.push_back(H); });
  std::sort(V.begin(), V.end());
  W.u32(static_cast<uint32_t>(V.size()));
  for (uint64_t H : V)
    W.u64(H);
}

void encodeSparseBitVector(const SparseBitVector &S, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(S.numChunks()));
  S.forEachChunk([&W](uint32_t Base, uint64_t Bits) {
    W.u32(Base);
    W.u64(Bits);
  });
}

/// An exported state: no traversal scaffolding on any key, and no flags
/// (a flagged run keeps no state).
void encodeState(const SummaryEngine::State &St, ByteWriter &W) {
  assert(!St.BudgetHit && !St.Approximated && "a flagged run keeps no state");
  W.u32(static_cast<uint32_t>(St.Keys.size()));
  for (const SummaryEngine::KeyState &K : St.Keys) {
    assert(K.WL.empty() && K.Seen.empty() && K.ResultHashes.empty() &&
           K.Waiters.empty() && "encode exported states only");
    W.u32(K.AnchorLoc);
    encodeRef(K.R, W);
    // Each tuple's Anchor/AnchorLoc are the key's own (addResult).
    W.u32(static_cast<uint32_t>(K.Results.size()));
    for (const SummaryTuple &T : K.Results) {
      encodeRef(T.Origin, W);
      encodeCondition(T.Cond, W);
    }
    encodeHashSet(K.WaiterHashes, W);
  }
  // KeyIndex is not encoded: decoding rebuilds it from the keys.
  // The memo is written in ascending (V, Loc) order, which is the order
  // of its keys.
  std::vector<std::pair<uint64_t, const SparseBitVector *>> Memo;
  Memo.reserve(St.FsciMemo.size());
  St.FsciMemo.forEach([&Memo](uint64_t K, const SparseBitVector &Bits) {
    Memo.emplace_back(K, &Bits);
  });
  std::sort(Memo.begin(), Memo.end());
  W.u32(static_cast<uint32_t>(Memo.size()));
  for (const auto &[K, Bits] : Memo) {
    W.u32(static_cast<uint32_t>(K >> 32));
    W.u32(static_cast<uint32_t>(K));
    encodeSparseBitVector(*Bits, W);
  }
  W.u64(St.Steps);
}

} // namespace

void fscs::encodeCachedClusterRun(const CachedClusterRun &Run,
                                  ByteWriter &W) {
  W.u32(Run.Dove.DepthLevels);
  W.u32(Run.Dove.FsciQueries);
  W.u8(Run.Dove.Complete ? 1 : 0);
  W.u64(Run.Stats.Steps);
  W.u64(Run.Stats.SummaryTuples);
  W.u64(Run.Stats.Keys);
  W.u8(Run.Stats.BudgetHit ? 1 : 0);
  W.u8(Run.Stats.Approximated ? 1 : 0);
  if (!Run.Stats.flagged())
    encodeState(Run.Engine, W);
  assert((!Run.Stats.flagged() ||
          (Run.Engine.Keys.empty() && Run.Engine.FsciMemo.empty())) &&
         "a flagged run keeps no state");
}

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

namespace {

/// Element counts are length-prefixed from untrusted input; cap what a
/// single count may claim so a corrupt length cannot drive a
/// multi-gigabyte allocation before the bounds check catches it. Every
/// element is at least one byte, so a count beyond the remaining input
/// is a lie.
bool plausibleCount(ByteReader &R, uint32_t N) {
  if (static_cast<size_t>(N) > R.remaining()) {
    R.fail();
    return false;
  }
  return true;
}

/// A flag byte is 0 or 1, as the encoder writes it.
bool decodeFlag(ByteReader &R) {
  uint8_t B = R.u8();
  if (B > 1)
    R.fail();
  return B == 1;
}

ir::Ref decodeRef(ByteReader &R) {
  ir::Ref Out;
  Out.Var = R.u32();
  Out.Deref = R.i8();
  return Out;
}

/// \p Atoms is scratch space, reused across calls so that decoding a
/// record allocates nothing per condition.
bool decodeCondition(ByteReader &R, Condition &Out,
                     std::vector<ConstraintAtom> &Atoms) {
  bool IsFalse = decodeFlag(R);
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  Atoms.clear();
  Atoms.reserve(N);
  for (uint32_t I = 0; I < N; ++I) {
    ConstraintAtom A;
    A.Loc = R.u32();
    uint8_t Kind = R.u8();
    if (Kind > static_cast<uint8_t>(ConstraintKind::NotSameObject)) {
      R.fail();
      return false;
    }
    A.Kind = static_cast<ConstraintKind>(Kind);
    A.A = R.u32();
    A.B = R.u32();
    Atoms.push_back(A);
  }
  if (!R.ok())
    return false;
  if (!Condition::fromCanonicalAtoms(Atoms, IsFalse, Out)) {
    R.fail();
    return false;
  }
  return true;
}

bool decodeHashSet(ByteReader &R, U64HashSet &Out) {
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  Out.reserve(N);
  uint64_t Prev = 0;
  for (uint32_t I = 0; I < N; ++I) {
    uint64_t H = R.u64();
    // Strictly ascending, as encodeHashSet writes them.
    if (I > 0 && H <= Prev) {
      R.fail();
      return false;
    }
    Out.insert(H);
    Prev = H;
  }
  return R.ok();
}

bool decodeSparseBitVector(ByteReader &R, SparseBitVector &Out) {
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  for (uint32_t I = 0; I < N; ++I) {
    uint32_t Base = R.u32();
    uint64_t Bits = R.u64();
    if (!R.ok())
      return false;
    if (!Out.appendChunk(Base, Bits)) {
      R.fail();
      return false;
    }
  }
  return R.ok();
}

bool decodeState(ByteReader &R, SummaryEngine::State &St) {
  uint32_t NumKeys = R.u32();
  if (!plausibleCount(R, NumKeys))
    return false;
  St.Keys.resize(NumKeys);
  std::vector<ConstraintAtom> AtomScratch;
  for (SummaryEngine::KeyState &K : St.Keys) {
    K.AnchorLoc = R.u32();
    K.R = decodeRef(R);
    uint32_t NumResults = R.u32();
    if (!plausibleCount(R, NumResults))
      return false;
    K.Results.resize(NumResults);
    for (SummaryTuple &T : K.Results) {
      T.Anchor = K.R;
      T.AnchorLoc = K.AnchorLoc;
      T.Origin = decodeRef(R);
      if (!decodeCondition(R, T.Cond, AtomScratch))
        return false;
    }
    if (!decodeHashSet(R, K.WaiterHashes))
      return false;
  }
  // Every key owns a distinct index slot (what ensureKey maintains).
  if (!R.ok() || !St.rebuildKeyIndex()) {
    R.fail();
    return false;
  }

  uint32_t NumMemo = R.u32();
  if (!plausibleCount(R, NumMemo))
    return false;
  // An entry takes at least 12 bytes (two ids and a chunk count).
  St.FsciMemo.reserve(std::min<size_t>(NumMemo, R.remaining() / 12));
  uint64_t PrevMemoKey = 0;
  for (uint32_t I = 0; I < NumMemo; ++I) {
    ir::VarId V = R.u32();
    ir::LocId Loc = R.u32();
    uint64_t MemoKey = SummaryEngine::State::fsciKey(V, Loc);
    // Strictly ascending, as encodeState writes them; the empty-slot
    // key names no location.
    if (!R.ok() || (I > 0 && MemoKey <= PrevMemoKey) ||
        MemoKey == decltype(St.FsciMemo)::EmptyKey) {
      R.fail();
      return false;
    }
    if (!decodeSparseBitVector(R, St.FsciMemo[MemoKey]))
      return false;
    PrevMemoKey = MemoKey;
  }

  St.Steps = R.u64();
  return R.ok();
}

} // namespace

bool fscs::decodeCachedClusterRun(const uint8_t *Data, size_t Len,
                                  CachedClusterRun &Out) {
  ByteReader R(Data, Len);
  Out.Dove.DepthLevels = R.u32();
  Out.Dove.FsciQueries = R.u32();
  Out.Dove.Complete = decodeFlag(R);
  Out.Stats.Steps = R.u64();
  Out.Stats.SummaryTuples = R.u64();
  Out.Stats.Keys = R.u64();
  Out.Stats.BudgetHit = decodeFlag(R);
  Out.Stats.Approximated = decodeFlag(R);
  // The state section is present iff the run is unflagged.
  if (!Out.Stats.flagged() && !decodeState(R, Out.Engine))
    return false;
  // Exact consumption: trailing bytes would be a flagged run's state or
  // a layout mismatch the version byte failed to catch.
  return R.atEnd();
}
