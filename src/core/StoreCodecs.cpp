//===- core/StoreCodecs.cpp - Slice / refinement blob codecs --------------===//

#include "core/StoreCodecs.h"

using namespace bsaa;
using namespace bsaa::core;
using support::ByteReader;
using support::ByteWriter;

//===----------------------------------------------------------------------===//
// Codecs
//===----------------------------------------------------------------------===//

namespace {

/// See fscs/StateCodec.cpp: a length-prefixed count claiming more
/// elements than there are input bytes left is a lie; catching it here
/// keeps a corrupt length from driving a huge allocation.
bool plausibleCount(ByteReader &R, uint32_t N) {
  if (static_cast<size_t>(N) > R.remaining()) {
    R.fail();
    return false;
  }
  return true;
}

void encodeRefs(const std::vector<ir::Ref> &Refs, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(Refs.size()));
  for (const ir::Ref &R : Refs) {
    W.u32(R.Var);
    W.i8(R.Deref);
  }
}

bool decodeRefs(ByteReader &R, std::vector<ir::Ref> &Out) {
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  Out.resize(N);
  for (ir::Ref &Ref : Out) {
    Ref.Var = R.u32();
    Ref.Deref = R.i8();
  }
  return R.ok();
}

void encodeU32s(const std::vector<uint32_t> &Vs, ByteWriter &W) {
  W.u32(static_cast<uint32_t>(Vs.size()));
  for (uint32_t V : Vs)
    W.u32(V);
}

bool decodeU32s(ByteReader &R, std::vector<uint32_t> &Out) {
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  Out.resize(N);
  for (uint32_t &V : Out)
    V = R.u32();
  return R.ok();
}

} // namespace

void core::encodeRelevantSlice(const RelevantSlice &S, ByteWriter &W) {
  encodeRefs(S.TrackedRefs, W);
  encodeU32s(S.Statements, W);
}

bool core::decodeRelevantSlice(const uint8_t *Data, size_t Len,
                               RelevantSlice &Out) {
  ByteReader R(Data, Len);
  if (!decodeRefs(R, Out.TrackedRefs) || !decodeU32s(R, Out.Statements))
    return false;
  return R.atEnd();
}

void core::encodeClusterVector(const std::vector<Cluster> &Cs,
                               ByteWriter &W) {
  W.u32(static_cast<uint32_t>(Cs.size()));
  for (const Cluster &C : Cs) {
    encodeU32s(C.Members, W);
    encodeRefs(C.TrackedRefs, W);
    encodeU32s(C.Statements, W);
    // SourcePartition travels for completeness, but ids are artifacts
    // of one Steensgaard solve: every cache-hit consumer restamps it.
    W.u32(C.SourcePartition);
  }
}

bool core::decodeClusterVector(const uint8_t *Data, size_t Len,
                               std::vector<Cluster> &Out) {
  ByteReader R(Data, Len);
  uint32_t N = R.u32();
  if (!plausibleCount(R, N))
    return false;
  Out.resize(N);
  for (Cluster &C : Out) {
    if (!decodeU32s(R, C.Members) || !decodeRefs(R, C.TrackedRefs) ||
        !decodeU32s(R, C.Statements))
      return false;
    C.SourcePartition = R.u32();
  }
  return R.atEnd();
}

//===----------------------------------------------------------------------===//
// Wiring
//===----------------------------------------------------------------------===//

void core::attachSliceStore(SliceCache &Cache,
                            std::shared_ptr<support::CacheStore> Store) {
  support::CacheStoreBacking<RelevantSlice> B;
  B.Store = std::move(Store);
  B.Family = StoreFamilySlice;
  B.Version = SliceCodecVersion;
  B.Encode = [](const RelevantSlice &S, ByteWriter &W) {
    encodeRelevantSlice(S, W);
  };
  B.Decode = [](const uint8_t *Data, size_t Len, RelevantSlice &Out) {
    return decodeRelevantSlice(Data, Len, Out);
  };
  B.ApproxBytes = [](const RelevantSlice &S) { return S.approxBytes(); };
  Cache.attachStore(std::move(B));
}

void core::attachRefinementStore(
    RefinementCache &Cache, std::shared_ptr<support::CacheStore> Store) {
  support::CacheStoreBacking<std::vector<Cluster>> B;
  B.Store = std::move(Store);
  B.Family = StoreFamilyRefinement;
  B.Version = RefinementCodecVersion;
  B.Encode = [](const std::vector<Cluster> &Cs, ByteWriter &W) {
    encodeClusterVector(Cs, W);
  };
  B.Decode = [](const uint8_t *Data, size_t Len, std::vector<Cluster> &Out) {
    return decodeClusterVector(Data, Len, Out);
  };
  B.ApproxBytes = approxClusterVectorBytes;
  Cache.attachStore(std::move(B));
}

std::shared_ptr<support::CacheStore>
core::openStoreAndAttach(BootstrapOptions &Opts) {
  if (!Opts.Store && !Opts.StorePath.empty())
    Opts.Store = support::CacheStore::open(Opts.StorePath);
  if (Opts.Store) {
    if (Opts.SummaryCache)
      Opts.SummaryCache->attachStore(Opts.Store);
    if (Opts.RelevantSliceCache)
      attachSliceStore(*Opts.RelevantSliceCache, Opts.Store);
    if (Opts.AndersenRefinementCache)
      attachRefinementStore(*Opts.AndersenRefinementCache, Opts.Store);
  }
  return Opts.Store;
}
