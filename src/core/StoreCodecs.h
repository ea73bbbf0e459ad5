//===- core/StoreCodecs.h - Slice / refinement blob codecs ------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary codecs for the two core-layer cached payload types
/// -- Algorithm-1 RelevantSlice results and Andersen cluster-vector
/// refinements -- plus the wiring helpers that attach one persistent
/// CacheStore behind every content-addressed cache a BootstrapOptions
/// carries. The summary-run codec lives in fscs/StateCodec.h (family
/// 1); these use families 2 and 3 of the same store.
///
/// The attach helpers are what AliasService / IncrementalDriver /
/// TenantRegistry call at construction: open (or adopt) the store named
/// by BootstrapOptions::StorePath and make every cache write through to
/// it and revive from it on memory misses. Decoders follow the same
/// discipline as the summary codec: bounds-checked reads, full-input
/// consumption, false on any malformed byte -- a corrupt store can only
/// ever cost a miss.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_CORE_STORECODECS_H
#define BSAA_CORE_STORECODECS_H

#include "core/BootstrapDriver.h"
#include "support/CacheStore.h"

namespace bsaa {
namespace core {

/// CacheStore family tags (family 1 is the summary-run codec in
/// fscs/StateCodec.h).
constexpr uint8_t StoreFamilySlice = 2;
constexpr uint8_t StoreFamilyRefinement = 3;

/// Bump on layout change; readers treat other versions as a miss.
constexpr uint8_t SliceCodecVersion = 1;
constexpr uint8_t RefinementCodecVersion = 1;

void encodeRelevantSlice(const RelevantSlice &S, support::ByteWriter &W);
bool decodeRelevantSlice(const uint8_t *Data, size_t Len,
                         RelevantSlice &Out);

void encodeClusterVector(const std::vector<Cluster> &Cs,
                         support::ByteWriter &W);
bool decodeClusterVector(const uint8_t *Data, size_t Len,
                         std::vector<Cluster> &Out);

/// Attaches \p Store behind \p Cache (write-through + read-miss
/// revival). Wiring-time only, like ShardedCache::attachStore.
void attachSliceStore(SliceCache &Cache,
                      std::shared_ptr<support::CacheStore> Store);
void attachRefinementStore(RefinementCache &Cache,
                           std::shared_ptr<support::CacheStore> Store);

/// One-stop wiring: resolves the store named by \p Opts (adopting
/// Opts.Store if already open, else opening Opts.StorePath; returns
/// null if neither is set), stamps it into Opts.Store, attaches it
/// behind every cache Opts carries. Throws only if StorePath names an
/// unusable directory.
std::shared_ptr<support::CacheStore>
openStoreAndAttach(BootstrapOptions &Opts);

} // namespace core
} // namespace bsaa

#endif // BSAA_CORE_STORECODECS_H
