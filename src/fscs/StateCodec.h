//===- fscs/StateCodec.h - CachedClusterRun <-> bytes -----------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary codec for CachedClusterRun -- the part of the
/// SummaryEngine State a later query can read (keys, summary tuples,
/// FSCI memo, and the traversal scaffolding only where it is live; see
/// SummaryEngine::exportState) plus the dovetail and engine accounting
/// a cache hit replays. This is the payload the persistent CacheStore
/// holds under dependency-scope keys, so a restarted process (or a
/// freshly onboarded tenant) can import whole cluster fixpoints instead
/// of re-solving them. Only exported states are encoded: they carry no
/// Seen sets or worklists.
///
/// Layout (version 2): the key count, then one scaffold byte. A settled
/// export carries no ResultHashes or Waiters on any key; its scaffold
/// byte is 0 and both sections are absent for every key. Otherwise the
/// byte is 1 and every key carries both. Each key holds its
/// (AnchorLoc, R), its result tuples as (Origin, Cond) -- a tuple's
/// Anchor and AnchorLoc are always the key's own -- the scaffold
/// sections if present, and its WaiterHashes. KeyIndex is not stored:
/// decoding rebuilds it from the keys. The FSCI memo, steps and flags
/// follow.
///
/// Encoding is deterministic: the hash sets inside KeyState and the
/// FSCI memo table (whose slot order depends on their growth history)
/// are serialized sorted -- the memo in ascending (V, Loc) order -- so
/// encode(decode(encode(S))) == encode(S) -- the property the
/// round-trip tests pin.
///
/// Decoding is total: it consumes untrusted bytes through the
/// bounds-checked ByteReader, validates every invariant the in-memory
/// types rely on (canonical conditions, strictly ascending hash sets
/// and memo keys, distinct key slots, in-range KeyIds, valid enum
/// values, a scaffold byte that matches the sections, exact input
/// consumption), and returns false on any violation. A corrupt or
/// version-skewed payload can therefore only produce a cache miss,
/// never a malformed State.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_STATECODEC_H
#define BSAA_FSCS_STATECODEC_H

#include "fscs/SummaryCache.h"
#include "support/CacheStore.h"

namespace bsaa {
namespace fscs {

/// CacheStore family tag for summary-run payloads. The slice and
/// refinement codecs (core/StoreCodecs.h) use 2 and 3.
constexpr uint8_t StoreFamilySummary = 1;

/// Bump on any layout change; readers treat other versions as a miss,
/// and the store lets a record of this version supersede one of any
/// other version under the same key (support/CacheStore.h).
constexpr uint8_t SummaryCodecVersion = 2;

/// Serializes \p Run into \p W (deterministic; see file comment).
void encodeCachedClusterRun(const CachedClusterRun &Run,
                            support::ByteWriter &W);

/// Decodes \p Len bytes at \p Data into \p Out. Returns false (leaving
/// \p Out unspecified) on any malformed input; never throws.
bool decodeCachedClusterRun(const uint8_t *Data, size_t Len,
                            CachedClusterRun &Out);

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_STATECODEC_H
