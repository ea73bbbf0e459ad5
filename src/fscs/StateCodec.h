//===- fscs/StateCodec.h - CachedClusterRun <-> bytes -----------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary codec for CachedClusterRun -- the dovetail and
/// engine accounting a cache hit replays, plus, for an unflagged run,
/// the part of the SummaryEngine State a later query can read (keys,
/// summary tuples, waiter hashes and the FSCI memo; see
/// SummaryEngine::exportState). This is the payload the persistent
/// CacheStore holds under dependency-scope keys, so a restarted process
/// (or a freshly onboarded tenant) can import whole cluster fixpoints
/// instead of re-solving them.
///
/// Layout (version 3): the dovetail accounting (depth levels, FSCI
/// queries, complete), then the engine accounting (steps, tuples, keys,
/// BudgetHit, Approximated). The state section follows iff the run is
/// unflagged (EngineStats::flagged()): the key count, then per key its
/// (AnchorLoc, R), its result tuples as (Origin, Cond) -- a tuple's
/// Anchor and AnchorLoc are always the key's own -- and its
/// WaiterHashes; then the FSCI memo and the steps. KeyIndex is not
/// stored: decoding rebuilds it from the keys.
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
/// and memo keys, distinct key slots, valid enum values, flag bytes of
/// 0 or 1, a state section present iff the run is unflagged, exact
/// input consumption), and returns false on any violation. A corrupt
/// or version-skewed payload can therefore only produce a cache miss,
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
constexpr uint8_t SummaryCodecVersion = 3;

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
