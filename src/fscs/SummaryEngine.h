//===- fscs/SummaryEngine.h - Algorithms 4 + 5 ------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summarization-based flow- and context-sensitive alias engine: the
/// paper's Algorithms 4 (processing a tuple against a statement) and 5
/// (interprocedural may-alias summary computation), demand-driven.
///
/// The engine answers: *where can the value of pointer expression R at
/// location L come from?* It performs the paper's backward traversal
/// over the cluster's relevant-statement slice (everything outside St_P
/// is a skip), tracking maximally complete update sequences as tuples
/// (location, ref, condition). A traversal ends either
///
///  * at an address-creation site (`x = &o`, `x = &alloc`): a *resolved*
///    origin -- the tracked value is the address of o; or
///  * at the owning function's entry: an *unresolved* origin -- a ref
///    whose value flows in from the caller. Summary tuples of this shape
///    are exactly Definition 8's (p, loc, q, cond).
///
/// Calls are spliced, not inlined: reaching a call site whose callee may
/// modify the tracked ref demands the callee's exit-anchored summary
/// (recursively); resolved callee origins finish the traversal, and
/// unresolved ones continue above the call with the callee's entry ref
/// substituted -- the paper's "splicing together local maximally
/// complete update sequences". Recursion converges by monotone fixpoint
/// over the finite tuple space (conditions are capped at MaxCondAtoms
/// and widen by dropping atoms, which over-approximates soundly).
///
/// Statements that dereference a pointer s consult the flow-sensitive
/// context-insensitive (FSCI) points-to set of s at that location --
/// computed by this same engine one Steensgaard-depth higher, the
/// paper's dovetailing (Algorithm 2). When the set is not yet known
/// (cyclic points-to or in-flight recursion), the engine falls back to
/// branching with points-to constraints (Definition 8), exactly as the
/// paper prescribes for the cyclic case.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_SUMMARYENGINE_H
#define BSAA_FSCS_SUMMARYENGINE_H

#include "core/Cluster.h"
#include "fscs/Constraint.h"
#include "ir/CallGraph.h"
#include "ir/Ir.h"
#include "support/FlatContainers.h"
#include "support/SparseBitVector.h"
#include "support/Statistics.h"

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace analysis {
class SteensgaardAnalysis;
} // namespace analysis

namespace fscs {

/// One summary tuple: the value of Anchor at AnchorLoc may come from
/// Origin under Cond. Origin is either resolved (an address: Deref ==
/// -1) or a ref live at the owning function's entry.
struct SummaryTuple {
  ir::Ref Anchor;
  ir::LocId AnchorLoc = ir::InvalidLoc;
  ir::Ref Origin;
  Condition Cond;

  bool isResolved() const { return Origin.Deref < 0; }
};

/// Demand-driven summary / FSCI points-to engine over one cluster slice.
///
/// The engine's data is split in two layers:
///
///  * the *memoized product* -- per-key summary tuples, FSCI points-to
///    sets, and accounting -- lives in a value-type State that can be
///    exported after a run and imported into a fresh engine over the
///    same (program, cluster, options) inputs. This is the seam the
///    cross-cluster SummaryCache uses: a cache hit imports the stored
///    State instead of re-running the traversals, and every later query
///    is answered from the restored fixpoint exactly as the original
///    engine would have answered it.
///  * everything else (slice membership, modification info, skip
///    compression, worklist scheduling scaffolding) is derived
///    deterministically from the constructor inputs and rebuilt per
///    instance; it never needs to travel with the cache entry.
class SummaryEngine {
public:
  struct Options {
    /// Condition length cap; longer conditions widen by dropping atoms.
    size_t MaxCondAtoms = 4;
    /// Result cap per summary key. Once a key holds this many tuples,
    /// further origins are recorded *unconditionally* (condition
    /// widened to true): a sound collapse that stops condition-space
    /// blow-ups in recursive SCCs from cross-multiplying through
    /// splices.
    size_t MaxResultsPerKey = 48;
    /// Traversal-step budget; 0 means unlimited. When exhausted the
    /// engine stops exploring (results become partial and
    /// budgetExhausted() reports it) -- this is how the benchmark
    /// harness reproduces the paper's ">15min" timeout entries.
    uint64_t StepBudget = 0;
    /// Fan-out cap when a dereference must be enumerated without FSCI
    /// information; beyond it the engine records an approximation flag.
    size_t MaxDerefFanout = 64;
  };

  SummaryEngine(const ir::Program &P, const ir::CallGraph &CG,
                const analysis::SteensgaardAnalysis &Steens,
                const core::Cluster &C);
  SummaryEngine(const ir::Program &P, const ir::CallGraph &CG,
                const analysis::SteensgaardAnalysis &Steens,
                const core::Cluster &C, Options Opts);

  /// Origins of \p R's value immediately *after* executing \p AnchorLoc.
  std::vector<SummaryTuple> summaryAt(ir::LocId AnchorLoc, ir::Ref R);

  /// Origins of \p R's value immediately *before* \p Loc executes.
  std::vector<SummaryTuple> originsBefore(ir::LocId Loc, ir::Ref R);

  /// FSCI points-to objects of \p V just before \p Loc: every object o
  /// with a (spliced, any-context) update sequence from &o to V. The
  /// reference lasts until the next call computes a new set.
  const SparseBitVector &fsciPointsTo(ir::VarId V, ir::LocId Loc);

  /// The caller walk behind fsciPointsTo(), unmemoized: resolves the
  /// origins of \p V before \p Loc, then splices each unresolved one
  /// into every call site of every caller of its function (Algorithm
  /// 3's any-context union), the entry function's callers included.
  SparseBitVector walkOrigins(ir::VarId V, ir::LocId Loc);

  /// Best-effort satisfiability of \p Cond against memoized FSCI
  /// information; unknown atoms count as satisfiable.
  bool satisfiable(const Condition &Cond);

  /// True if any traversal hit the step budget (results are partial).
  bool budgetExhausted() const { return St.BudgetHit; }

  /// True if a dereference fan-out was capped (results over-approximate
  /// by an explicit "unknown" marker rather than enumeration).
  bool hasApproximation() const { return St.Approximated; }

  /// Monotone version of everything a points-to walk over this engine
  /// reads: bumped on a new summary key, an added result tuple, a new
  /// FSCI memo entry, the first BudgetHit / Approximated flip, and
  /// importState(). Traversal steps that change none of these do not
  /// bump it. Two walks that see the same version read the same state,
  /// so a walk that left the version unchanged is a pure function of
  /// it: ClusterAliasAnalysis memoizes such answers and serves them
  /// while the version still matches.
  uint64_t version() const { return Version; }

  uint64_t stepsUsed() const { return St.Steps; }
  uint64_t numSummaryTuples() const;
  uint64_t numKeys() const { return St.Keys.size(); }

  /// Aggregate accounting of one engine's whole lifetime, cheap enough
  /// to sample once per cluster run.
  struct EngineStats {
    uint64_t Steps = 0;
    uint64_t SummaryTuples = 0;
    uint64_t Keys = 0;
    bool BudgetHit = false;
    bool Approximated = false;

    /// A flagged run's answers may be partial or over-approximated:
    /// queries route its cluster to the fallback, and the summary cache
    /// keeps only its accounting, never its State.
    bool flagged() const { return BudgetHit || Approximated; }
  };
  EngineStats stats() const;

  /// Folds this engine's aggregate accounting into \p Global under the
  /// "fscs." prefix. Called once per cluster job (not per step), so the
  /// parallel driver exercises only the sharded add() path.
  void accumulateGlobalStats(Statistics &Global) const;

  /// Same accumulation from a detached EngineStats -- the summary-cache
  /// hit path replays a cached run's accounting without an engine.
  static void accumulateGlobalStats(const EngineStats &S,
                                    Statistics &Global);

  //===--------------------------------------------------------------===//
  // Memoized-state seam (summary cache)
  //===--------------------------------------------------------------===//

  using KeyId = uint32_t;

  struct TraversalTuple {
    ir::LocId M;
    ir::Ref Q;
    Condition Cond;
  };

  /// A splice waiting on a provider key's future results.
  struct Waiter {
    KeyId Dependent;
    ir::LocId CallLoc;
    Condition CondAtCall;
    size_t Consumed = 0;
  };

  /// One summary key (AnchorLoc, R) and its traversal. Every member is
  /// a flat or inline container, so the per-step work -- enqueue,
  /// dedupe, pop, add a result -- touches the heap only when a buffer
  /// doubles, and KeyState is nothrow-movable: State::Keys grows by
  /// moving keys, never by deep-copying them.
  struct KeyState {
    ir::LocId AnchorLoc;
    ir::Ref R;
    std::vector<SummaryTuple> Results;
    U64HashSet ResultHashes;         ///< Hashes of Results (dedupe).
    VectorFifo<TraversalTuple> WL;   ///< Pending traversal tuples.
    U64HashSet Seen;                 ///< Tuples ever enqueued.
    std::vector<Waiter> Waiters;     ///< Splices fed by this key.
    U64HashSet WaiterHashes;         ///< Hashes of Waiters (dedupe).
  };

  /// The complete memoized product of an engine run. Opaque to callers
  /// except for tests and the accounting accessors: the only supported
  /// operations are exportState() after a run and importState() into a
  /// fresh engine built from identical (program, cluster, options)
  /// inputs -- the SummaryCache guarantees that identity by keying
  /// entries on a content digest of exactly those inputs.
  struct State {
    static constexpr KeyId NoKey = ~KeyId(0);

    /// The keys anchored at one (AnchorLoc, R.Var), one slot per
    /// R.Deref + 1. The IR's refs use -1, 0 and 1. A fourth slot costs
    /// nothing (a table slot takes 24 bytes with three KeyIds or four),
    /// so rebuildKeyIndex() also indexes a decoded Deref of 2.
    struct KeySlots {
      KeyId ByDeref[4] = {NoKey, NoKey, NoKey, NoKey};
      bool operator==(const KeySlots &) const = default;
    };

    std::vector<KeyState> Keys;
    /// indexKey(AnchorLoc, R.Var) -> the keys with that anchor and
    /// variable. Lossless: distinct (AnchorLoc, R) never share a slot.
    /// Never serialized (the codec rebuilds it), so its iteration order
    /// is free.
    U64FlatMap<KeySlots> KeyIndex;
    /// FSCI points-to set of V just before Loc, keyed by fsciKey(V,
    /// Loc). Read about ten times per traversal step (satisfiable()
    /// and the transfer's points-to oracles), so it is one flat table;
    /// the codec sorts its keys to write them in (V, Loc) order.
    U64FlatMap<SparseBitVector> FsciMemo;
    uint64_t Steps = 0;
    bool BudgetHit = false;
    bool Approximated = false;

    /// FsciMemo key of (V, Loc). Keys order as the pairs do; the one
    /// unstorable key is (InvalidVar, InvalidLoc), never a query.
    static uint64_t fsciKey(ir::VarId V, ir::LocId Loc) {
      return (uint64_t(V) << 32) | Loc;
    }

    /// KeyIndex key of (AnchorLoc, Var). The one unstorable key is
    /// (InvalidLoc, InvalidVar); an engine anchors keys at real
    /// locations only.
    static uint64_t indexKey(ir::LocId AnchorLoc, ir::VarId Var) {
      return (uint64_t(AnchorLoc) << 32) | Var;
    }

    /// Rebuilds KeyIndex from every key's (AnchorLoc, R), the mapping
    /// ensureKey() maintains. Returns false if two keys share an index
    /// slot or a key has no slot (a Deref outside -1..2, or the
    /// unstorable index key), which no engine run produces.
    bool rebuildKeyIndex();

    /// Payload-size estimate of an exported state for the cache's byte
    /// gauge: results, waiter hashes, the key index and the FSCI memo,
    /// plus atoms that spilled out of their conditions.
    uint64_t approxBytes() const;
  };

  /// Copies the part of the memoized product a later query can read,
  /// after the queries of an unflagged run (the summary cache keeps no
  /// State of a flagged one): every key's AnchorLoc, R, Results and
  /// WaiterHashes, KeyIndex, FsciMemo and Steps. Without a budget hit
  /// every drain() ran to the end, so no feed is pending and no
  /// existing key enqueues or adds a result again: Seen, WL, Waiters
  /// and ResultHashes are dead. WaiterHashes travel because a new key's
  /// splice dedupes against an existing provider's waiter hashes.
  State exportState() const;

  /// Installs \p S as this engine's memoized product. Only valid on an
  /// engine constructed over the same program, cluster, and options
  /// that produced \p S, and on a state exportState() made (or one
  /// holding only an FSCI memo); later queries then behave as on the
  /// original engine.
  void importState(State S);

private:
  KeyId ensureKey(ir::LocId Loc, ir::Ref R);
  /// Queues (M, Q, Cond) for key \p K unless it was queued before; the
  /// tuple is built only when it is new.
  void enqueue(KeyId K, ir::LocId M, ir::Ref Q, const Condition &Cond);
  /// Records (Origin, Cond) as a result of key \p K. A duplicate is
  /// rejected on its hash before the condition is checked or copied.
  void addResult(KeyId K, ir::Ref Origin, const Condition &Cond);
  /// Splices the provider's results the waiter has not consumed yet. A
  /// resolved result fed into a dependent at the result cap is skipped
  /// before its merge when the dependent already holds (Origin, true):
  /// addResult() would record exactly that tuple, whatever the merge.
  void feedWaiter(KeyId Provider, size_t WaiterIdx);
  void drain();
  /// Not re-entrant: it reuses one outcome buffer, and nothing it calls
  /// processes another tuple.
  void processTuple(KeyId K, const TraversalTuple &T);
  void handleCall(KeyId K, const TraversalTuple &T);
  void propagate(KeyId K, ir::LocId M, ir::Ref Q, const Condition &Cond);
  void flagBudgetHit();
  void flagApproximated();

  //===--------------------------------------------------------------===//
  // Transfer function (Algorithm 4)
  //===--------------------------------------------------------------===//

  enum class OutcomeKind : uint8_t { Continue, Resolve, Kill };
  struct Outcome {
    OutcomeKind Kind;
    ir::Ref NewQ;
    Condition NewCond;
  };

  void transfer(ir::LocId M, ir::Ref Q, const Condition &Cond,
                std::vector<Outcome> &Out);
  /// The value the statement at \p M writes, as a continue/resolve/kill
  /// outcome skeleton (used when the written object may be the tracked
  /// one).
  Outcome writtenValue(const ir::Location &Loc, const Condition &Cond);

  /// May pointer \p U point to variable \p V just before \p M?
  /// \p Definite is set when the FSCI set is the singleton {V}.
  bool mayPointTo(ir::VarId U, ir::VarId V, ir::LocId M, bool &Definite);
  /// May pointers \p U and \p S point to the same object before \p M?
  bool mayAliasAt(ir::VarId U, ir::VarId S, ir::LocId M);

  //===--------------------------------------------------------------===//
  // FSCI machinery (Algorithm 3, demand-driven)
  //===--------------------------------------------------------------===//

  /// Memoized FSCI set if already computed; nullptr while unknown (the
  /// constraint-branching fallback applies then). Traversals read the
  /// memo only through here, so fsciPointsTo() never re-enters itself.
  const SparseBitVector *fsciIfKnown(ir::VarId V, ir::LocId Loc) const;

  //===--------------------------------------------------------------===//
  // Per-function modification info (for call splicing)
  //===--------------------------------------------------------------===//

  void buildModifyInfo();
  bool mayModify(ir::FuncId G, ir::Ref Q);

  //===--------------------------------------------------------------===//
  // Skip compression
  //===--------------------------------------------------------------===//

  /// A location matters to backward traversals iff it carries a slice
  /// statement, is a function entry (summary boundary), or is a call
  /// into a function with (transitive) slice statements. Everything
  /// else is a skip the paper's Prog_Q semantics erases.
  bool isInteresting(ir::LocId L);

  /// Nearest interesting locations reachable backwards from \p L
  /// through skip locations only; memoized. Traversals jump across
  /// skip regions in one step, which keeps query cost proportional to
  /// the slice instead of the whole CFG.
  const std::vector<ir::LocId> &interestingPreds(ir::LocId L);

  //===--------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------===//

  const ir::Program &Prog;
  const ir::CallGraph &CG;
  const analysis::SteensgaardAnalysis &Steens;
  const core::Cluster &Clu;
  Options Opts;

  std::vector<uint8_t> InSlice; ///< Location -> in St_P.

  /// The memoized product (see State above). Everything below it is
  /// transient or derived.
  State St;
  uint64_t Version = 0; ///< See version().

  VectorFifo<KeyId> ActiveKeys;
  std::vector<uint8_t> KeyActive;
  /// Keys with fresh results whose waiters still need feeding. An
  /// explicit queue, not recursion: result -> feed -> result chains can
  /// be as long as the whole exploration and would overflow the stack.
  VectorFifo<KeyId> PendingFeeds;
  std::vector<uint8_t> FeedQueued;
  /// processTuple()'s transfer outcomes and transfer()'s dereference
  /// candidates, reused across steps.
  std::vector<Outcome> OutcomeBuf;
  std::vector<ir::VarId> CandidateBuf;

  /// Slice-local modification info per function (only functions with
  /// slice statements appear), and the lazily computed transitive
  /// closure per call-graph SCC component (drives the "can g modify q"
  /// test of Algorithm 5). Lazy computation keeps per-cluster setup
  /// proportional to the slice, not the whole program.
  struct LocalModInfo {
    SparseBitVector Assigned;
    bool Store = false;
  };
  struct TransModInfo {
    SparseBitVector Assigned;
    bool Store = false;
    bool Relevant = false;
    bool Known = false; ///< Computed (or being computed) by transMod().
  };
  std::unordered_map<ir::FuncId, LocalModInfo> LocalMod;
  /// By component; sized once to the component count on first use, so
  /// transMod()'s references stay valid across its own recursion.
  std::vector<TransModInfo> TransMod;
  const TransModInfo &transMod(uint32_t Component);
  /// Partitions that something points to (pointed-to partitions can be
  /// written through a store).
  std::vector<uint8_t> PartitionHasPred;

  /// By location, sized on first use; SkipPredKnown marks the computed
  /// entries (an empty list is a valid answer).
  std::vector<std::vector<ir::LocId>> SkipPredCache;
  std::vector<uint8_t> SkipPredKnown;
  std::vector<uint8_t> InterestingCache; ///< 0 unknown, 1 no, 2 yes.
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_SUMMARYENGINE_H
