//===- tests/test_support.cpp - Support library tests ---------------------===//
//
// Unit tests for src/support: UnionFind, SparseBitVector, SCC,
// Worklist, U64HashSet, VectorFifo, ThreadPool, Statistics, GraphWriter,
// JsonWriter, LatencyHistogram.
//
//===----------------------------------------------------------------------===//

#include "support/ContentHash.h"
#include "support/FlatContainers.h"
#include "support/GraphWriter.h"
#include "support/Json.h"
#include "support/LatencyHistogram.h"
#include "support/Scc.h"
#include "support/SparseBitVector.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"
#include "support/UnionFind.h"
#include "support/Worklist.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace bsaa;

//===--------------------------------------------------------------------===//
// UnionFind
//===--------------------------------------------------------------------===//

TEST(UnionFind, SingletonsAreDistinct) {
  UnionFind UF(5);
  EXPECT_EQ(UF.numSets(), 5u);
  for (uint32_t I = 0; I < 5; ++I)
    for (uint32_t J = I + 1; J < 5; ++J)
      EXPECT_FALSE(UF.connected(I, J));
}

TEST(UnionFind, UniteMerges) {
  UnionFind UF(4);
  UF.unite(0, 1);
  UF.unite(2, 3);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_TRUE(UF.connected(2, 3));
  EXPECT_FALSE(UF.connected(1, 2));
  EXPECT_EQ(UF.numSets(), 2u);
  UF.unite(0, 3);
  EXPECT_TRUE(UF.connected(1, 2));
  EXPECT_EQ(UF.numSets(), 1u);
}

TEST(UnionFind, UniteIsIdempotent) {
  UnionFind UF(3);
  uint32_t R1 = UF.unite(0, 1);
  uint32_t R2 = UF.unite(0, 1);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(UF.numSets(), 2u);
}

TEST(UnionFind, GrowAndMakeSet) {
  UnionFind UF;
  uint32_t A = UF.makeSet();
  uint32_t B = UF.makeSet();
  EXPECT_NE(A, B);
  UF.grow(10);
  EXPECT_EQ(UF.size(), 10u);
  EXPECT_FALSE(UF.connected(A, 9));
  UF.unite(A, 9);
  EXPECT_TRUE(UF.connected(A, 9));
}

TEST(UnionFind, RandomizedTransitivity) {
  // Property: union-find agrees with a naive transitive-closure model.
  std::mt19937 Rng(42);
  UnionFind UF(64);
  std::vector<uint32_t> Model(64);
  for (uint32_t I = 0; I < 64; ++I)
    Model[I] = I;
  auto ModelFind = [&Model](uint32_t X) {
    while (Model[X] != X)
      X = Model[X];
    return X;
  };
  for (int Step = 0; Step < 500; ++Step) {
    uint32_t A = Rng() % 64, B = Rng() % 64;
    UF.unite(A, B);
    Model[ModelFind(A)] = ModelFind(B);
    uint32_t X = Rng() % 64, Y = Rng() % 64;
    EXPECT_EQ(UF.connected(X, Y), ModelFind(X) == ModelFind(Y));
  }
}

//===--------------------------------------------------------------------===//
// SparseBitVector
//===--------------------------------------------------------------------===//

TEST(SparseBitVector, SetTestReset) {
  SparseBitVector V;
  EXPECT_TRUE(V.empty());
  EXPECT_TRUE(V.set(5));
  EXPECT_FALSE(V.set(5));
  EXPECT_TRUE(V.test(5));
  EXPECT_FALSE(V.test(6));
  EXPECT_TRUE(V.set(1000000));
  EXPECT_TRUE(V.test(1000000));
  EXPECT_EQ(V.count(), 2u);
  EXPECT_TRUE(V.reset(5));
  EXPECT_FALSE(V.reset(5));
  EXPECT_FALSE(V.test(5));
  EXPECT_EQ(V.count(), 1u);
}

TEST(SparseBitVector, UnionWith) {
  SparseBitVector A, B;
  A.set(1);
  A.set(100);
  B.set(2);
  B.set(100);
  B.set(5000);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.count(), 4u);
  EXPECT_TRUE(A.test(1));
  EXPECT_TRUE(A.test(2));
  EXPECT_TRUE(A.test(100));
  EXPECT_TRUE(A.test(5000));
  // Second union is a no-op.
  EXPECT_FALSE(A.unionWith(B));
}

TEST(SparseBitVector, IntersectWith) {
  SparseBitVector A, B;
  for (uint32_t I : {1u, 64u, 100u, 128u})
    A.set(I);
  for (uint32_t I : {64u, 100u, 999u})
    B.set(I);
  EXPECT_TRUE(A.intersectWith(B));
  EXPECT_EQ(A.count(), 2u);
  EXPECT_TRUE(A.test(64));
  EXPECT_TRUE(A.test(100));
  EXPECT_FALSE(A.intersectWith(B));
}

TEST(SparseBitVector, IntersectsAndSubset) {
  SparseBitVector A, B, C;
  A.set(10);
  A.set(200);
  B.set(200);
  C.set(11);
  EXPECT_TRUE(A.intersects(B));
  EXPECT_FALSE(A.intersects(C));
  EXPECT_TRUE(B.isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(B));
  SparseBitVector Empty;
  EXPECT_TRUE(Empty.isSubsetOf(A));
  EXPECT_FALSE(A.intersects(Empty));
}

TEST(SparseBitVector, ToVectorIsSorted) {
  SparseBitVector V;
  for (uint32_t I : {500u, 3u, 77u, 64u, 65u})
    V.set(I);
  std::vector<uint32_t> Out = V.toVector();
  std::vector<uint32_t> Expected = {3, 64, 65, 77, 500};
  EXPECT_EQ(Out, Expected);
}

TEST(SparseBitVector, EqualityAndHash) {
  SparseBitVector A, B;
  A.set(9);
  A.set(70);
  B.set(70);
  B.set(9);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.hash(), B.hash());
  B.set(71);
  EXPECT_NE(A, B);
}

TEST(SparseBitVector, WordBoundaryBits) {
  // Bits 63/64/65 straddle the first 64-bit chunk boundary -- the spot
  // where an off-by-one in chunk indexing or masking shows up.
  SparseBitVector V;
  for (uint32_t B : {63u, 64u, 65u}) {
    EXPECT_TRUE(V.set(B)) << "bit " << B;
    EXPECT_FALSE(V.set(B)) << "bit " << B;
    EXPECT_TRUE(V.test(B)) << "bit " << B;
  }
  EXPECT_EQ(V.count(), 3u);
  EXPECT_FALSE(V.test(62));
  EXPECT_FALSE(V.test(66));
  std::vector<uint32_t> Expected = {63, 64, 65};
  EXPECT_EQ(V.toVector(), Expected);
  EXPECT_TRUE(V.reset(64));
  EXPECT_TRUE(V.test(63));
  EXPECT_FALSE(V.test(64));
  EXPECT_TRUE(V.test(65));

  // Union / intersection across the same boundary.
  SparseBitVector A, B;
  A.set(63);
  B.set(64);
  EXPECT_FALSE(A.intersects(B));
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(63));
  EXPECT_TRUE(A.test(64));
  SparseBitVector C;
  C.set(64);
  C.set(127);
  C.set(128);
  EXPECT_TRUE(A.intersectWith(C));
  EXPECT_EQ(A.toVector(), std::vector<uint32_t>{64});
}

TEST(SparseBitVector, EmptyOperandIdentities) {
  SparseBitVector A, Empty;
  A.set(5);
  A.set(64);
  // x U {} = x (unchanged), x & {} = {} (changed iff x nonempty).
  EXPECT_FALSE(A.unionWith(Empty));
  EXPECT_EQ(A.count(), 2u);
  SparseBitVector B = A;
  EXPECT_TRUE(B.intersectWith(Empty));
  EXPECT_TRUE(B.empty());
  EXPECT_FALSE(B.intersectWith(Empty)); // Already empty: no change.
  // {} U x = x.
  SparseBitVector D;
  EXPECT_TRUE(D.unionWith(A));
  EXPECT_EQ(D, A);
  EXPECT_FALSE(Empty.intersects(A));
  EXPECT_FALSE(A.intersects(SparseBitVector()));
  EXPECT_TRUE(Empty.isSubsetOf(Empty));
  EXPECT_FALSE(A.isSubsetOf(Empty));
}

TEST(SparseBitVector, IterationAfterClear) {
  SparseBitVector V;
  for (uint32_t B : {0u, 63u, 64u, 700u})
    V.set(B);
  V.clear();
  EXPECT_TRUE(V.empty());
  EXPECT_EQ(V.count(), 0u);
  EXPECT_TRUE(V.toVector().empty());
  uint32_t Visited = 0;
  V.forEach([&](uint32_t) { ++Visited; });
  EXPECT_EQ(Visited, 0u);
  // The vector is fully reusable after clear().
  EXPECT_TRUE(V.set(64));
  EXPECT_EQ(V.count(), 1u);
  EXPECT_EQ(V.toVector(), std::vector<uint32_t>{64});
}

TEST(SparseBitVector, RandomizedAgainstStdSet) {
  std::mt19937 Rng(7);
  SparseBitVector V;
  std::set<uint32_t> Model;
  for (int Step = 0; Step < 2000; ++Step) {
    uint32_t X = Rng() % 1000;
    if (Rng() % 3 == 0) {
      EXPECT_EQ(V.reset(X), Model.erase(X) > 0);
    } else {
      EXPECT_EQ(V.set(X), Model.insert(X).second);
    }
  }
  std::vector<uint32_t> Got = V.toVector();
  std::vector<uint32_t> Want(Model.begin(), Model.end());
  EXPECT_EQ(Got, Want);
}

//===--------------------------------------------------------------------===//
// SplitMix64
//===--------------------------------------------------------------------===//

TEST(SplitMix64, MatchesReferenceSequence) {
  // Reference values of Vigna's splitmix64 (the published test vector
  // for seed 0). The program generator's cross-platform determinism
  // rests on this exact sequence.
  support::SplitMix64 R0(0);
  EXPECT_EQ(R0.next(), 0xe220a8397b1dcdafull);
  EXPECT_EQ(R0.next(), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(R0.next(), 0x06c45d188009454full);
  support::SplitMix64 R42(42);
  EXPECT_EQ(R42.next(), 0xbdd732262feb6e95ull);
}

TEST(SplitMix64, BelowIsBoundedAndTotal) {
  support::SplitMix64 R(123);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.below(10), 10u);
  // Degenerate bound: below(0) must not divide by zero.
  EXPECT_EQ(R.below(0), 0u);
  // Same seed, same draws.
  support::SplitMix64 A(9), B(9);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

//===--------------------------------------------------------------------===//
// SCC
//===--------------------------------------------------------------------===//

namespace {

/// Helper: builds the adjacency callback from an edge list.
SccResult sccOf(uint32_t N,
                const std::vector<std::pair<uint32_t, uint32_t>> &Edges) {
  std::vector<std::vector<uint32_t>> Adj(N);
  for (auto [F, T] : Edges)
    Adj[F].push_back(T);
  return computeSccs(N, [&Adj](uint32_t U,
                               const std::function<void(uint32_t)> &V) {
    for (uint32_t S : Adj[U])
      V(S);
  });
}

} // namespace

TEST(Scc, SingleNodes) {
  SccResult R = sccOf(3, {});
  EXPECT_EQ(R.numComponents(), 3u);
  for (uint32_t I = 0; I < 3; ++I)
    EXPECT_FALSE(R.inNontrivialScc(I));
}

TEST(Scc, SimpleCycle) {
  SccResult R = sccOf(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_EQ(R.numComponents(), 1u);
  EXPECT_TRUE(R.inNontrivialScc(0));
}

TEST(Scc, ReverseTopologicalNumbering) {
  // 0 -> 1 -> 2 (a chain): callee-first means Component[2] <
  // Component[1] < Component[0].
  SccResult R = sccOf(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(R.numComponents(), 3u);
  EXPECT_LT(R.Component[2], R.Component[1]);
  EXPECT_LT(R.Component[1], R.Component[0]);
}

TEST(Scc, TwoCyclesAndBridge) {
  // {0,1} -> {2,3}; 4 isolated.
  SccResult R =
      sccOf(5, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 2}});
  EXPECT_EQ(R.numComponents(), 3u);
  EXPECT_EQ(R.Component[0], R.Component[1]);
  EXPECT_EQ(R.Component[2], R.Component[3]);
  EXPECT_NE(R.Component[0], R.Component[2]);
  // Edge 1 -> 2 means component(1) > component(2).
  EXPECT_GT(R.Component[1], R.Component[2]);
}

TEST(Scc, DeepChainDoesNotOverflow) {
  // 100k-node chain: would blow the stack with a recursive Tarjan.
  uint32_t N = 100000;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  for (uint32_t I = 0; I + 1 < N; ++I)
    Edges.push_back({I, I + 1});
  SccResult R = sccOf(N, Edges);
  EXPECT_EQ(R.numComponents(), N);
}

TEST(Scc, SelfLoopIsItsOwnComponent) {
  SccResult R = sccOf(2, {{0, 0}, {0, 1}});
  EXPECT_EQ(R.numComponents(), 2u);
  // Self-loops do not make the SCC "nontrivial" by member count.
  EXPECT_FALSE(R.inNontrivialScc(0));
}

//===--------------------------------------------------------------------===//
// Worklist
//===--------------------------------------------------------------------===//

TEST(Worklist, FifoAndDedup) {
  Worklist W(10);
  EXPECT_TRUE(W.push(3));
  EXPECT_TRUE(W.push(5));
  EXPECT_FALSE(W.push(3)); // Already queued.
  EXPECT_EQ(W.size(), 2u);
  EXPECT_EQ(W.pop(), 3u);
  EXPECT_TRUE(W.push(3)); // Re-queue after pop is fine.
  EXPECT_EQ(W.pop(), 5u);
  EXPECT_EQ(W.pop(), 3u);
  EXPECT_TRUE(W.empty());
}

TEST(Worklist, AutoGrow) {
  Worklist W;
  EXPECT_TRUE(W.push(1000));
  EXPECT_EQ(W.pop(), 1000u);
}

//===--------------------------------------------------------------------===//
// U64HashSet / VectorFifo
//===--------------------------------------------------------------------===//

namespace {

std::multiset<uint64_t> elements(const U64HashSet &S) {
  std::multiset<uint64_t> Out;
  S.forEach([&](uint64_t V) { Out.insert(V); });
  return Out;
}

} // namespace

TEST(U64HashSet, ZeroIsAnOrdinaryElement) {
  U64HashSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.insert(0));
  EXPECT_FALSE(S.insert(0));
  EXPECT_EQ(S.size(), 1u);
  EXPECT_FALSE(S.empty());
  EXPECT_EQ(S.capacity(), 0u); // Zero takes no slot.
  EXPECT_TRUE(S.insert(1));
  EXPECT_FALSE(S.insert(0));
  EXPECT_EQ(S.size(), 2u);
  EXPECT_EQ(elements(S), (std::multiset<uint64_t>{0, 1}));
}

TEST(U64HashSet, DuplicatesAndGrowthAgainstStdSet) {
  // Values with shared low bits (as XOR-composed hashes have) and a
  // range wide enough to cross the 3/4-load threshold many times.
  std::mt19937_64 Rng(7);
  U64HashSet S;
  std::set<uint64_t> Ref;
  for (int I = 0; I < 5000; ++I) {
    uint64_t V = (Rng() % 1500) << (I % 3 == 0 ? 32 : 0);
    EXPECT_EQ(S.insert(V), Ref.insert(V).second) << "value " << V;
    EXPECT_EQ(S.size(), Ref.size());
  }
  std::multiset<uint64_t> Want(Ref.begin(), Ref.end());
  EXPECT_EQ(elements(S), Want);

  U64HashSet Copy = S;
  EXPECT_EQ(elements(Copy), Want);
  for (uint64_t V : Ref)
    EXPECT_FALSE(Copy.insert(V)) << V;
}

TEST(U64HashSet, GrowsAtThreeQuartersLoad) {
  U64HashSet S;
  EXPECT_EQ(S.capacity(), 0u); // No allocation before the first insert.
  for (uint64_t V = 1; V <= 6; ++V)
    S.insert(V);
  EXPECT_EQ(S.capacity(), 8u); // 6 of 8 slots: exactly 3/4.
  S.insert(7);
  EXPECT_EQ(S.capacity(), 16u);
  EXPECT_EQ(elements(S), (std::multiset<uint64_t>{1, 2, 3, 4, 5, 6, 7}));
  U64HashSet R;
  R.reserve(12);
  EXPECT_EQ(R.capacity(), 16u);
  R.reserve(13);
  EXPECT_EQ(R.capacity(), 32u);
}

TEST(U64HashSet, ForEachVisitsEachElementOnce) {
  U64HashSet S;
  std::multiset<uint64_t> Want;
  for (uint64_t V : {0ull, 1ull, 8ull, 16ull, ~0ull, 0x9e3779b97f4a7c15ull,
                     1ull << 63}) {
    S.insert(V);
    S.insert(V);
    Want.insert(V);
  }
  EXPECT_EQ(elements(S), Want);
}

TEST(U64HashSet, ContainsMatchesInsert) {
  U64HashSet S;
  // An empty set holds nothing, zero included, and allocates nothing.
  EXPECT_FALSE(S.contains(0));
  EXPECT_FALSE(S.contains(1));
  EXPECT_FALSE(S.contains(~0ull));
  EXPECT_EQ(S.capacity(), 0u);
  // Zero is tracked out of band: it is found without any slot.
  S.insert(0);
  EXPECT_TRUE(S.contains(0));
  EXPECT_FALSE(S.contains(1));
  EXPECT_EQ(S.capacity(), 0u);

  std::mt19937_64 Rng(5);
  std::set<uint64_t> Ref{0};
  for (int I = 0; I < 3000; ++I) {
    // Shared low bits force collisions and long probe runs.
    uint64_t V = (Rng() % 1000) << (I % 2 ? 40 : 0);
    EXPECT_EQ(S.contains(V), Ref.count(V) == 1) << "value " << V;
    EXPECT_EQ(S.insert(V), Ref.insert(V).second);
    EXPECT_TRUE(S.contains(V));
  }
  EXPECT_EQ(S.size(), Ref.size());
}

TEST(U64FlatMap, FindAndInsertAgainstStdMap) {
  U64FlatMap<std::string> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.find(0), nullptr); // Empty: no slot is probed.
  EXPECT_EQ(M.capacity(), 0u);

  std::mt19937_64 Rng(9);
  std::map<uint64_t, std::string> Ref;
  for (int I = 0; I < 4000; ++I) {
    // Packed (high, low) pairs as the FSCI memo keys them; zero and
    // keys sharing low bits included.
    uint64_t K = ((Rng() % 40) << 32) | (Rng() % 60);
    const std::string *Got = M.find(K);
    auto It = Ref.find(K);
    ASSERT_EQ(Got != nullptr, It != Ref.end()) << "key " << K;
    if (Got) {
      EXPECT_EQ(*Got, It->second);
    }
    std::string V = std::to_string(I);
    M[K] = V;
    Ref[K] = V;
    ASSERT_EQ(M.size(), Ref.size());
  }
  std::map<uint64_t, std::string> Seen;
  M.forEach([&](uint64_t K, const std::string &V) {
    EXPECT_TRUE(Seen.emplace(K, V).second) << "key " << K << " twice";
  });
  EXPECT_EQ(Seen, Ref);

  U64FlatMap<std::string> Copy = M;
  for (const auto &[K, V] : Ref) {
    ASSERT_NE(Copy.find(K), nullptr);
    EXPECT_EQ(*Copy.find(K), V);
  }
}

TEST(U64FlatMap, GrowsAtThreeQuartersLoad) {
  U64FlatMap<int> M;
  for (uint64_t K = 0; K < 6; ++K)
    M[K] = static_cast<int>(K);
  EXPECT_EQ(M.capacity(), 8u); // 6 of 8 slots: exactly 3/4.
  M[6] = 6;
  EXPECT_EQ(M.capacity(), 16u);
  EXPECT_EQ(M.slotBytes(), M.capacity() * 16); // Key + int, padded.
  for (uint64_t K = 0; K < 7; ++K)
    EXPECT_EQ(*M.find(K), static_cast<int>(K));
  // operator[] on a present key neither inserts nor resets.
  ++M[3];
  EXPECT_EQ(*M.find(3), 4);
  EXPECT_EQ(M.size(), 7u);
  U64FlatMap<int> R;
  R.reserve(12);
  EXPECT_EQ(R.capacity(), 16u);
  R.reserve(13);
  EXPECT_EQ(R.capacity(), 32u);
}

TEST(U64FlatMap, EqualityIgnoresCapacityAndInsertionOrder) {
  U64FlatMap<int> A, B;
  EXPECT_TRUE(A == B);
  for (uint64_t K = 0; K < 20; ++K)
    A[K << 32] = static_cast<int>(K);
  B.reserve(200); // Another slot count, so another probe layout.
  for (uint64_t K = 20; K-- > 0;)
    B[K << 32] = static_cast<int>(K);
  ASSERT_NE(A.capacity(), B.capacity());
  EXPECT_TRUE(A == B);
  EXPECT_TRUE(B == A);

  // A differing value, an extra key, or the same count of other keys
  // each break it.
  B[7ull << 32] = -1;
  EXPECT_FALSE(A == B);
  B[7ull << 32] = 7;
  EXPECT_TRUE(A == B);
  U64FlatMap<int> More = A;
  More[99] = 0;
  EXPECT_FALSE(A == More);
  EXPECT_FALSE(More == A);
  U64FlatMap<int> Other;
  for (uint64_t K = 0; K < 20; ++K)
    Other[(K << 32) | 1] = static_cast<int>(K);
  EXPECT_FALSE(A == Other);
}

TEST(VectorFifo, InterleavedPushPopKeepsOrder) {
  static_assert(std::is_nothrow_move_constructible_v<VectorFifo<std::string>>);
  VectorFifo<uint32_t> Q;
  std::deque<uint32_t> Ref;
  std::mt19937_64 Rng(11);
  uint32_t Next = 0;
  for (int I = 0; I < 20000; ++I) {
    // Bursts of pushes and pops, biased to grow then drain, so the queue
    // both empties (buffer rewinds) and runs long (prefix compaction).
    bool Push = Ref.empty() || Rng() % 100 < (I % 4000 < 2000 ? 60 : 40);
    if (Push) {
      Q.push_back(Next);
      Ref.push_back(Next++);
    } else {
      ASSERT_EQ(Q.front(), Ref.front()) << "step " << I;
      Q.pop_front();
      Ref.pop_front();
    }
    ASSERT_EQ(Q.empty(), Ref.empty());
  }
  while (!Ref.empty()) {
    ASSERT_EQ(Q.front(), Ref.front());
    Q.pop_front();
    Ref.pop_front();
  }
  EXPECT_TRUE(Q.empty());
}

//===--------------------------------------------------------------------===//
// ThreadPool
//===--------------------------------------------------------------------===//

TEST(ThreadPool, RunsAllJobs) {
  ThreadPool Pool(4);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.waitAll();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPool, WaitAllCanBeCalledRepeatedly) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  Pool.waitAll(); // No jobs yet.
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.waitAll();
  EXPECT_EQ(Count.load(), 1);
  Pool.submit([&Count] { Count.fetch_add(1); });
  Pool.waitAll();
  EXPECT_EQ(Count.load(), 2);
}

//===--------------------------------------------------------------------===//
// Statistics
//===--------------------------------------------------------------------===//

TEST(Statistics, AddAndGet) {
  Statistics S;
  S.add("x");
  S.add("x", 4);
  S.set("y", 7);
  EXPECT_EQ(S.get("x"), 5u);
  EXPECT_EQ(S.get("y"), 7u);
  EXPECT_EQ(S.get("absent"), 0u);
  S.clear();
  EXPECT_EQ(S.get("x"), 0u);
}

TEST(Statistics, SnapshotIsSorted) {
  Statistics S;
  S.add("b");
  S.add("a");
  auto Snap = S.snapshot();
  ASSERT_EQ(Snap.size(), 2u);
  EXPECT_EQ(Snap[0].first, "a");
  EXPECT_EQ(Snap[1].first, "b");
}

//===--------------------------------------------------------------------===//
// GraphWriter
//===--------------------------------------------------------------------===//

TEST(GraphWriter, EmitsValidDot) {
  GraphWriter G("test");
  G.addNode("n1", "{p, q}");
  G.addNode("n2", "{a \"quoted\"}");
  G.addEdge("n1", "n2", "pts");
  std::string Dot = G.str();
  EXPECT_NE(Dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(Dot.find("\"n1\" -> \"n2\""), std::string::npos);
  EXPECT_NE(Dot.find("\\\"quoted\\\""), std::string::npos);
}

//===--------------------------------------------------------------------===//
// JsonWriter
//===--------------------------------------------------------------------===//

TEST(JsonWriter, EscapesQuoteBackslashAndControlBytes) {
  support::JsonWriter W;
  W.value(std::string("q\"b\\n\nt\tc\x01\x1f\x7f") + '\0' + "end");
  EXPECT_EQ(W.str(), "\"q\\\"b\\\\n\\nt\\tc\\u0001\\u001f\x7f\\u0000end\"");
}

TEST(JsonWriter, EscapesKeys) {
  support::JsonWriter W;
  W.beginObject().field("a\"b", 1).endObject();
  EXPECT_EQ(W.str(), "{\"a\\\"b\": 1}");
}

TEST(JsonWriter, CommasInNestedAndEmptyContainers) {
  support::JsonWriter W;
  W.beginObject()
      .key("empty_obj").beginObject().endObject()
      .key("empty_arr").beginArray().endArray()
      .key("nested").beginArray()
      .beginObject().field("k", 1).key("l").beginArray().value(2).value(3)
      .endArray().endObject()
      .beginArray().endArray()
      .value("s")
      .endArray()
      .field("last", true)
      .endObject();
  EXPECT_EQ(W.str(), "{\"empty_obj\": {}, \"empty_arr\": [], \"nested\": "
                     "[{\"k\": 1, \"l\": [2, 3]}, [], \"s\"], \"last\": true}");
}

TEST(JsonWriter, NonFiniteAndAbsentRenderNull) {
  support::JsonWriter W;
  W.beginArray()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .value(std::optional<double>())
      .value(std::optional<double>(0.5))
      .null()
      .value(false)
      .endArray();
  EXPECT_EQ(W.str(), "[null, null, null, null, 0.5, null, false]");
}

TEST(JsonWriter, IntegersPrintExactly) {
  support::JsonWriter W;
  W.beginArray()
      .value(UINT64_MAX)
      .value(INT64_MIN)
      .value(int64_t(-42))
      .value(uint32_t(7))
      .value(size_t(0))
      .endArray();
  EXPECT_EQ(W.str(), "[18446744073709551615, -9223372036854775808, -42, 7, 0]");
}

TEST(JsonWriter, DoublesRoundTripThroughStrtod) {
  for (double D : {0.1, 1.0 / 3.0, 2.5e-300, 1.7976931348623157e308, -123.456,
                   0.0, 1e21, 4.9e-324}) {
    support::JsonWriter W;
    W.value(D);
    EXPECT_EQ(std::strtod(W.str().c_str(), nullptr), D) << W.str();
  }
}

//===--------------------------------------------------------------------===//
// LatencyHistogram
//===--------------------------------------------------------------------===//

TEST(LatencyHistogram, SmallValuesGetExactBuckets) {
  // Values below SubBuckets occupy one bucket each, bit-exact.
  for (uint64_t V = 0; V < support::LatencyHistogram::SubBuckets; ++V) {
    EXPECT_EQ(support::LatencyHistogram::bucketIndex(V), V);
    EXPECT_EQ(support::LatencyHistogram::bucketUpperBound(
                  static_cast<uint32_t>(V)),
              V);
  }
}

TEST(LatencyHistogram, BucketLayoutIsContinuousAcrossOctaves) {
  // The degenerate region [0, 16) hands off to octave 4 with no gap,
  // and every octave boundary starts a fresh sub-slot 0.
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(15), 15u);
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(16), 16u);
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(31), 31u);
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(32), 32u);
  // Octave 5 slots span 2 values: bucket 32 is [32, 33].
  EXPECT_EQ(support::LatencyHistogram::bucketUpperBound(32), 33u);
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(33), 32u);
  EXPECT_EQ(support::LatencyHistogram::bucketIndex(34), 33u);
}

TEST(LatencyHistogram, UpperBoundNeverUnderstatesAndErrorIsBounded) {
  // For every sampled value: its bucket's upper bound is >= the value
  // (quantiles never understate) and within the 1/SubBuckets relative
  // resolution the log-linear layout promises.
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 10000; ++I) {
    uint64_t V = Rng() >> (Rng() % 64);
    uint32_t Idx = support::LatencyHistogram::bucketIndex(V);
    uint64_t Ub = support::LatencyHistogram::bucketUpperBound(Idx);
    ASSERT_GE(Ub, V) << V;
    ASSERT_LE(Ub - V, V / 8 + 1) << V; // Slot width <= value/16 + slack.
    // The bound is tight: it lies in the same bucket as the value.
    ASSERT_EQ(support::LatencyHistogram::bucketIndex(Ub), Idx) << V;
  }
  // The extreme value round-trips exactly (top slot wraps to max).
  uint64_t Max = UINT64_MAX;
  EXPECT_EQ(support::LatencyHistogram::bucketUpperBound(
                support::LatencyHistogram::bucketIndex(Max)),
            Max);
}

TEST(LatencyHistogram, EmptySnapshotReportsNoQuantiles) {
  // An SLO gate comparing "p99 <= threshold" must not pass vacuously on
  // a histogram that never saw a sample: the explicit interface reports
  // absence, and only the legacy shim maps it to 0.
  support::LatencyHistogram H;
  support::LatencyHistogram::Snapshot S = H.snapshot();
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.quantileNanosIfAny(0.5).has_value());
  EXPECT_FALSE(S.quantileNanosIfAny(0.99).has_value());
  EXPECT_FALSE(S.quantileSecondsIfAny(0.99).has_value());
  EXPECT_EQ(S.quantileNanos(0.99), 0u); // Legacy shim: value_or(0).
  H.record(5);
  S = H.snapshot();
  EXPECT_FALSE(S.empty());
  ASSERT_TRUE(S.quantileNanosIfAny(0.99).has_value());
  EXPECT_EQ(*S.quantileNanosIfAny(0.99), 5u);
}

TEST(LatencyHistogram, QuantilesOverExactBucketsAreExact) {
  support::LatencyHistogram H;
  EXPECT_EQ(H.snapshot().quantileNanos(0.99), 0u); // Empty: 0 by contract.
  for (uint64_t V = 0; V < 16; ++V)
    H.record(V);
  support::LatencyHistogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Total, 16u);
  // Rank = ceil(q * 16): q=0 clamps to the first sample.
  EXPECT_EQ(S.quantileNanos(0.0), 0u);
  EXPECT_EQ(S.quantileNanos(0.5), 7u);   // 8th smallest of 0..15.
  EXPECT_EQ(S.quantileNanos(1.0), 15u);
  EXPECT_EQ(S.quantileNanos(2.0), 15u);  // Clamped.
}

TEST(LatencyHistogram, MergeAddsCounts) {
  support::LatencyHistogram A, B;
  for (int I = 0; I < 10; ++I)
    A.record(1);
  for (int I = 0; I < 30; ++I)
    B.record(9);
  support::LatencyHistogram::Snapshot S = A.snapshot();
  S.merge(B.snapshot());
  EXPECT_EQ(S.Total, 40u);
  EXPECT_EQ(S.Counts[1], 10u);
  EXPECT_EQ(S.Counts[9], 30u);
  EXPECT_EQ(S.quantileNanos(0.25), 1u);
  EXPECT_EQ(S.quantileNanos(0.5), 9u);
}

TEST(LatencyHistogram, ConcurrentRecordersNeverLoseCounts) {
  support::LatencyHistogram H;
  constexpr int NumThreads = 8;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&H] {
      for (int I = 0; I < PerThread; ++I)
        H.record(static_cast<uint64_t>(I % 16));
    });
  for (std::thread &T : Threads)
    T.join();
  support::LatencyHistogram::Snapshot S = H.snapshot();
  EXPECT_EQ(S.Total, static_cast<uint64_t>(NumThreads) * PerThread);
  for (uint32_t V = 0; V < 16; ++V)
    EXPECT_EQ(S.Counts[V],
              static_cast<uint64_t>(NumThreads) * PerThread / 16)
        << "bucket " << V;
}

TEST(LatencyHistogram, CountsFromExitedThreadsSurvive) {
  support::LatencyHistogram H;
  std::thread([&H] { H.record(5); }).join();
  std::thread([&H] { H.record(5); }).join();
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.snapshot().Counts[5], 2u);
}

TEST(LatencyHistogram, DistinctInstancesNeverShareShards) {
  // The thread-local shard cache is keyed by a never-reused instance
  // id: a second histogram allocated after the first dies must not
  // inherit its counts through a stale cache entry.
  auto H1 = std::make_unique<support::LatencyHistogram>();
  H1->record(3);
  EXPECT_EQ(H1->count(), 1u);
  H1.reset();
  auto H2 = std::make_unique<support::LatencyHistogram>();
  EXPECT_EQ(H2->count(), 0u);
  H2->record(4);
  EXPECT_EQ(H2->count(), 1u);
  EXPECT_EQ(H2->snapshot().Counts[3], 0u);
}
