//===- tests/test_andersen_opt.cpp - Andersen solver pipeline tests -------===//
//
// Regression tests for the two cycle-collapse bugs (merged
// representatives not re-queued; copy lists spliced without re-dedup),
// unit tests for the offline HVN preparation and the diff-union
// primitive, and the differential oracle pinning every solver
// configuration (HVN x difference propagation x cycle elimination,
// including the aggressive collapse-every-pop schedule) byte-identical
// to the naive full-scan solver, and the slice solves (runOn) against
// a reference that knows nothing of the solver's dense numbering.
//
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/AndersenPrepare.h"
#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/RelevantStatements.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "support/SparseBitVector.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace bsaa;
using namespace bsaa::analysis;

namespace {

std::unique_ptr<ir::Program> compileOk(std::string_view Src) {
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

ir::VarId varOf(const ir::Program &P, const std::string &Name) {
  ir::VarId V = P.findVariable(Name);
  EXPECT_NE(V, ir::InvalidVar) << "no variable " << Name;
  return V;
}

AndersenAnalysis::Options naiveOptions() {
  AndersenAnalysis::Options O;
  O.CycleElimination = false;
  O.EnableHVN = false;
  O.EnableDiffProp = false;
  return O;
}

} // namespace

//===--------------------------------------------------------------------===//
// Collapse regression 1: merged representatives must be re-queued
//===--------------------------------------------------------------------===//

// The program is built so that the load `q = *a` drains its pending
// delta before cycle elimination merges b (whose set holds p2) into
// a's representative. The collapse union bypasses the delta
// bookkeeping, so if the surviving representative is not re-queued
// with its full set marked pending, the load never sees p2 and q
// silently misses o2 (or, with the opposite union-by-rank winner, o1).
// The naive full-scan solver self-heals here -- any later pop rescans
// the whole set -- which is exactly why the regression must run under
// difference propagation with collapsing at every pop.
TEST(AndersenCollapse, MergedRepIsRequeued) {
  auto P = compileOk(R"(
    void main(void) {
      int o1; int o2;
      int *p1; int *p2;
      int **a; int **b;
      int *q;
      1a: a = &p1;
      2a: q = *a;
      3a: b = &p2;
      4a: a = b;
      5a: b = a;
      6a: p1 = &o1;
      7a: p2 = &o2;
    }
  )");
  AndersenAnalysis::Options Opts;
  Opts.CycleElimination = true;
  Opts.CollapsePeriod = 1;
  Opts.EnableHVN = false; // HVN would merge the a/b cycle offline.
  Opts.EnableDiffProp = true;
  AndersenAnalysis A(*P, Opts);
  A.run();

  ir::VarId Q = varOf(*P, "main::q");
  ir::VarId O1 = varOf(*P, "main::o1"), O2 = varOf(*P, "main::o2");
  EXPECT_TRUE(A.pointsTo(Q).test(O1))
      << "q = *a lost o1 across the a/b collapse";
  EXPECT_TRUE(A.pointsTo(Q).test(O2))
      << "q = *a lost o2 across the a/b collapse";
  EXPECT_GT(A.collapsedNodes(), 0u) << "test did not exercise a collapse";

  // And the merged solve agrees with the naive reference everywhere.
  AndersenAnalysis Ref(*P, naiveOptions());
  Ref.run();
  for (ir::VarId V = 0; V < P->numVars(); ++V)
    EXPECT_TRUE(A.pointsTo(V) == Ref.pointsTo(V))
        << "points-to mismatch at " << P->var(V).Name;
}

//===--------------------------------------------------------------------===//
// Collapse regression 2: copy lists are re-deduplicated on merge
//===--------------------------------------------------------------------===//

// a, b, c form one copy SCC and each also copies into t: after the
// collapse the survivor must hold a single edge to t (splicing the
// losers' lists raw would store it three times) and no edge that
// resolves back to the survivor itself. The dedup set must also learn
// the adopted targets, or later complex-constraint processing would
// append them yet again.
TEST(AndersenCollapse, MergedCopyListsAreDeduplicated) {
  auto P = compileOk(R"(
    void main(void) {
      int o;
      int *a; int *b; int *c; int *t;
      1a: a = &o;
      2a: b = a;
      3a: c = b;
      4a: a = c;
      5a: t = a;
      6a: t = b;
      7a: t = c;
    }
  )");
  for (bool Diff : {false, true}) {
    AndersenAnalysis::Options Opts;
    Opts.CycleElimination = true;
    Opts.CollapsePeriod = 1;
    Opts.EnableHVN = false;
    Opts.EnableDiffProp = Diff;
    AndersenAnalysis A(*P, Opts);
    A.run();

    EXPECT_GT(A.collapsedNodes(), 0u) << "test did not exercise a collapse";
    EXPECT_EQ(A.duplicateCopyEdges(), 0u)
        << "collapse spliced duplicate copy edges (diff=" << Diff << ")";
    ir::VarId T = varOf(*P, "main::t"), O = varOf(*P, "main::o");
    EXPECT_TRUE(A.pointsTo(T).test(O));
  }
}

// Repeated collapses across a larger cycle family must keep the edge
// store dedup-clean too, and must not inflate the total edge count.
TEST(AndersenCollapse, RepeatedCollapsesKeepEdgeStoreClean) {
  // Two cycles joined by a bridge, everything feeding t: collapses
  // happen in stages as edges resolve to merged representatives.
  auto P = compileOk(R"(
    void main(void) {
      int o;
      int *a; int *b; int *c; int *d; int *e; int *t;
      1a: a = &o;
      2a: b = a;
      3a: a = b;
      4a: c = b;
      5a: d = c;
      6a: c = d;
      7a: e = d;
      8a: b = e;
      9a: t = a;
      10a: t = c;
      11a: t = e;
    }
  )");
  AndersenAnalysis::Options Opts;
  Opts.CycleElimination = true;
  Opts.CollapsePeriod = 1;
  Opts.EnableHVN = false;
  Opts.EnableDiffProp = true;
  AndersenAnalysis A(*P, Opts);
  A.run();

  EXPECT_GT(A.collapsedNodes(), 0u);
  EXPECT_EQ(A.duplicateCopyEdges(), 0u);
  // The whole a..e family is one equivalence class pointing at {o};
  // its survivor needs at most an edge to t (plus stale entries that
  // resolve to merged members, which the dedup invariant bounds by the
  // pre-collapse edge count of 8).
  EXPECT_LE(A.copyEdgeCount(), 8u);
  ir::VarId T = varOf(*P, "main::t"), O = varOf(*P, "main::o");
  EXPECT_TRUE(A.pointsTo(T).test(O));
}

//===--------------------------------------------------------------------===//
// Offline HVN preparation
//===--------------------------------------------------------------------===//

TEST(AndersenPrepare, CopyChainsAndSccsCollapseOffline) {
  auto P = compileOk(R"(
    void main(void) {
      int o;
      int *p; int *q; int *r; int *s;
      1a: p = &o;
      2a: q = p;
      3a: r = q;
      4a: q = r;
      5a: s = p;
    }
  )");
  AndersenAnalysis A(*P); // Defaults: HVN + diff-prop on.
  A.run();
  const PrepareStats &S = A.prepareStats();
  // q/r form an offline copy SCC; q, r and s all carry exactly
  // {ADR(o)} = pts(p)'s label, so hash value numbering merges them
  // with p as well.
  EXPECT_GT(S.CopySccVars, 0u);
  EXPECT_GT(S.LabelMergedVars, 0u);
  EXPECT_GE(S.Collapsed, 3u);

  ir::VarId Pp = varOf(*P, "main::p"), Q = varOf(*P, "main::q"),
            R = varOf(*P, "main::r"), Ss = varOf(*P, "main::s"),
            O = varOf(*P, "main::o");
  for (ir::VarId V : {Pp, Q, R, Ss}) {
    EXPECT_TRUE(A.pointsTo(V).test(O));
    EXPECT_EQ(A.pointsTo(V).count(), 1u);
  }
}

TEST(AndersenPrepare, IndirectNodesAreNotMerged) {
  // x and y both load through p, but p's set is populated via a store,
  // so REF(p) makes both loads' sources indirect: HVN must not assume
  // x == y offline. (They do end up equal here, but only the solver
  // may conclude that.)
  auto P = compileOk(R"(
    void main(void) {
      int o;
      int *a;
      int **p;
      int *x; int *y;
      1a: p = &a;
      2a: a = &o;
      3a: x = *p;
      4a: y = *p;
      5a: *p = x;
    }
  )");
  AndersenAnalysis A(*P);
  A.run();
  AndersenAnalysis Ref(*P, naiveOptions());
  Ref.run();
  for (ir::VarId V = 0; V < P->numVars(); ++V)
    EXPECT_TRUE(A.pointsTo(V) == Ref.pointsTo(V))
        << "points-to mismatch at " << P->var(V).Name;
  EXPECT_GT(A.prepareStats().RefNodes, 0u);
}

//===--------------------------------------------------------------------===//
// SparseBitVector diff-union primitive
//===--------------------------------------------------------------------===//

TEST(SparseBitVectorDiff, UnionRecordsExactlyTheNewBits) {
  SparseBitVector A, B, New;
  A.set(1);
  A.set(100);
  A.set(700);
  B.set(100); // Already present: must not be recorded.
  B.set(101); // Same chunk as 100, new bit.
  B.set(700);
  B.set(5000); // New chunk.
  EXPECT_TRUE(A.unionWith(B, New));
  EXPECT_EQ(New.toVector(), (std::vector<uint32_t>{101, 5000}));
  EXPECT_EQ(A.toVector(), (std::vector<uint32_t>{1, 100, 101, 700, 5000}));

  // Accumulation: a second union folds into the same delta set.
  SparseBitVector C;
  C.set(2);
  C.set(101);
  EXPECT_TRUE(A.unionWith(C, New));
  EXPECT_EQ(New.toVector(), (std::vector<uint32_t>{2, 101, 5000}));

  // No-change unions leave the delta untouched.
  SparseBitVector D;
  D.set(700);
  D.set(5000);
  EXPECT_FALSE(A.unionWith(D, New));
  EXPECT_EQ(New.toVector(), (std::vector<uint32_t>{2, 101, 5000}));
}

//===--------------------------------------------------------------------===//
// Differential oracle: every configuration is byte-identical to naive
//===--------------------------------------------------------------------===//

namespace {

std::unique_ptr<ir::Program> generate(uint64_t Seed) {
  workload::GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumFunctions = 6;
  Cfg.StmtsPerFunction = 10;
  Cfg.Communities = 3;
  Cfg.LocalsPerFunction = 3;
  Cfg.RecursionPercent = 10;
  // Copy-heavy mix so offline SCCs and online cycles actually form.
  Cfg.WeightCopy = 40;
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(workload::generateProgram(Cfg), Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

} // namespace

class AndersenSolverOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AndersenSolverOracle, AllConfigurationsMatchNaive) {
  const uint64_t SeedBase = GetParam() * 10;
  for (uint64_t Seed = SeedBase; Seed < SeedBase + 10; ++Seed) {
    auto P = generate(Seed);
    if (!P)
      continue;
    AndersenAnalysis Ref(*P, naiveOptions());
    Ref.run();

    for (bool Hvn : {false, true})
      for (bool Diff : {false, true})
        for (uint32_t Period : {0u, 1u, 3u}) {
          AndersenAnalysis::Options Opts;
          Opts.CycleElimination = Period != 0;
          Opts.CollapsePeriod = Period;
          Opts.EnableHVN = Hvn;
          Opts.EnableDiffProp = Diff;
          AndersenAnalysis A(*P, Opts);
          A.run();
          for (ir::VarId V = 0; V < P->numVars(); ++V)
            ASSERT_TRUE(A.pointsTo(V) == Ref.pointsTo(V))
                << "seed " << Seed << " hvn=" << Hvn << " diff=" << Diff
                << " period=" << Period << " diverges from naive at "
                << P->var(V).Name;
          ASSERT_EQ(A.duplicateCopyEdges(), 0u)
              << "seed " << Seed << " period=" << Period
              << " left duplicate copy edges";
        }
  }
}

// 12 shards x 10 seeds = 120 generated programs, each solved under 12
// configurations against the naive reference.
INSTANTIATE_TEST_SUITE_P(Seeds, AndersenSolverOracle,
                         ::testing::Range<uint64_t>(0, 12));

//===--------------------------------------------------------------------===//
// Slice solves: dense numbering is invisible in every answer
//===--------------------------------------------------------------------===//

namespace {

/// Andersen over exactly \p Stmts by chaotic iteration over raw VarIds:
/// the definition runOn must meet, with no numbering, HVN or worklist.
std::vector<std::set<ir::VarId>>
referenceSolve(const ir::Program &P, const std::vector<ir::LocId> &Stmts) {
  std::vector<std::set<ir::VarId>> Pts(P.numVars());
  bool Changed = true;
  auto Add = [&](ir::VarId To, std::set<ir::VarId> From) {
    for (ir::VarId O : From)
      Changed |= Pts[To].insert(O).second;
  };
  while (Changed) {
    Changed = false;
    for (ir::LocId L : Stmts) {
      const ir::Location &Loc = P.loc(L);
      switch (Loc.Kind) {
      case ir::StmtKind::Copy:
        Add(Loc.Lhs, Pts[Loc.Rhs]);
        break;
      case ir::StmtKind::AddrOf:
      case ir::StmtKind::Alloc:
        Add(Loc.Lhs, {Loc.Rhs});
        break;
      case ir::StmtKind::Load:
        for (ir::VarId O : std::set<ir::VarId>(Pts[Loc.Rhs]))
          Add(Loc.Lhs, Pts[O]);
        break;
      case ir::StmtKind::Store:
        for (ir::VarId O : std::set<ir::VarId>(Pts[Loc.Lhs]))
          Add(O, Pts[Loc.Rhs]);
        break;
      default:
        break;
      }
    }
  }
  return Pts;
}

} // namespace

TEST(AndersenSlice, RunOnMatchesReferenceOnEveryPartitionSlice) {
  // Every Steensgaard partition's Algorithm-1 slice, and the whole
  // program, of 30 generated programs, under the four HVN x difference
  // propagation settings: every variable's set equals the reference's,
  // and a variable the slice never mentions gets the empty set.
  uint64_t Slices = 0, Absent = 0, NonEmpty = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    auto P = generate(Seed);
    ASSERT_TRUE(P != nullptr);
    SteensgaardAnalysis S(*P);
    S.run();
    core::SliceIndex Index(*P, S);
    std::vector<std::vector<ir::LocId>> Stmts;
    for (core::Cluster &C : core::steensgaardCover(*P, S)) {
      core::attachRelevantSlice(*P, S, C, Index);
      Stmts.push_back(std::move(C.Statements));
    }
    Stmts.push_back(core::wholeProgramCluster(*P).Statements);

    for (const std::vector<ir::LocId> &Slice : Stmts) {
      ++Slices;
      std::vector<std::set<ir::VarId>> Want = referenceSolve(*P, Slice);
      std::vector<uint8_t> Mentioned(P->numVars(), 0);
      for (ir::LocId L : Slice)
        for (ir::VarId V : {P->loc(L).Lhs, P->loc(L).Rhs})
          if (V != ir::InvalidVar)
            Mentioned[V] = 1;
      for (bool Hvn : {false, true})
        for (bool Diff : {false, true}) {
          AndersenAnalysis::Options Opts;
          Opts.EnableHVN = Hvn;
          Opts.EnableDiffProp = Diff;
          AndersenAnalysis A(*P, Opts);
          A.runOn(Slice);
          for (ir::VarId V = 0; V < P->numVars(); ++V) {
            std::vector<ir::VarId> Got = A.pointsToVars(V);
            ASSERT_EQ(Got, std::vector<ir::VarId>(Want[V].begin(),
                                                  Want[V].end()))
                << "seed " << Seed << " hvn=" << Hvn << " diff=" << Diff
                << " at " << P->var(V).Name;
            if (!Mentioned[V]) {
              ASSERT_TRUE(Got.empty()) << P->var(V).Name;
              Absent += Hvn && Diff;
            }
            NonEmpty += Hvn && Diff && !Got.empty();
          }
        }
    }
  }
  // The corpus exercises both arms: absent variables and real sets.
  EXPECT_GT(Slices, 100u);
  EXPECT_GT(Absent, 1000u);
  EXPECT_GT(NonEmpty, 100u);
}
