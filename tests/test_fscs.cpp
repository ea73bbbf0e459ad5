//===- tests/test_fscs.cpp - FSCS engine tests ----------------------------===//
//
// Tests for the summarization-based flow- and context-sensitive engine:
// flow sensitivity (strong updates, kills), summaries (Definition 8,
// with the paper's Figure 4 and Figure 5 as literal cases), recursion,
// context-sensitive splicing, constraints, and budgets.
//
//===----------------------------------------------------------------------===//

#include "analysis/Steensgaard.h"
#include "core/AliasCover.h"
#include "core/RelevantStatements.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/AndersenOracle.h"
#include "fscs/ClusterAliasAnalysis.h"
#include "fscs/SummaryEngine.h"
#include "ir/CallGraph.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bsaa;
using namespace bsaa::fscs;

namespace {

struct Compiled {
  std::unique_ptr<ir::Program> Prog;
  std::unique_ptr<ir::CallGraph> CG;
  std::unique_ptr<analysis::SteensgaardAnalysis> Steens;
  core::Cluster Whole;

  ir::VarId var(const std::string &Name) const {
    ir::VarId V = Prog->findVariable(Name);
    EXPECT_NE(V, ir::InvalidVar) << "no variable " << Name;
    return V;
  }
  ir::LocId label(const std::string &L) const {
    ir::LocId Id = Prog->findLabel(L);
    EXPECT_NE(Id, ir::InvalidLoc) << "no label " << L;
    return Id;
  }
  ir::LocId exitOf(const std::string &Func) const {
    return Prog->func(Prog->findFunction(Func)).Exit;
  }
};

Compiled compile(std::string_view Src) {
  Compiled C;
  frontend::Diagnostics Diags;
  C.Prog = frontend::compileString(Src, Diags);
  EXPECT_TRUE(C.Prog != nullptr) << Diags.toString();
  if (!C.Prog)
    return C;
  C.CG = std::make_unique<ir::CallGraph>(*C.Prog);
  C.Steens = std::make_unique<analysis::SteensgaardAnalysis>(*C.Prog);
  C.Steens->run();
  C.Whole = core::wholeProgramCluster(*C.Prog);
  return C;
}

std::vector<std::string> objectNames(const Compiled &C,
                                     const std::vector<ir::VarId> &Objs) {
  std::vector<std::string> Names;
  for (ir::VarId V : Objs)
    Names.push_back(C.Prog->var(V).Name);
  std::sort(Names.begin(), Names.end());
  return Names;
}

} // namespace

//===--------------------------------------------------------------------===//
// Flow sensitivity
//===--------------------------------------------------------------------===//

TEST(Fscs, StrongUpdateKillsOldTarget) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int b; int *x;
      1a: x = &a;
      2a: x = &b;
      3a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  // Before 2a: x -> {a}. Before 3a: x -> {b} only (the first assignment
  // is dead) -- precision Andersen cannot give.
  auto Before2 = AA.pointsTo(C.var("main::x"), C.label("2a"));
  EXPECT_EQ(objectNames(C, Before2.Objects),
            std::vector<std::string>{"main::a"});
  auto Before3 = AA.pointsTo(C.var("main::x"), C.label("3a"));
  EXPECT_EQ(objectNames(C, Before3.Objects),
            std::vector<std::string>{"main::b"});
  EXPECT_TRUE(Before3.Complete);
}

TEST(Fscs, NullifyKillsValue) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int *x;
      1a: x = &a;
      2a: x = NULL;
      3a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("3a"));
  EXPECT_TRUE(R.Objects.empty());
}

TEST(Fscs, BranchMergesBothArms) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int b; int *x;
      if (nondet) { x = &a; } else { x = &b; }
      3a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("3a"));
  EXPECT_EQ(objectNames(C, R.Objects),
            (std::vector<std::string>{"main::a", "main::b"}));
}

TEST(Fscs, LoopKillRemainsPrecise) {
  // Inside the loop body &a is always overwritten by &b before the
  // back edge, so after the loop x can only be b (or uninitialized).
  Compiled C = compile(R"(
    void main(void) {
      int a; int b; int *x;
      while (nondet) {
        x = &a;
        x = &b;
      }
      3a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("3a"));
  EXPECT_EQ(objectNames(C, R.Objects),
            std::vector<std::string>{"main::b"});
}

TEST(Fscs, StrongUpdateThroughSingletonPointer) {
  // pts(p) = {x} is a singleton, so *p = y strongly updates x.
  Compiled C = compile(R"(
    void main(void) {
      int a; int b;
      int *x; int *y;
      int **p;
      1a: x = &a;
      2a: p = &x;
      3a: y = &b;
      4a: *p = y;
      5a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("5a"));
  // Flow-sensitive with a definite points-to: a is killed.
  EXPECT_EQ(objectNames(C, R.Objects),
            std::vector<std::string>{"main::b"});
}

TEST(Fscs, WeakUpdateThroughAmbiguousPointer) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int b; int c;
      int *x; int *y; int *z;
      int **p;
      1a: x = &a;
      2a: y = &b;
      3a: if (nondet) { p = &x; } else { p = &y; }
      4a: z = &c;
      5a: *p = z;
      6a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("6a"));
  // p may or may not point to x: weak update keeps a and adds c.
  EXPECT_EQ(objectNames(C, R.Objects),
            (std::vector<std::string>{"main::a", "main::c"}));
}

//===--------------------------------------------------------------------===//
// Figure 4: complete vs maximally complete update sequences
//===--------------------------------------------------------------------===//

TEST(Fscs, Figure4MaximalCompletion) {
  // The paper's Figure 4: the maximally complete update sequence for a
  // (through *x = b at 4a, with x pointing to a) extends back through
  // 1a: b = c, so a's value originates from c at main's entry.
  Compiled C = compile(R"(
    void main(void) {
      int *a; int *b; int *c;
      int **x; int **y;
      1a: b = c;
      2a: x = &a;
      3a: y = &b;
      4a: *x = b;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  AA.prepare();
  // Query the summary for a at main's exit: the origin is c (live at
  // entry), i.e. the maximal completion "1a, 4a" of the sequence "4a".
  std::vector<SummaryTuple> Tuples =
      AA.engine().summaryAt(C.exitOf("main"), ir::Ref::direct(C.var("main::a")));
  bool FoundC = false;
  for (const SummaryTuple &T : Tuples) {
    if (!T.isResolved() && T.Origin == ir::Ref::direct(C.var("main::c")))
      FoundC = true;
    // The non-maximal origin b must NOT appear: 1a rewrites b to c.
    EXPECT_FALSE(!T.isResolved() &&
                 T.Origin == ir::Ref::direct(C.var("main::b")))
        << "sequence was not maximally completed";
  }
  EXPECT_TRUE(FoundC);
}

//===--------------------------------------------------------------------===//
// Figure 5: summary tuples
//===--------------------------------------------------------------------===//

namespace {

const char *Figure5Program = R"(
  int *a; int *b; int *c; int *d;
  int **x; int **u; int **w; int **z;
  void foo(void) {
    1b: *x = d;
    2b: a = b;
    3b: x = w;
  }
  void bar(void) {
    1c: *x = d;
    2c: a = b;
  }
  void main(void) {
    1a: x = &c;
    2a: w = u;
    3a: foo();
    4a: z = x;
    5a: *z = b;
    6a: bar();
  }
)";

} // namespace

TEST(Fscs, Figure5SteensgaardPartitions) {
  Compiled C = compile(Figure5Program);
  // P1 = {x, u, w, z}, P2 = {a, b, c, d}.
  EXPECT_TRUE(C.Steens->samePartition(C.var("x"), C.var("u")));
  EXPECT_TRUE(C.Steens->samePartition(C.var("x"), C.var("w")));
  EXPECT_TRUE(C.Steens->samePartition(C.var("x"), C.var("z")));
  EXPECT_TRUE(C.Steens->samePartition(C.var("a"), C.var("b")));
  EXPECT_TRUE(C.Steens->samePartition(C.var("a"), C.var("c")));
  EXPECT_TRUE(C.Steens->samePartition(C.var("a"), C.var("d")));
  EXPECT_FALSE(C.Steens->samePartition(C.var("x"), C.var("a")));
}

TEST(Fscs, Figure5FooSummary) {
  // The paper: foo's summary for x at its exit is the single tuple
  // (x, 3b, w, true).
  Compiled C = compile(Figure5Program);
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  std::vector<SummaryTuple> Tuples =
      AA.engine().summaryAt(C.exitOf("foo"), ir::Ref::direct(C.var("x")));
  ASSERT_EQ(Tuples.size(), 1u);
  EXPECT_FALSE(Tuples[0].isResolved());
  EXPECT_EQ(Tuples[0].Origin, ir::Ref::direct(C.var("w")));
  EXPECT_TRUE(Tuples[0].Cond.isTrue());
}

TEST(Fscs, Figure5MainSummaryForZ) {
  // The paper: w = u, [x = w], z = x is the maximally complete update
  // sequence, logged as (z, 6a, u, true). bar is skipped entirely
  // because it cannot modify aliases of P1 pointers.
  Compiled C = compile(Figure5Program);
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  std::vector<SummaryTuple> Tuples =
      AA.engine().summaryAt(C.exitOf("main"), ir::Ref::direct(C.var("z")));
  ASSERT_EQ(Tuples.size(), 1u);
  EXPECT_FALSE(Tuples[0].isResolved());
  EXPECT_EQ(Tuples[0].Origin, ir::Ref::direct(C.var("u")));
  EXPECT_TRUE(Tuples[0].Cond.isTrue());
}

TEST(Fscs, Figure5BarConditionalTuples) {
  // Analyzing bar in isolation (no FSCI warmup), the engine cannot know
  // what x points to at 1c, so it produces exactly the paper's two
  // conditional tuples: t1 = (a, 2c, d, 1c: x -> b) and
  // t2 = (a, 2c, b, 1c: x -/> b).
  Compiled C = compile(Figure5Program);
  SummaryEngine Engine(*C.Prog, *C.CG, *C.Steens, C.Whole);
  std::vector<SummaryTuple> Tuples =
      Engine.summaryAt(C.label("2c"), ir::Ref::direct(C.var("a")));
  ASSERT_EQ(Tuples.size(), 2u);
  bool FoundD = false, FoundB = false;
  for (const SummaryTuple &T : Tuples) {
    ASSERT_FALSE(T.isResolved());
    ASSERT_EQ(T.Cond.atoms().size(), 1u);
    const ConstraintAtom &Atom = T.Cond.atoms()[0];
    EXPECT_EQ(Atom.Loc, C.label("1c"));
    EXPECT_EQ(Atom.A, C.var("x"));
    EXPECT_EQ(Atom.B, C.var("b"));
    if (T.Origin == ir::Ref::direct(C.var("d"))) {
      EXPECT_EQ(Atom.Kind, ConstraintKind::PointsTo);
      FoundD = true;
    }
    if (T.Origin == ir::Ref::direct(C.var("b"))) {
      EXPECT_EQ(Atom.Kind, ConstraintKind::NotPointsTo);
      FoundB = true;
    }
  }
  EXPECT_TRUE(FoundD);
  EXPECT_TRUE(FoundB);
}

TEST(Fscs, Figure5AndersenOraclePrunesPointsToB) {
  // The same question with Andersen over the slice as the oracle: x is
  // only ever assigned &c and w (which is assigned u, which nothing
  // assigns), so A(x) = {c}. x cannot point to b at 1c, 1c cannot
  // overwrite b, and bar's summary for a is the single tuple
  // (a, 2c, b, true) -- the x -> b fork is pruned.
  Compiled C = compile(Figure5Program);
  SummaryEngine Engine(*C.Prog, *C.CG, *C.Steens, C.Whole,
                       SummaryEngine::Options(),
                       std::make_unique<AndersenOracle>(*C.Prog, C.Whole));
  std::vector<SummaryTuple> Tuples =
      Engine.summaryAt(C.label("2c"), ir::Ref::direct(C.var("a")));
  ASSERT_EQ(Tuples.size(), 1u);
  EXPECT_EQ(Tuples[0].Origin, ir::Ref::direct(C.var("b")));
  EXPECT_TRUE(Tuples[0].Cond.isTrue());
}

//===--------------------------------------------------------------------===//
// Interprocedural / context sensitivity
//===--------------------------------------------------------------------===//

TEST(Fscs, CallSplicingIsContextSensitive) {
  Compiled C = compile(R"(
    int *id(int *p) {
      1b: return p;
    }
    void main(void) {
      int a; int b;
      int *x; int *y; int *u; int *v;
      x = &a;
      y = &b;
      u = id(x);
      v = id(y);
      3a: u = u;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  // Even the context-insensitive query of u is {a}: the backward
  // traversal splices id's summary at u's own call site.
  auto U = AA.pointsTo(C.var("main::u"), C.label("3a"));
  EXPECT_EQ(objectNames(C, U.Objects), std::vector<std::string>{"main::a"});
  auto V = AA.pointsTo(C.var("main::v"), C.label("3a"));
  EXPECT_EQ(objectNames(C, V.Objects), std::vector<std::string>{"main::b"});
  EXPECT_FALSE(AA.mayAlias(C.var("main::u"), C.var("main::v"),
                           C.label("3a")));
}

TEST(Fscs, FsciUnionsOverContextsButContextQueryDoesNot) {
  Compiled C = compile(R"(
    void callee(int *p) {
      1b: p = p;
    }
    void main(void) {
      int a; int b;
      int *x; int *y;
      x = &a;
      y = &b;
      1a: callee(x);
      2a: callee(y);
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  ir::VarId P = C.var("callee::p");
  ir::LocId In = C.label("1b");
  // FSCI: p's value unions over both call sites.
  auto Fsci = AA.pointsTo(P, In);
  EXPECT_EQ(objectNames(C, Fsci.Objects),
            (std::vector<std::string>{"main::a", "main::b"}));
  // Context-sensitive: each context sees only its own argument. The
  // context is the Call location of the respective call site.
  ir::LocId Call1 = ir::InvalidLoc, Call2 = ir::InvalidLoc;
  for (ir::LocId L = 0; L < C.Prog->numLocs(); ++L) {
    if (C.Prog->loc(L).isCall()) {
      if (Call1 == ir::InvalidLoc)
        Call1 = L;
      else
        Call2 = L;
    }
  }
  auto Ctx1 = AA.pointsToInContext(P, In, {Call1});
  EXPECT_EQ(objectNames(C, Ctx1.Objects),
            std::vector<std::string>{"main::a"});
  auto Ctx2 = AA.pointsToInContext(P, In, {Call2});
  EXPECT_EQ(objectNames(C, Ctx2.Objects),
            std::vector<std::string>{"main::b"});
}

TEST(Fscs, RecursionConverges) {
  Compiled C = compile(R"(
    int *rec(int *p) {
      if (nondet) {
        1b: return rec(p);
      }
      return p;
    }
    void main(void) {
      int a;
      int *x; int *r;
      x = &a;
      r = rec(x);
      3a: r = r;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::r"), C.label("3a"));
  EXPECT_EQ(objectNames(C, R.Objects), std::vector<std::string>{"main::a"});
}

TEST(Fscs, MutualRecursionConverges) {
  Compiled C = compile(R"(
    int *even(int *p);
    int *odd(int *p) {
      if (nondet) { return even(p); }
      return p;
    }
    int *even(int *p) {
      if (nondet) { return odd(p); }
      return p;
    }
    void main(void) {
      int a;
      int *x; int *r;
      x = &a;
      r = odd(x);
      3a: r = r;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::r"), C.label("3a"));
  EXPECT_EQ(objectNames(C, R.Objects), std::vector<std::string>{"main::a"});
}

TEST(Fscs, CalleeSideEffectThroughPointerParam) {
  Compiled C = compile(R"(
    void setit(int **h, int *v) {
      1b: *h = v;
    }
    void main(void) {
      int a; int b;
      int *x;
      int **p;
      1a: x = &a;
      2a: p = &x;
      3a: setit(p, &b);
      4a: x = x;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::x"), C.label("4a"));
  // h definitely points to x inside this program's single call, so the
  // store strongly updates x to b.
  EXPECT_EQ(objectNames(C, R.Objects),
            std::vector<std::string>{"main::b"});
}

//===--------------------------------------------------------------------===//
// Must-alias (lockset criterion)
//===--------------------------------------------------------------------===//

TEST(Fscs, MustAliasThroughCopies) {
  Compiled C = compile(R"(
    lock_t l1; lock_t l2;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l1;
      q = p;
      1a: lock(q);
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  EXPECT_TRUE(
      AA.mustAlias(C.var("main::p"), C.var("main::q"), C.label("1a")));
}

TEST(Fscs, NoMustAliasWhenAmbiguous) {
  Compiled C = compile(R"(
    lock_t l1; lock_t l2;
    void main(void) {
      lock_t *p; lock_t *q;
      p = &l1;
      if (nondet) { q = p; } else { q = &l2; }
      1a: lock(q);
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  EXPECT_FALSE(
      AA.mustAlias(C.var("main::p"), C.var("main::q"), C.label("1a")));
  EXPECT_TRUE(
      AA.mayAlias(C.var("main::p"), C.var("main::q"), C.label("1a")));
}

//===--------------------------------------------------------------------===//
// Budget and slices
//===--------------------------------------------------------------------===//

TEST(Fscs, StepBudgetIsHonored) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int *x;
      int n;
      while (nondet) { x = &a; x = x; }
      1a: x = x;
    }
  )");
  SummaryEngine::Options Opts;
  Opts.StepBudget = 3;
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole, Opts);
  auto R = AA.pointsTo(C.var("main::x"), C.label("1a"));
  EXPECT_TRUE(AA.engine().budgetExhausted());
  EXPECT_FALSE(R.Complete);
}

TEST(Fscs, SlicedClusterMatchesWholeProgram) {
  // Running on a Steensgaard partition's relevant-statement slice gives
  // the same points-to sets as running on the whole program (Theorem 6
  // in executable form).
  Compiled C = compile(R"(
    void foo(int **h, int *k) {
      1b: *h = k;
    }
    void main(void) {
      int a; int b; int c;
      int *x; int *y; int *z;
      int **pp;
      1a: x = &a;
      2a: y = &b;
      3a: z = &c;
      4a: pp = &x;
      5a: foo(pp, y);
      6a: x = x;
    }
  )");
  ClusterAliasAnalysis Whole(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto WholeResult = Whole.pointsTo(C.var("main::x"), C.label("6a"));

  // Build the partition cluster containing x, with its Algorithm 1
  // slice.
  uint32_t Part = C.Steens->partitionOf(C.var("main::x"));
  core::Cluster Partition;
  Partition.Members = C.Steens->partitionMembers(Part);
  Partition.SourcePartition = Part;
  core::attachRelevantSlice(*C.Prog, *C.Steens, Partition);
  EXPECT_LT(Partition.Statements.size(), C.Whole.Statements.size());

  ClusterAliasAnalysis Sliced(*C.Prog, *C.CG, *C.Steens, Partition);
  auto SlicedResult = Sliced.pointsTo(C.var("main::x"), C.label("6a"));
  EXPECT_EQ(WholeResult.Objects, SlicedResult.Objects);
}

//===--------------------------------------------------------------------===//
// Algorithm 1 (relevant statements)
//===--------------------------------------------------------------------===//

TEST(Algorithm1, Figure3Slice) {
  // The paper's Figure 3: for P = {a, b}, St_P must contain 1a, 2a and
  // 4a (split into a load and a store by normalization) but NOT 3a
  // (p = x does not affect aliases of a or b).
  Compiled C = compile(R"(
    void main(void) {
      int a; int b;
      int *x; int *y; int *p;
      1a: x = &a;
      2a: y = &b;
      3a: p = x;
      4a: *x = *y;
    }
  )");
  uint32_t Part = C.Steens->partitionOf(C.var("main::a"));
  EXPECT_EQ(Part, C.Steens->partitionOf(C.var("main::b")));
  core::RelevantSlice Slice = core::computeRelevantStatements(
      *C.Prog, *C.Steens, C.Steens->partitionMembers(Part));

  auto Contains = [&](ir::LocId L) {
    return std::find(Slice.Statements.begin(), Slice.Statements.end(),
                     L) != Slice.Statements.end();
  };
  EXPECT_TRUE(Contains(C.label("1a")));
  EXPECT_TRUE(Contains(C.label("2a")));
  EXPECT_TRUE(Contains(C.label("4a"))); // The store half of *x = *y.
  EXPECT_FALSE(Contains(C.label("3a")));
}

TEST(Algorithm1, SliceIsMonotoneInMembers) {
  Compiled C = compile(R"(
    void main(void) {
      int a; int b;
      int *x; int *y;
      1a: x = &a;
      2a: y = &b;
    }
  )");
  core::RelevantSlice One = core::computeRelevantStatements(
      *C.Prog, *C.Steens, {C.var("main::a")});
  core::RelevantSlice Two = core::computeRelevantStatements(
      *C.Prog, *C.Steens, {C.var("main::a"), C.var("main::b")});
  EXPECT_LE(One.Statements.size(), Two.Statements.size());
}

TEST(Algorithm1, LockClusterSliceIsSmall) {
  // The motivating application: for the lock-pointer partition, the
  // slice excludes all the int-pointer churn.
  Compiled C = compile(R"(
    lock_t l;
    void main(void) {
      lock_t *p;
      int a; int *x; int *y;
      1a: p = &l;
      2a: x = &a;
      3a: y = x;
      4a: lock(p);
    }
  )");
  uint32_t Part = C.Steens->partitionOf(C.var("main::p"));
  core::RelevantSlice Slice = core::computeRelevantStatements(
      *C.Prog, *C.Steens, C.Steens->partitionMembers(Part));
  // Only 1a is relevant to lock aliases.
  ASSERT_EQ(Slice.Statements.size(), 1u);
  EXPECT_EQ(Slice.Statements[0], C.label("1a"));
}

//===--------------------------------------------------------------------===//
// Deep contexts
//===--------------------------------------------------------------------===//

TEST(Fscs, TwoLevelContextSplicing) {
  // wrapper(id(p)): the context distinguishes values through two frames.
  Compiled C = compile(R"(
    int *id(int *p) {
      1c: return p;
    }
    int *wrap(int *q) {
      int *r;
      r = id(q);
      1b: return r;
    }
    void main(void) {
      int a; int b;
      int *x; int *y; int *u; int *v;
      x = &a;
      y = &b;
      u = wrap(x);
      v = wrap(y);
      3a: u = u;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  // Collect call sites: main->wrap (two), wrap->id (one).
  std::vector<ir::LocId> MainCalls, WrapCalls;
  for (ir::LocId L = 0; L < C.Prog->numLocs(); ++L) {
    if (!C.Prog->loc(L).isCall())
      continue;
    ir::FuncId Owner = C.Prog->loc(L).Owner;
    if (C.Prog->func(Owner).Name == "main")
      MainCalls.push_back(L);
    else if (C.Prog->func(Owner).Name == "wrap")
      WrapCalls.push_back(L);
  }
  ASSERT_EQ(MainCalls.size(), 2u);
  ASSERT_EQ(WrapCalls.size(), 1u);

  ir::VarId P = C.var("id::p");
  ir::LocId In = C.label("1c");
  // Context main@call1 -> wrap -> id: p is exactly &a.
  auto Ctx1 = AA.pointsToInContext(P, In, {MainCalls[0], WrapCalls[0]});
  EXPECT_EQ(objectNames(C, Ctx1.Objects),
            std::vector<std::string>{"main::a"});
  auto Ctx2 = AA.pointsToInContext(P, In, {MainCalls[1], WrapCalls[0]});
  EXPECT_EQ(objectNames(C, Ctx2.Objects),
            std::vector<std::string>{"main::b"});
  // Context-insensitive union sees both.
  auto Fsci = AA.pointsTo(P, In);
  EXPECT_EQ(objectNames(C, Fsci.Objects),
            (std::vector<std::string>{"main::a", "main::b"}));
}

TEST(Fscs, GlobalModifiedBetweenCallSites) {
  // The same function reads a global that main retargets between the
  // two calls: flow-sensitivity across the call boundary.
  Compiled C = compile(R"(
    int *g;
    int *reader(void) {
      1b: return g;
    }
    void main(void) {
      int a; int b;
      int *u; int *v;
      g = &a;
      u = reader();
      g = &b;
      v = reader();
      3a: u = u;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto U = AA.pointsTo(C.var("main::u"), C.label("3a"));
  EXPECT_EQ(objectNames(C, U.Objects), std::vector<std::string>{"main::a"});
  auto V = AA.pointsTo(C.var("main::v"), C.label("3a"));
  EXPECT_EQ(objectNames(C, V.Objects), std::vector<std::string>{"main::b"});
}

TEST(Fscs, FunctionPointerCalleesUnion) {
  Compiled C = compile(R"(
    int *fa(int *p) { int a; 1b: return &a; }
    int *fb(int *p) { int b; 1c: return &b; }
    void main(void) {
      fptr_t fp;
      int *r;
      fp = &fa;
      if (nondet) { fp = &fb; }
      r = fp(NULL);
      3a: r = r;
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("main::r"), C.label("3a"));
  EXPECT_EQ(objectNames(C, R.Objects),
            (std::vector<std::string>{"fa::a", "fb::b"}));
}

TEST(Fscs, EntryFunctionCallersReachTheWalk) {
  // main is called from f: the entry value of g in main's second
  // activation is &b, which f stored. Both the served query and the
  // FSCI set must see it.
  Compiled C = compile(R"(
    int *g; int a; int b;
    void f(void) { g = &b; main(); }
    void main(void) {
      int *p;
      1a: p = g;
      2a: g = &a;
      3a: f();
    }
  )");
  ClusterAliasAnalysis AA(*C.Prog, *C.CG, *C.Steens, C.Whole);
  auto R = AA.pointsTo(C.var("g"), C.label("1a"));
  EXPECT_EQ(objectNames(C, R.Objects), std::vector<std::string>{"b"});
  EXPECT_TRUE(R.Complete);
  SummaryEngine E(*C.Prog, *C.CG, *C.Steens, C.Whole);
  EXPECT_EQ(objectNames(C, E.fsciPointsTo(C.var("g"), C.label("1a")).toVector()),
            std::vector<std::string>{"b"});
}
