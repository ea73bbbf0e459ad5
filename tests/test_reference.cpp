//===- tests/test_reference.cpp - Monolithic dataflow + constraints -------===//
//
// Unit tests for the monolithic flow-sensitive dataflow baseline and
// the Condition / ConstraintAtom machinery of Definition 8.
//
//===----------------------------------------------------------------------===//

#include "analysis/FlowSensitiveDataflow.h"
#include "frontend/Diagnostics.h"
#include "frontend/Lower.h"
#include "fscs/Constraint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <vector>

using namespace bsaa;

namespace {

std::unique_ptr<ir::Program> compileOk(std::string_view Src) {
  frontend::Diagnostics Diags;
  auto P = frontend::compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

} // namespace

//===--------------------------------------------------------------------===//
// FlowSensitiveDataflow
//===--------------------------------------------------------------------===//

TEST(MonolithicDataflow, StrongUpdates) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int b; int *x;
      1a: x = &a;
      2a: x = &b;
      3a: x = x;
    }
  )");
  analysis::FlowSensitiveDataflow D(*P);
  D.run();
  ir::VarId X = P->findVariable("main::x");
  EXPECT_TRUE(D.pointsTo(X, P->findLabel("2a")).test(
      P->findVariable("main::a")));
  const SparseBitVector &At3 = D.pointsTo(X, P->findLabel("3a"));
  EXPECT_FALSE(At3.test(P->findVariable("main::a")));
  EXPECT_TRUE(At3.test(P->findVariable("main::b")));
}

TEST(MonolithicDataflow, StoreStrongVsWeak) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int b; int c;
      int *x; int *y; int *z;
      int **p;
      x = &a;
      y = &b;
      1a: p = &x;
      2a: z = &c;
      3a: *p = z;
      4a: x = x;
      if (nondet) { p = &y; }
      5a: *p = z;
      6a: y = y;
    }
  )");
  analysis::FlowSensitiveDataflow D(*P);
  D.run();
  ir::VarId X = P->findVariable("main::x");
  ir::VarId Y = P->findVariable("main::y");
  // 3a is a strong update through a singleton pointer.
  const SparseBitVector &XAt4 = D.pointsTo(X, P->findLabel("4a"));
  EXPECT_TRUE(XAt4.test(P->findVariable("main::c")));
  EXPECT_FALSE(XAt4.test(P->findVariable("main::a")));
  // 5a is weak (p may be &x or &y): y keeps b and gains c.
  const SparseBitVector &YAt6 = D.pointsTo(Y, P->findLabel("6a"));
  EXPECT_TRUE(YAt6.test(P->findVariable("main::b")));
  EXPECT_TRUE(YAt6.test(P->findVariable("main::c")));
}

TEST(MonolithicDataflow, Interprocedural) {
  auto P = compileOk(R"(
    int *id(int *p) { return p; }
    void main(void) {
      int a;
      int *x; int *y;
      x = &a;
      y = id(x);
      1a: y = y;
    }
  )");
  analysis::FlowSensitiveDataflow D(*P);
  D.run();
  EXPECT_TRUE(
      D.pointsTo(P->findVariable("main::y"), P->findLabel("1a"))
          .test(P->findVariable("main::a")));
  EXPECT_FALSE(D.capped());
}

TEST(MonolithicDataflow, IterationCapReports) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int *x;
      while (nondet) { x = &a; }
    }
  )");
  analysis::FlowSensitiveDataflow D(*P);
  D.run(2);
  EXPECT_TRUE(D.capped());
}

TEST(MonolithicDataflow, UnreachableCodeStaysEmpty) {
  auto P = compileOk(R"(
    void never(void) {
      int a; int *x;
      1b: x = &a;
    }
    void main(void) {
      int b; int *y;
      y = &b;
    }
  )");
  analysis::FlowSensitiveDataflow D(*P);
  D.run();
  // `never` is not called: no state reaches its body.
  EXPECT_TRUE(
      D.pointsTo(P->findVariable("never::x"), P->findLabel("1b")).empty());
}

//===--------------------------------------------------------------------===//
// Condition / ConstraintAtom
//===--------------------------------------------------------------------===//

TEST(Condition, TrueAndFalse) {
  fscs::Condition C;
  EXPECT_TRUE(C.isTrue());
  EXPECT_FALSE(C.isFalse());
  fscs::Condition F = fscs::Condition::falseCondition();
  EXPECT_TRUE(F.isFalse());
  EXPECT_FALSE(F.isTrue());
}

TEST(Condition, ConjoinDeduplicatesAndSorts) {
  fscs::ConstraintAtom A{5, fscs::ConstraintKind::PointsTo, 1, 2};
  fscs::ConstraintAtom B{3, fscs::ConstraintKind::NotPointsTo, 1, 2};
  fscs::Condition C;
  C = C.conjoin(A, 8);
  C = C.conjoin(B, 8);
  C = C.conjoin(A, 8); // Duplicate.
  EXPECT_EQ(C.size(), 2u);
  // Sorted by location first.
  EXPECT_EQ(C.atoms()[0].Loc, 3u);
  EXPECT_EQ(C.atoms()[1].Loc, 5u);
}

TEST(Condition, ContradictionCollapsesToFalse) {
  fscs::ConstraintAtom A{5, fscs::ConstraintKind::PointsTo, 1, 2};
  fscs::ConstraintAtom NotA{5, fscs::ConstraintKind::NotPointsTo, 1, 2};
  fscs::Condition C;
  C = C.conjoin(A, 8);
  C = C.conjoin(NotA, 8);
  EXPECT_TRUE(C.isFalse());

  fscs::ConstraintAtom Same{7, fscs::ConstraintKind::SameObject, 3, 4};
  fscs::ConstraintAtom Diff{7, fscs::ConstraintKind::NotSameObject, 3, 4};
  fscs::Condition D;
  D = D.conjoin(Same, 8);
  D = D.conjoin(Diff, 8);
  EXPECT_TRUE(D.isFalse());
}

TEST(Condition, WideningDropsAtomsBeyondCap) {
  fscs::Condition C;
  for (uint32_t I = 0; I < 10; ++I)
    C = C.conjoin(
        fscs::ConstraintAtom{I, fscs::ConstraintKind::PointsTo, I, I + 1},
        4);
  EXPECT_EQ(C.size(), 4u);
  EXPECT_FALSE(C.isFalse());
}

TEST(Condition, ConjoinAllMergesAndDetectsContradiction) {
  fscs::ConstraintAtom A{1, fscs::ConstraintKind::PointsTo, 1, 2};
  fscs::ConstraintAtom B{2, fscs::ConstraintKind::PointsTo, 3, 4};
  fscs::Condition C1, C2;
  C1 = C1.conjoin(A, 8);
  C2 = C2.conjoin(B, 8);
  fscs::Condition Merged = C1.conjoinAll(C2, 8);
  EXPECT_EQ(Merged.size(), 2u);

  fscs::Condition C3;
  C3 = C3.conjoin(
      fscs::ConstraintAtom{1, fscs::ConstraintKind::NotPointsTo, 1, 2}, 8);
  EXPECT_TRUE(C1.conjoinAll(C3, 8).isFalse());
}

TEST(Condition, HashAndEquality) {
  fscs::ConstraintAtom A{1, fscs::ConstraintKind::PointsTo, 1, 2};
  fscs::ConstraintAtom B{2, fscs::ConstraintKind::SameObject, 3, 4};
  fscs::Condition C1, C2;
  C1 = C1.conjoin(A, 8).conjoin(B, 8);
  C2 = C2.conjoin(B, 8).conjoin(A, 8); // Other order: canonical form.
  EXPECT_EQ(C1, C2);
  EXPECT_EQ(C1.hash(), C2.hash());
  EXPECT_FALSE(C1 == fscs::Condition());
}

namespace {

/// The conjunction rules of Condition::conjoin over a plain sorted
/// vector: duplicate -> unchanged, contradiction -> false (no atoms),
/// at the cap -> the new atom is dropped, otherwise sorted insert.
struct RefCondition {
  std::vector<fscs::ConstraintAtom> Atoms;
  bool IsFalse = false;

  void conjoin(const fscs::ConstraintAtom &A, size_t MaxAtoms) {
    if (IsFalse)
      return;
    for (const fscs::ConstraintAtom &E : Atoms) {
      if (E == A)
        return;
      if (E.contradicts(A)) {
        Atoms.clear();
        IsFalse = true;
        return;
      }
    }
    if (Atoms.size() >= MaxAtoms)
      return;
    Atoms.insert(std::upper_bound(Atoms.begin(), Atoms.end(), A), A);
  }
};

/// Condition's hash recomputed from its atoms: the fold that the stored
/// ResultHashes and WaiterHashes were built with, so it may not change.
uint64_t recomputedHash(const fscs::Condition &C) {
  uint64_t H = C.isFalse() ? 0x12345 : 0xcbf29ce484222325ull;
  for (const fscs::ConstraintAtom &A : C.atoms())
    for (uint64_t V :
         {uint64_t(A.Loc), uint64_t(A.Kind), uint64_t(A.A), uint64_t(A.B)})
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H;
}

void expectSame(const fscs::Condition &C, const RefCondition &R,
                const std::string &Where) {
  ASSERT_EQ(C.isFalse(), R.IsFalse) << Where;
  ASSERT_EQ(C.size(), R.Atoms.size()) << Where;
  EXPECT_TRUE(std::equal(C.atoms().begin(), C.atoms().end(),
                         R.Atoms.begin()))
      << Where;
  EXPECT_EQ(C.hash(), recomputedHash(C)) << Where;
  // The canonical value decides equality and hash.
  fscs::Condition Rebuilt;
  ASSERT_TRUE(
      fscs::Condition::fromCanonicalAtoms(R.Atoms, R.IsFalse, Rebuilt));
  EXPECT_EQ(C, Rebuilt) << Where;
  EXPECT_EQ(C.hash(), Rebuilt.hash()) << Where;
}

fscs::ConstraintAtom randomAtom(std::mt19937_64 &Rng) {
  // A small universe, so duplicates and contradictions are common.
  return fscs::ConstraintAtom{static_cast<ir::LocId>(Rng() % 6),
                              static_cast<fscs::ConstraintKind>(Rng() % 4),
                              static_cast<ir::VarId>(Rng() % 3),
                              static_cast<ir::VarId>(Rng() % 3)};
}

} // namespace

TEST(Condition, MatchesReferenceConjunction) {
  // Cap 6 exceeds the inline capacity, so the spill path is exercised.
  static_assert(fscs::Condition::InlineAtoms == 4);
  for (size_t MaxAtoms : {size_t(4), size_t(6)}) {
    std::mt19937_64 Rng(MaxAtoms);
    size_t Spilled = 0, Collapsed = 0;
    for (int Trial = 0; Trial < 400; ++Trial) {
      std::string Where = "cap " + std::to_string(MaxAtoms) + " trial " +
                          std::to_string(Trial);
      fscs::Condition C, D;
      RefCondition R, RD;
      size_t N = Rng() % 12;
      for (size_t I = 0; I < N; ++I) {
        fscs::ConstraintAtom A = randomAtom(Rng);
        C = C.conjoin(A, MaxAtoms);
        R.conjoin(A, MaxAtoms);
        expectSame(C, R, Where);
      }
      for (size_t I = 0, M = Rng() % 8; I < M; ++I) {
        fscs::ConstraintAtom A = randomAtom(Rng);
        D = D.conjoin(A, MaxAtoms);
        RD.conjoin(A, MaxAtoms);
      }
      // conjoinAll == conjoining Other's atoms one at a time, and false
      // on either side is false.
      RefCondition RAll = R;
      for (const fscs::ConstraintAtom &A : RD.Atoms)
        RAll.conjoin(A, MaxAtoms);
      if (RD.IsFalse) {
        RAll.Atoms.clear();
        RAll.IsFalse = true;
      }
      expectSame(C.conjoinAll(D, MaxAtoms), RAll, Where + " conjoinAll");
      Spilled += C.size() > fscs::Condition::InlineAtoms;
      Collapsed += C.isFalse();
    }
    if (MaxAtoms > fscs::Condition::InlineAtoms) {
      EXPECT_GT(Spilled, 0u);
    }
    EXPECT_GT(Collapsed, 0u);
  }
}

namespace {

fscs::ConstraintAtom pointsTo(uint32_t Loc, ir::VarId A, ir::VarId B) {
  return fscs::ConstraintAtom{Loc, fscs::ConstraintKind::PointsTo, A, B};
}

fscs::ConstraintAtom notPointsTo(uint32_t Loc, ir::VarId A, ir::VarId B) {
  return fscs::ConstraintAtom{Loc, fscs::ConstraintKind::NotPointsTo, A, B};
}

/// Conjoins \p Atoms one by one into true: the definition conjoinAll's
/// fast paths and merge must reproduce.
fscs::Condition atomWise(const fscs::Condition &Start,
                         std::span<const fscs::ConstraintAtom> Atoms,
                         size_t MaxAtoms) {
  fscs::Condition C = Start;
  for (const fscs::ConstraintAtom &A : Atoms)
    C = C.conjoin(A, MaxAtoms);
  return C;
}

fscs::Condition build(std::initializer_list<fscs::ConstraintAtom> Atoms,
                      size_t MaxAtoms = 8) {
  return atomWise(fscs::Condition(), {Atoms.begin(), Atoms.size()},
                  MaxAtoms);
}

} // namespace

TEST(Condition, CarriedHashMatchesRecomputation) {
  auto Check = [](const fscs::Condition &C, const char *Path) {
    EXPECT_EQ(C.hash(), recomputedHash(C)) << Path;
  };
  Check(fscs::Condition(), "default");
  Check(fscs::Condition::falseCondition(), "falseCondition");

  fscs::Condition Two = build({pointsTo(5, 1, 2), pointsTo(3, 1, 2)});
  Check(Two, "conjoin: sorted insert");
  Check(Two.conjoin(pointsTo(5, 1, 2), 8), "conjoin: duplicate");
  Check(Two.conjoin(pointsTo(9, 1, 2), 2), "conjoin: widening drop");
  Check(Two.conjoin(notPointsTo(3, 1, 2), 8), "conjoin: collapse");

  fscs::Condition Other = build({pointsTo(4, 1, 2), pointsTo(7, 2, 3)});
  Check(fscs::Condition().conjoinAll(Other, 4), "conjoinAll: true lhs");
  Check(Two.conjoinAll(fscs::Condition(), 4), "conjoinAll: true rhs");
  Check(Two.conjoinAll(Other, 8), "conjoinAll: merge");
  Check(Two.conjoinAll(Other, 3), "conjoinAll: widening drop");
  Check(Two.conjoinAll(build({notPointsTo(5, 1, 2)}), 8),
        "conjoinAll: collapse");
  Check(Two.conjoinAll(fscs::Condition::falseCondition(), 8),
        "conjoinAll: false rhs");

  // Beyond the inline capacity: the spilled paths and their copies.
  fscs::Condition Six = build({pointsTo(1, 1, 2), pointsTo(2, 1, 2),
                               pointsTo(3, 1, 2), pointsTo(4, 1, 2),
                               pointsTo(5, 1, 2), pointsTo(6, 1, 2)});
  ASSERT_GT(Six.size(), fscs::Condition::InlineAtoms);
  Check(Six, "conjoin: spilled");
  Check(Six.conjoinAll(Other, 8), "conjoinAll: spilled merge");
  fscs::Condition Copy = Six;
  Check(Copy, "copy");
  EXPECT_EQ(Copy, Six);
  fscs::Condition Moved = std::move(Copy);
  Check(Moved, "move");
  EXPECT_EQ(Moved, Six);

  for (const fscs::Condition *C : {&Two, &Six}) {
    fscs::Condition Decoded;
    ASSERT_TRUE(
        fscs::Condition::fromCanonicalAtoms(C->atoms(), false, Decoded));
    Check(Decoded, "fromCanonicalAtoms");
    EXPECT_EQ(Decoded, *C);
  }
  fscs::Condition DecodedFalse;
  ASSERT_TRUE(fscs::Condition::fromCanonicalAtoms({}, true, DecodedFalse));
  Check(DecodedFalse, "fromCanonicalAtoms: false");
  EXPECT_EQ(DecodedFalse, fscs::Condition::falseCondition());
}

TEST(Condition, ConjoinAllFastPathsMatchAtomWiseConjunction) {
  fscs::Condition C = build({pointsTo(5, 1, 2), notPointsTo(3, 2, 1),
                             pointsTo(9, 4, 4)});
  for (size_t Cap : {size_t(3), size_t(4), size_t(8)}) {
    // True on the left: Other itself, when it fits the cap.
    EXPECT_EQ(fscs::Condition().conjoinAll(C, Cap),
              atomWise(fscs::Condition(), C.atoms(), Cap))
        << "cap " << Cap;
    // True on the right: this, unchanged.
    EXPECT_EQ(C.conjoinAll(fscs::Condition(), Cap), C) << "cap " << Cap;
  }
  // Other holds more atoms than the cap: no fast path, the cap drops the
  // largest ones.
  fscs::Condition Capped = fscs::Condition().conjoinAll(C, 2);
  EXPECT_EQ(Capped, atomWise(fscs::Condition(), C.atoms(), 2));
  EXPECT_EQ(Capped.size(), 2u);
  // A contradiction with an atom the cap would drop still collapses, as
  // it does atom by atom.
  fscs::Condition Full = build({pointsTo(1, 1, 1), pointsTo(2, 1, 1)});
  fscs::Condition Clash = build({pointsTo(0, 7, 7), notPointsTo(1, 1, 1)});
  EXPECT_TRUE(Full.conjoinAll(Clash, 2).isFalse());
  EXPECT_TRUE(atomWise(Full, Clash.atoms(), 2).isFalse());
}

TEST(Condition, FromCanonicalAtomsRejectsContradictions) {
  // Sorted and unique, but an atom and its negation: conjoin() would
  // have collapsed the pair to false, so no stored condition holds it.
  const fscs::ConstraintAtom Pair[] = {pointsTo(4, 1, 2), pointsTo(4, 1, 3),
                                       notPointsTo(4, 1, 2)};
  fscs::Condition Out = build({pointsTo(9, 9, 9)});
  EXPECT_FALSE(fscs::Condition::fromCanonicalAtoms(Pair, false, Out));
  EXPECT_EQ(Out, build({pointsTo(9, 9, 9)})) << "Out was touched";
  const fscs::ConstraintAtom Same[] = {
      {4, fscs::ConstraintKind::SameObject, 1, 2},
      {4, fscs::ConstraintKind::NotSameObject, 1, 2}};
  EXPECT_FALSE(fscs::Condition::fromCanonicalAtoms(Same, false, Out));
  // Same location and variables, kinds that are not negations: fine.
  const fscs::ConstraintAtom Mixed[] = {
      pointsTo(4, 1, 2), {4, fscs::ConstraintKind::NotSameObject, 1, 2}};
  EXPECT_TRUE(fscs::Condition::fromCanonicalAtoms(Mixed, false, Out));
  EXPECT_EQ(Out.size(), 2u);
}

TEST(Condition, ToStringRendersKinds) {
  auto P = compileOk("int *g; int *h; void main(void) { g = h; }");
  ir::VarId G = P->findVariable("g");
  ir::VarId H = P->findVariable("h");
  fscs::Condition C;
  C = C.conjoin(fscs::ConstraintAtom{0, fscs::ConstraintKind::PointsTo, G, H},
                8);
  std::string S = C.toString(*P);
  EXPECT_NE(S.find("g"), std::string::npos);
  EXPECT_NE(S.find("->"), std::string::npos);
  EXPECT_EQ(fscs::Condition().toString(*P), "true");
  EXPECT_EQ(fscs::Condition::falseCondition().toString(*P), "false");
}
