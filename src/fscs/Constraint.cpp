//===- fscs/Constraint.cpp - Points-to constraints (Def. 8) ---------------===//

#include "fscs/Constraint.h"

#include <algorithm>
#include <sstream>

using namespace bsaa;
using namespace bsaa::fscs;

ConstraintKind fscs::negate(ConstraintKind K) {
  switch (K) {
  case ConstraintKind::PointsTo:
    return ConstraintKind::NotPointsTo;
  case ConstraintKind::NotPointsTo:
    return ConstraintKind::PointsTo;
  case ConstraintKind::SameObject:
    return ConstraintKind::NotSameObject;
  case ConstraintKind::NotSameObject:
    return ConstraintKind::SameObject;
  }
  return K;
}

void Condition::conjoinInPlace(const ConstraintAtom &Atom, size_t MaxAtoms) {
  if (IsFalse)
    return;
  for (const ConstraintAtom &Existing : atoms()) {
    if (Existing == Atom)
      return;
    if (Existing.contradicts(Atom)) {
      *this = falseCondition();
      return;
    }
  }
  if (Size >= MaxAtoms) {
    // Widen: drop the new atom rather than growing without bound.
    return;
  }
  if (Size < InlineAtoms) {
    ConstraintAtom *Pos = std::upper_bound(Inline, Inline + Size, Atom);
    std::copy_backward(Pos, Inline + Size, Inline + Size + 1);
    *Pos = Atom;
  } else {
    if (Size == InlineAtoms)
      Spill.assign(Inline, Inline + InlineAtoms);
    Spill.insert(std::upper_bound(Spill.begin(), Spill.end(), Atom), Atom);
  }
  ++Size;
}

Condition Condition::conjoin(const ConstraintAtom &Atom,
                             size_t MaxAtoms) const {
  Condition Out = *this;
  Out.conjoinInPlace(Atom, MaxAtoms);
  return Out;
}

Condition Condition::conjoinAll(const Condition &Other,
                                size_t MaxAtoms) const {
  if (IsFalse || Other.IsFalse)
    return falseCondition();
  Condition Out = *this;
  for (const ConstraintAtom &Atom : Other.atoms()) {
    Out.conjoinInPlace(Atom, MaxAtoms);
    if (Out.IsFalse)
      break;
  }
  return Out;
}

bool Condition::fromCanonicalAtoms(std::span<const ConstraintAtom> Atoms,
                                   bool IsFalse, Condition &Out) {
  // A false condition never carries atoms (falseCondition() and every
  // conjoin collapse drop them), and live atom lists are sorted-unique.
  if (IsFalse && !Atoms.empty())
    return false;
  for (size_t I = 1; I < Atoms.size(); ++I)
    if (!(Atoms[I - 1] < Atoms[I]))
      return false;
  Out.Size = static_cast<uint32_t>(Atoms.size());
  if (Out.Size > InlineAtoms) {
    Out.Spill.assign(Atoms.begin(), Atoms.end());
  } else {
    Out.Spill.clear();
    std::copy(Atoms.begin(), Atoms.end(), Out.Inline);
  }
  Out.IsFalse = IsFalse;
  return true;
}

bool Condition::operator==(const Condition &O) const {
  if (IsFalse != O.IsFalse || Size != O.Size)
    return false;
  std::span<const ConstraintAtom> A = atoms(), B = O.atoms();
  return std::equal(A.begin(), A.end(), B.begin());
}

uint64_t Condition::hash() const {
  uint64_t H = IsFalse ? 0x12345 : 0xcbf29ce484222325ull;
  for (const ConstraintAtom &A : atoms()) {
    for (uint64_t V :
         {uint64_t(A.Loc), uint64_t(A.Kind), uint64_t(A.A), uint64_t(A.B)}) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    }
  }
  return H;
}

std::string Condition::toString(const ir::Program &P) const {
  if (IsFalse)
    return "false";
  if (Size == 0)
    return "true";
  std::ostringstream OS;
  std::span<const ConstraintAtom> Atoms = atoms();
  for (size_t I = 0; I < Atoms.size(); ++I) {
    const ConstraintAtom &A = Atoms[I];
    if (I)
      OS << " & ";
    OS << "L" << A.Loc << ": " << P.var(A.A).Name;
    switch (A.Kind) {
    case ConstraintKind::PointsTo:
      OS << " -> ";
      break;
    case ConstraintKind::NotPointsTo:
      OS << " -/> ";
      break;
    case ConstraintKind::SameObject:
      OS << " = ";
      break;
    case ConstraintKind::NotSameObject:
      OS << " != ";
      break;
    }
    OS << P.var(A.B).Name;
  }
  return OS.str();
}
