//===- fscs/Constraint.cpp - Points-to constraints (Def. 8) ---------------===//

#include "fscs/Constraint.h"

#include <algorithm>
#include <sstream>

using namespace bsaa;
using namespace bsaa::fscs;

// The engine copies a condition several times per step.
static_assert(sizeof(Condition) <= 96, "Condition grew");

void Condition::copySpill(const Condition &O) {
  Spill.reset(new ConstraintAtom[O.Size]);
  std::copy(O.Spill.get(), O.Spill.get() + O.Size, Spill.get());
}

bool Condition::conjoinInPlace(const ConstraintAtom &Atom, size_t MaxAtoms) {
  if (IsFalse)
    return false;
  for (const ConstraintAtom &Existing : atoms()) {
    if (Existing == Atom)
      return false;
    if (Existing.contradicts(Atom)) {
      *this = falseCondition();
      return false;
    }
  }
  if (Size >= MaxAtoms) {
    // Widen: drop the new atom rather than growing without bound.
    return false;
  }
  if (Size < InlineAtoms) {
    ConstraintAtom *Begin = Inline.data();
    ConstraintAtom *Pos = std::upper_bound(Begin, Begin + Size, Atom);
    std::copy_backward(Pos, Begin + Size, Begin + Size + 1);
    *Pos = Atom;
  } else {
    const ConstraintAtom *From = Size == InlineAtoms ? Inline.data() : Spill.get();
    std::unique_ptr<ConstraintAtom[]> Grown(new ConstraintAtom[Size + 1]);
    const ConstraintAtom *Pos = std::upper_bound(From, From + Size, Atom);
    ConstraintAtom *Out = std::copy(From, Pos, Grown.get());
    *Out++ = Atom;
    std::copy(Pos, From + Size, Out);
    Spill = std::move(Grown);
  }
  ++Size;
  return true;
}

void Condition::rehash() {
  uint64_t H = IsFalse ? FalseHash : TrueHash;
  for (const ConstraintAtom &A : atoms()) {
    for (uint64_t V :
         {uint64_t(A.Loc), uint64_t(A.Kind), uint64_t(A.A), uint64_t(A.B)}) {
      H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
    }
  }
  Hash = H;
}

Condition Condition::conjoin(const ConstraintAtom &Atom,
                             size_t MaxAtoms) const {
  Condition Out = *this;
  if (Out.conjoinInPlace(Atom, MaxAtoms))
    Out.rehash();
  return Out;
}

Condition Condition::conjoinAll(const Condition &Other,
                                size_t MaxAtoms) const {
  if (IsFalse || Other.IsFalse)
    return falseCondition();
  // The result is what conjoining Other's atoms one by one would build.
  // Those atoms are sorted, unique and free of contradictions, so the
  // sequence collapses iff one of them contradicts an atom of this, and
  // otherwise adds the smallest of those not already here until the
  // cap is reached.
  if (Other.Size == 0)
    return *this;
  if (Size == 0 && Other.Size <= MaxAtoms)
    return Other;
  std::span<const ConstraintAtom> Mine = atoms(), Theirs = Other.atoms();
  const size_t Room = MaxAtoms > Size ? MaxAtoms - Size : 0;
  size_t Added = 0;
  for (const ConstraintAtom &T : Theirs) {
    bool Present = false;
    // An equal or negated atom has T's location and variables; Mine is
    // sorted by location first.
    for (const ConstraintAtom &M : Mine) {
      if (M.Loc > T.Loc)
        break;
      if (M.Loc != T.Loc || M.A != T.A || M.B != T.B)
        continue;
      if (M.Kind == T.Kind)
        Present = true;
      else if (M.Kind == negate(T.Kind))
        return falseCondition();
    }
    Added += !Present && Added < Room;
  }
  if (Added == 0)
    return *this;

  // Sorted merge; Theirs atoms already here are taken once, and only
  // the first Added new ones are taken at all.
  Condition Out;
  Out.Size = static_cast<uint32_t>(Size + Added);
  ConstraintAtom *Dst = Out.Inline.data();
  if (Out.Size > InlineAtoms) {
    Out.Spill.reset(new ConstraintAtom[Out.Size]);
    Dst = Out.Spill.get();
  }
  size_t I = 0, J = 0;
  while (I < Mine.size() || J < Theirs.size()) {
    if (J == Theirs.size() || (I < Mine.size() && Mine[I] < Theirs[J])) {
      *Dst++ = Mine[I++];
    } else if (I < Mine.size() && Mine[I] == Theirs[J]) {
      *Dst++ = Mine[I++];
      ++J;
    } else {
      if (Added) {
        *Dst++ = Theirs[J];
        --Added;
      }
      ++J;
    }
  }
  Out.rehash();
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
  // Nor do they hold an atom and its negation (conjoin collapses the
  // pair). The list is sorted, so each positive atom's negation is
  // found by binary search.
  for (const ConstraintAtom &A : Atoms) {
    if (A.Kind != ConstraintKind::PointsTo &&
        A.Kind != ConstraintKind::SameObject)
      continue;
    ConstraintAtom Neg = A;
    Neg.Kind = negate(A.Kind);
    if (std::binary_search(Atoms.begin(), Atoms.end(), Neg))
      return false;
  }
  Out.Size = static_cast<uint32_t>(Atoms.size());
  if (Out.Size > InlineAtoms) {
    Out.Spill.reset(new ConstraintAtom[Out.Size]);
    std::copy(Atoms.begin(), Atoms.end(), Out.Spill.get());
  } else {
    Out.Spill.reset();
    std::copy(Atoms.begin(), Atoms.end(), Out.Inline.begin());
  }
  Out.IsFalse = IsFalse;
  Out.rehash();
  return true;
}

bool Condition::operator==(const Condition &O) const {
  if (Hash != O.Hash || IsFalse != O.IsFalse || Size != O.Size)
    return false;
  std::span<const ConstraintAtom> A = atoms(), B = O.atoms();
  return std::equal(A.begin(), A.end(), B.begin());
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
