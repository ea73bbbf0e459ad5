//===- fscs/Constraint.h - Points-to constraints (Def. 8) -------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to constraints attached to summary tuples (Definition 8 of
/// the paper). Each atom is one of
///
///   l : r -> s    r points to s at location l
///   l : r -/> s   r does not point to s at location l
///   l : r = s     r and s point to the same object at l
///   l : r != s    r and s do not point to the same object at l
///
/// and a Condition is a conjunction of atoms (empty = true). Conditions
/// are kept canonical (sorted, deduplicated) so tuple deduplication and
/// fixpoint termination work; syntactically contradictory conjunctions
/// collapse to false immediately.
///
/// Conditions are copied on every traversal step, so up to InlineAtoms
/// atoms (the engine's default cap) live inside the object; only longer
/// conjunctions spill to the heap.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_CONSTRAINT_H
#define BSAA_FSCS_CONSTRAINT_H

#include "ir/Ir.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bsaa {
namespace fscs {

/// Atom kinds of Definition 8.
enum class ConstraintKind : uint8_t {
  PointsTo,      ///< l : A -> B
  NotPointsTo,   ///< l : A -/> B
  SameObject,    ///< l : A = B
  NotSameObject, ///< l : A != B
};

/// Returns the negation of \p K.
ConstraintKind negate(ConstraintKind K);

/// One atomic points-to constraint.
struct ConstraintAtom {
  ir::LocId Loc = ir::InvalidLoc;
  ConstraintKind Kind = ConstraintKind::PointsTo;
  ir::VarId A = ir::InvalidVar;
  ir::VarId B = ir::InvalidVar;

  bool operator==(const ConstraintAtom &O) const {
    return Loc == O.Loc && Kind == O.Kind && A == O.A && B == O.B;
  }
  bool operator<(const ConstraintAtom &O) const {
    if (Loc != O.Loc)
      return Loc < O.Loc;
    if (Kind != O.Kind)
      return Kind < O.Kind;
    if (A != O.A)
      return A < O.A;
    return B < O.B;
  }
  /// True if \p O is the syntactic negation of this atom.
  bool contradicts(const ConstraintAtom &O) const {
    return Loc == O.Loc && A == O.A && B == O.B && Kind == negate(O.Kind);
  }
};

/// A conjunction of atoms, kept canonical. The special False state marks
/// a contradictory (dead) condition.
class Condition {
public:
  /// Atoms stored without a heap allocation.
  static constexpr size_t InlineAtoms = 4;

  /// The trivially true condition.
  Condition() = default;

  static Condition falseCondition() {
    Condition C;
    C.IsFalse = true;
    return C;
  }

  bool isTrue() const { return !IsFalse && Size == 0; }
  bool isFalse() const { return IsFalse; }
  std::span<const ConstraintAtom> atoms() const {
    return {Size > InlineAtoms ? Spill.data() : Inline, Size};
  }
  size_t size() const { return Size; }
  /// Heap bytes held by atoms beyond InlineAtoms.
  size_t heapBytes() const { return Spill.capacity() * sizeof(ConstraintAtom); }

  /// This ∧ Atom. Collapses to false on syntactic contradiction. If the
  /// condition already has \p MaxAtoms atoms, the new atom is dropped
  /// instead (widening: fewer constraints = more satisfiable = sound
  /// over-approximation for may-alias).
  Condition conjoin(const ConstraintAtom &Atom, size_t MaxAtoms) const;

  /// This ∧ Other (atom-wise), with the same widening rule.
  Condition conjoinAll(const Condition &Other, size_t MaxAtoms) const;

  /// Reconstructs a condition from already-canonical parts
  /// (deserialization). Returns false without touching \p Out if the
  /// atoms are not sorted-unique or a false condition carries atoms --
  /// a malformed byte stream cannot construct a non-canonical value.
  static bool fromCanonicalAtoms(std::span<const ConstraintAtom> Atoms,
                                 bool IsFalse, Condition &Out);

  bool operator==(const Condition &O) const;

  uint64_t hash() const;

  std::string toString(const ir::Program &P) const;

private:
  /// conjoin() applied to this object.
  void conjoinInPlace(const ConstraintAtom &Atom, size_t MaxAtoms);

  /// Sorted, unique atoms: Inline[0, Size) while Size <= InlineAtoms,
  /// all of them in Spill otherwise.
  ConstraintAtom Inline[InlineAtoms];
  std::vector<ConstraintAtom> Spill;
  uint32_t Size = 0;
  bool IsFalse = false;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_CONSTRAINT_H
