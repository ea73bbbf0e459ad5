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
/// conjunctions spill to the heap, behind one pointer. Every condition
/// carries its hash, computed once when the value is built, because the
/// engine hashes each candidate tuple before deciding to keep it.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FSCS_CONSTRAINT_H
#define BSAA_FSCS_CONSTRAINT_H

#include "ir/Ir.h"

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace bsaa {
namespace fscs {

/// Atom kinds of Definition 8.
enum class ConstraintKind : uint8_t {
  PointsTo,      ///< l : A -> B
  NotPointsTo,   ///< l : A -/> B
  SameObject,    ///< l : A = B
  NotSameObject, ///< l : A != B
};

/// Returns the negation of \p K: each kind and its negation differ in
/// the low bit.
constexpr ConstraintKind negate(ConstraintKind K) {
  return static_cast<ConstraintKind>(static_cast<uint8_t>(K) ^ 1u);
}
static_assert(negate(ConstraintKind::PointsTo) == ConstraintKind::NotPointsTo &&
              negate(ConstraintKind::SameObject) ==
                  ConstraintKind::NotSameObject);

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
/// a contradictory (dead) condition. No live condition holds an atom and
/// its negation: conjoin() collapses such a pair to False and
/// fromCanonicalAtoms() rejects it.
class Condition {
public:
  /// Atoms stored without a heap allocation.
  static constexpr size_t InlineAtoms = 4;

  /// The trivially true condition.
  Condition() = default;
  Condition(const Condition &O)
      : Inline(O.Inline), Hash(O.Hash), Size(O.Size), IsFalse(O.IsFalse) {
    if (O.Size > InlineAtoms)
      copySpill(O);
  }
  /// A moved-from condition that had spilled is left true.
  Condition(Condition &&O) noexcept
      : Inline(O.Inline), Spill(std::move(O.Spill)), Hash(O.Hash),
        Size(O.Size), IsFalse(O.IsFalse) {
    O.leaveTrueIfSpilled();
  }
  Condition &operator=(const Condition &O) {
    if (this == &O)
      return *this;
    Inline = O.Inline;
    if (O.Size > InlineAtoms)
      copySpill(O);
    else
      Spill.reset();
    Hash = O.Hash;
    Size = O.Size;
    IsFalse = O.IsFalse;
    return *this;
  }
  Condition &operator=(Condition &&O) noexcept {
    Inline = O.Inline;
    Spill = std::move(O.Spill);
    Hash = O.Hash;
    Size = O.Size;
    IsFalse = O.IsFalse;
    O.leaveTrueIfSpilled();
    return *this;
  }

  static Condition falseCondition() {
    Condition C;
    C.IsFalse = true;
    C.Hash = FalseHash;
    return C;
  }

  bool isTrue() const { return !IsFalse && Size == 0; }
  bool isFalse() const { return IsFalse; }
  std::span<const ConstraintAtom> atoms() const {
    return {Size > InlineAtoms ? Spill.get() : Inline.data(), Size};
  }
  size_t size() const { return Size; }
  /// Heap bytes held by atoms beyond InlineAtoms.
  size_t heapBytes() const {
    return Size > InlineAtoms ? Size * sizeof(ConstraintAtom) : 0;
  }

  /// This ∧ Atom. Collapses to false on syntactic contradiction. If the
  /// condition already has \p MaxAtoms atoms, the new atom is dropped
  /// instead (widening: fewer constraints = more satisfiable = sound
  /// over-approximation for may-alias).
  Condition conjoin(const ConstraintAtom &Atom, size_t MaxAtoms) const;

  /// This ∧ Other (atom-wise), with the same widening rule. When one
  /// side is true the other is returned as is (if it fits the cap): the
  /// atom-wise merge would rebuild exactly that value.
  Condition conjoinAll(const Condition &Other, size_t MaxAtoms) const;

  /// Reconstructs a condition from already-canonical parts
  /// (deserialization). Returns false without touching \p Out if the
  /// atoms are not sorted-unique, hold an atom and its negation, or a
  /// false condition carries atoms -- a malformed byte stream cannot
  /// construct a value that conjoin() could not.
  static bool fromCanonicalAtoms(std::span<const ConstraintAtom> Atoms,
                                 bool IsFalse, Condition &Out);

  bool operator==(const Condition &O) const;

  /// The hash of the canonical value; O(1), computed at construction.
  uint64_t hash() const { return Hash; }

  std::string toString(const ir::Program &P) const;

private:
  static constexpr uint64_t TrueHash = 0xcbf29ce484222325ull;
  static constexpr uint64_t FalseHash = 0x12345;

  /// conjoin() applied to this object, without updating Hash. Returns
  /// true if an atom was inserted (the only case that changes the hash
  /// of a live condition).
  bool conjoinInPlace(const ConstraintAtom &Atom, size_t MaxAtoms);
  /// Recomputes Hash from the atoms.
  void rehash();
  /// Allocates Spill and copies \p O's spilled atoms into it.
  void copySpill(const Condition &O);
  /// After a move out: a spilled condition no longer owns its atoms.
  void leaveTrueIfSpilled() {
    if (Size > InlineAtoms) {
      Hash = TrueHash;
      Size = 0;
    }
  }

  /// Sorted, unique atoms: Inline[0, Size) while Size <= InlineAtoms,
  /// all of them in Spill[0, Size) otherwise. Spill is sized exactly:
  /// only a raised cap or a decoded record ever fills it.
  std::array<ConstraintAtom, InlineAtoms> Inline;
  std::unique_ptr<ConstraintAtom[]> Spill;
  uint64_t Hash = TrueHash;
  uint32_t Size = 0;
  bool IsFalse = false;
};

} // namespace fscs
} // namespace bsaa

#endif // BSAA_FSCS_CONSTRAINT_H
