//===- bdd/Bdd.h - Reduced ordered binary decision diagrams -----*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ROBDD package. The paper's Section 3 ("Path Sensitivity")
/// proposes tracking branch constraints along update sequences and notes
/// that "BDDs can be used to represent the boolean expression conb in a
/// canonical fashion so as to weed out infeasible paths and hence bogus
/// summary tuples". This package provides exactly that canonical form:
/// hash-consed nodes, ITE with memoization, and satisfiability checks.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_BDD_BDD_H
#define BSAA_BDD_BDD_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace bsaa {
namespace bdd {

/// Handle to a BDD node. 0 is the constant false, 1 the constant true.
using BddRef = uint32_t;

constexpr BddRef BddFalse = 0;
constexpr BddRef BddTrue = 1;

/// Owns all nodes; every boolean operation is canonical (hash-consed),
/// so structural equality is pointer equality.
class BddManager {
public:
  BddManager();

  /// The function "variable \p Var is true". Variables are ordered by
  /// index: lower index closer to the root.
  BddRef var(uint32_t Var);

  /// The negation of var(\p Var).
  BddRef nvar(uint32_t Var);

  BddRef ite(BddRef F, BddRef G, BddRef H);
  BddRef bddAnd(BddRef F, BddRef G) { return ite(F, G, BddFalse); }
  BddRef bddOr(BddRef F, BddRef G) { return ite(F, BddTrue, G); }
  BddRef bddNot(BddRef F) { return ite(F, BddFalse, BddTrue); }
  BddRef bddXor(BddRef F, BddRef G) { return ite(F, bddNot(G), G); }
  BddRef bddImplies(BddRef F, BddRef G) { return ite(F, G, BddTrue); }

  /// F with variable \p Var fixed to \p Value.
  BddRef restrict(BddRef F, uint32_t Var, bool Value);

  /// True unless F is the constant false.
  bool isSat(BddRef F) const { return F != BddFalse; }
  bool isTautology(BddRef F) const { return F == BddTrue; }

  /// Number of satisfying assignments over \p NumVars variables.
  uint64_t satCount(BddRef F, uint32_t NumVars);

  /// One satisfying assignment as (var, value) pairs along a true path;
  /// empty for the constant false.
  std::vector<std::pair<uint32_t, bool>> anySat(BddRef F) const;

  /// Renders F as nested if-then-else text for debugging.
  std::string toString(BddRef F) const;

private:
  struct Node {
    uint32_t Var;
    BddRef Low;  ///< Cofactor for Var = false.
    BddRef High; ///< Cofactor for Var = true.
  };

  BddRef makeNode(uint32_t Var, BddRef Low, BddRef High);
  uint32_t topVar(BddRef F) const;
  BddRef cofactor(BddRef F, uint32_t Var, bool Value) const;
  /// Satisfying assignments over variables [topVar(F), NumVars).
  uint64_t countFrom(BddRef F, uint32_t NumVars);

  std::vector<Node> Nodes;
  std::unordered_map<uint64_t, BddRef> Unique;
  std::unordered_map<uint64_t, BddRef> IteCache;
  std::unordered_map<uint64_t, uint64_t> CountCache;
};

} // namespace bdd
} // namespace bsaa

#endif // BSAA_BDD_BDD_H
