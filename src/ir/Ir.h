//===- ir/Ir.h - Normalized pointer program IR ------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The normalized program representation every analysis in this project
/// consumes. Following the paper's Remark 1, every pointer assignment is
/// one of four canonical forms:
///
///   Copy    x = y
///   AddrOf  x = &y     (also x = &alloc_loc for heap allocation)
///   Load    x = *y
///   Store   *x = y
///
/// plus Nullify (x = NULL, the paper's model of deallocation), Call /
/// Branch / Lock / Unlock / Skip control statements. Structures have been
/// flattened into one variable per field by the frontend, conditionals are
/// treated as nondeterministic (both branches feasible), and a memory
/// allocation at location loc appears as `p = &alloc_loc`.
///
/// The control-flow graph is a graph of Locations, one statement per
/// location. Parameter passing and return values are materialized as
/// explicit Copy statements flanking each Call location, so flow-
/// insensitive analyses see them as ordinary assignments while the
/// summary-based FSCS engine can still treat the Call location as the
/// callee boundary.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_IR_IR_H
#define BSAA_IR_IR_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace bsaa {
namespace ir {

using VarId = uint32_t;
using FuncId = uint32_t;
using LocId = uint32_t;

constexpr VarId InvalidVar = UINT32_MAX;
constexpr FuncId InvalidFunc = UINT32_MAX;
constexpr LocId InvalidLoc = UINT32_MAX;

/// What a variable denotes.
enum class VarKind : uint8_t {
  Global,      ///< File-scope variable.
  Local,       ///< Function-scope variable.
  Param,       ///< Formal parameter.
  Temp,        ///< Compiler temporary from normalization.
  RetVal,      ///< Per-function return-value slot.
  AllocSite,   ///< Abstract heap object `alloc_loc` (one per malloc site).
  FunctionObj, ///< The address-taken identity of a function.
};

/// Base (pointee-most) type of a variable. `struct` never appears: the
/// frontend flattens structures into per-field variables.
enum class BaseType : uint8_t {
  Int,  ///< Plain data.
  Lock, ///< `lock_t`: variables of depth > 0 over Lock are lock pointers.
  Func, ///< Function type (for FunctionObj and function pointers).
};

/// One program variable / abstract memory object.
struct Variable {
  std::string Name;
  VarKind Kind = VarKind::Local;
  BaseType Base = BaseType::Int;
  /// Pointer depth: 0 for plain objects, 1 for `T*`, 2 for `T**`, ...
  /// AllocSite objects carry the depth of the value stored in them.
  uint8_t PtrDepth = 0;
  /// Owning function, or InvalidFunc for globals / alloc sites /
  /// function objects.
  FuncId Owner = InvalidFunc;

  bool isPointer() const { return PtrDepth > 0; }
  bool isLockPointer() const { return Base == BaseType::Lock && isPointer(); }
};

/// Statement kind of a CFG location.
enum class StmtKind : uint8_t {
  Skip,    ///< No-op (entry/exit markers, erased statements).
  Copy,    ///< Lhs = Rhs
  AddrOf,  ///< Lhs = &Rhs
  Load,    ///< Lhs = *Rhs
  Store,   ///< *Lhs = Rhs
  Alloc,   ///< Lhs = &Rhs where Rhs is an AllocSite (malloc)
  Nullify, ///< Lhs = NULL (models free; kills Lhs's value)
  Call,    ///< Call boundary; formal/actual copies sit on either side.
  Branch,  ///< Nondeterministic branch marker (conditions dropped).
  Return,  ///< Jump to function exit (RetVal copy precedes it).
  Lock,    ///< lock(Lhs)   -- Lhs is a lock pointer.
  Unlock,  ///< unlock(Lhs)
};

/// Returns true for kinds that assign through/to a pointer and therefore
/// participate in alias analysis.
inline bool isPointerAssignKind(StmtKind K) {
  switch (K) {
  case StmtKind::Copy:
  case StmtKind::AddrOf:
  case StmtKind::Load:
  case StmtKind::Store:
  case StmtKind::Alloc:
  case StmtKind::Nullify:
    return true;
  default:
    return false;
  }
}

/// Printable statement-kind name.
const char *stmtKindName(StmtKind K);

/// One CFG node holding exactly one statement.
struct Location {
  StmtKind Kind = StmtKind::Skip;
  VarId Lhs = InvalidVar;
  VarId Rhs = InvalidVar;
  FuncId Owner = InvalidFunc;
  /// For Call: resolved callees (singleton for direct calls; all
  /// compatible address-taken functions for function-pointer calls).
  std::vector<FuncId> Callees;
  /// For Call through a function pointer: the pointer variable.
  VarId IndirectTarget = InvalidVar;
  /// Optional source label ("1a" in the paper's figures).
  std::string Label;
  /// For Branch: a canonical key for the branch condition when it is a
  /// pure comparison of variables ("v12==v13"); empty for
  /// nondeterministic or complex conditions. Two branches with the
  /// same key test the same predicate -- the correlation the
  /// path-sensitivity extension (paper Section 3) exploits.
  std::string CondKey;
  /// For Branch with a CondKey: the variables the condition reads
  /// (assignments to them invalidate correlation along a path).
  std::vector<VarId> CondVars;
  /// For Branch: arm index of each successor edge, aligned with Succs
  /// (0 = condition true, 1 = false, 2 = unknown).
  std::vector<uint8_t> SuccArm;

  std::vector<LocId> Succs;
  std::vector<LocId> Preds;

  bool isPointerAssign() const { return isPointerAssignKind(Kind); }
  bool isCall() const { return Kind == StmtKind::Call; }
};

/// One function: a sub-CFG with dedicated entry/exit Skip locations.
struct Function {
  std::string Name;
  FuncId Id = InvalidFunc;
  std::vector<VarId> Params;
  /// Return-value slot; InvalidVar for void or non-pointer returns.
  VarId RetVal = InvalidVar;
  /// The FunctionObj variable denoting this function's address, or
  /// InvalidVar if its address is never taken.
  VarId FuncObj = InvalidVar;
  LocId Entry = InvalidLoc;
  LocId Exit = InvalidLoc;
  /// All locations of this function, in creation (roughly layout) order.
  std::vector<LocId> Locations;
};

/// A whole program.
class Program {
public:
  Program() = default;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  //===--------------------------------------------------------------===//
  // Construction
  //===--------------------------------------------------------------===//

  /// Appends a variable; returns its dense id.
  VarId addVariable(Variable V);

  /// Appends a function; returns its id. By default the entry/exit Skip
  /// boundary locations are created immediately; pass false to defer
  /// them to materializeBoundary(). The frontend defers so each
  /// function's locations (boundary included) form one contiguous id
  /// range in body-lowering order -- which is what keeps the LocIds of
  /// untouched functions stable when a program edit appends a function
  /// (see workload/ProgramGenerator.h, EditKind::Append).
  FuncId addFunction(std::string Name, bool MaterializeBoundary = true);

  /// Creates the entry/exit boundary locations of \p F if deferred by
  /// addFunction(Name, false); no-op when they already exist.
  void materializeBoundary(FuncId F);

  /// Appends a location to function \p F; returns its global id. The
  /// location is *not* wired into the CFG; use addEdge.
  LocId addLocation(FuncId F, Location L);

  /// Adds CFG edge From -> To (idempotent).
  void addEdge(LocId From, LocId To);

  //===--------------------------------------------------------------===//
  // Access
  //===--------------------------------------------------------------===//

  Variable &var(VarId Id) {
    assert(Id < Vars.size());
    return Vars[Id];
  }
  const Variable &var(VarId Id) const {
    assert(Id < Vars.size());
    return Vars[Id];
  }
  Function &func(FuncId Id) {
    assert(Id < Funcs.size());
    return Funcs[Id];
  }
  const Function &func(FuncId Id) const {
    assert(Id < Funcs.size());
    return Funcs[Id];
  }
  Location &loc(LocId Id) {
    assert(Id < Locs.size());
    return Locs[Id];
  }
  const Location &loc(LocId Id) const {
    assert(Id < Locs.size());
    return Locs[Id];
  }

  uint32_t numVars() const { return static_cast<uint32_t>(Vars.size()); }
  uint32_t numFuncs() const { return static_cast<uint32_t>(Funcs.size()); }
  uint32_t numLocs() const { return static_cast<uint32_t>(Locs.size()); }

  /// Number of pointer variables (the paper's "# pointers" column).
  uint32_t numPointers() const;

  /// The program entry function ("main"), or InvalidFunc.
  FuncId entryFunction() const { return EntryFunc; }
  void setEntryFunction(FuncId F) { EntryFunc = F; }

  /// Finds a function by name; returns InvalidFunc if absent.
  FuncId findFunction(const std::string &Name) const;

  /// Finds a variable by name (first match); returns InvalidVar.
  VarId findVariable(const std::string &Name) const;

  /// Finds a location by source label; returns InvalidLoc.
  LocId findLabel(const std::string &Label) const;

  //===--------------------------------------------------------------===//
  // Validation
  //===--------------------------------------------------------------===//

  /// Structural sanity check. Returns true if well-formed; otherwise
  /// false with a description in \p Error (if non-null).
  bool verify(std::string *Error = nullptr) const;

private:
  std::vector<Variable> Vars;
  std::vector<Function> Funcs;
  std::vector<Location> Locs;
  FuncId EntryFunc = InvalidFunc;
};

/// A reference to a pointer expression of the canonical shapes in
/// Remark 1: `&v` (Deref == -1), `v` (Deref == 0), or `*v` (Deref == +1).
/// Summary tuples and update-sequence frontiers range over these.
struct Ref {
  VarId Var = InvalidVar;
  int8_t Deref = 0;

  static Ref addrOf(VarId V) { return Ref{V, -1}; }
  static Ref direct(VarId V) { return Ref{V, 0}; }
  static Ref deref(VarId V) { return Ref{V, 1}; }

  bool valid() const { return Var != InvalidVar; }
  bool operator==(const Ref &O) const {
    return Var == O.Var && Deref == O.Deref;
  }
  bool operator!=(const Ref &O) const { return !(*this == O); }
  bool operator<(const Ref &O) const {
    return Var != O.Var ? Var < O.Var : Deref < O.Deref;
  }
};

/// Renders a Ref as "&v", "v", or "*v" using \p P for names.
std::string refToString(const Program &P, Ref R);

} // namespace ir
} // namespace bsaa

#endif // BSAA_IR_IR_H
