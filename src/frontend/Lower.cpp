//===- frontend/Lower.cpp - AST to IR lowering ----------------------------===//

#include "frontend/Lower.h"

#include "frontend/Diagnostics.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"

#include <algorithm>
#include <cassert>

using namespace bsaa;
using namespace bsaa::frontend;
using ir::InvalidFunc;
using ir::InvalidLoc;
using ir::InvalidVar;

Lowering::Lowering(const TranslationUnit &Unit, Diagnostics &Diags)
    : Unit(Unit), Diags(Diags) {}

//===--------------------------------------------------------------------===//
// Type helpers
//===--------------------------------------------------------------------===//

Lowering::ScalarType Lowering::scalarOf(const TypeSpec &T) const {
  ScalarType S;
  S.Depth = T.PtrDepth;
  switch (T.Name) {
  case TypeName::Int:
  case TypeName::Void:
    S.Base = ir::BaseType::Int;
    break;
  case TypeName::Lock:
    S.Base = ir::BaseType::Lock;
    break;
  case TypeName::Fptr:
    S.Base = ir::BaseType::Func;
    break;
  case TypeName::Struct:
    // Callers must flatten structs before asking for a scalar type.
    S.Base = ir::BaseType::Int;
    break;
  }
  return S;
}

bool Lowering::typesCompatible(ScalarType A, ScalarType B) {
  if (A.Wildcard || B.Wildcard)
    return true;
  return A.Base == B.Base && A.Depth == B.Depth;
}

const char *Lowering::typeToString(ScalarType T) {
  // Small static ring of buffers keeps the signature simple for
  // diagnostics; lowering is single-threaded.
  static thread_local char Buf[4][32];
  static thread_local int Idx = 0;
  char *B = Buf[Idx = (Idx + 1) % 4];
  const char *Base = T.Base == ir::BaseType::Lock   ? "lock_t"
                     : T.Base == ir::BaseType::Func ? "fptr_t"
                                                    : "int";
  int N = snprintf(B, sizeof(Buf[0]), "%s", Base);
  for (int I = 0; I < T.Depth && N < 30; ++I)
    B[N++] = '*';
  B[N] = 0;
  return B;
}

bool Lowering::flattenType(const TypeSpec &T, SourcePos Pos,
                           std::vector<FlatField> &Out) {
  if (T.Name != TypeName::Struct) {
    Out.push_back(FlatField{"", scalarOf(T)});
    return true;
  }
  if (T.PtrDepth > 0) {
    Diags.error(Pos, "pointer-to-struct is not supported; the frontend "
                     "flattens structures by value (paper Remark 1)");
    return false;
  }
  auto It = Structs.find(T.StructTag);
  if (It == Structs.end()) {
    Diags.error(Pos, "unknown struct '" + T.StructTag + "'");
    return false;
  }
  for (const FieldDecl &F : It->second->Fields) {
    std::vector<FlatField> Sub;
    if (!flattenType(F.Type, F.Pos, Sub))
      return false;
    for (FlatField &FF : Sub) {
      std::string Path = F.Name;
      if (!FF.Path.empty())
        Path += "." + FF.Path;
      Out.push_back(FlatField{std::move(Path), FF.Type});
    }
  }
  return true;
}

//===--------------------------------------------------------------------===//
// Phase 1: structs
//===--------------------------------------------------------------------===//

bool Lowering::collectStructs() {
  for (const StructDecl &S : Unit.Structs) {
    if (!Structs.emplace(S.Tag, &S).second)
      Diags.error(S.Pos, "redefinition of struct '" + S.Tag + "'");
  }
  // Reject recursive struct nesting (flattening would not terminate).
  for (const StructDecl &S : Unit.Structs) {
    std::vector<const StructDecl *> Stack = {&S};
    std::set<std::string> Seen = {S.Tag};
    while (!Stack.empty()) {
      const StructDecl *Cur = Stack.back();
      Stack.pop_back();
      for (const FieldDecl &F : Cur->Fields) {
        if (F.Type.Name != TypeName::Struct || F.Type.PtrDepth > 0)
          continue;
        if (!Seen.insert(F.Type.StructTag).second) {
          Diags.error(F.Pos, "recursive struct nesting via '" +
                                 F.Type.StructTag + "'");
          return false;
        }
        auto It = Structs.find(F.Type.StructTag);
        if (It != Structs.end())
          Stack.push_back(It->second);
      }
    }
  }
  return !Diags.hasErrors();
}

//===--------------------------------------------------------------------===//
// Phase 2: functions
//===--------------------------------------------------------------------===//

bool Lowering::collectFunctions() {
  for (const FunctionDecl &F : Unit.Functions) {
    auto It = FuncDecls.find(F.Name);
    if (It != FuncDecls.end()) {
      if (F.IsDefinition && It->second->IsDefinition) {
        Diags.error(F.Pos, "redefinition of function '" + F.Name + "'");
        continue;
      }
      // Prefer the definition over a prototype.
      if (F.IsDefinition)
        FuncDecls[F.Name] = &F;
      continue;
    }
    FuncDecls[F.Name] = &F;
  }

  for (const auto &[Name, FD] : FuncDecls) {
    if (FD->ReturnType.Name == TypeName::Struct) {
      Diags.error(FD->Pos, "returning a struct by value is not supported");
      continue;
    }
    // Boundary locations are deferred to lowerFunctionBody so that each
    // function's location ids are contiguous in lowering order; see
    // Program::addFunction.
    ir::FuncId Id = Prog->addFunction(Name, /*MaterializeBoundary=*/false);
    FuncIds[Name] = Id;
    ir::Function &F = Prog->func(Id);

    for (const ParamDecl &P : FD->Params) {
      if (P.Type.Name == TypeName::Struct) {
        Diags.error(P.Pos, "passing a struct by value is not supported");
        continue;
      }
      ScalarType T = scalarOf(P.Type);
      ir::Variable V;
      V.Name = Name + "::" + P.Name;
      V.Kind = ir::VarKind::Param;
      V.Base = T.Base;
      V.PtrDepth = T.Depth;
      V.Owner = Id;
      F.Params.push_back(Prog->addVariable(std::move(V)));
    }

    if (!FD->ReturnType.isVoid()) {
      ScalarType T = scalarOf(FD->ReturnType);
      ir::Variable V;
      V.Name = Name + "#ret";
      V.Kind = ir::VarKind::RetVal;
      V.Base = T.Base;
      V.PtrDepth = T.Depth;
      V.Owner = Id;
      F.RetVal = Prog->addVariable(std::move(V));
    }
  }
  return !Diags.hasErrors();
}

//===--------------------------------------------------------------------===//
// Phase 3: address-taken functions
//===--------------------------------------------------------------------===//

void Lowering::scanExprForAddressTaken(const Expr *E, bool CallPosition) {
  if (!E)
    return;
  switch (E->Kind) {
  case ExprKind::Ident:
    // A function name outside direct-call position is address-taken.
    if (!CallPosition && FuncDecls.count(E->Name))
      AddressTaken.insert(E->Name);
    return;
  case ExprKind::AddrOf:
    if (E->Sub && E->Sub->Kind == ExprKind::Ident &&
        FuncDecls.count(E->Sub->Name)) {
      AddressTaken.insert(E->Sub->Name);
      return;
    }
    scanExprForAddressTaken(E->Sub.get(), false);
    return;
  case ExprKind::Call:
    // Direct call: `f(...)` with f a function name does not take the
    // address. `(*fp)(...)` and `fp(...)` get scanned normally.
    if (E->Sub && E->Sub->Kind == ExprKind::Ident &&
        FuncDecls.count(E->Sub->Name)) {
      // Direct call position.
    } else {
      scanExprForAddressTaken(E->Sub.get(), true);
    }
    for (const ExprPtr &A : E->Args)
      scanExprForAddressTaken(A.get(), false);
    return;
  default:
    scanExprForAddressTaken(E->Sub.get(), false);
    scanExprForAddressTaken(E->Rhs.get(), false);
    for (const ExprPtr &A : E->Args)
      scanExprForAddressTaken(A.get(), false);
    return;
  }
}

void Lowering::scanStmtsForAddressTaken(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts) {
    if (!S)
      continue;
    scanExprForAddressTaken(S->Lhs.get(), false);
    scanExprForAddressTaken(S->Rhs.get(), false);
    for (const Declarator &D : S->Decls)
      scanExprForAddressTaken(D.Init.get(), false);
    scanStmtsForAddressTaken(S->Body);
    scanStmtsForAddressTaken(S->ElseBody);
  }
}

void Lowering::collectAddressTaken() {
  for (const FunctionDecl &F : Unit.Functions)
    scanStmtsForAddressTaken(F.Body);
  for (const GlobalDecl &G : Unit.Globals)
    for (const Declarator &D : G.Decls)
      scanExprForAddressTaken(D.Init.get(), false);

  for (const std::string &Name : AddressTaken) {
    ir::FuncId Id = FuncIds[Name];
    ir::Function &F = Prog->func(Id);
    ir::Variable V;
    V.Name = Name + "#fn";
    V.Kind = ir::VarKind::FunctionObj;
    V.Base = ir::BaseType::Func;
    V.PtrDepth = 0;
    F.FuncObj = Prog->addVariable(std::move(V));
    AddressTakenByArity[FuncDecls[Name]->Params.size()].push_back(Id);
  }
}

//===--------------------------------------------------------------------===//
// Phase 4: globals
//===--------------------------------------------------------------------===//

bool Lowering::lowerGlobals() {
  // The outermost scope holds globals for the entire lowering.
  pushScope();
  for (const GlobalDecl &G : Unit.Globals) {
    for (const Declarator &D : G.Decls) {
      if (D.Init) {
        Diags.error(D.Pos, "global initializers are not supported; assign "
                           "in main instead");
        continue;
      }
      TypeSpec T = G.Type;
      T.PtrDepth = static_cast<uint8_t>(T.PtrDepth + D.ExtraPtrDepth);
      Binding *B = declare(D.Name, D.Pos);
      if (!B)
        continue;
      if (T.Name == TypeName::Struct && T.PtrDepth == 0) {
        std::vector<FlatField> Fields;
        if (!flattenType(T, D.Pos, Fields))
          continue;
        B->IsStruct = true;
        B->StructTag = T.StructTag;
        for (FlatField &F : Fields) {
          ir::Variable V;
          V.Name = D.Name + "." + F.Path;
          V.Kind = ir::VarKind::Global;
          V.Base = F.Type.Base;
          V.PtrDepth = F.Type.Depth;
          B->Fields.emplace_back(F.Path, Prog->addVariable(std::move(V)));
        }
      } else {
        std::vector<FlatField> Fields;
        if (!flattenType(T, D.Pos, Fields))
          continue;
        assert(Fields.size() == 1 && "scalar flattens to one field");
        ir::Variable V;
        V.Name = D.Name;
        V.Kind = ir::VarKind::Global;
        V.Base = Fields[0].Type.Base;
        V.PtrDepth = Fields[0].Type.Depth;
        B->Type = Fields[0].Type;
        B->Scalar = Prog->addVariable(std::move(V));
      }
    }
  }
  return !Diags.hasErrors();
}

//===--------------------------------------------------------------------===//
// Scope handling
//===--------------------------------------------------------------------===//

void Lowering::pushScope() { Scopes.emplace_back(); }
void Lowering::popScope() { Scopes.pop_back(); }

Lowering::Binding *Lowering::declare(const std::string &Name,
                                     SourcePos Pos) {
  assert(!Scopes.empty());
  if (Scopes.back().count(Name)) {
    Diags.error(Pos, "redefinition of '" + Name + "'");
    return nullptr;
  }
  if (FuncDecls.count(Name)) {
    Diags.error(Pos, "'" + Name + "' shadows a function name");
    return nullptr;
  }
  return &Scopes.back()[Name];
}

const Lowering::Binding *Lowering::lookup(const std::string &Name) const {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return &Found->second;
  }
  return nullptr;
}

//===--------------------------------------------------------------------===//
// Emission helpers
//===--------------------------------------------------------------------===//

ir::LocId Lowering::emit(ir::StmtKind K, ir::VarId Lhs, ir::VarId Rhs,
                         const std::string &Label) {
  ir::Location L;
  L.Kind = K;
  L.Lhs = Lhs;
  L.Rhs = Rhs;
  L.Label = Label;
  ir::LocId Id = Prog->addLocation(CurFunc, std::move(L));
  for (ir::LocId F : Frontier)
    Prog->addEdge(F, Id);
  Frontier.assign(1, Id);
  return Id;
}

ir::VarId Lowering::makeTemp(ScalarType Type) {
  ir::Variable V;
  V.Name = Prog->func(CurFunc).Name + "::%t" + std::to_string(TempCounter++);
  V.Kind = ir::VarKind::Temp;
  V.Base = Type.Base;
  V.PtrDepth = Type.Depth;
  V.Owner = CurFunc;
  return Prog->addVariable(std::move(V));
}

ir::VarId Lowering::makeAllocSite(ScalarType PointeeType) {
  ir::Variable V;
  V.Name = "alloc@" + Prog->func(CurFunc).Name + ":" +
           std::to_string(AllocCounter++);
  V.Kind = ir::VarKind::AllocSite;
  V.Base = PointeeType.Base;
  V.PtrDepth = PointeeType.Depth;
  return Prog->addVariable(std::move(V));
}

//===--------------------------------------------------------------------===//
// Phase 5: function bodies
//===--------------------------------------------------------------------===//

void Lowering::lowerFunctionBody(const FunctionDecl &FD) {
  CurFunc = FuncIds[FD.Name];
  CurFuncDecl = &FD;
  Prog->materializeBoundary(CurFunc);
  ir::Function &F = Prog->func(CurFunc);

  pushScope();
  // Bind parameters.
  size_t ParamIdx = 0;
  for (const ParamDecl &P : FD.Params) {
    if (P.Type.Name == TypeName::Struct)
      continue; // Already diagnosed.
    Binding *B = declare(P.Name, P.Pos);
    if (B && ParamIdx < F.Params.size()) {
      B->Scalar = F.Params[ParamIdx];
      B->Type = scalarOf(P.Type);
    }
    ++ParamIdx;
  }

  Frontier.assign(1, F.Entry);
  lowerStmts(FD.Body);
  // Fall-through to the function exit.
  for (ir::LocId L : Frontier)
    Prog->addEdge(L, F.Exit);
  Frontier.clear();

  popScope();
  CurFunc = InvalidFunc;
  CurFuncDecl = nullptr;
}

void Lowering::lowerStmts(const std::vector<StmtPtr> &Stmts) {
  for (const StmtPtr &S : Stmts)
    if (S)
      lowerStmt(*S);
}

void Lowering::lowerStmt(const Stmt &S) {
  switch (S.Kind) {
  case StmtKind::Decl:
    lowerDecl(S);
    return;
  case StmtKind::Assign:
    lowerAssign(S);
    return;
  case StmtKind::Expr:
    if (S.Rhs && S.Rhs->Kind == ExprKind::Call)
      lowerCallStmt(*S.Rhs, S.Label);
    return;
  case StmtKind::If:
    lowerIf(S);
    return;
  case StmtKind::While:
    lowerWhile(S);
    return;
  case StmtKind::Block:
    pushScope();
    lowerStmts(S.Body);
    popScope();
    return;
  case StmtKind::Return:
    lowerReturn(S);
    return;
  case StmtKind::Lock:
  case StmtKind::Unlock:
    lowerLockUnlock(S);
    return;
  case StmtKind::Free:
    lowerFree(S);
    return;
  case StmtKind::Empty:
    return;
  }
}

void Lowering::lowerDecl(const Stmt &S) {
  for (const Declarator &D : S.Decls) {
    TypeSpec T = S.DeclType;
    T.PtrDepth = static_cast<uint8_t>(T.PtrDepth + D.ExtraPtrDepth);
    Binding *B = declare(D.Name, D.Pos);
    if (!B)
      continue;

    // Shadowing across scopes is legal; disambiguate the IR name.
    std::string IrName = Prog->func(CurFunc).Name + "::" + D.Name;
    uint32_t &Shadow = ShadowCounter[IrName];
    if (Shadow > 0)
      IrName.append(".").append(std::to_string(Shadow));
    ++Shadow;

    if (T.Name == TypeName::Struct && T.PtrDepth == 0) {
      std::vector<FlatField> Fields;
      if (!flattenType(T, D.Pos, Fields))
        continue;
      B->IsStruct = true;
      B->StructTag = T.StructTag;
      for (FlatField &F : Fields) {
        ir::Variable V;
        V.Name = IrName + "." + F.Path;
        V.Kind = ir::VarKind::Local;
        V.Base = F.Type.Base;
        V.PtrDepth = F.Type.Depth;
        V.Owner = CurFunc;
        B->Fields.emplace_back(F.Path, Prog->addVariable(std::move(V)));
      }
      if (D.Init)
        Diags.error(D.Pos, "struct initializers are not supported");
      continue;
    }

    std::vector<FlatField> Fields;
    if (!flattenType(T, D.Pos, Fields))
      continue;
    ir::Variable V;
    V.Name = IrName;
    V.Kind = ir::VarKind::Local;
    V.Base = Fields[0].Type.Base;
    V.PtrDepth = Fields[0].Type.Depth;
    V.Owner = CurFunc;
    B->Type = Fields[0].Type;
    B->Scalar = Prog->addVariable(std::move(V));

    if (D.Init) {
      // `int *x = e;` lowers like `x = e;`.
      Expr LhsIdent(ExprKind::Ident, D.Pos);
      LhsIdent.Name = D.Name;
      lowerAssignExpr(&LhsIdent, D.Init.get(), D.Pos, S.Label);
    }
  }
}

//===--------------------------------------------------------------------===//
// L-value / R-value reduction
//===--------------------------------------------------------------------===//

Lowering::LPlace Lowering::reduceLValue(const Expr *E) {
  LPlace P;
  if (!E)
    return P;
  switch (E->Kind) {
  case ExprKind::Ident: {
    const Binding *B = lookup(E->Name);
    if (!B) {
      Diags.error(E->Pos, "use of undeclared identifier '" + E->Name + "'");
      return P;
    }
    if (B->IsStruct) {
      Diags.error(E->Pos,
                  "whole-struct lvalues only appear in struct-to-struct "
                  "assignment");
      return P;
    }
    P.K = LPlace::Var;
    P.V = B->Scalar;
    P.Type = B->Type;
    return P;
  }
  case ExprKind::Field: {
    // Resolve the full field path down to the base identifier.
    std::vector<std::string> Path;
    const Expr *Base = E;
    while (Base->Kind == ExprKind::Field) {
      Path.push_back(Base->Name);
      Base = Base->Sub.get();
    }
    std::reverse(Path.begin(), Path.end());
    if (!Base || Base->Kind != ExprKind::Ident) {
      Diags.error(E->Pos, "field access requires a named struct variable");
      return P;
    }
    const Binding *B = lookup(Base->Name);
    if (!B) {
      Diags.error(Base->Pos,
                  "use of undeclared identifier '" + Base->Name + "'");
      return P;
    }
    if (!B->IsStruct) {
      Diags.error(E->Pos, "'" + Base->Name + "' is not a struct");
      return P;
    }
    std::string Joined;
    for (size_t I = 0; I < Path.size(); ++I)
      Joined += (I ? "." : "") + Path[I];
    for (const auto &[FieldPath, V] : B->Fields) {
      if (FieldPath == Joined) {
        P.K = LPlace::Var;
        P.V = V;
        const ir::Variable &Var = Prog->var(V);
        P.Type = ScalarType{Var.Base, Var.PtrDepth, false};
        return P;
      }
    }
    Diags.error(E->Pos, "no field '" + Joined + "' in struct '" +
                            B->StructTag + "'");
    return P;
  }
  case ExprKind::Deref: {
    RValue Base = reduceRValue(E->Sub.get(), ScalarType{});
    if (Base.V == InvalidVar)
      return P;
    if (Base.Type.Depth == 0) {
      Diags.error(E->Pos, "cannot dereference a non-pointer");
      return P;
    }
    P.K = LPlace::DerefVar;
    P.V = Base.V;
    P.Type =
        ScalarType{Base.Type.Base,
                   static_cast<uint8_t>(Base.Type.Depth - 1), false};
    return P;
  }
  default:
    Diags.error(E->Pos, "expression is not assignable");
    return P;
  }
}

Lowering::RValue Lowering::reduceRValue(const Expr *E, ScalarType Expected) {
  RValue R;
  if (!E)
    return R;
  switch (E->Kind) {
  case ExprKind::Ident: {
    // Function name as a value: materialize &func.
    auto FIt = FuncIds.find(E->Name);
    if (FIt != FuncIds.end()) {
      ir::Function &F = Prog->func(FIt->second);
      if (F.FuncObj == InvalidVar) {
        Diags.error(E->Pos, "internal: function object for '" + E->Name +
                                "' was not created");
        return R;
      }
      R.Type = ScalarType{ir::BaseType::Func, 1, false};
      R.V = makeTemp(R.Type);
      emit(ir::StmtKind::AddrOf, R.V, F.FuncObj);
      return R;
    }
    const Binding *B = lookup(E->Name);
    if (!B) {
      Diags.error(E->Pos, "use of undeclared identifier '" + E->Name + "'");
      return R;
    }
    if (B->IsStruct) {
      Diags.error(E->Pos, "struct value used where a scalar is required");
      return R;
    }
    R.V = B->Scalar;
    R.Type = B->Type;
    return R;
  }
  case ExprKind::Field: {
    LPlace P = reduceLValue(E);
    if (P.K != LPlace::Var)
      return R;
    R.V = P.V;
    R.Type = P.Type;
    return R;
  }
  case ExprKind::Deref: {
    RValue Base = reduceRValue(E->Sub.get(), ScalarType{});
    if (Base.V == InvalidVar)
      return R;
    if (Base.Type.Depth == 0) {
      Diags.error(E->Pos, "cannot dereference a non-pointer");
      return R;
    }
    R.Type = ScalarType{Base.Type.Base,
                        static_cast<uint8_t>(Base.Type.Depth - 1), false};
    R.V = makeTemp(R.Type);
    emit(ir::StmtKind::Load, R.V, Base.V);
    return R;
  }
  case ExprKind::AddrOf: {
    // &func is handled via Ident above; here handle &lvalue.
    if (E->Sub && E->Sub->Kind == ExprKind::Ident &&
        FuncIds.count(E->Sub->Name))
      return reduceRValue(E->Sub.get(), Expected);
    LPlace P = reduceLValue(E->Sub.get());
    if (P.K == LPlace::None)
      return R;
    if (P.K == LPlace::DerefVar) {
      // &*p == p.
      R.V = P.V;
      R.Type = ScalarType{P.Type.Base,
                          static_cast<uint8_t>(P.Type.Depth + 1), false};
      return R;
    }
    R.Type = ScalarType{P.Type.Base,
                        static_cast<uint8_t>(P.Type.Depth + 1), false};
    R.V = makeTemp(R.Type);
    emit(ir::StmtKind::AddrOf, R.V, P.V);
    return R;
  }
  case ExprKind::Malloc: {
    ScalarType T = Expected;
    if (T.Depth == 0) {
      // malloc assigned to a non-pointer or in unknown context: model as
      // a depth-1 int pointer.
      T = ScalarType{ir::BaseType::Int, 1, false};
    }
    ScalarType Pointee{T.Base, static_cast<uint8_t>(T.Depth - 1), false};
    ir::VarId Site = makeAllocSite(Pointee);
    R.Type = T;
    R.V = makeTemp(T);
    emit(ir::StmtKind::Alloc, R.V, Site);
    return R;
  }
  case ExprKind::Null: {
    R.IsNull = true;
    R.Type.Wildcard = true;
    return R;
  }
  case ExprKind::Call:
    return lowerCall(*E, Expected, "");
  case ExprKind::Number:
  case ExprKind::Binary:
  case ExprKind::Not: {
    // Integer-valued expressions are irrelevant to aliasing. Evaluate
    // nested calls for their effects, then produce an int temp.
    if (E->Kind != ExprKind::Number) {
      if (E->Sub)
        reduceRValue(E->Sub.get(), ScalarType{});
      if (E->Rhs)
        reduceRValue(E->Rhs.get(), ScalarType{});
    }
    R.Type = ScalarType{ir::BaseType::Int, 0, false};
    R.V = makeTemp(R.Type);
    return R;
  }
  }
  return R;
}

//===--------------------------------------------------------------------===//
// Assignments
//===--------------------------------------------------------------------===//

void Lowering::lowerAssign(const Stmt &S) {
  lowerAssignExpr(S.Lhs.get(), S.Rhs.get(), S.Pos, S.Label);
}

void Lowering::lowerAssignExpr(const Expr *LhsE, const Expr *RhsE,
                               SourcePos Pos, const std::string &Label) {
  if (!LhsE || !RhsE)
    return;

  // Struct-to-struct assignment: expand to per-field copies.
  if (LhsE->Kind == ExprKind::Ident && RhsE->Kind == ExprKind::Ident) {
    const Binding *LB = lookup(LhsE->Name);
    const Binding *RB = lookup(RhsE->Name);
    if (LB && LB->IsStruct) {
      if (!RB || !RB->IsStruct || RB->StructTag != LB->StructTag) {
        Diags.error(Pos, "struct assignment requires identical struct "
                         "types on both sides");
        return;
      }
      for (size_t I = 0; I < LB->Fields.size(); ++I)
        emit(ir::StmtKind::Copy, LB->Fields[I].second,
             RB->Fields[I].second, Label);
      return;
    }
  }

  LPlace Place = reduceLValue(LhsE);
  if (Place.K == LPlace::None)
    return;

  // Assignments of constant (address-free) values end any update
  // sequence through the target: model them as Nullify, exactly like the
  // paper models deallocation. This keeps depth-0 assignments -- which
  // the paper's update-sequence machinery tracks (Theorem 6 base case)
  // -- in the IR without inventing junk temporaries for literals.
  if (RhsE->Kind == ExprKind::Number || RhsE->Kind == ExprKind::Binary ||
      RhsE->Kind == ExprKind::Not) {
    if (RhsE->Kind != ExprKind::Number) {
      // Evaluate nested calls for their effects.
      reduceRValue(RhsE, ScalarType{});
    }
    if (Place.K == LPlace::Var) {
      emit(ir::StmtKind::Nullify, Place.V, InvalidVar, Label);
    } else {
      ir::VarId T = makeTemp(Place.Type);
      emit(ir::StmtKind::Nullify, T);
      emit(ir::StmtKind::Store, Place.V, T, Label);
    }
    return;
  }

  if (Place.K == LPlace::Var) {
    ir::VarId X = Place.V;
    // Pattern-match the canonical forms directly so simple sources do
    // not go through a temporary.
    switch (RhsE->Kind) {
    case ExprKind::Ident: {
      if (FuncIds.count(RhsE->Name)) {
        // x = f  (function name decays to &f).
        ir::Function &F = Prog->func(FuncIds[RhsE->Name]);
        if (!typesCompatible(Place.Type,
                             ScalarType{ir::BaseType::Func, 1, false})) {
          Diags.error(Pos, "cannot assign a function address to '" +
                               std::string(typeToString(Place.Type)) + "'");
          return;
        }
        emit(ir::StmtKind::AddrOf, X, F.FuncObj, Label);
        return;
      }
      RValue R = reduceRValue(RhsE, Place.Type);
      if (R.V == InvalidVar)
        return;
      if (!typesCompatible(Place.Type, R.Type)) {
        Diags.error(Pos, std::string("type mismatch in assignment: ") +
                             typeToString(Place.Type) + " vs " +
                             typeToString(R.Type));
        return;
      }
      emit(ir::StmtKind::Copy, X, R.V, Label);
      return;
    }
    case ExprKind::Field: {
      RValue R = reduceRValue(RhsE, Place.Type);
      if (R.V == InvalidVar)
        return;
      if (!typesCompatible(Place.Type, R.Type)) {
        Diags.error(Pos, std::string("type mismatch in assignment: ") +
                             typeToString(Place.Type) + " vs " +
                             typeToString(R.Type));
        return;
      }
      emit(ir::StmtKind::Copy, X, R.V, Label);
      return;
    }
    case ExprKind::AddrOf: {
      if (RhsE->Sub && RhsE->Sub->Kind == ExprKind::Ident &&
          FuncIds.count(RhsE->Sub->Name)) {
        ir::Function &F = Prog->func(FuncIds[RhsE->Sub->Name]);
        emit(ir::StmtKind::AddrOf, X, F.FuncObj, Label);
        return;
      }
      LPlace Sub = reduceLValue(RhsE->Sub.get());
      if (Sub.K == LPlace::None)
        return;
      ScalarType AddrType{Sub.Type.Base,
                          static_cast<uint8_t>(Sub.Type.Depth + 1), false};
      if (!typesCompatible(Place.Type, AddrType)) {
        Diags.error(Pos, std::string("type mismatch in assignment: ") +
                             typeToString(Place.Type) + " vs " +
                             typeToString(AddrType));
        return;
      }
      if (Sub.K == LPlace::Var)
        emit(ir::StmtKind::AddrOf, X, Sub.V, Label); // x = &y
      else
        emit(ir::StmtKind::Copy, X, Sub.V, Label); // x = &*y == y
      return;
    }
    case ExprKind::Deref: {
      RValue Base = reduceRValue(RhsE->Sub.get(), ScalarType{});
      if (Base.V == InvalidVar)
        return;
      if (Base.Type.Depth == 0) {
        Diags.error(RhsE->Pos, "cannot dereference a non-pointer");
        return;
      }
      ScalarType ValType{Base.Type.Base,
                         static_cast<uint8_t>(Base.Type.Depth - 1), false};
      if (!typesCompatible(Place.Type, ValType)) {
        Diags.error(Pos, std::string("type mismatch in assignment: ") +
                             typeToString(Place.Type) + " vs " +
                             typeToString(ValType));
        return;
      }
      emit(ir::StmtKind::Load, X, Base.V, Label); // x = *y
      return;
    }
    case ExprKind::Malloc: {
      if (Place.Type.Depth == 0) {
        Diags.error(Pos, "cannot assign malloc() to a non-pointer");
        return;
      }
      ScalarType Pointee{Place.Type.Base,
                         static_cast<uint8_t>(Place.Type.Depth - 1), false};
      ir::VarId Site = makeAllocSite(Pointee);
      emit(ir::StmtKind::Alloc, X, Site, Label);
      return;
    }
    case ExprKind::Null:
      emit(ir::StmtKind::Nullify, X, InvalidVar, Label);
      return;
    case ExprKind::Call: {
      RValue R = lowerCall(*RhsE, Place.Type, Label);
      if (R.V == InvalidVar)
        return;
      emit(ir::StmtKind::Copy, X, R.V, Label);
      return;
    }
    default: {
      RValue R = reduceRValue(RhsE, Place.Type);
      if (R.V == InvalidVar)
        return;
      if (!typesCompatible(Place.Type, R.Type)) {
        Diags.error(Pos, std::string("type mismatch in assignment: ") +
                             typeToString(Place.Type) + " vs " +
                             typeToString(R.Type));
        return;
      }
      emit(ir::StmtKind::Copy, X, R.V, Label);
      return;
    }
    }
  }

  // Place is *x: reduce rhs to a plain variable, then Store.
  RValue R = reduceRValue(RhsE, Place.Type);
  if (R.IsNull) {
    // *x = NULL: kills the pointed-to value. Model with a temp that holds
    // NULL: t = NULL; *x = t.
    ir::VarId T = makeTemp(Place.Type);
    emit(ir::StmtKind::Nullify, T, InvalidVar);
    emit(ir::StmtKind::Store, Place.V, T, Label);
    return;
  }
  if (R.V == InvalidVar)
    return;
  if (!typesCompatible(Place.Type, R.Type)) {
    Diags.error(Pos, std::string("type mismatch in store: ") +
                         typeToString(Place.Type) + " vs " +
                         typeToString(R.Type));
    return;
  }
  emit(ir::StmtKind::Store, Place.V, R.V, Label);
}

//===--------------------------------------------------------------------===//
// Calls
//===--------------------------------------------------------------------===//

Lowering::RValue Lowering::lowerCall(const Expr &CallE, ScalarType Expected,
                                     const std::string &Label) {
  RValue Result;
  const Expr *CalleeE = CallE.Sub.get();
  if (!CalleeE) {
    Diags.error(CallE.Pos, "malformed call");
    return Result;
  }
  // Unwrap `(*fp)(...)`.
  if (CalleeE->Kind == ExprKind::Deref && CalleeE->Sub &&
      CalleeE->Sub->Kind == ExprKind::Ident &&
      !FuncIds.count(CalleeE->Sub->Name))
    CalleeE = CalleeE->Sub.get();

  std::vector<ir::FuncId> Callees;
  ir::VarId IndirectTarget = InvalidVar;

  if (CalleeE->Kind == ExprKind::Ident && FuncIds.count(CalleeE->Name)) {
    Callees.push_back(FuncIds[CalleeE->Name]);
  } else if (CalleeE->Kind == ExprKind::Ident) {
    const Binding *B = lookup(CalleeE->Name);
    if (!B || B->IsStruct || B->Type.Base != ir::BaseType::Func) {
      Diags.error(CalleeE->Pos,
                  "called object '" + CalleeE->Name +
                      "' is neither a function nor an fptr_t variable");
      return Result;
    }
    IndirectTarget = B->Scalar;
    // Conservative resolution: any address-taken function of matching
    // arity (Emami et al.; see DESIGN.md).
    auto It = AddressTakenByArity.find(CallE.Args.size());
    if (It != AddressTakenByArity.end())
      Callees = It->second;
  } else {
    Diags.error(CalleeE->Pos, "unsupported callee expression");
    return Result;
  }

  // Check arity for direct calls.
  if (IndirectTarget == InvalidVar && !Callees.empty()) {
    const ir::Function &F = Prog->func(Callees[0]);
    const FunctionDecl *FD = FuncDecls[F.Name];
    if (FD->Params.size() != CallE.Args.size()) {
      Diags.error(CallE.Pos,
                  "call to '" + F.Name + "' with wrong number of arguments");
      return Result;
    }
  }

  // Evaluate arguments left to right.
  std::vector<RValue> ArgVals;
  for (size_t I = 0; I < CallE.Args.size(); ++I) {
    ScalarType ArgExpected{};
    if (!Callees.empty()) {
      const ir::Function &F = Prog->func(Callees[0]);
      if (I < F.Params.size()) {
        const ir::Variable &PV = Prog->var(F.Params[I]);
        ArgExpected = ScalarType{PV.Base, PV.PtrDepth, false};
      }
    }
    ArgVals.push_back(reduceRValue(CallE.Args[I].get(), ArgExpected));
  }

  // Bind actuals to formals with explicit copies. Non-pointer parameters
  // are bound too: the paper's update-sequence machinery tracks values of
  // every depth.
  for (ir::FuncId Callee : Callees) {
    const ir::Function &F = Prog->func(Callee);
    for (size_t I = 0; I < F.Params.size() && I < ArgVals.size(); ++I) {
      const ir::Variable &PV = Prog->var(F.Params[I]);
      const RValue &A = ArgVals[I];
      if (A.IsNull) {
        emit(ir::StmtKind::Nullify, F.Params[I]);
        continue;
      }
      if (A.V == InvalidVar)
        continue;
      ScalarType PT{PV.Base, PV.PtrDepth, false};
      if (!typesCompatible(PT, A.Type)) {
        if (IndirectTarget == InvalidVar)
          Diags.error(CallE.Pos, "argument " + std::to_string(I + 1) +
                                     " type mismatch in call to '" + F.Name +
                                     "'");
        continue;
      }
      emit(ir::StmtKind::Copy, F.Params[I], A.V);
    }
  }

  // The call boundary itself.
  ir::Location CallLoc;
  CallLoc.Kind = ir::StmtKind::Call;
  CallLoc.Callees = Callees;
  CallLoc.IndirectTarget = IndirectTarget;
  CallLoc.Label = Label;
  ir::LocId CallId = Prog->addLocation(CurFunc, std::move(CallLoc));
  for (ir::LocId F : Frontier)
    Prog->addEdge(F, CallId);
  Frontier.assign(1, CallId);

  // Bind the return value(s).
  std::vector<ir::FuncId> Returning;
  for (ir::FuncId Callee : Callees)
    if (Prog->func(Callee).RetVal != InvalidVar)
      Returning.push_back(Callee);

  if (Returning.empty()) {
    Result.Type = Expected.Depth > 0 ? Expected : ScalarType{};
    Result.Type.Wildcard = true;
    Result.V = makeTemp(Expected.Depth > 0
                            ? Expected
                            : ScalarType{ir::BaseType::Int, 0, false});
    return Result;
  }

  const ir::Variable &RV0 = Prog->var(Prog->func(Returning[0]).RetVal);
  ScalarType RetType{RV0.Base, RV0.PtrDepth, IndirectTarget != InvalidVar};
  Result.Type = RetType;
  Result.V = makeTemp(RetType);

  if (Returning.size() == 1) {
    emit(ir::StmtKind::Copy, Result.V, Prog->func(Returning[0]).RetVal);
    return Result;
  }

  // Multiple potential callees: a branch diamond so that, flow-
  // sensitively, the result may come from any one of them.
  ir::LocId BranchId = emit(ir::StmtKind::Branch);
  std::vector<ir::LocId> Exits;
  for (ir::FuncId Callee : Returning) {
    Frontier.assign(1, BranchId);
    Exits.push_back(
        emit(ir::StmtKind::Copy, Result.V, Prog->func(Callee).RetVal));
  }
  Frontier = Exits;
  return Result;
}

void Lowering::lowerCallStmt(const Expr &CallE, const std::string &Label) {
  lowerCall(CallE, ScalarType{}, Label);
}

//===--------------------------------------------------------------------===//
// Control flow
//===--------------------------------------------------------------------===//

void Lowering::lowerReturn(const Stmt &S) {
  ir::Function &F = Prog->func(CurFunc);
  if (S.Rhs) {
    if (F.RetVal == InvalidVar) {
      // Returning a value from void: evaluate for effects, warn via
      // diagnostic only if it is pointer-typed? Keep permissive: just
      // evaluate.
      reduceRValue(S.Rhs.get(), ScalarType{});
    } else {
      const ir::Variable &RV = Prog->var(F.RetVal);
      ScalarType RetType{RV.Base, RV.PtrDepth, false};
      if (S.Rhs->Kind == ExprKind::Number ||
          S.Rhs->Kind == ExprKind::Binary ||
          S.Rhs->Kind == ExprKind::Not) {
        // Constant-valued return: ends the value chain.
        if (S.Rhs->Kind != ExprKind::Number)
          reduceRValue(S.Rhs.get(), ScalarType{});
        emit(ir::StmtKind::Nullify, F.RetVal, InvalidVar, S.Label);
      } else {
        RValue R = reduceRValue(S.Rhs.get(), RetType);
        if (R.IsNull)
          emit(ir::StmtKind::Nullify, F.RetVal, InvalidVar, S.Label);
        else if (R.V != InvalidVar) {
          if (!typesCompatible(RetType, R.Type)) {
            Diags.error(S.Pos, "return type mismatch");
            return;
          }
          emit(ir::StmtKind::Copy, F.RetVal, R.V, S.Label);
        }
      }
    }
  }
  ir::LocId Ret = emit(ir::StmtKind::Return);
  Prog->addEdge(Ret, F.Exit);
  // Code after a return is unreachable; nothing falls through.
  Frontier.clear();
}

void Lowering::lowerLockUnlock(const Stmt &S) {
  RValue R = reduceRValue(S.Lhs.get(), ScalarType{ir::BaseType::Lock, 1,
                                                  false});
  if (R.V == InvalidVar)
    return;
  if (R.Type.Base != ir::BaseType::Lock || R.Type.Depth != 1) {
    Diags.error(S.Pos, "lock/unlock requires an expression of type lock_t*");
    return;
  }
  emit(S.Kind == StmtKind::Lock ? ir::StmtKind::Lock : ir::StmtKind::Unlock,
       R.V, InvalidVar, S.Label);
}

void Lowering::lowerFree(const Stmt &S) {
  // free(p) is modeled as p = NULL (paper Remark 1).
  LPlace P = reduceLValue(S.Lhs.get());
  if (P.K == LPlace::None)
    return;
  if (P.Type.Depth == 0) {
    Diags.error(S.Pos, "free requires a pointer");
    return;
  }
  if (P.K == LPlace::Var) {
    emit(ir::StmtKind::Nullify, P.V, InvalidVar, S.Label);
    return;
  }
  ir::VarId T = makeTemp(P.Type);
  emit(ir::StmtKind::Nullify, T);
  emit(ir::StmtKind::Store, P.V, T, S.Label);
}

void Lowering::lowerIf(const Stmt &S) {
  // The branch itself is nondeterministic for the core analyses (paper:
  // conditionals treated as evaluating to true), but pure variable
  // comparisons get a canonical condition key so the path-sensitivity
  // extension can correlate repeated tests of the same predicate.
  std::string CondKey;
  std::vector<ir::VarId> CondVars;
  bool Negated = false;
  if (S.Rhs && !condKeyFor(S.Rhs.get(), CondKey, CondVars, Negated)) {
    // Impure / complex condition: evaluate for side effects only.
    reduceRValue(S.Rhs.get(), ScalarType{});
    CondKey.clear();
    CondVars.clear();
  }
  ir::LocId B = emit(ir::StmtKind::Branch, InvalidVar, InvalidVar, S.Label);
  Prog->loc(B).CondKey = CondKey;
  Prog->loc(B).CondVars = CondVars;

  // Explicit arm-entry markers keep the successor/arm correspondence
  // deterministic even for empty arms.
  Frontier.assign(1, B);
  emit(ir::StmtKind::Skip);
  pushScope();
  lowerStmts(S.Body);
  popScope();
  std::vector<ir::LocId> ThenExits = Frontier;

  Frontier.assign(1, B);
  emit(ir::StmtKind::Skip);
  pushScope();
  lowerStmts(S.ElseBody);
  popScope();
  std::vector<ir::LocId> ElseExits = Frontier;

  if (!CondKey.empty()) {
    assert(Prog->loc(B).Succs.size() == 2 && "if branch has two arms");
    Prog->loc(B).SuccArm = {uint8_t(Negated ? 1 : 0),
                            uint8_t(Negated ? 0 : 1)};
  }

  Frontier = ThenExits;
  Frontier.insert(Frontier.end(), ElseExits.begin(), ElseExits.end());
}

bool Lowering::condKeyFor(const Expr *E, std::string &Key,
                          std::vector<ir::VarId> &Vars, bool &Negated) {
  Negated = false;
  // `!cond` flips the arms of whatever cond encodes.
  while (E && E->Kind == ExprKind::Not) {
    Negated = !Negated;
    E = E->Sub.get();
  }
  if (!E)
    return false;

  // Resolves a pure operand (plain variable or struct field) without
  // emitting code.
  auto PureVar = [this](const Expr *Operand) -> ir::VarId {
    if (!Operand)
      return InvalidVar;
    if (Operand->Kind != ExprKind::Ident &&
        Operand->Kind != ExprKind::Field)
      return InvalidVar;
    if (Operand->Kind == ExprKind::Ident) {
      if (FuncIds.count(Operand->Name))
        return InvalidVar;
      const Binding *B = lookup(Operand->Name);
      return (B && !B->IsStruct) ? B->Scalar : InvalidVar;
    }
    // Field: reuse the lvalue resolver; it emits nothing for fields.
    const Expr *Base = Operand;
    while (Base->Kind == ExprKind::Field)
      Base = Base->Sub.get();
    if (!Base || Base->Kind != ExprKind::Ident || !lookup(Base->Name))
      return InvalidVar;
    LPlace P = const_cast<Lowering *>(this)->reduceLValue(Operand);
    return P.K == LPlace::Var ? P.V : InvalidVar;
  };

  if (E->Kind == ExprKind::Ident || E->Kind == ExprKind::Field) {
    ir::VarId V = PureVar(E);
    if (V == InvalidVar)
      return false;
    Key = "nz:" + Prog->var(V).Name;
    Vars = {V};
    return true;
  }

  if (E->Kind != ExprKind::Binary)
    return false;
  bool IsEq = E->Name == tokKindName(TokKind::EqEq);
  bool IsNe = E->Name == tokKindName(TokKind::NotEq);
  if (!IsEq && !IsNe)
    return false;
  ir::VarId A = PureVar(E->Sub.get());
  ir::VarId B = PureVar(E->Rhs.get());
  if (A == InvalidVar || B == InvalidVar)
    return false;
  if (IsNe)
    Negated = !Negated;
  const std::string &NA = Prog->var(std::min(A, B)).Name;
  const std::string &NB = Prog->var(std::max(A, B)).Name;
  Key = NA + "==" + NB;
  Vars = {A, B};
  return true;
}

void Lowering::lowerWhile(const Stmt &S) {
  if (S.Rhs)
    reduceRValue(S.Rhs.get(), ScalarType{});
  ir::LocId B = emit(ir::StmtKind::Branch, InvalidVar, InvalidVar, S.Label);

  Frontier.assign(1, B);
  pushScope();
  lowerStmts(S.Body);
  popScope();
  // Back edge from the body to the loop head.
  for (ir::LocId L : Frontier)
    Prog->addEdge(L, B);
  // Loop exit: fall through from the head.
  Frontier.assign(1, B);
}

//===--------------------------------------------------------------------===//
// Driver
//===--------------------------------------------------------------------===//

std::unique_ptr<ir::Program> Lowering::run() {
  Prog = std::make_unique<ir::Program>();
  if (!collectStructs())
    return nullptr;
  if (!collectFunctions())
    return nullptr;
  collectAddressTaken();
  if (!lowerGlobals())
    return nullptr;

  for (const auto &[Name, FD] : FuncDecls) {
    if (!FD->IsDefinition) {
      // Prototype-only functions get an empty body: entry -> exit. Calls
      // to them behave as no-ops on aliases (see DESIGN.md).
      Prog->materializeBoundary(FuncIds[Name]);
      ir::Function &F = Prog->func(FuncIds[Name]);
      Prog->addEdge(F.Entry, F.Exit);
      continue;
    }
    lowerFunctionBody(*FD);
  }

  ir::FuncId Main = Prog->findFunction("main");
  if (Main != InvalidFunc)
    Prog->setEntryFunction(Main);

  if (Diags.hasErrors())
    return nullptr;

  std::string VerifyError;
  if (!Prog->verify(&VerifyError)) {
    Diags.error(SourcePos{0, 0}, "internal: IR verification failed: " +
                                     VerifyError);
    return nullptr;
  }
  return std::move(Prog);
}

std::unique_ptr<ir::Program>
frontend::compileString(std::string_view Source, Diagnostics &Diags) {
  Lexer Lex(Source, Diags);
  Parser P(Lex.lexAll(), Diags);
  TranslationUnit Unit = P.parseUnit();
  if (Diags.hasErrors())
    return nullptr;
  Lowering Lower(Unit, Diags);
  return Lower.run();
}
