//===- tests/test_frontend.cpp - Frontend tests ---------------------------===//
//
// Tests for the mini-C lexer, parser, and lowering to canonical IR.
//
//===----------------------------------------------------------------------===//

#include "frontend/Diagnostics.h"
#include "frontend/Lexer.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "ir/CallGraph.h"
#include "ir/Dumper.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace bsaa;
using namespace bsaa::frontend;

namespace {

/// Compiles or dies with the diagnostics in the failure message.
std::unique_ptr<ir::Program> compileOk(std::string_view Src) {
  Diagnostics Diags;
  auto P = compileString(Src, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.toString();
  return P;
}

/// Expects a compile failure mentioning \p Needle.
void expectError(std::string_view Src, const std::string &Needle) {
  Diagnostics Diags;
  auto P = compileString(Src, Diags);
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Diags.toString().find(Needle), std::string::npos)
      << "diagnostics were:\n"
      << Diags.toString();
}

/// Counts locations of a given kind.
uint32_t countKind(const ir::Program &P, ir::StmtKind K) {
  uint32_t N = 0;
  for (ir::LocId L = 0; L < P.numLocs(); ++L)
    if (P.loc(L).Kind == K)
      ++N;
  return N;
}

} // namespace

//===--------------------------------------------------------------------===//
// Lexer
//===--------------------------------------------------------------------===//

TEST(Lexer, TokenizesPunctuationAndKeywords) {
  Diagnostics Diags;
  Lexer L("int *x; x = &y; if (a == b) { }", Diags);
  std::vector<Token> Toks = L.lexAll();
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_GE(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Star);
  EXPECT_EQ(Toks[2].Kind, TokKind::Ident);
  EXPECT_EQ(Toks[2].Text, "x");
  EXPECT_EQ(Toks.back().Kind, TokKind::Eof);
}

TEST(Lexer, SkipsComments) {
  Diagnostics Diags;
  Lexer L("// line\nint /* block\nspanning */ x;", Diags);
  std::vector<Token> Toks = L.lexAll();
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Toks[0].Kind, TokKind::KwInt);
  EXPECT_EQ(Toks[1].Kind, TokKind::Ident);
}

TEST(Lexer, TracksPositions) {
  Diagnostics Diags;
  Lexer L("int\n  x;", Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_EQ(Toks[0].Pos.Line, 1u);
  EXPECT_EQ(Toks[1].Pos.Line, 2u);
  EXPECT_EQ(Toks[1].Pos.Col, 3u);
}

TEST(Lexer, ReportsBadCharacters) {
  Diagnostics Diags;
  Lexer L("int x @ y;", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnterminatedBlockComment) {
  Diagnostics Diags;
  Lexer L("/* never closed", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

//===--------------------------------------------------------------------===//
// Parser structure
//===--------------------------------------------------------------------===//

TEST(Parser, ParsesFunctionsGlobalsStructs) {
  Diagnostics Diags;
  Lexer L(R"(
    struct pair { int *first; int *second; };
    int *g;
    void helper(int *a);
    int *ident(int *p) { return p; }
    void main(void) { g = ident(g); }
  )",
          Diags);
  Parser P(L.lexAll(), Diags);
  TranslationUnit U = P.parseUnit();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.toString();
  EXPECT_EQ(U.Structs.size(), 1u);
  EXPECT_EQ(U.Globals.size(), 1u);
  EXPECT_EQ(U.Functions.size(), 3u);
  EXPECT_FALSE(U.Functions[0].IsDefinition);
  EXPECT_TRUE(U.Functions[1].IsDefinition);
}

TEST(Parser, RecoversAfterError) {
  Diagnostics Diags;
  Lexer L("void main(void) { x = ; y = z; }", Diags);
  Parser P(L.lexAll(), Diags);
  P.parseUnit();
  EXPECT_TRUE(Diags.hasErrors());
}

// Hostile nesting: each shape used to overflow the stack in the
// recursive-descent parser. Past the depth bound the parser reports
// one diagnostic and compileString returns null.
TEST(Parser, DeepParenthesesAreRejected) {
  std::string Src = "void main(void) { int *x; int *y; y = " +
                    std::string(100000, '(') + "x" +
                    std::string(100000, ')') + "; }";
  expectError(Src, "nesting too deep");
}

TEST(Parser, DeepIfNestingIsRejected) {
  std::string Src = "void main(void) { ";
  for (int I = 0; I < 100000; ++I)
    Src += "if (nondet) {";
  Src += std::string(100000, '}') + " }";
  expectError(Src, "nesting too deep");
}

TEST(Parser, LongDerefChainIsRejected) {
  std::string Src = "void main(void) { int *x; int *y; y = " +
                    std::string(100000, '*') + "x; }";
  expectError(Src, "nesting too deep");
}

TEST(Parser, NestingWithinTheBoundCompiles) {
  std::string Src = "void main(void) { int a; int *x; int *y; x = &a; ";
  for (int I = 0; I < 60; ++I)
    Src += "if (nondet) {";
  Src += "y = " + std::string(60, '(') + "x" + std::string(60, ')') + ";";
  Src += std::string(60, '}') + " }";
  compileOk(Src);
}

TEST(Parser, PaperStyleLabels) {
  // The paper labels statements "1a:", "2a:", ...; those must parse.
  auto P = compileOk(R"(
    void main(void) {
      int a; int b; int c;
      int *p; int *q; int *r;
      1a: p = &a;
      2a: q = &b;
      3a: r = &c;
      4a: q = p;
      5a: q = r;
    }
  )");
  EXPECT_NE(P->findLabel("1a"), ir::InvalidLoc);
  EXPECT_NE(P->findLabel("5a"), ir::InvalidLoc);
}

//===--------------------------------------------------------------------===//
// Lowering: canonical forms
//===--------------------------------------------------------------------===//

TEST(Lower, FourCanonicalForms) {
  auto P = compileOk(R"(
    void main(void) {
      int a;
      int *x; int *y;
      int **p;
      x = &a;   // AddrOf
      y = x;    // Copy
      p = &x;   // AddrOf
      y = *p;   // Load
      *p = y;   // Store
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::AddrOf), 2u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Load), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Store), 1u);
}

TEST(Lower, DeepDerefIntroducesTemps) {
  // **q = y must become t = *q; *t = y.
  auto P = compileOk(R"(
    void main(void) {
      int a; int *y; int **x; int ***q;
      y = &a;
      x = &y;
      q = &x;
      **q = y;
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Load), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Store), 1u);
}

TEST(Lower, AddrOfDerefCancels) {
  // x = &*y is just x = y.
  auto P = compileOk(R"(
    void main(void) {
      int *y; int *x;
      x = &*y;
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::AddrOf), 0u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Load), 0u);
}

TEST(Lower, MallocBecomesAllocSite) {
  auto P = compileOk(R"(
    void main(void) {
      int *x;
      x = malloc();
      x = malloc(8);
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Alloc), 2u);
  // Two distinct allocation sites.
  uint32_t Sites = 0;
  for (ir::VarId V = 0; V < P->numVars(); ++V)
    if (P->var(V).Kind == ir::VarKind::AllocSite)
      ++Sites;
  EXPECT_EQ(Sites, 2u);
}

TEST(Lower, FreeBecomesNullify) {
  auto P = compileOk(R"(
    void main(void) {
      int *x;
      x = malloc();
      free(x);
      x = NULL;
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Nullify), 2u);
}

TEST(Lower, StructsAreFlattened) {
  auto P = compileOk(R"(
    struct inner { int *ip; };
    struct outer { struct inner in; int *op; int data; };
    void main(void) {
      struct outer s;
      int a;
      s.in.ip = &a;
      s.op = s.in.ip;
    }
  )");
  // Flattened variables exist.
  EXPECT_NE(P->findVariable("main::s.in.ip"), ir::InvalidVar);
  EXPECT_NE(P->findVariable("main::s.op"), ir::InvalidVar);
  EXPECT_NE(P->findVariable("main::s.data"), ir::InvalidVar);
  EXPECT_EQ(countKind(*P, ir::StmtKind::AddrOf), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 1u);
}

TEST(Lower, StructAssignmentExpandsToFieldCopies) {
  auto P = compileOk(R"(
    struct pair { int *a; int *b; int n; };
    void main(void) {
      struct pair x; struct pair y;
      x = y;
    }
  )");
  // All three fields are copied: the paper's update-sequence machinery
  // tracks values of every depth, including plain ints.
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 3u);
}

TEST(Lower, NonPointerAssignsFollowThePapersModel) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int b;
      a = b;      // value copy: tracked (Theorem 6 base case)
      a = 5;      // constant: kills the value chain (Nullify)
      a = b + 3;  // arithmetic result: also a fresh value
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Nullify), 2u);
}

//===--------------------------------------------------------------------===//
// Lowering: calls
//===--------------------------------------------------------------------===//

TEST(Lower, DirectCallBindsParamsAndReturn) {
  auto P = compileOk(R"(
    int *ident(int *p) { return p; }
    void main(void) {
      int a; int *x; int *y;
      x = &a;
      y = ident(x);
    }
  )");
  // One call location.
  EXPECT_EQ(countKind(*P, ir::StmtKind::Call), 1u);
  // Copies: formal = actual, ret#ident = p, temp = ret, y = temp.
  EXPECT_EQ(countKind(*P, ir::StmtKind::Copy), 4u);
  ir::CallGraph CG(*P);
  ir::FuncId Main = P->findFunction("main");
  ir::FuncId Ident = P->findFunction("ident");
  ASSERT_NE(Main, ir::InvalidFunc);
  ASSERT_NE(Ident, ir::InvalidFunc);
  ASSERT_EQ(CG.callees(Main).size(), 1u);
  EXPECT_EQ(CG.callees(Main)[0], Ident);
}

TEST(Lower, FunctionPointerCallResolvesToAddressTaken) {
  auto P = compileOk(R"(
    int *f(int *p) { return p; }
    int *g(int *p) { return p; }
    int *h(int *p, int *q) { return q; }
    void main(void) {
      fptr_t fp;
      int a; int *x;
      fp = &f;
      fp = g;        // decay also takes the address
      x = &a;
      x = fp(x);
    }
  )");
  ir::CallGraph CG(*P);
  ir::FuncId Main = P->findFunction("main");
  // h has arity 2 and is not address-taken; f and g resolve.
  std::vector<ir::FuncId> Callees = CG.callees(Main);
  EXPECT_EQ(Callees.size(), 2u);
  ir::FuncId H = P->findFunction("h");
  for (ir::FuncId C : Callees)
    EXPECT_NE(C, H);
}

TEST(Lower, RecursionIsDetected) {
  auto P = compileOk(R"(
    void rec(int *p) { rec(p); }
    void a(void);
    void b(void) { a(); }
    void a(void) { b(); }
    void main(void) { rec(NULL); a(); }
  )");
  ir::CallGraph CG(*P);
  EXPECT_TRUE(CG.isRecursive(P->findFunction("rec")));
  EXPECT_TRUE(CG.isRecursive(P->findFunction("a")));
  EXPECT_TRUE(CG.isRecursive(P->findFunction("b")));
  EXPECT_FALSE(CG.isRecursive(P->findFunction("main")));
}

namespace {

/// callSitesOf(Callee) as a scan of each caller's call locations.
std::vector<std::pair<ir::FuncId, ir::LocId>>
scanCallSites(const ir::Program &P, const ir::CallGraph &CG,
              ir::FuncId Callee) {
  std::vector<std::pair<ir::FuncId, ir::LocId>> Sites;
  for (ir::FuncId Caller : CG.callers(Callee))
    for (ir::LocId L : CG.callLocations(Caller)) {
      const std::vector<ir::FuncId> &Cs = P.loc(L).Callees;
      if (std::find(Cs.begin(), Cs.end(), Callee) != Cs.end())
        Sites.emplace_back(Caller, L);
    }
  return Sites;
}

} // namespace

TEST(CallGraph, CallSitesOfMatchesPerCallerScan) {
  // Self-recursion with two sites, indirect calls that resolve to two
  // callees, and callees reached from several callers.
  auto P = compileOk(R"(
    int *f(int *p) { return p; }
    int *g(int *p) { return f(p); }
    void rec(int *p) { if (nondet) { rec(p); } f(p); rec(NULL); }
    void main(void) {
      fptr_t fp;
      int a; int *x;
      fp = &f;
      if (nondet) { fp = &g; }
      x = fp(&a);
      rec(x);
      x = g(x);
      x = fp(x);
    }
  )");
  ir::CallGraph CG(*P);
  ir::FuncId F = P->findFunction("f"), G = P->findFunction("g"),
             Rec = P->findFunction("rec"), Main = P->findFunction("main");
  for (ir::FuncId Callee = 0; Callee < P->numFuncs(); ++Callee)
    EXPECT_EQ(CG.callSitesOf(Callee), scanCallSites(*P, CG, Callee))
        << P->func(Callee).Name;
  // f: g's site, rec's site, main's two indirect sites, callers first
  // by callers() order.
  const auto &OfF = CG.callSitesOf(F);
  ASSERT_EQ(OfF.size(), 4u);
  EXPECT_EQ(CG.callers(F).size(), 3u);
  EXPECT_EQ(std::count_if(OfF.begin(), OfF.end(),
                          [&](const auto &S) { return S.first == Main; }),
            2);
  // rec calls itself at two sites, in ascending order.
  std::vector<ir::LocId> SelfSites;
  for (auto [Caller, L] : CG.callSitesOf(Rec))
    if (Caller == Rec)
      SelfSites.push_back(L);
  ASSERT_EQ(SelfSites.size(), 2u);
  EXPECT_LT(SelfSites[0], SelfSites[1]);
  // g: main's direct call and both indirect ones.
  EXPECT_EQ(CG.callSitesOf(G).size(), 3u);
  EXPECT_TRUE(CG.callSitesOf(Main).empty());

  // Generated programs: recursion, function pointers, many callers.
  for (uint64_t Seed : {3u, 17u, 29u}) {
    workload::GeneratorConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumFunctions = 24;
    Cfg.RecursionPercent = 20;
    Cfg.FunctionPointers = true;
    Diagnostics Diags;
    auto Gen = compileString(workload::generateProgram(Cfg), Diags);
    ASSERT_TRUE(Gen != nullptr) << Diags.toString();
    ir::CallGraph GenCG(*Gen);
    for (ir::FuncId Callee = 0; Callee < Gen->numFuncs(); ++Callee)
      EXPECT_EQ(GenCG.callSitesOf(Callee), scanCallSites(*Gen, GenCG, Callee))
          << "seed " << Seed << " callee " << Callee;
  }
}

TEST(Lower, PrototypeOnlyFunctionsAreNoOps) {
  auto P = compileOk(R"(
    void external(int *p);
    void main(void) { int a; int *x; x = &a; external(x); }
  )");
  ir::FuncId Ext = P->findFunction("external");
  ASSERT_NE(Ext, ir::InvalidFunc);
  const ir::Function &F = P->func(Ext);
  // Body is entry -> exit only.
  EXPECT_EQ(F.Locations.size(), 2u);
}

//===--------------------------------------------------------------------===//
// Lowering: control flow
//===--------------------------------------------------------------------===//

TEST(Lower, IfProducesBranchAndJoin) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int b; int *x;
      if (nondet) { x = &a; } else { x = &b; }
      x = x;
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Branch), 1u);
  // The join: final copy has two predecessors through the branch arms.
  ir::LocId FinalCopy = ir::InvalidLoc;
  for (ir::LocId L = 0; L < P->numLocs(); ++L)
    if (P->loc(L).Kind == ir::StmtKind::Copy &&
        P->loc(L).Lhs == P->loc(L).Rhs)
      FinalCopy = L;
  ASSERT_NE(FinalCopy, ir::InvalidLoc);
  EXPECT_EQ(P->loc(FinalCopy).Preds.size(), 2u);
}

TEST(Lower, WhileProducesBackEdge) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int *x;
      while (nondet) { x = &a; }
    }
  )");
  // The AddrOf inside the loop flows back to the branch.
  ir::LocId Branch = ir::InvalidLoc, Addr = ir::InvalidLoc;
  for (ir::LocId L = 0; L < P->numLocs(); ++L) {
    if (P->loc(L).Kind == ir::StmtKind::Branch)
      Branch = L;
    if (P->loc(L).Kind == ir::StmtKind::AddrOf)
      Addr = L;
  }
  ASSERT_NE(Branch, ir::InvalidLoc);
  ASSERT_NE(Addr, ir::InvalidLoc);
  const std::vector<ir::LocId> &Succs = P->loc(Addr).Succs;
  EXPECT_NE(std::find(Succs.begin(), Succs.end(), Branch), Succs.end());
}

TEST(Lower, ReturnWiresToExit) {
  auto P = compileOk(R"(
    int *f(int *p) {
      if (nondet) { return p; }
      return NULL;
    }
    void main(void) { f(NULL); }
  )");
  ir::FuncId F = P->findFunction("f");
  const ir::Function &Fn = P->func(F);
  // Exit has two Return predecessors.
  uint32_t ReturnPreds = 0;
  for (ir::LocId Pred : P->loc(Fn.Exit).Preds)
    if (P->loc(Pred).Kind == ir::StmtKind::Return)
      ++ReturnPreds;
  EXPECT_EQ(ReturnPreds, 2u);
}

TEST(Lower, ScopedShadowingCreatesDistinctVars) {
  auto P = compileOk(R"(
    void main(void) {
      int a; int *x;
      x = &a;
      {
        int *x;
        x = NULL;
      }
    }
  )");
  EXPECT_NE(P->findVariable("main::x"), ir::InvalidVar);
  EXPECT_NE(P->findVariable("main::x.1"), ir::InvalidVar);
}

TEST(Lower, LockStatements) {
  auto P = compileOk(R"(
    lock_t l;
    void main(void) {
      lock_t *p;
      p = &l;
      lock(p);
      unlock(p);
    }
  )");
  EXPECT_EQ(countKind(*P, ir::StmtKind::Lock), 1u);
  EXPECT_EQ(countKind(*P, ir::StmtKind::Unlock), 1u);
  ir::VarId PVar = P->findVariable("main::p");
  ASSERT_NE(PVar, ir::InvalidVar);
  EXPECT_TRUE(P->var(PVar).isLockPointer());
}

//===--------------------------------------------------------------------===//
// Lowering: diagnostics
//===--------------------------------------------------------------------===//

TEST(LowerErrors, UndeclaredIdentifier) {
  expectError("void main(void) { x = NULL; }", "undeclared identifier");
}

TEST(LowerErrors, TypeMismatch) {
  expectError(R"(
    void main(void) { int a; int *x; int **p; p = x; }
  )",
              "type mismatch");
}

TEST(LowerErrors, DerefNonPointer) {
  expectError("void main(void) { int a; int *x; x = *a; }",
              "dereference a non-pointer");
}

TEST(LowerErrors, PointerToStructRejected) {
  expectError(R"(
    struct s { int *p; };
    void main(void) { struct s *sp; }
  )",
              "pointer-to-struct");
}

TEST(LowerErrors, RecursiveStructRejected) {
  expectError(R"(
    struct a { struct b inner; };
    struct b { struct a inner; };
    void main(void) { }
  )",
              "recursive struct");
}

TEST(LowerErrors, LockTypeEnforced) {
  expectError("void main(void) { int *p; lock(p); }", "lock_t*");
}

TEST(LowerErrors, WrongArity) {
  expectError(R"(
    void f(int *p) { }
    void main(void) { f(NULL, NULL); }
  )",
              "wrong number of arguments");
}

TEST(LowerErrors, GlobalInitializerRejected) {
  expectError("int *g = NULL; void main(void) { }",
              "global initializers");
}

TEST(LowerErrors, RedefinedVariable) {
  expectError("void main(void) { int x; int x; }", "redefinition");
}

TEST(LowerErrors, CallUndeclared) {
  expectError("void main(void) { nothere(); }",
              "neither a function nor an fptr_t");
}

//===--------------------------------------------------------------------===//
// IR structure
//===--------------------------------------------------------------------===//

TEST(Ir, VerifyCatchesCrossFunctionEdges) {
  ir::Program P;
  ir::FuncId F1 = P.addFunction("f1");
  ir::FuncId F2 = P.addFunction("f2");
  P.addEdge(P.func(F1).Entry, P.func(F2).Entry);
  std::string Err;
  EXPECT_FALSE(P.verify(&Err));
  EXPECT_NE(Err.find("crosses function boundary"), std::string::npos);
}

TEST(Ir, DumperMentionsEveryFunction) {
  auto P = compileOk(R"(
    void helper(void) { }
    void main(void) { helper(); }
  )");
  std::string Text = ir::dumpProgram(*P);
  EXPECT_NE(Text.find("func helper"), std::string::npos);
  EXPECT_NE(Text.find("func main"), std::string::npos);
  EXPECT_NE(Text.find("call helper"), std::string::npos);
}

TEST(Ir, RefToString) {
  ir::Program P;
  ir::Variable V;
  V.Name = "x";
  V.PtrDepth = 2;
  ir::VarId X = P.addVariable(V);
  EXPECT_EQ(ir::refToString(P, ir::Ref::direct(X)), "x");
  EXPECT_EQ(ir::refToString(P, ir::Ref::deref(X)), "*x");
  EXPECT_EQ(ir::refToString(P, ir::Ref::addrOf(X)), "&x");
}

TEST(Ir, NumPointersCountsOnlyPointers) {
  auto P = compileOk(R"(
    int g;
    int *gp;
    void main(void) { int a; int *x; int **y; x = &a; y = &x; gp = x; }
  )");
  // gp, x, y are pointers (+ any temps, but this program needs none);
  // g, a are not.
  EXPECT_EQ(P->numPointers(), 3u);
}
