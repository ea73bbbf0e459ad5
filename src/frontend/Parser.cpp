//===- frontend/Parser.cpp - Mini-C recursive-descent parser --------------===//

#include "frontend/Parser.h"

#include "frontend/Diagnostics.h"

#include <cassert>

using namespace bsaa;
using namespace bsaa::frontend;

Parser::Parser(std::vector<Token> Tokens, Diagnostics &Diags)
    : Tokens(std::move(Tokens)), Diags(Diags) {
  assert(!this->Tokens.empty() && this->Tokens.back().is(TokKind::Eof) &&
         "token stream must end with Eof");
}

Token Parser::take() {
  Token T = cur();
  if (!cur().is(TokKind::Eof))
    ++Pos;
  return T;
}

bool Parser::accept(TokKind K) {
  if (!at(K))
    return false;
  take();
  return true;
}

bool Parser::NestingGuard::ok() {
  if (Owner.Depth <= MaxNestingDepth)
    return true;
  if (!Owner.TooDeep) {
    Owner.Diags.error(Owner.cur().Pos, "nesting too deep (more than " +
                                           std::to_string(MaxNestingDepth) +
                                           " levels)");
    Owner.TooDeep = true;
  }
  Owner.Pos = Owner.Tokens.size() - 1; // Eof: unwind without parsing.
  return false;
}

bool Parser::expect(TokKind K, const char *Context) {
  if (accept(K))
    return true;
  if (TooDeep)
    return false;
  Diags.error(cur().Pos, std::string("expected ") + tokKindName(K) +
                             " in " + Context + ", found " +
                             tokKindName(cur().Kind));
  return false;
}

void Parser::syncToStmtBoundary() {
  while (!at(TokKind::Eof) && !at(TokKind::Semi) && !at(TokKind::RBrace))
    take();
  accept(TokKind::Semi);
}

void Parser::syncToTopLevel() {
  int Depth = 0;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::LBrace))
      ++Depth;
    if (at(TokKind::RBrace)) {
      if (Depth == 0) {
        take();
        return;
      }
      --Depth;
    }
    if (Depth == 0 && at(TokKind::Semi)) {
      take();
      return;
    }
    take();
  }
}

bool Parser::atTypeSpecStart() const {
  switch (cur().Kind) {
  case TokKind::KwInt:
  case TokKind::KwVoid:
  case TokKind::KwLockT:
  case TokKind::KwFptrT:
  case TokKind::KwStruct:
    return true;
  default:
    return false;
  }
}

TypeSpec Parser::parseTypeSpec() {
  TypeSpec T;
  switch (cur().Kind) {
  case TokKind::KwInt:
    T.Name = TypeName::Int;
    take();
    break;
  case TokKind::KwVoid:
    T.Name = TypeName::Void;
    take();
    break;
  case TokKind::KwLockT:
    T.Name = TypeName::Lock;
    take();
    break;
  case TokKind::KwFptrT:
    // fptr_t is already a pointer to function.
    T.Name = TypeName::Fptr;
    T.PtrDepth = 1;
    take();
    break;
  case TokKind::KwStruct: {
    take();
    T.Name = TypeName::Struct;
    if (at(TokKind::Ident))
      T.StructTag = take().Text;
    else
      Diags.error(cur().Pos, "expected struct tag after 'struct'");
    break;
  }
  default:
    Diags.error(cur().Pos, "expected type specifier");
    break;
  }
  while (accept(TokKind::Star))
    ++T.PtrDepth;
  return T;
}

StructDecl Parser::parseStructDecl() {
  StructDecl S;
  S.Pos = cur().Pos;
  take(); // 'struct'
  if (at(TokKind::Ident))
    S.Tag = take().Text;
  else
    Diags.error(cur().Pos, "expected struct tag");
  expect(TokKind::LBrace, "struct declaration");
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    FieldDecl F;
    F.Pos = cur().Pos;
    F.Type = parseTypeSpec();
    // Declarator-level stars.
    while (accept(TokKind::Star))
      ++F.Type.PtrDepth;
    if (at(TokKind::Ident)) {
      F.Name = take().Text;
      S.Fields.push_back(std::move(F));
    } else {
      Diags.error(cur().Pos, "expected field name");
      syncToStmtBoundary();
      continue;
    }
    expect(TokKind::Semi, "struct field");
  }
  expect(TokKind::RBrace, "struct declaration");
  expect(TokKind::Semi, "struct declaration");
  return S;
}

TranslationUnit Parser::parseUnit() {
  TranslationUnit Unit;
  while (!at(TokKind::Eof)) {
    if (at(TokKind::KwStruct) && peek().is(TokKind::Ident) &&
        peek(2).is(TokKind::LBrace)) {
      Unit.Structs.push_back(parseStructDecl());
      continue;
    }
    if (atTypeSpecStart()) {
      parseTopLevelDecl(Unit);
      continue;
    }
    Diags.error(cur().Pos, std::string("expected declaration, found ") +
                               tokKindName(cur().Kind));
    syncToTopLevel();
  }
  return Unit;
}

void Parser::parseTopLevelDecl(TranslationUnit &Unit) {
  SourcePos Pos = cur().Pos;
  TypeSpec Base = parseTypeSpec();

  // First declarator.
  uint8_t Extra = 0;
  while (accept(TokKind::Star))
    ++Extra;
  if (!at(TokKind::Ident)) {
    Diags.error(cur().Pos, "expected name in declaration");
    syncToTopLevel();
    return;
  }
  std::string Name = take().Text;

  if (at(TokKind::LParen)) {
    TypeSpec RetType = Base;
    RetType.PtrDepth = static_cast<uint8_t>(RetType.PtrDepth + Extra);
    Unit.Functions.push_back(
        parseFunctionRest(RetType, std::move(Name), Pos));
    return;
  }

  // Global variable declaration (possibly a comma list).
  GlobalDecl G;
  G.Pos = Pos;
  G.Type = Base;
  Declarator D;
  D.Name = std::move(Name);
  D.ExtraPtrDepth = Extra;
  D.Pos = Pos;
  if (accept(TokKind::Assign))
    D.Init = parseExpr();
  G.Decls.push_back(std::move(D));
  while (accept(TokKind::Comma)) {
    Declarator D2;
    D2.Pos = cur().Pos;
    while (accept(TokKind::Star))
      ++D2.ExtraPtrDepth;
    if (!at(TokKind::Ident)) {
      Diags.error(cur().Pos, "expected name in declaration");
      break;
    }
    D2.Name = take().Text;
    if (accept(TokKind::Assign))
      D2.Init = parseExpr();
    G.Decls.push_back(std::move(D2));
  }
  expect(TokKind::Semi, "global declaration");
  Unit.Globals.push_back(std::move(G));
}

FunctionDecl Parser::parseFunctionRest(TypeSpec RetType, std::string Name,
                                       SourcePos Pos) {
  FunctionDecl F;
  F.ReturnType = RetType;
  F.Name = std::move(Name);
  F.Pos = Pos;
  expect(TokKind::LParen, "function declaration");
  F.Params = parseParams();
  expect(TokKind::RParen, "function declaration");
  if (at(TokKind::LBrace)) {
    F.IsDefinition = true;
    F.Body = parseBlock();
  } else {
    expect(TokKind::Semi, "function prototype");
  }
  return F;
}

std::vector<ParamDecl> Parser::parseParams() {
  std::vector<ParamDecl> Params;
  if (at(TokKind::RParen))
    return Params;
  if (at(TokKind::KwVoid) && peek().is(TokKind::RParen)) {
    take();
    return Params;
  }
  while (true) {
    ParamDecl P;
    P.Pos = cur().Pos;
    P.Type = parseTypeSpec();
    if (at(TokKind::Ident))
      P.Name = take().Text;
    else
      Diags.error(cur().Pos, "expected parameter name");
    Params.push_back(std::move(P));
    if (!accept(TokKind::Comma))
      break;
  }
  return Params;
}

std::vector<StmtPtr> Parser::parseBlock() {
  std::vector<StmtPtr> Items;
  expect(TokKind::LBrace, "block");
  while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
    StmtPtr S = parseStmt();
    if (S)
      Items.push_back(std::move(S));
  }
  expect(TokKind::RBrace, "block");
  return Items;
}

StmtPtr Parser::parseStmt() {
  NestingGuard Guard(*this);
  if (!Guard.ok())
    return nullptr;
  // Optional label: IDENT ':' not followed by '='. (An identifier can
  // only start an assignment or a call, never a ':' in this grammar.)
  std::string Label;
  if (at(TokKind::Ident) && peek().is(TokKind::Colon)) {
    Label = take().Text;
    take(); // ':'
  }
  // Numeric labels like "1a" lex as Number followed by Ident followed by
  // ':' -- support the paper's "1a:" style directly.
  if (at(TokKind::Number) && peek().is(TokKind::Ident) &&
      peek(2).is(TokKind::Colon)) {
    Label = take().Text;
    Label += take().Text;
    take(); // ':'
  } else if (at(TokKind::Number) && peek().is(TokKind::Colon)) {
    Label = take().Text;
    take(); // ':'
  }

  SourcePos Pos = cur().Pos;
  StmtPtr S;

  if (atTypeSpecStart()) {
    S = parseDeclStmt();
  } else if (at(TokKind::LBrace)) {
    S = std::make_unique<Stmt>(StmtKind::Block, Pos);
    S->Body = parseBlock();
  } else if (accept(TokKind::Semi)) {
    S = std::make_unique<Stmt>(StmtKind::Empty, Pos);
  } else if (accept(TokKind::KwIf)) {
    S = std::make_unique<Stmt>(StmtKind::If, Pos);
    expect(TokKind::LParen, "if condition");
    S->Rhs = parseExpr(); // Condition; semantically nondeterministic.
    expect(TokKind::RParen, "if condition");
    if (StmtPtr Then = parseStmt())
      S->Body.push_back(std::move(Then));
    if (accept(TokKind::KwElse))
      if (StmtPtr Else = parseStmt())
        S->ElseBody.push_back(std::move(Else));
  } else if (accept(TokKind::KwWhile)) {
    S = std::make_unique<Stmt>(StmtKind::While, Pos);
    expect(TokKind::LParen, "while condition");
    S->Rhs = parseExpr();
    expect(TokKind::RParen, "while condition");
    if (StmtPtr Body = parseStmt())
      S->Body.push_back(std::move(Body));
  } else if (accept(TokKind::KwReturn)) {
    S = std::make_unique<Stmt>(StmtKind::Return, Pos);
    if (!at(TokKind::Semi))
      S->Rhs = parseExpr();
    expect(TokKind::Semi, "return statement");
  } else if (at(TokKind::KwLock) || at(TokKind::KwUnlock)) {
    bool IsLock = at(TokKind::KwLock);
    take();
    S = std::make_unique<Stmt>(IsLock ? StmtKind::Lock : StmtKind::Unlock,
                               Pos);
    expect(TokKind::LParen, "lock statement");
    S->Lhs = parseExpr();
    expect(TokKind::RParen, "lock statement");
    expect(TokKind::Semi, "lock statement");
  } else if (accept(TokKind::KwFree)) {
    S = std::make_unique<Stmt>(StmtKind::Free, Pos);
    expect(TokKind::LParen, "free statement");
    S->Lhs = parseExpr();
    expect(TokKind::RParen, "free statement");
    expect(TokKind::Semi, "free statement");
  } else {
    // Assignment or call.
    ExprPtr Lhs = parseUnary();
    if (!Lhs) {
      syncToStmtBoundary();
      return nullptr;
    }
    if (accept(TokKind::Assign)) {
      S = std::make_unique<Stmt>(StmtKind::Assign, Pos);
      S->Lhs = std::move(Lhs);
      S->Rhs = parseExpr();
      if (at(TokKind::Assign))
        Diags.error(cur().Pos, "chained assignment is not supported");
    } else if (Lhs->Kind == ExprKind::Call) {
      S = std::make_unique<Stmt>(StmtKind::Expr, Pos);
      S->Rhs = std::move(Lhs);
    } else {
      Diags.error(Pos, "expression statement must be a call or assignment");
    }
    expect(TokKind::Semi, "statement");
  }

  if (S)
    S->Label = std::move(Label);
  return S;
}

StmtPtr Parser::parseDeclStmt() {
  SourcePos Pos = cur().Pos;
  auto S = std::make_unique<Stmt>(StmtKind::Decl, Pos);
  S->DeclType = parseTypeSpec();
  while (true) {
    Declarator D;
    D.Pos = cur().Pos;
    while (accept(TokKind::Star))
      ++D.ExtraPtrDepth;
    if (!at(TokKind::Ident)) {
      Diags.error(cur().Pos, "expected name in declaration");
      syncToStmtBoundary();
      return S;
    }
    D.Name = take().Text;
    if (accept(TokKind::Assign))
      D.Init = parseExpr();
    S->Decls.push_back(std::move(D));
    if (!accept(TokKind::Comma))
      break;
  }
  expect(TokKind::Semi, "declaration");
  return S;
}

ExprPtr Parser::parseExpr() { return parseComparison(); }

ExprPtr Parser::parseComparison() {
  ExprPtr Lhs = parseAdditive();
  while (at(TokKind::EqEq) || at(TokKind::NotEq) || at(TokKind::Less) ||
         at(TokKind::Greater) || at(TokKind::LessEq) ||
         at(TokKind::GreaterEq)) {
    Token Op = take();
    auto Bin = std::make_unique<Expr>(ExprKind::Binary, Op.Pos);
    Bin->Name = tokKindName(Op.Kind);
    Bin->Sub = std::move(Lhs);
    Bin->Rhs = parseAdditive();
    Lhs = std::move(Bin);
  }
  return Lhs;
}

ExprPtr Parser::parseAdditive() {
  ExprPtr Lhs = parseUnary();
  while (at(TokKind::Plus) || at(TokKind::Minus)) {
    Token Op = take();
    auto Bin = std::make_unique<Expr>(ExprKind::Binary, Op.Pos);
    Bin->Name = tokKindName(Op.Kind);
    Bin->Sub = std::move(Lhs);
    Bin->Rhs = parseUnary();
    Lhs = std::move(Bin);
  }
  return Lhs;
}

ExprPtr Parser::parseUnary() {
  NestingGuard Guard(*this);
  if (!Guard.ok())
    return nullptr;
  SourcePos Pos = cur().Pos;
  if (accept(TokKind::Amp)) {
    auto E = std::make_unique<Expr>(ExprKind::AddrOf, Pos);
    E->Sub = parseUnary();
    return E;
  }
  if (accept(TokKind::Star)) {
    auto E = std::make_unique<Expr>(ExprKind::Deref, Pos);
    E->Sub = parseUnary();
    return E;
  }
  if (accept(TokKind::Not)) {
    auto E = std::make_unique<Expr>(ExprKind::Not, Pos);
    E->Sub = parseUnary();
    return E;
  }
  return parsePostfix();
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  while (E) {
    if (at(TokKind::Dot)) {
      SourcePos Pos = take().Pos;
      auto F = std::make_unique<Expr>(ExprKind::Field, Pos);
      if (at(TokKind::Ident))
        F->Name = take().Text;
      else
        Diags.error(cur().Pos, "expected field name after '.'");
      F->Sub = std::move(E);
      E = std::move(F);
      continue;
    }
    if (at(TokKind::LParen)) {
      SourcePos Pos = take().Pos;
      auto C = std::make_unique<Expr>(ExprKind::Call, Pos);
      C->Sub = std::move(E);
      if (!at(TokKind::RParen)) {
        while (true) {
          C->Args.push_back(parseExpr());
          if (!accept(TokKind::Comma))
            break;
        }
      }
      expect(TokKind::RParen, "call");
      E = std::move(C);
      continue;
    }
    break;
  }
  return E;
}

ExprPtr Parser::parsePrimary() {
  SourcePos Pos = cur().Pos;
  switch (cur().Kind) {
  case TokKind::Ident: {
    auto E = std::make_unique<Expr>(ExprKind::Ident, Pos);
    E->Name = take().Text;
    return E;
  }
  case TokKind::Number: {
    auto E = std::make_unique<Expr>(ExprKind::Number, Pos);
    E->Name = take().Text;
    return E;
  }
  case TokKind::KwNull:
    take();
    return std::make_unique<Expr>(ExprKind::Null, Pos);
  case TokKind::KwNondet: {
    take();
    // `nondet` reads as an opaque condition value.
    auto E = std::make_unique<Expr>(ExprKind::Number, Pos);
    E->Name = "0";
    return E;
  }
  case TokKind::KwMalloc: {
    take();
    expect(TokKind::LParen, "malloc");
    // Accept an optional size expression and ignore it.
    if (!at(TokKind::RParen))
      parseExpr();
    expect(TokKind::RParen, "malloc");
    return std::make_unique<Expr>(ExprKind::Malloc, Pos);
  }
  case TokKind::LParen: {
    NestingGuard Guard(*this);
    if (!Guard.ok())
      return nullptr;
    take();
    ExprPtr E = parseExpr();
    expect(TokKind::RParen, "parenthesized expression");
    return E;
  }
  default:
    if (!TooDeep)
      Diags.error(Pos, std::string("expected expression, found ") +
                           tokKindName(cur().Kind));
    take();
    return nullptr;
  }
}
