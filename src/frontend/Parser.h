//===- frontend/Parser.h - Mini-C recursive-descent parser ------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing a TranslationUnit. Recovers from
/// errors by synchronizing on ';' / '}' so one mistake does not hide the
/// rest of the file.
///
//===----------------------------------------------------------------------===//

#ifndef BSAA_FRONTEND_PARSER_H
#define BSAA_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Token.h"

#include <vector>

namespace bsaa {
namespace frontend {

class Diagnostics;

/// Parses a token stream into a TranslationUnit.
class Parser {
public:
  Parser(std::vector<Token> Tokens, Diagnostics &Diags);

  /// Parses the whole unit. Errors are collected in the Diagnostics; the
  /// returned tree contains whatever parsed successfully.
  TranslationUnit parseUnit();

private:
  // Token stream helpers.
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  Token take();
  bool at(TokKind K) const { return cur().is(K); }
  bool accept(TokKind K);
  bool expect(TokKind K, const char *Context);
  void syncToStmtBoundary();
  void syncToTopLevel();

  // Grammar productions.
  bool atTypeSpecStart() const;
  TypeSpec parseTypeSpec();
  StructDecl parseStructDecl();
  void parseTopLevelDecl(TranslationUnit &Unit);
  FunctionDecl parseFunctionRest(TypeSpec RetType, std::string Name,
                                 SourcePos Pos);
  std::vector<ParamDecl> parseParams();
  std::vector<StmtPtr> parseBlock();
  StmtPtr parseStmt();
  StmtPtr parseDeclStmt();
  ExprPtr parseExpr();
  ExprPtr parseComparison();
  ExprPtr parseAdditive();
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  /// Depth guard of the nesting productions (statements, unary
  /// operators, parentheses). Past MaxNestingDepth, ok() reports
  /// "nesting too deep" once and abandons the unit, so hostile input
  /// can neither overflow the stack nor build a tree too deep to lower.
  struct NestingGuard {
    Parser &Owner;
    explicit NestingGuard(Parser &Owner) : Owner(Owner) { ++Owner.Depth; }
    ~NestingGuard() { --Owner.Depth; }
    bool ok();
  };
  static constexpr unsigned MaxNestingDepth = 256;

  std::vector<Token> Tokens;
  Diagnostics &Diags;
  size_t Pos = 0;
  unsigned Depth = 0;
  bool TooDeep = false; ///< Bound hit: skip the rest without diagnostics.
};

} // namespace frontend
} // namespace bsaa

#endif // BSAA_FRONTEND_PARSER_H
