//===- term/Parser.h - Prolog reader ----------------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-precedence parser for Prolog programs: reads clause terms, splits
/// them into head/body, and numbers clause variables densely.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_PARSER_H
#define AWAM_TERM_PARSER_H

#include "support/DenseIndex.h"
#include "support/Error.h"
#include "support/SymbolTable.h"
#include "term/Lexer.h"
#include "term/Term.h"

#include <span>
#include <string>
#include <vector>

namespace awam {

/// One parsed clause: Head :- Body1, ..., BodyN (facts have an empty body).
struct ParsedClause {
  const Term *Head = nullptr;
  std::vector<const Term *> Body;
  /// Number of distinct variables in the clause (var ids are 0..NumVars-1).
  int NumVars = 0;
};

/// A parsed program: clauses in source order plus any ":- Goal" directives.
struct ParsedProgram {
  std::vector<ParsedClause> Clauses;
  std::vector<const Term *> Directives;
};

/// Reads Prolog terms and clauses from a source buffer.
///
/// The parser uses the fixed operator table in term/Operators.h. Variables
/// are clause-scoped: each readClause()/readTerm() call numbers the distinct
/// variables of that term from zero.
class Parser {
public:
  Parser(std::string_view Source, SymbolTable &Syms, TermArena &Arena);

  /// Reads the next term up to its end token. Returns nullptr at EOF.
  Result<const Term *> readTerm();

  /// Number of distinct variables in the most recent readTerm() result.
  int lastTermNumVars() const { return NumVars; }

private:
  struct Parsed {
    const Term *T;
    int Priority; // the priority of the term as an operand
  };

  Result<Parsed> parse(int MaxPriority);
  Result<Parsed> parsePrimary(int MaxPriority);
  Result<size_t> parseArgList();
  Result<const Term *> parseListTail();
  std::span<const Term *const> popPending(size_t N);
  const Term *internVar(std::string_view Name);
  Diagnostic errorAt(const Token &T, std::string_view Message) const;

  Lexer Lex;
  SymbolTable &Syms;
  TermArena &Arena;
  /// The named variables of the current term, in first-occurrence order,
  /// and their index (over VarNames) by name.
  std::vector<std::pair<std::string_view, const Term *>> VarNames;
  DenseIndex VarIndex;
  int NumVars = 0;
  /// Arguments and list elements read so far, innermost term on top; each
  /// structure or list takes its own from the top when it closes.
  std::vector<const Term *> Pending;
};

/// Parses a whole program (sequence of clauses and directives).
Result<ParsedProgram> parseProgram(std::string_view Source, SymbolTable &Syms,
                                   TermArena &Arena);

/// Splits a clause term into head and flattened body goals, numbering
/// variables as in \p NumVars. Fails on non-callable heads or goals.
Result<ParsedClause> makeClause(const Term *ClauseTerm, int NumVars,
                                const SymbolTable &Syms);

} // namespace awam

#endif // AWAM_TERM_PARSER_H
