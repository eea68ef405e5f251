//===- term/Lexer.h - Prolog tokenizer --------------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokenizer for the subset of ISO Prolog syntax used by the benchmark
/// suite: unquoted/quoted/symbolic atoms, variables, integers, punctuation,
/// lists, curly braces, end tokens, %-comments and /* */ comments, and
/// 0'c character codes.
///
/// Token texts are views, not copies: a text that appears verbatim in the
/// source views the source buffer, and the few that do not (quoted atoms
/// with escapes or doubled quotes, error messages) view storage the lexer
/// owns and never moves. A token is therefore valid while both the source
/// buffer and the lexer live; the reader copies every name it keeps into
/// the SymbolTable before parseProgram returns.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_LEXER_H
#define AWAM_TERM_LEXER_H

#include "support/Error.h"

#include <cstdint>
#include <forward_list>
#include <string>
#include <string_view>

namespace awam {

/// Token categories produced by the Lexer.
enum class TokenKind : uint8_t {
  Atom,       ///< unquoted, quoted or symbolic atom; text in Token::Text
  Var,        ///< variable name (starts upper-case or '_')
  Int,        ///< integer literal; value in Token::IntVal
  Punct,      ///< one of ( ) [ ] { } , |
  End,        ///< clause-terminating '.'
  OpenCT,     ///< '(' immediately following an atom (functor application)
  EndOfFile,  ///< input exhausted
  Error,      ///< lexical error; message in Token::Text
};

/// A single token with its source position.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  std::string_view Text; // atom/var name, punct char, or error message
  int64_t IntVal = 0;    // integer value
  int Line = 1;
  int Column = 1;
};

/// Incremental tokenizer over an in-memory buffer.
class Lexer {
public:
  explicit Lexer(std::string_view Source);

  /// Scans and returns the next token.
  Token next();

  /// Returns the next token without consuming it. The reference is valid
  /// until the next call to next() or peek(); the token's text stays valid
  /// for the lexer's lifetime.
  const Token &peek();

private:
  Token lex();
  void skipLayout();
  char cur() const { return Pos < Src.size() ? Src[Pos] : '\0'; }
  char lookahead(size_t N = 1) const {
    return Pos + N < Src.size() ? Src[Pos + N] : '\0';
  }
  /// Consumes one character, counting lines; for scans that may cross a
  /// newline. Name scans advance Pos directly.
  void advance();
  int column(size_t At) const { return static_cast<int>(At - LineStart) + 1; }
  /// Keeps \p Text in storage that lives as long as the lexer.
  std::string_view own(std::string Text);

  std::string_view Src;
  size_t Pos = 0;
  int Line = 1;
  size_t LineStart = 0; // offset of the first character of Line
  bool HasPeeked = false;
  Token Peeked;
  bool PrevWasName = false; // for OpenCT detection
  std::forward_list<std::string> Owned; // texts not verbatim in Src
};

} // namespace awam

#endif // AWAM_TERM_LEXER_H
