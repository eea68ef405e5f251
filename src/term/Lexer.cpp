//===- term/Lexer.cpp -----------------------------------------------------===//

#include "term/Lexer.h"

#include <array>

using namespace awam;

namespace {

/// Character classes, as the C locale's <cctype> functions define them.
enum CharClass : uint8_t {
  Space = 1,  // isspace
  Digit = 2,  // isdigit
  Lower = 4,  // islower
  Upper = 8,  // isupper
  Symbol = 16 // one of +-*/\^<>=~:.?@#&$
};

constexpr std::array<uint8_t, 256> makeClasses() {
  std::array<uint8_t, 256> C{};
  for (unsigned char Ch : std::string_view(" \t\n\v\f\r"))
    C[Ch] |= Space;
  for (int Ch = '0'; Ch <= '9'; ++Ch)
    C[Ch] |= Digit;
  for (int Ch = 'a'; Ch <= 'z'; ++Ch)
    C[Ch] |= Lower;
  for (int Ch = 'A'; Ch <= 'Z'; ++Ch)
    C[Ch] |= Upper;
  for (unsigned char Ch : std::string_view("+-*/\\^<>=~:.?@#&$"))
    C[Ch] |= Symbol;
  return C;
}

constexpr std::array<uint8_t, 256> Classes = makeClasses();

bool is(char C, uint8_t Class) {
  return Classes[static_cast<unsigned char>(C)] & Class;
}

bool isAlnumChar(char C) {
  return is(C, Digit | Lower | Upper) || C == '_';
}

} // namespace

Lexer::Lexer(std::string_view Source) : Src(Source) {}

void Lexer::advance() {
  if (Pos >= Src.size())
    return;
  if (Src[Pos++] == '\n') {
    ++Line;
    LineStart = Pos;
  }
}

std::string_view Lexer::own(std::string Text) {
  Owned.push_front(std::move(Text));
  return Owned.front();
}

void Lexer::skipLayout() {
  for (;;) {
    char C = cur();
    if (C == '\0')
      return;
    if (is(C, Space)) {
      advance();
      continue;
    }
    if (C == '%') {
      while (cur() != '\0' && cur() != '\n')
        ++Pos;
      continue;
    }
    if (C == '/' && lookahead() == '*') {
      Pos += 2;
      while (cur() != '\0' && !(cur() == '*' && lookahead() == '/'))
        advance();
      advance(); // '*'
      advance(); // '/'
      continue;
    }
    return;
  }
}

const Token &Lexer::peek() {
  if (!HasPeeked) {
    Peeked = lex();
    HasPeeked = true;
  }
  return Peeked;
}

Token Lexer::next() {
  if (HasPeeked) {
    HasPeeked = false;
    return std::move(Peeked);
  }
  return lex();
}

Token Lexer::lex() {
  bool AfterName = PrevWasName;
  PrevWasName = false;

  // '(' with no layout before it and following an atom/var is a functor
  // application parenthesis.
  if (cur() == '(' && AfterName) {
    Token T{TokenKind::OpenCT, Src.substr(Pos, 1), 0, Line, column(Pos)};
    ++Pos;
    return T;
  }

  skipLayout();
  Token T;
  T.Line = Line;
  T.Column = column(Pos);
  size_t Start = Pos;
  char C = cur();

  if (C == '\0') {
    T.Kind = TokenKind::EndOfFile;
    return T;
  }

  // End token: '.' followed by layout or EOF.
  if (C == '.') {
    char N = lookahead();
    if (N == '\0' || is(N, Space) || N == '%') {
      T.Kind = TokenKind::End;
      T.Text = Src.substr(Pos++, 1);
      return T;
    }
  }

  if (std::string_view("()[]{},|").find(C) != std::string_view::npos) {
    T.Kind = TokenKind::Punct;
    T.Text = Src.substr(Pos++, 1);
    return T;
  }

  // Character code 0'c (also 0'\\n style escapes).
  if (C == '0' && lookahead() == '\'') {
    Pos += 2; // 0'
    char V = cur();
    if (V == '\\') {
      advance();
      char E = cur();
      switch (E) {
      case 'n': V = '\n'; break;
      case 't': V = '\t'; break;
      case 'a': V = '\a'; break;
      case 'b': V = '\b'; break;
      case 'r': V = '\r'; break;
      case '\\': V = '\\'; break;
      case '\'': V = '\''; break;
      default: V = E; break;
      }
    }
    advance();
    T.Kind = TokenKind::Int;
    T.IntVal = static_cast<unsigned char>(V);
    return T;
  }

  if (is(C, Digit)) {
    int64_t Value = 0;
    bool Overflow = false;
    while (is(cur(), Digit)) {
      // Accumulate with overflow checks (signed overflow is UB); keep
      // consuming the remaining digits either way so the error token
      // covers the whole literal.
      Overflow |= __builtin_mul_overflow(Value, 10, &Value) ||
                  __builtin_add_overflow(Value, cur() - '0', &Value);
      ++Pos;
    }
    if (Overflow) {
      T.Kind = TokenKind::Error;
      T.Text = "integer literal overflows 64 bits";
      return T;
    }
    T.Kind = TokenKind::Int;
    T.IntVal = Value;
    PrevWasName = true; // "3(" is not a call, but harmless
    return T;
  }

  if (is(C, Lower | Upper) || C == '_') {
    while (isAlnumChar(cur()))
      ++Pos;
    T.Kind = is(C, Lower) ? TokenKind::Atom : TokenKind::Var;
    T.Text = Src.substr(Start, Pos - Start);
    PrevWasName = true;
    return T;
  }

  if (C == '\'') {
    ++Pos;
    // The text is a view of the source unless an escape or a doubled
    // quote makes it differ; from the first such character on, it is
    // built in Name.
    size_t Begin = Pos;
    bool Verbatim = true;
    std::string Name;
    auto Push = [&](char Ch) {
      if (Verbatim) {
        Name.assign(Src.substr(Begin, Pos - Begin));
        Verbatim = false;
      }
      Name.push_back(Ch);
    };
    for (;;) {
      char V = cur();
      if (V == '\0') {
        T.Kind = TokenKind::Error;
        T.Text = "unterminated quoted atom";
        return T;
      }
      if (V == '\'') {
        if (lookahead() == '\'') { // escaped quote ''
          Push('\'');
          Pos += 2;
          continue;
        }
        T.Text = Verbatim ? Src.substr(Begin, Pos - Begin) : own(Name);
        ++Pos;
        break;
      }
      if (V == '\\') {
        char E = lookahead();
        switch (E) {
        case 'n': Push('\n'); break;
        case 't': Push('\t'); break;
        case '\\': Push('\\'); break;
        case '\'': Push('\''); break;
        default: Push(E); break;
        }
        ++Pos;
        advance();
        continue;
      }
      if (!Verbatim)
        Name.push_back(V);
      advance();
    }
    T.Kind = TokenKind::Atom;
    PrevWasName = true;
    return T;
  }

  if (C == '!' || C == ';') {
    T.Kind = TokenKind::Atom;
    T.Text = Src.substr(Pos++, 1);
    PrevWasName = true;
    return T;
  }

  if (is(C, Symbol)) {
    while (is(cur(), Symbol))
      ++Pos;
    T.Kind = TokenKind::Atom;
    T.Text = Src.substr(Start, Pos - Start);
    PrevWasName = true;
    return T;
  }

  T.Kind = TokenKind::Error;
  T.Text = own(std::string("unexpected character '") + C + "'");
  advance();
  return T;
}
