//===- tests/LexerTest.cpp - Tokenizer unit tests -------------------------===//

#include "term/Lexer.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

/// A token with its own copy of the text: a Token's text may view storage
/// of the lexer, which lexAll does not keep.
struct LexedToken {
  TokenKind Kind;
  std::string Text;
  int64_t IntVal;
  int Line;
  int Column;
};

std::vector<LexedToken> lexAll(std::string_view Source) {
  Lexer L(Source);
  std::vector<LexedToken> Out;
  for (;;) {
    Token T = L.next();
    if (T.Kind == TokenKind::EndOfFile)
      return Out;
    Out.push_back({T.Kind, std::string(T.Text), T.IntVal, T.Line, T.Column});
    if (T.Kind == TokenKind::Error)
      return Out;
  }
}

TEST(LexerTest, SimpleAtomsAndVariables) {
  auto Ts = lexAll("foo Bar _baz _ x1");
  ASSERT_EQ(Ts.size(), 5u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, "foo");
  EXPECT_EQ(Ts[1].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[1].Text, "Bar");
  EXPECT_EQ(Ts[2].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[2].Text, "_baz");
  EXPECT_EQ(Ts[3].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[3].Text, "_");
  EXPECT_EQ(Ts[4].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[4].Text, "x1");
}

TEST(LexerTest, Integers) {
  auto Ts = lexAll("0 42 123456");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].IntVal, 0);
  EXPECT_EQ(Ts[1].IntVal, 42);
  EXPECT_EQ(Ts[2].IntVal, 123456);
}

TEST(LexerTest, IntegerLiteralAtInt64Max) {
  auto Ts = lexAll("9223372036854775807");
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Int);
  EXPECT_EQ(Ts[0].IntVal, 9223372036854775807LL);
}

TEST(LexerTest, IntegerLiteralOverflowIsAnError) {
  // One past INT64_MAX used to wrap silently (signed-overflow UB).
  auto Ts = lexAll("9223372036854775808");
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[0].Text, "integer literal overflows 64 bits");
}

TEST(LexerTest, HugeIntegerLiteralIsAnError) {
  auto Ts = lexAll("123456789012345678901234567890 foo");
  // The whole literal is consumed before the error token is emitted, and
  // lexing stops at the error.
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[0].Text, "integer literal overflows 64 bits");
}

TEST(LexerTest, CharacterCodes) {
  auto Ts = lexAll("0'a 0'  0'\\n");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].IntVal, 'a');
  EXPECT_EQ(Ts[1].IntVal, ' ');
  EXPECT_EQ(Ts[2].IntVal, '\n');
}

TEST(LexerTest, SymbolicAtoms) {
  auto Ts = lexAll(":- ?- = \\= == @< =.. -->");
  ASSERT_EQ(Ts.size(), 8u);
  for (const LexedToken &T : Ts)
    EXPECT_EQ(T.Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, ":-");
  EXPECT_EQ(Ts[3].Text, "\\=");
  EXPECT_EQ(Ts[4].Text, "==");
  EXPECT_EQ(Ts[6].Text, "=..");
}

TEST(LexerTest, QuotedAtoms) {
  auto Ts = lexAll("'hello world' 'it''s' 'a\\nb'");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Text, "hello world");
  EXPECT_EQ(Ts[1].Text, "it's");
  EXPECT_EQ(Ts[2].Text, "a\nb");
}

TEST(LexerTest, UnterminatedQuoteIsError) {
  auto Ts = lexAll("'oops");
  ASSERT_FALSE(Ts.empty());
  EXPECT_EQ(Ts.back().Kind, TokenKind::Error);
}

TEST(LexerTest, EndTokenVsDotOperator) {
  // '.' followed by layout ends a clause; '=..' stays one atom.
  auto Ts = lexAll("a. X =.. L.");
  ASSERT_EQ(Ts.size(), 6u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::End);
  EXPECT_EQ(Ts[3].Text, "=..");
  EXPECT_EQ(Ts[5].Kind, TokenKind::End);
}

TEST(LexerTest, Comments) {
  auto Ts = lexAll("a % line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Text, "a");
  EXPECT_EQ(Ts[1].Text, "b");
  EXPECT_EQ(Ts[2].Text, "c");
}

TEST(LexerTest, FunctorParenIsOpenCT) {
  auto Ts = lexAll("f(a) g (b)");
  // f OpenCT a ')' g '(' b ')'
  ASSERT_EQ(Ts.size(), 8u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::OpenCT);
  EXPECT_EQ(Ts[5].Kind, TokenKind::Punct); // '(' after layout
  EXPECT_EQ(Ts[5].Text, "(");
}

TEST(LexerTest, CutAndSemicolonAreSoloAtoms) {
  auto Ts = lexAll("! ;");
  ASSERT_EQ(Ts.size(), 2u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, "!");
  EXPECT_EQ(Ts[1].Text, ";");
}

TEST(LexerTest, PositionsTracked) {
  Lexer L("a\n  b");
  Token A = L.next();
  Token B = L.next();
  EXPECT_EQ(A.Line, 1);
  EXPECT_EQ(A.Column, 1);
  EXPECT_EQ(B.Line, 2);
  EXPECT_EQ(B.Column, 3);
}

TEST(LexerTest, PunctuationInventory) {
  auto Ts = lexAll("[ ] { } , |");
  ASSERT_EQ(Ts.size(), 6u);
  for (const LexedToken &T : Ts)
    EXPECT_EQ(T.Kind, TokenKind::Punct);
}

TEST(LexerTest, PeekDoesNotConsume) {
  Lexer L("a b");
  EXPECT_EQ(L.peek().Text, "a");
  EXPECT_EQ(L.peek().Text, "a");
  EXPECT_EQ(L.next().Text, "a");
  EXPECT_EQ(L.next().Text, "b");
}

TEST(LexerTest, EscapedQuotedAtomsSurviveAPeek) {
  // Neither text is verbatim in the source, so both live in the lexer's
  // own storage; peeking the second must not disturb the first.
  Lexer L("'a\\nb'('c''d')");
  Token First = L.next();
  Token Open = L.next();
  const Token &Peeked = L.peek();
  EXPECT_EQ(First.Kind, TokenKind::Atom);
  EXPECT_EQ(First.Text, "a\nb");
  EXPECT_EQ(Open.Kind, TokenKind::OpenCT);
  EXPECT_EQ(Peeked.Kind, TokenKind::Atom);
  EXPECT_EQ(Peeked.Text, "c'd");
  Token Second = L.next();
  EXPECT_EQ(First.Text, "a\nb");
  EXPECT_EQ(Second.Text, "c'd");
  EXPECT_EQ(L.next().Text, ")");
  EXPECT_EQ(L.next().Kind, TokenKind::EndOfFile);
}

TEST(LexerTest, UnexpectedCharacterAfterTabsAndBlockComment) {
  // A tab counts as one column; a block comment's newlines count as lines.
  auto Ts = lexAll("a /* one\ntwo\n\tthree */\t\tb\n\t`");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[1].Text, "b");
  EXPECT_EQ(Ts[1].Line, 3);
  EXPECT_EQ(Ts[1].Column, 12);
  EXPECT_EQ(Ts[2].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[2].Text, "unexpected character '`'");
  EXPECT_EQ(Ts[2].Line, 4);
  EXPECT_EQ(Ts[2].Column, 2);
}

TEST(LexerTest, ColumnAfterOpenCT) {
  auto Ts = lexAll("  foo(Bar, 'q x'(1))");
  ASSERT_EQ(Ts.size(), 9u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::OpenCT);
  EXPECT_EQ(Ts[1].Column, 6);
  EXPECT_EQ(Ts[2].Text, "Bar");
  EXPECT_EQ(Ts[2].Column, 7);
  EXPECT_EQ(Ts[4].Text, "q x");
  EXPECT_EQ(Ts[5].Kind, TokenKind::OpenCT);
  EXPECT_EQ(Ts[5].Column, 17);
  EXPECT_EQ(Ts[6].IntVal, 1);
  EXPECT_EQ(Ts[6].Column, 18);
}

TEST(LexerTest, LinesCountInsideQuotedAtomsAndCharacterCodes) {
  auto Ts = lexAll("'a\nb' 0'\n x");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Text, "a\nb");
  EXPECT_EQ(Ts[1].IntVal, '\n');
  EXPECT_EQ(Ts[2].Line, 3);
  EXPECT_EQ(Ts[2].Column, 2);
}

} // namespace
