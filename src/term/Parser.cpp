//===- term/Parser.cpp ----------------------------------------------------===//

#include "term/Parser.h"

#include "term/Desugar.h"
#include "term/Operators.h"

using namespace awam;

Parser::Parser(std::string_view Source, SymbolTable &Syms, TermArena &Arena)
    : Lex(Source), Syms(Syms), Arena(Arena) {}

Diagnostic Parser::errorAt(const Token &T, std::string_view Message) const {
  return makeError(std::string(Message), T.Line, T.Column);
}

const Term *Parser::internVar(std::string_view Name) {
  if (Name == "_")
    return Arena.mkVar(Syms.intern("_"), NumVars++);
  auto Id = static_cast<uint32_t>(VarNames.size());
  uint32_t K = VarIndex.findOrInsert(hashBytes(Name), Id, [&](uint32_t Other) {
    return VarNames[Other].first == Name;
  });
  if (K != Id)
    return VarNames[K].second;
  const Term *V = Arena.mkVar(Syms.intern(Name), NumVars++);
  VarNames.emplace_back(Name, V);
  return V;
}

std::span<const Term *const> Parser::popPending(size_t N) {
  // The span stays valid until the next push: popping does not reallocate.
  std::span<const Term *const> Top(Pending.data() + Pending.size() - N, N);
  Pending.resize(Pending.size() - N);
  return Top;
}

Result<const Term *> Parser::readTerm() {
  VarNames.clear();
  VarIndex.clear();
  Pending.clear();
  NumVars = 0;
  if (Lex.peek().Kind == TokenKind::EndOfFile)
    return static_cast<const Term *>(nullptr);
  Result<Parsed> P = parse(1200);
  if (!P)
    return P.diag();
  Token End = Lex.next();
  if (End.Kind != TokenKind::End && End.Kind != TokenKind::EndOfFile)
    return errorAt(End, "expected '.' at end of clause");
  return P->T;
}

/// Maximum priority allowed for the left operand of an infix/postfix op.
static int leftArgMax(const OpDef &Op) {
  switch (Op.Type) {
  case OpType::YFX:
  case OpType::YF:
    return Op.Priority;
  default:
    return Op.Priority - 1;
  }
}

/// Maximum priority allowed for the right operand of an infix/prefix op.
static int rightArgMax(const OpDef &Op) {
  switch (Op.Type) {
  case OpType::XFY:
    return Op.Priority;
  case OpType::FY:
    return Op.Priority;
  default:
    return Op.Priority - 1;
  }
}

/// True if \p T can start a term (used to decide whether a prefix operator
/// is really applied or stands as an atom).
static bool startsTerm(const Token &T) {
  switch (T.Kind) {
  case TokenKind::Atom:
  case TokenKind::Var:
  case TokenKind::Int:
  case TokenKind::OpenCT:
    return true;
  case TokenKind::Punct:
    return T.Text[0] == '(' || T.Text[0] == '[' || T.Text[0] == '{';
  default:
    return false;
  }
}

Result<Parser::Parsed> Parser::parse(int MaxPriority) {
  Result<Parsed> LeftOr = parsePrimary(MaxPriority);
  if (!LeftOr)
    return LeftOr;
  Parsed Left = *LeftOr;

  for (;;) {
    const Token &T = Lex.peek();
    std::string_view OpName;
    if (T.Kind == TokenKind::Atom)
      OpName = T.Text;
    else if (T.Kind == TokenKind::Punct && (T.Text == "," || T.Text == "|"))
      OpName = T.Text == "|" ? ";" : ","; // '|' as disjunction separator
    else
      break;

    std::optional<OpDef> Op = lookupInfixOp(OpName);
    if (!Op || Op->Priority > MaxPriority || Left.Priority > leftArgMax(*Op))
      break;

    Lex.next();
    Result<Parsed> RightOr = parse(rightArgMax(*Op));
    if (!RightOr)
      return RightOr;
    // The operator is interned after its right operand's names.
    Left.T = Arena.mkStruct(Syms.intern(OpName), {Left.T, RightOr->T});
    Left.Priority = Op->Priority;
  }
  return Left;
}

Result<size_t> Parser::parseArgList() {
  // Called after an OpenCT; leaves the arguments on Pending.
  for (size_t N = 1;; ++N) {
    Result<Parsed> Arg = parse(999);
    if (!Arg)
      return Arg.diag();
    Pending.push_back(Arg->T);
    Token T = Lex.next();
    if (T.Kind == TokenKind::Punct && T.Text == ",")
      continue;
    if (T.Kind == TokenKind::Punct && T.Text == ")")
      return N;
    return errorAt(T, "expected ',' or ')' in argument list");
  }
}

Result<const Term *> Parser::parseListTail() {
  // Called after '['; handles elements, '|' tail and ']'.
  for (size_t N = 1;; ++N) {
    Result<Parsed> E = parse(999);
    if (!E)
      return E.diag();
    Pending.push_back(E->T);
    Token T = Lex.next();
    if (T.Kind == TokenKind::Punct && T.Text == ",")
      continue;
    if (T.Kind == TokenKind::Punct && T.Text == "|") {
      Result<Parsed> Tail = parse(999);
      if (!Tail)
        return Tail.diag();
      Token Close = Lex.next();
      if (Close.Kind != TokenKind::Punct || Close.Text != "]")
        return errorAt(Close, "expected ']' after list tail");
      return Arena.mkList(popPending(N), Tail->T);
    }
    if (T.Kind == TokenKind::Punct && T.Text == "]")
      return Arena.mkList(popPending(N), Arena.mkAtom(SymbolTable::SymNil));
    return errorAt(T, "expected ',', '|' or ']' in list");
  }
}

Result<Parser::Parsed> Parser::parsePrimary(int MaxPriority) {
  Token T = Lex.next();
  switch (T.Kind) {
  case TokenKind::Error:
    return errorAt(T, T.Text);
  case TokenKind::EndOfFile:
  case TokenKind::End:
    return errorAt(T, "unexpected end of clause");
  case TokenKind::Int:
    return Parsed{Arena.mkInt(T.IntVal), 0};
  case TokenKind::Var:
    return Parsed{internVar(T.Text), 0};
  case TokenKind::OpenCT: // can only follow an atom; handled below
  case TokenKind::Punct: {
    if (T.Text == "(" ) {
      Result<Parsed> Inner = parse(1200);
      if (!Inner)
        return Inner;
      Token Close = Lex.next();
      if (Close.Kind != TokenKind::Punct || Close.Text != ")")
        return errorAt(Close, "expected ')'");
      return Parsed{Inner->T, 0};
    }
    if (T.Text == "[") {
      const Token &Next = Lex.peek();
      if (Next.Kind == TokenKind::Punct && Next.Text == "]") {
        Lex.next();
        return Parsed{Arena.mkAtom(SymbolTable::SymNil), 0};
      }
      Result<const Term *> L = parseListTail();
      if (!L)
        return L.diag();
      return Parsed{*L, 0};
    }
    if (T.Text == "{") {
      const Token &Next = Lex.peek();
      if (Next.Kind == TokenKind::Punct && Next.Text == "}") {
        Lex.next();
        return Parsed{Arena.mkAtom(SymbolTable::SymCurly), 0};
      }
      Result<Parsed> Inner = parse(1200);
      if (!Inner)
        return Inner;
      Token Close = Lex.next();
      if (Close.Kind != TokenKind::Punct || Close.Text != "}")
        return errorAt(Close, "expected '}'");
      return Parsed{
          Arena.mkStruct(SymbolTable::SymCurly, {Inner->T}), 0};
    }
    return errorAt(T, "unexpected '" + std::string(T.Text) + "'");
  }
  case TokenKind::Atom: {
    // Functor application: atom immediately followed by '('.
    if (Lex.peek().Kind == TokenKind::OpenCT) {
      Lex.next();
      Result<size_t> N = parseArgList();
      if (!N)
        return N.diag();
      // The functor is interned after its arguments' names.
      Symbol F = Syms.intern(T.Text);
      return Parsed{Arena.mkStruct(F, popPending(*N)), 0};
    }
    // Negative integer literal.
    if (T.Text == "-" && Lex.peek().Kind == TokenKind::Int) {
      Token N = Lex.next();
      return Parsed{Arena.mkInt(-N.IntVal), 0};
    }
    // Prefix operator application.
    if (std::optional<OpDef> Op = lookupPrefixOp(T.Text)) {
      const Token &Next = Lex.peek();
      bool NextIsInfixAtom =
          Next.Kind == TokenKind::Atom && lookupInfixOp(Next.Text) &&
          !lookupPrefixOp(Next.Text);
      if (Op->Priority <= MaxPriority && startsTerm(Next) &&
          !NextIsInfixAtom) {
        Result<Parsed> Operand = parse(rightArgMax(*Op));
        if (!Operand)
          return Operand;
        return Parsed{Arena.mkStruct(Syms.intern(T.Text), {Operand->T}),
                      Op->Priority};
      }
    }
    // Plain atom. An operator name used as an atom carries its priority.
    int Priority = 0;
    if (std::optional<OpDef> Op = lookupInfixOp(T.Text))
      Priority = Op->Priority;
    else if (std::optional<OpDef> Op2 = lookupPrefixOp(T.Text))
      Priority = Op2->Priority;
    return Parsed{Arena.mkAtom(Syms.intern(T.Text)), Priority};
  }
  }
  return errorAt(T, "unexpected token");
}

/// Appends the goals of conjunction \p G to \p Body, left to right,
/// dropping 'true'. Returns false on a goal that is not callable.
static bool flattenBody(const Term *G, std::vector<const Term *> &Body) {
  // Conjunctions nest to the right; follow that spine iteratively.
  while (G->isStruct() && G->functor() == SymbolTable::SymComma &&
         G->arity() == 2) {
    if (!flattenBody(G->arg(0), Body))
      return false;
    G = G->arg(1);
  }
  if (G->isAtom() && G->functor() == SymbolTable::SymTrue)
    return true;
  if (!G->isCallable() && !G->isVar())
    return false;
  Body.push_back(G);
  return true;
}

Result<ParsedClause> awam::makeClause(const Term *ClauseTerm, int NumVars,
                                      const SymbolTable &Syms) {
  ParsedClause C;
  C.NumVars = NumVars;
  const Term *Body = nullptr;
  if (ClauseTerm->isStruct() &&
      ClauseTerm->functor() == SymbolTable::SymNeck &&
      ClauseTerm->arity() == 2) {
    C.Head = ClauseTerm->arg(0);
    Body = ClauseTerm->arg(1);
  } else {
    C.Head = ClauseTerm;
  }
  if (!C.Head->isCallable())
    return makeError("clause head is not callable");
  if (Body && !flattenBody(Body, C.Body))
    return makeError("body goal is not callable");
  (void)Syms;
  return C;
}

Result<ParsedProgram> awam::parseProgram(std::string_view Source,
                                         SymbolTable &Syms,
                                         TermArena &Arena) {
  Parser P(Source, Syms, Arena);
  ParsedProgram Prog;
  for (;;) {
    Result<const Term *> TermOr = P.readTerm();
    if (!TermOr)
      return TermOr.diag();
    const Term *T = *TermOr;
    if (!T)
      // Rewrite ;/->/\+ into auxiliary predicates (see term/Desugar.h).
      return desugarControl(std::move(Prog), Syms, Arena);
    // ":- Goal" directives are collected but not compiled.
    if (T->isStruct() && T->functor() == SymbolTable::SymNeck &&
        T->arity() == 1) {
      Prog.Directives.push_back(T->arg(0));
      continue;
    }
    Result<ParsedClause> C = makeClause(T, P.lastTermNumVars(), Syms);
    if (!C)
      return C.diag();
    Prog.Clauses.push_back(C.take());
  }
}
