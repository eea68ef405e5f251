//===- term/Desugar.cpp ---------------------------------------------------===//

#include "term/Desugar.h"

#include <set>

using namespace awam;

namespace {

/// Collects the distinct variables of \p T in first-occurrence order.
void collectVars(const Term *T, std::vector<const Term *> &Out,
                 std::set<int> &Seen) {
  if (T->isVar()) {
    if (Seen.insert(T->varId()).second)
      Out.push_back(T);
    return;
  }
  if (T->isStruct())
    for (const Term *A : T->args())
      collectVars(A, Out, Seen);
}

class Desugarer {
public:
  // The control functors are looked up, not interned: a program that
  // never names them gets ~0u, which no functor equals.
  Desugarer(SymbolTable &Syms, TermArena &Arena)
      : Syms(Syms), Arena(Arena), SymOr(Syms.lookup(";")),
        SymIf(Syms.lookup("->")), SymNot(Syms.lookup("\\+")) {}

  Result<ParsedProgram> run(ParsedProgram Program) {
    // Worklist over the clause list itself: desugaring a clause may append
    // auxiliary clauses that themselves contain control constructs.
    std::vector<ParsedClause> &Clauses = Program.Clauses;
    for (size_t I = 0; I != Clauses.size(); ++I) {
      int NumVars = Clauses[I].NumVars;
      for (size_t J = 0; J != Clauses[I].Body.size(); ++J) {
        const Term *G = Clauses[I].Body[J];
        if (!isControl(G))
          continue;
        // extract() appends to Clauses, so index it again afterwards.
        const Term *Call = extract(G, NumVars, Clauses);
        Clauses[I].Body[J] = Call;
      }
    }
    return Program;
  }

private:
  /// Replaces control goal \p G with a call to a fresh auxiliary
  /// predicate, appending the auxiliary clauses to \p Work.
  const Term *extract(const Term *G, int NumVars,
                      std::vector<ParsedClause> &Work) {
    std::vector<const Term *> Vars;
    std::set<int> Seen;
    collectVars(G, Vars, Seen);

    Symbol AuxName = Syms.intern("$aux" + std::to_string(++Counter));
    const Term *AuxHead =
        Vars.empty() ? Arena.mkAtom(AuxName)
                     : Arena.mkStruct(AuxName, Vars);
    const Term *Call = AuxHead;

    emitAlternatives(G, AuxHead, NumVars, Work);
    return Call;
  }

  /// Emits the clauses of the auxiliary predicate for control goal \p G.
  void emitAlternatives(const Term *G, const Term *AuxHead, int NumVars,
                        std::vector<ParsedClause> &Work) {
    if (isDisjunction(G)) {
      const Term *Left = G->arg(0);
      const Term *Right = G->arg(1);
      if (isIfThen(Left)) {
        // (C -> T ; E): first clause commits on C.
        emitClause(AuxHead,
                   {Left->arg(0), Arena.mkAtom(SymbolTable::SymCut),
                    Left->arg(1)},
                   NumVars, Work);
        emitAlternatives(Right, AuxHead, NumVars, Work);
        return;
      }
      emitAlternatives(Left, AuxHead, NumVars, Work);
      emitAlternatives(Right, AuxHead, NumVars, Work);
      return;
    }
    if (isIfThen(G)) {
      // Bare (C -> T) is (C -> T ; fail).
      emitClause(AuxHead,
                 {G->arg(0), Arena.mkAtom(SymbolTable::SymCut), G->arg(1)},
                 NumVars, Work);
      return;
    }
    if (isNaf(G)) {
      emitClause(AuxHead,
                 {G->arg(0), Arena.mkAtom(SymbolTable::SymCut),
                  Arena.mkAtom(SymbolTable::SymFail)},
                 NumVars, Work);
      // The always-true second clause: head variables stay untouched.
      emitClause(AuxHead, {}, NumVars, Work);
      return;
    }
    // A plain alternative: its conjunction becomes the clause body.
    emitClause(AuxHead, {G}, NumVars, Work);
  }

  /// Appends one auxiliary clause, flattening conjunctions in \p Goals.
  void emitClause(const Term *Head, std::vector<const Term *> Goals,
                  int NumVars, std::vector<ParsedClause> &Work) {
    ParsedClause C;
    C.Head = Head;
    C.NumVars = NumVars; // ids are clause-local to the original clause
    for (const Term *G : Goals)
      flattenInto(G, C.Body);
    Work.push_back(std::move(C));
  }

  void flattenInto(const Term *G, std::vector<const Term *> &Out) {
    if (G->isStruct() && G->functor() == SymbolTable::SymComma &&
        G->arity() == 2) {
      flattenInto(G->arg(0), Out);
      flattenInto(G->arg(1), Out);
      return;
    }
    if (G->isAtom() && G->functor() == SymbolTable::SymTrue)
      return;
    Out.push_back(G);
  }

  bool isDisjunction(const Term *G) const {
    return G->isStruct() && G->arity() == 2 && G->functor() == SymOr;
  }
  bool isIfThen(const Term *G) const {
    return G->isStruct() && G->arity() == 2 && G->functor() == SymIf;
  }
  bool isNaf(const Term *G) const {
    return G->isStruct() && G->arity() == 1 && G->functor() == SymNot;
  }
  bool isControl(const Term *G) const {
    return isDisjunction(G) || isIfThen(G) || isNaf(G);
  }

  SymbolTable &Syms;
  TermArena &Arena;
  const Symbol SymOr, SymIf, SymNot;
  int Counter = 0;
};

} // namespace

Result<ParsedProgram> awam::desugarControl(ParsedProgram Program,
                                           SymbolTable &Syms,
                                           TermArena &Arena) {
  return Desugarer(Syms, Arena).run(std::move(Program));
}
