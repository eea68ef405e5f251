//===- term/Term.cpp ------------------------------------------------------===//

#include "term/Term.h"

#include <memory>

using namespace awam;

const Term *TermArena::make(TermKind Kind, Symbol Name, int64_t IntVal,
                            std::span<const Term *const> Args) {
  static_assert(sizeof(Term) % alignof(const Term *) == 0 &&
                alignof(Term) == alignof(const Term *));
  // Multiples of 8 bytes only, so every node stays pointer-aligned.
  std::byte *At =
      Bytes.allocate(sizeof(Term) + Args.size() * sizeof(const Term *));
  ++NumNodes;
  Term *T = new (At) Term(Kind, Name, IntVal);
  std::uninitialized_copy(Args.begin(), Args.end(),
                          reinterpret_cast<const Term **>(T + 1));
  return T;
}

bool awam::termEquals(const Term *A, const Term *B) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TermKind::Var:
    return false; // identity already checked
  case TermKind::Int:
    return A->intValue() == B->intValue();
  case TermKind::Atom:
    return A->functor() == B->functor();
  case TermKind::Struct: {
    if (A->functor() != B->functor() || A->arity() != B->arity())
      return false;
    for (int I = 0, E = A->arity(); I != E; ++I)
      if (!termEquals(A->arg(I), B->arg(I)))
        return false;
    return true;
  }
  }
  return false;
}
