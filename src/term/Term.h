//===- term/Term.h - Prolog source-level terms ------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable source-level Prolog terms (the compiler's AST) and the arena
/// that owns them.
///
/// Terms are trees of Var / Int / Atom / Struct nodes. Within one clause,
/// every occurrence of the same source variable shares a single Var node, so
/// identity comparison of Var nodes is variable identity. Lists are ordinary
/// structures with functor "."/2 terminated by the atom "[]".
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_TERM_H
#define AWAM_TERM_TERM_H

#include "support/BumpAllocator.h"
#include "support/SymbolTable.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace awam {

/// Discriminator for Term nodes.
enum class TermKind : uint8_t {
  Var,    ///< A logic variable (named or anonymous).
  Int,    ///< An integer constant.
  Atom,   ///< An atom constant (including "[]").
  Struct, ///< A compound term f(T1,...,Tn), n >= 1.
};

/// An immutable source-level term node. Allocate via TermArena.
///
/// A node is 16 bytes; a structure's argument pointers follow it in the
/// same arena chunk, so a node and its arguments share cache lines.
class Term {
public:
  TermKind kind() const { return Kind; }
  bool isVar() const { return Kind == TermKind::Var; }
  bool isInt() const { return Kind == TermKind::Int; }
  bool isAtom() const { return Kind == TermKind::Atom; }
  bool isStruct() const { return Kind == TermKind::Struct; }

  /// True for atoms and structures (things that can name a predicate).
  bool isCallable() const { return isAtom() || isStruct(); }

  /// The atom/functor name; valid for Atom and Struct nodes.
  Symbol functor() const {
    assert(isCallable() && "functor() on non-callable term");
    return Name;
  }

  /// Number of arguments (0 for atoms).
  int arity() const {
    assert(isCallable() && "arity() on non-callable term");
    return isStruct() ? static_cast<int>(IntVal) : 0;
  }

  /// The i-th argument of a structure (0-based).
  const Term *arg(int I) const {
    assert(isStruct() && I >= 0 && I < arity() && "arg() out of range");
    return argBase()[I];
  }

  /// All arguments of a structure (empty for other terms).
  std::span<const Term *const> args() const {
    if (!isStruct())
      return {};
    return {argBase(), static_cast<size_t>(IntVal)};
  }

  /// Integer value; valid for Int nodes.
  int64_t intValue() const {
    assert(isInt() && "intValue() on non-integer term");
    return IntVal;
  }

  /// Clause-local variable index (dense, 0-based); valid for Var nodes.
  int varId() const {
    assert(isVar() && "varId() on non-variable term");
    return static_cast<int>(IntVal);
  }

  /// Variable display name; valid for Var nodes ("_" for anonymous).
  Symbol varName() const {
    assert(isVar() && "varName() on non-variable term");
    return Name;
  }

  /// True for the atom "[]".
  bool isNil() const {
    return isAtom() && Name == SymbolTable::SymNil;
  }

  /// True for a "."/2 structure (a list cell).
  bool isCons() const {
    return isStruct() && Name == SymbolTable::SymDot && IntVal == 2;
  }

  // Nodes live only in a TermArena, at the address it made them.
  Term(const Term &) = delete;
  Term &operator=(const Term &) = delete;

private:
  friend class TermArena;

  Term(TermKind Kind, Symbol Name, int64_t IntVal)
      : Kind(Kind), Name(Name), IntVal(IntVal) {}

  /// A structure's arguments, stored right after the node.
  const Term *const *argBase() const {
    return std::launder(reinterpret_cast<const Term *const *>(this + 1));
  }

  TermKind Kind;
  Symbol Name;    // atom/functor name or variable name
  int64_t IntVal; // integer value, variable id, or structure arity
};

/// Owns Term nodes; all terms created by an arena die with it. Nodes and
/// their argument arrays are bump-allocated (support/BumpAllocator.h).
class TermArena {
public:
  /// Creates a variable node. \p VarId must be dense within the enclosing
  /// clause (the parser guarantees this).
  const Term *mkVar(Symbol DisplayName, int VarId) {
    return make(TermKind::Var, DisplayName, VarId, {});
  }

  const Term *mkInt(int64_t Value) {
    return make(TermKind::Int, 0, Value, {});
  }

  const Term *mkAtom(Symbol Name) {
    return make(TermKind::Atom, Name, 0, {});
  }

  /// Creates \p Name(Args...); the arguments are copied into the arena.
  const Term *mkStruct(Symbol Name, std::span<const Term *const> Args) {
    assert(!Args.empty() && "structure must have at least one argument");
    return make(TermKind::Struct, Name, static_cast<int64_t>(Args.size()),
                Args);
  }
  const Term *mkStruct(Symbol Name,
                       std::initializer_list<const Term *> Args) {
    return mkStruct(Name, std::span(Args.begin(), Args.size()));
  }

  /// Builds a list cell [Head|Tail].
  const Term *mkCons(const Term *Head, const Term *Tail) {
    return mkStruct(SymbolTable::SymDot, {Head, Tail});
  }

  /// Builds a proper list of \p Elements.
  const Term *mkList(std::span<const Term *const> Elements,
                     const Term *Tail) {
    const Term *T = Tail;
    for (size_t I = Elements.size(); I != 0; --I)
      T = mkCons(Elements[I - 1], T);
    return T;
  }

  /// Number of nodes created.
  size_t size() const { return NumNodes; }

private:
  const Term *make(TermKind Kind, Symbol Name, int64_t IntVal,
                   std::span<const Term *const> Args);

  BumpAllocator Bytes;
  size_t NumNodes = 0;
};

/// Structural equality of two terms (variables compare by identity).
bool termEquals(const Term *A, const Term *B);

} // namespace awam

#endif // AWAM_TERM_TERM_H
