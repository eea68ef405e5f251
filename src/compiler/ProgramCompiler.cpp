//===- compiler/ProgramCompiler.cpp ---------------------------------------===//

#include "compiler/ProgramCompiler.h"

#include "compiler/Builtins.h"
#include "compiler/ClauseCompiler.h"

#include <algorithm>
#include <iterator>
#include <map>

using namespace awam;

namespace {

/// First-argument shape of a clause head, for indexing buckets.
enum class ArgShape { VarS, ConstS, ListS, StructS };

struct ClauseShape {
  ArgShape Shape = ArgShape::VarS;
  int32_t ConstKey = -1;   // constant pool index for ConstS
  int32_t FunctorKey = -1; // functor pool index for StructS
};

class ProgramContext {
public:
  ProgramContext(const ParsedProgram &Program, SymbolTable &Syms)
      : Program(Program), Syms(Syms) {
    Out.Module = std::make_unique<CodeModule>(Syms);
  }

  Result<CompiledProgram> run();

private:
  ClauseShape shapeOf(const Term *Head) const;
  int32_t emitChain(const std::vector<int32_t> &Entries, int32_t Arity);
  void buildIndexing(PredicateInfo &Pred,
                     const std::vector<ClauseShape> &Shapes);

  const ParsedProgram &Program;
  SymbolTable &Syms;
  CompiledProgram Out;
  std::map<std::vector<int32_t>, int32_t> ChainCache;
};

ClauseShape ProgramContext::shapeOf(const Term *Head) const {
  ClauseShape S;
  if (!Head->isStruct() || Head->arity() == 0)
    return S; // arity-0 predicates index as "var" (single bucket)
  const Term *A1 = Head->arg(0);
  CodeModule &M = *Out.Module;
  switch (A1->kind()) {
  case TermKind::Var:
    S.Shape = ArgShape::VarS;
    break;
  case TermKind::Int:
    S.Shape = ArgShape::ConstS;
    S.ConstKey = M.internConst(ConstOperand::integer(A1->intValue()));
    break;
  case TermKind::Atom:
    S.Shape = ArgShape::ConstS;
    S.ConstKey = M.internConst(ConstOperand::atom(A1->functor()));
    break;
  case TermKind::Struct:
    if (A1->isCons()) {
      S.Shape = ArgShape::ListS;
    } else {
      S.Shape = ArgShape::StructS;
      S.FunctorKey = M.internFunctor(
          {A1->functor(), static_cast<int32_t>(A1->arity())});
    }
    break;
  }
  return S;
}

/// Emits a try/retry/trust chain over clause entry points (or returns the
/// single entry / kFailTarget directly). Identical chains are shared.
int32_t ProgramContext::emitChain(const std::vector<int32_t> &Entries,
                                  int32_t Arity) {
  if (Entries.empty())
    return kFailTarget;
  if (Entries.size() == 1)
    return Entries[0];
  auto It = ChainCache.find(Entries);
  if (It != ChainCache.end())
    return It->second;
  CodeModule &M = *Out.Module;
  int32_t Addr = M.codeSize();
  // The Try B field is the number of argument registers the choice point
  // must save: the predicate's arity.
  M.emit({Opcode::Try, Entries.front(), Arity});
  for (size_t I = 1; I + 1 < Entries.size(); ++I)
    M.emit({Opcode::Retry, Entries[I], Arity});
  M.emit({Opcode::Trust, Entries.back(), Arity});
  ChainCache.emplace(Entries, Addr);
  return Addr;
}

void ProgramContext::buildIndexing(PredicateInfo &Pred,
                                   const std::vector<ClauseShape> &Shapes) {
  CodeModule &M = *Out.Module;
  size_t N = Pred.Clauses.size();
  int32_t Arity = Pred.Arity;
  assert(N == Shapes.size());

  // One pass over the clauses: entry points of every clause and of the
  // var-first-arg ones, plus clause positions per list / constant /
  // functor key. The maps order keys ascending, which is the order the
  // value switches list their cases in; positions within a key stay in
  // source order.
  std::vector<int32_t> All, Vars;
  std::vector<size_t> VarPos, ListPos;
  std::map<int32_t, std::vector<size_t>> ConstPos, FunctorPos;
  for (size_t I = 0; I != N; ++I) {
    All.push_back(Pred.Clauses[I].Entry);
    switch (Shapes[I].Shape) {
    case ArgShape::VarS:
      Vars.push_back(Pred.Clauses[I].Entry);
      VarPos.push_back(I);
      break;
    case ArgShape::ConstS:
      ConstPos[Shapes[I].ConstKey].push_back(I);
      break;
    case ArgShape::ListS:
      ListPos.push_back(I);
      break;
    case ArgShape::StructS:
      FunctorPos[Shapes[I].FunctorKey].push_back(I);
      break;
    }
  }

  if (N == 1) {
    Pred.IndexEntry = All[0];
    return;
  }

  // Arity-0 predicates (or all-var first args) need no dispatch.
  bool AllVar = Vars.size() == N;
  if (AllVar) {
    Pred.IndexEntry = emitChain(All, Arity);
    return;
  }

  // Applicable-clause chain of one key: the key's clauses merged with the
  // var-first-arg clauses, in source order.
  std::vector<size_t> Merged;
  std::vector<int32_t> Entries;
  auto bucketChain = [&](const std::vector<size_t> &KeyPos) {
    Merged.clear();
    std::merge(KeyPos.begin(), KeyPos.end(), VarPos.begin(), VarPos.end(),
               std::back_inserter(Merged));
    Entries.clear();
    for (size_t I : Merged)
      Entries.push_back(Pred.Clauses[I].Entry);
    return emitChain(Entries, Arity);
  };

  // One value switch over the keys of \p Groups (falling through to the
  // var-first-arg chain), or just that chain when there are no keys.
  auto valueSwitch = [&](const std::map<int32_t, std::vector<size_t>> &Groups,
                         Opcode Op) {
    if (Groups.empty())
      return emitChain(Vars, Arity);
    ValueSwitch VS;
    VS.Default = emitChain(Vars, Arity);
    for (const auto &[Key, KeyPos] : Groups)
      VS.Cases.emplace_back(Key, bucketChain(KeyPos));
    int32_t TableIdx = M.addValueSwitch(std::move(VS));
    return M.emit({Op, TableIdx, 0});
  };

  int32_t ListTarget = bucketChain(ListPos);
  int32_t ConstTarget = valueSwitch(ConstPos, Opcode::SwitchOnConstant);
  int32_t StructTarget = valueSwitch(FunctorPos, Opcode::SwitchOnStructure);
  int32_t VarTarget = emitChain(All, Arity);
  int32_t SwitchIdx = M.addTermSwitch(
      {VarTarget, ConstTarget, ListTarget, StructTarget});
  Pred.IndexEntry = M.emit({Opcode::SwitchOnTerm, SwitchIdx, 0});
}

Result<CompiledProgram> ProgramContext::run() {
  CodeModule &M = *Out.Module;
  // Address 0: the machine's top-level continuation. Address 1: a lone
  // Proceed the abstract machine uses to revert `execute` to
  // call-followed-by-proceed (paper Section 5).
  M.emit({Opcode::Halt, 0, 0});
  M.emit({Opcode::Proceed, 0, 0});

  // Bucket clauses by predicate id, source order within a bucket. Ids are
  // handed out in first-definition order on a fresh module, so the
  // buckets cover ids [0, Buckets.size()) and every bucket is non-empty.
  std::vector<std::vector<const ParsedClause *>> Buckets;
  for (const ParsedClause &C : Program.Clauses) {
    Symbol Name = C.Head->functor();
    int Arity = C.Head->isStruct() ? C.Head->arity() : 0;
    if (lookupBuiltin(Syms.name(Name), Arity))
      return makeError("cannot redefine builtin " +
                       std::string(Syms.name(Name)) + "/" +
                       std::to_string(Arity));
    size_t Pid = static_cast<size_t>(M.predicateId(Name, Arity));
    if (Pid == Buckets.size()) {
      Buckets.emplace_back();
      Out.NumArgs += Arity;
    }
    Buckets[Pid].push_back(&C);
  }
  Out.NumPreds = static_cast<int>(Buckets.size());

  // Compile clause code blocks predicate by predicate, in id order. Note:
  // compiling a clause can intern new (callee) predicates, so never hold a
  // PredicateInfo reference across compileClause.
  for (size_t Pid = 0; Pid != Buckets.size(); ++Pid) {
    std::vector<ClauseShape> Shapes;
    std::vector<ClauseInfo> Infos;
    for (const ParsedClause *C : Buckets[Pid]) {
      Result<CompiledClause> CC = compileClause(*C, M);
      if (!CC)
        return CC.diag();
      Infos.push_back(CC->Info);
      Shapes.push_back(shapeOf(C->Head));
      Out.MaxXReg = std::max(Out.MaxXReg, CC->MaxXUsed);
    }
    PredicateInfo &Pred = M.predicate(static_cast<int32_t>(Pid));
    Pred.Clauses = std::move(Infos);
    buildIndexing(Pred, Shapes);
  }

  // Predicates referenced by calls but never defined.
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid)
    if (M.predicate(Pid).Clauses.empty())
      Out.UndefinedPredicates.push_back(Pid);
  return std::move(Out);
}

} // namespace

Result<CompiledProgram> awam::compileProgram(const ParsedProgram &Program,
                                             SymbolTable &Syms) {
  return ProgramContext(Program, Syms).run();
}

Result<CompiledProgram> awam::compileSource(std::string_view Source,
                                            SymbolTable &Syms,
                                            TermArena &Arena) {
  Result<ParsedProgram> P = parseProgram(Source, Syms, Arena);
  if (!P)
    return P.diag();
  return compileProgram(*P, Syms);
}
