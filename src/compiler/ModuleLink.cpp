//===- compiler/ModuleLink.cpp - Cross-module linking ---------------------===//

#include "compiler/ModuleLink.h"

#include <algorithm>
#include <cstdlib>
#include <tuple>
#include <unordered_map>

using namespace awam;

namespace {

/// The near-miss candidate list: the predicates of \p M with clauses.
std::vector<std::pair<std::string, int>>
definedPredicates(const CodeModule &M) {
  std::vector<std::pair<std::string, int>> Defined;
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &P = M.predicate(Pid);
    if (!P.Clauses.empty())
      Defined.emplace_back(std::string(M.symbols().name(P.Name)),
                           static_cast<int>(P.Arity));
  }
  return Defined;
}

} // namespace

Result<LinkedProgram> awam::linkPrograms(const std::vector<ModuleUnit> &Units) {
  if (Units.empty())
    return makeError("link: no modules to link");
  for (const ModuleUnit &U : Units)
    if (!U.Program || !U.Program->Module)
      return makeError("link: null module unit");
  SymbolTable &Syms = Units.front().Program->Module->symbols();
  for (const ModuleUnit &U : Units)
    if (&U.Program->Module->symbols() != &Syms)
      return makeError("link: module '" + U.Label +
                       "' was compiled against a different symbol table");

  LinkedProgram Out;
  Out.Program.Module = std::make_unique<CodeModule>(Syms);
  CodeModule &M = *Out.Program.Module;
  // The shared prologue every unit also starts with; unit addresses <= 1
  // relocate onto it unchanged.
  M.emit({Opcode::Halt});
  M.emit({Opcode::Proceed});

  // Which unit exports each (name, arity) — for duplicate-export errors.
  std::unordered_map<FunctorArity, size_t, PoolKeyHash> ExportedBy;

  for (size_t UI = 0; UI != Units.size(); ++UI) {
    const CodeModule &Src = *Units[UI].Program->Module;
    const int32_t Base = M.codeSize();
    // Unit address -> linked address. Halt/Proceed are shared, kFailTarget
    // is a sentinel, everything else shifts with the unit's code block.
    auto Reloc = [Base](int32_t A) {
      return A <= kProceedAddress ? A : Base + (A - (kProceedAddress + 1));
    };

    for (int32_t Addr = kProceedAddress + 1; Addr != Src.codeSize();
         ++Addr) {
      Instruction I = Src.at(Addr);
      switch (I.Op) {
      case Opcode::Call:
      case Opcode::Execute: {
        // Imports resolve by signature: predicateId creates an undefined
        // entry that a later (or earlier) unit's export fills in.
        const PredicateInfo &Callee = Src.predicate(I.A);
        I.A = M.predicateId(Callee.Name, Callee.Arity);
        break;
      }
      case Opcode::Try:
      case Opcode::Retry:
      case Opcode::Trust:
      case Opcode::Jump:
        I.A = Reloc(I.A);
        break;
      case Opcode::SwitchOnTerm: {
        TermSwitch S = Src.termSwitchAt(I.A);
        S.OnVar = Reloc(S.OnVar);
        S.OnConst = Reloc(S.OnConst);
        S.OnList = Reloc(S.OnList);
        S.OnStruct = Reloc(S.OnStruct);
        I.A = M.addTermSwitch(S);
        break;
      }
      case Opcode::SwitchOnConstant: {
        ValueSwitch S = Src.valueSwitchAt(I.A);
        for (auto &[Key, Target] : S.Cases) {
          Key = M.internConst(Src.constAt(Key));
          Target = Reloc(Target);
        }
        S.Default = Reloc(S.Default);
        I.A = M.addValueSwitch(std::move(S));
        break;
      }
      case Opcode::SwitchOnStructure: {
        ValueSwitch S = Src.valueSwitchAt(I.A);
        for (auto &[Key, Target] : S.Cases) {
          Key = M.internFunctor(Src.functorAt(Key));
          Target = Reloc(Target);
        }
        S.Default = Reloc(S.Default);
        I.A = M.addValueSwitch(std::move(S));
        break;
      }
      case Opcode::GetConst:
      case Opcode::PutConst:
      case Opcode::UnifyConst:
        I.A = M.internConst(Src.constAt(I.A));
        break;
      case Opcode::GetStructure:
      case Opcode::PutStructure:
      case Opcode::GetStructureFused:
        I.A = M.internFunctor(Src.functorAt(I.A));
        break;
      default:
        break;
      }
      M.emit(I);
    }

    for (int32_t Pid = 0; Pid != Src.numPredicates(); ++Pid) {
      const PredicateInfo &SP = Src.predicate(Pid);
      if (SP.Clauses.empty())
        continue; // an import of this unit; some unit's export resolves it
      auto [It, Inserted] =
          ExportedBy.try_emplace(FunctorArity{SP.Name, SP.Arity}, UI);
      if (!Inserted)
        return makeError("link: duplicate definition of " +
                         std::string(Syms.name(SP.Name)) + "/" +
                         std::to_string(SP.Arity) + " in '" +
                         Units[It->second].Label + "' and '" +
                         Units[UI].Label + "'");
      PredicateInfo &NP = M.predicate(M.predicateId(SP.Name, SP.Arity));
      NP.IndexEntry = Reloc(SP.IndexEntry);
      for (const ClauseInfo &C : SP.Clauses)
        NP.Clauses.push_back({Reloc(C.Entry), C.NumInstr});
    }

    Out.Program.MaxXReg =
        std::max(Out.Program.MaxXReg, Units[UI].Program->MaxXReg);
    Out.Program.NumArgs += Units[UI].Program->NumArgs;
    Out.Program.NumPreds += Units[UI].Program->NumPreds;
  }

  // Imports no unit exported, with near-miss suggestions against the
  // linked export table, collected once for all of them.
  const std::vector<std::pair<std::string, int>> Defined =
      definedPredicates(M);
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    const PredicateInfo &P = M.predicate(Pid);
    if (!P.Clauses.empty())
      continue;
    Out.Program.UndefinedPredicates.push_back(Pid);
    Out.UnresolvedImports.push_back(undefinedPredicateMessage(
        "imported", Syms.name(P.Name), P.Arity, Defined));
  }
  return Out;
}

namespace {

/// Levenshtein distance, for the near-miss candidate ranking. Once the
/// distance is certain to exceed \p Limit, returns some value above it
/// without finishing the table: a row's minimum never decreases, and the
/// length gap is a lower bound. \p Row is a work buffer reused across calls.
size_t editDistance(std::string_view A, std::string_view B, size_t Limit,
                    std::vector<size_t> &Row) {
  size_t Gap = A.size() > B.size() ? A.size() - B.size() : B.size() - A.size();
  if (Gap > Limit)
    return Gap;
  Row.resize(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    size_t RowMin = Row[0];
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Sub = Diag + (A[I - 1] != B[J - 1]);
      Diag = Row[J];
      Row[J] = std::min({Row[J - 1] + 1, Row[J] + 1, Sub});
      RowMin = std::min(RowMin, Row[J]);
    }
    if (RowMin > Limit)
      return RowMin;
  }
  return Row[B.size()];
}

} // namespace

std::string awam::undefinedPredicateMessage(
    std::string_view Role, std::string_view Name, int Arity,
    const std::vector<std::pair<std::string, int>> &Defined) {
  std::string Msg = std::string(Role) + " predicate " + std::string(Name) +
                    "/" + std::to_string(Arity) + " is not defined";
  // Candidates: the same name at another arity always qualifies; other
  // names must be within a small edit distance (1 for short names).
  size_t Thresh = Name.size() >= 5 ? 2 : 1;
  struct Cand {
    size_t Dist;
    int ArityGap;
    std::string Label;
  };
  std::vector<Cand> Cands;
  std::vector<size_t> Row;
  for (const auto &[DefName, DefArity] : Defined) {
    size_t Dist = editDistance(Name, DefName, Thresh, Row);
    if (Dist == 0 ? DefArity == Arity : Dist > Thresh)
      continue;
    Cands.push_back({Dist, std::abs(DefArity - Arity),
                     DefName + "/" + std::to_string(DefArity)});
  }
  std::sort(Cands.begin(), Cands.end(), [](const Cand &A, const Cand &B) {
    return std::tie(A.Dist, A.ArityGap, A.Label) <
           std::tie(B.Dist, B.ArityGap, B.Label);
  });
  Cands.erase(std::unique(Cands.begin(), Cands.end(),
                          [](const Cand &A, const Cand &B) {
                            return A.Label == B.Label;
                          }),
              Cands.end());
  if (!Cands.empty()) {
    Msg += "; did you mean ";
    for (size_t I = 0; I != Cands.size() && I != 3; ++I)
      Msg += (I ? ", " : "") + Cands[I].Label;
    Msg += "?";
  }
  return Msg;
}

std::string awam::undefinedPredicateMessage(const CodeModule &M,
                                            std::string_view Role,
                                            std::string_view Name,
                                            int Arity) {
  return undefinedPredicateMessage(Role, Name, Arity, definedPredicates(M));
}
