//===- analyzer/Incremental.h - Incremental re-analysis driver --*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replaying worklist driver behind every warm AnalysisStore drain —
/// a query that finds banked journals, and the re-answer after
/// AnalysisStore::reanalyze() (the one re-analysis path; see
/// analyzer/Store.h for the cone invalidation and the hint bank).
///
/// Strategy: *validated journal replay*. Every store query records one
/// RunTrace per activation run (analyzer/RunJournal.h). A warm drain is
/// WorklistScheduler::run over a fresh table, except that each popped
/// activation first tries to *replay* a matching recorded trace instead
/// of executing clause code:
///
///  1. Trace lookup. The store hands the scheduler traces already filtered
///     and already keyed by the current module's predicate ids; a run that
///     cannot replay any more (it executed an edited predicate) arrives as
///     a placeholder marked Error. They are grouped by (root predicate,
///     calling pattern) and consumed FIFO per group, mirroring the order
///     in which runs with equal roots committed; a placeholder is consumed
///     in its turn and rejected.
///  2. Validation. The trace is simulated against the live table plus a
///     clone of the live SchedulerCore, without writing anything. Every
///     observable input the recorded execution consumed must match what
///     execution would see now: the root's pre-run summary; each callee's
///     created-vs-found status; each memo-vs-explore decision (answered by
///     the core clone exactly as the machine's shouldReexplore query would
///     be); each memo'd or pre-exploration summary *value*; and the
///     cumulative step budget. Memo reads of edited predicates are fine —
///     the summary value is what matters. Validation emits an apply plan
///     with all indices resolved.
///  3. Apply or execute. A validated plan is applied — entry creations,
///     beginActivation / noteRead / noteChanged transitions, summary
///     growth — and the recorded step/activation cost charged to the
///     machine, which is observationally identical to having executed the
///     run (the machine is deterministic between table interactions). An
///     invalid trace falls back to executing the activation on the
///     machine, which also records a fresh trace for the next drain.
///
/// Byte-identity with a from-scratch analyze() of the edited program
/// follows by induction over the drain: with equal core and table states
/// both drains pop the same activation; an executed run behaves
/// identically on equal state, and a replayed run applies exactly the
/// effects execution would have produced (which is what validation
/// established) — so the next states are equal too, and every quantity the
/// report prints (entry creation order, summaries, sweeps, runs,
/// instructions) matches. Only probe and interner statistics may drift
/// (replay probes the table less), and those are not part of the report.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_INCREMENTAL_H
#define AWAM_ANALYZER_INCREMENTAL_H

#include "analyzer/ExtensionTable.h"
#include "analyzer/RunJournal.h"
#include "analyzer/Scheduler.h"

#include <memory>
#include <unordered_map>
#include <vector>

namespace awam {

struct CompiledProgram;

/// The predicates whose *clause code* differs between \p Old and \p New,
/// by name/arity: changed bodies, changed clause counts, additions, and
/// removals. Both modules should share one SymbolTable; with distinct
/// tables the comparison is meaningless (Symbols and hence patterns are
/// incomparable), so every predicate of both programs is reported — a
/// persistent store then (correctly) invalidates everything. Used by the
/// AnalysisStore's reanalyze of a recompiled program.
std::vector<PredSig> diffPrograms(const CompiledProgram &Old,
                                  const CompiledProgram &New);

/// Worklist driver that satisfies activations from recorded traces where
/// valid and executes the rest. One instance drives one warm store drain
/// to its fixpoint.
class IncrementalScheduler final : public WorklistScheduler {
public:
  /// How much of the drain was replayed vs re-executed (the bench and CI
  /// gate metrics; byte-identity of the result itself is the contract).
  struct ReanalyzeStats {
    uint64_t PrevEntries = 0; ///< store table size before the drain
    uint64_t ConeEntries = 0; ///< entries in the edit's invalidation cone
    uint64_t ExecutedRuns = 0;  ///< queue pops that ran the machine
    uint64_t ReplayedRuns = 0;  ///< queue pops satisfied by trace replay
    uint64_t ExecutedActivations = 0; ///< clause-list explorations executed
    uint64_t ReplayedActivations = 0; ///< clause-list explorations replayed
  };

  /// \p Prev holds the replay candidates, in the current module's
  /// predicate ids. \p Out, when non-null, receives the new run's traces:
  /// replays carry their trace handle over, executed runs record fresh
  /// ones via the machine's attached journal.
  IncrementalScheduler(ExtensionTable &Table, AbstractMachine &Machine,
                       const std::vector<std::shared_ptr<const RunTrace>> &Prev,
                       RunJournal *Out, uint64_t MaxSteps);

  /// WorklistScheduler::run, replaying where it can; fills in the
  /// executed side of reanalyzeStats() once the drain stops.
  Status run(ETEntry &Root, int MaxSweeps);

  /// Indices into the replay candidates of every trace a pop consumed:
  /// replayed, or rejected and executed instead.
  std::vector<size_t> consumedTraces() const;

  ReanalyzeStats &reanalyzeStats() { return RStats; }
  const ReanalyzeStats &reanalyzeStats() const { return RStats; }

private:
  /// Traces sharing one (root pid, calling pattern), consumed in FIFO
  /// order. Call points into the first trace (traces are shared-owned by
  /// the journal and outlive the scheduler).
  struct RootGroup {
    int32_t Pid = -1;
    const Pattern *Call = nullptr;
    std::vector<size_t> TraceIdx;
    size_t Cursor = 0;
  };

  /// Consumes the next recorded trace for \p Root's key, if any.
  const RunTrace *takeTrace(const ETEntry &Root, size_t &TraceIdxOut);

  struct ReplayOp;   ///< one validated transition of an apply plan
  struct ReplayPlan; ///< a validated replay, ready to apply

  /// Pass 1 of a replay: simulates \p T against the live table and an
  /// overlay of the live core, writing the apply plan into \p Out. Writes
  /// no shared state. Returns false when execution would diverge from the
  /// trace (the plan is then unusable).
  bool simulate(const ETEntry &Root, const RunTrace &T, ReplayPlan &Out) const;

  /// Pass 2: applies \p S's validated plan to the live table and core and
  /// charges the recorded cost.
  void applyPlan(const ReplayPlan &S);

  /// Validates the next trace for \p Root and applies it; false means the
  /// activation must run on the machine.
  bool satisfied(ETEntry &Root) override;

  const std::vector<std::shared_ptr<const RunTrace>> &Prev;
  RunJournal *OutJournal;
  uint64_t MaxSteps;
  ReanalyzeStats RStats;
  std::unordered_map<uint64_t, std::vector<RootGroup>> Groups;
};

} // namespace awam

#endif // AWAM_ANALYZER_INCREMENTAL_H
