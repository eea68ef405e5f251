//===- analyzer/Store.cpp - Persistent multi-root analysis store ----------===//

#include "analyzer/Store.h"

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace awam;

namespace {

/// Maps each predicate id of \p Sigs (id -> name/arity, in some module's id
/// space) to the id \p To gives the same name/arity, or -1.
template <class SigRange>
std::vector<int32_t> pidMapInto(const SigRange &Sigs, const CodeModule &To) {
  int32_t MaxPid = -1;
  for (const auto &[Pid, Sig] : Sigs)
    MaxPid = std::max(MaxPid, Pid);
  std::vector<int32_t> Map(static_cast<size_t>(MaxPid + 1), -1);
  for (const auto &[Pid, Sig] : Sigs) {
    Symbol Sym = To.symbols().lookup(Sig.Name);
    Map[static_cast<size_t>(Pid)] =
        Sym == ~0u ? -1 : To.findPredicate(Sym, Sig.Arity);
  }
  return Map;
}

/// Re-keys \p From's traces to \p To's predicate ids and hands each
/// survivor to \p Keep. A trace that errored, references a predicate \p To
/// does not have, or *executed* a predicate \p Edited marks (indexed by
/// \p From's ids) — as its root or through an Enter op — cannot replay.
/// While its root still resolves it is kept as a placeholder (root key
/// only, marked Error) so the Nth pop of a key still meets the Nth
/// recorded run; the drain consumes and rejects it. Memo reads of an
/// edited predicate survive: replay validation compares the summary value
/// the run consumed.
template <class KeepFn>
void carryTraces(const RunJournal &From, const CodeModule &To,
                 const std::vector<char> &Edited, KeepFn Keep) {
  std::vector<int32_t> Map = pidMapInto(From.sigs(), To);
  auto Resolves = [&](int32_t Pid) {
    return static_cast<size_t>(Pid) < Map.size() &&
           Map[static_cast<size_t>(Pid)] >= 0;
  };
  auto IsEdited = [&](int32_t Pid) {
    return static_cast<size_t>(Pid) < Edited.size() &&
           Edited[static_cast<size_t>(Pid)];
  };
  for (const std::shared_ptr<const RunTrace> &T : From.runs()) {
    if (!Resolves(T->Pred))
      continue;
    bool Ok = !T->Error && !IsEdited(T->Pred);
    for (const TraceOp &Op : T->Ops)
      if (Ok && Op.Pred >= 0)
        Ok = Resolves(Op.Pred) &&
             !(Op.K == TraceOp::Enter && IsEdited(Op.Pred));
    if (Ok) {
      Keep(remapTrace(T, Map));
      continue;
    }
    auto Stub = std::make_shared<RunTrace>();
    Stub->Pred = Map[static_cast<size_t>(T->Pred)];
    Stub->Call = T->Call;
    Stub->PreSuccess = T->PreSuccess;
    Stub->Error = true;
    Keep(std::move(Stub));
  }
}

/// Finds or creates \p From's key under \p Pid in \p To — a created entry
/// takes \p From's summary state — and tags it with root \p Slot.
ETEntry &installEntry(ExtensionTable &To, int32_t Pid, const ETEntry &From,
                      int32_t Slot, bool &Created) {
  ETEntry &E = To.findOrCreate(Pid, From.CallId, Created);
  if (Created) {
    E.Success = From.Success;
    E.SuccessId = From.SuccessId;
    E.EverExplored = From.EverExplored;
    E.SuccessVersion = From.SuccessVersion;
  }
  if (std::find(E.Roots.begin(), E.Roots.end(), Slot) == E.Roots.end())
    E.Roots.push_back(Slot);
  return E;
}

/// Adds \p From's dependency edges to \p To with both ends renumbered
/// through \p IdxMap, skipping edges with an unmapped end; \p Seen holds
/// the (dep, reader) pairs \p To already has.
void copyEdges(const SchedulerCore &From, const std::vector<int32_t> &IdxMap,
               SchedulerCore &To, std::unordered_set<uint64_t> &Seen) {
  for (const auto &[Dep, Reader] : From.edgePairs()) {
    if (static_cast<size_t>(Dep) >= IdxMap.size() ||
        static_cast<size_t>(Reader) >= IdxMap.size())
      continue;
    int32_t D = IdxMap[static_cast<size_t>(Dep)];
    int32_t R = IdxMap[static_cast<size_t>(Reader)];
    if (D < 0 || R < 0)
      continue;
    uint64_t Key = (static_cast<uint64_t>(static_cast<uint32_t>(D)) << 32) |
                   static_cast<uint32_t>(R);
    if (Seen.insert(Key).second)
      To.noteRead(R, D, 0);
  }
}

} // namespace

AnalysisStore::AnalysisStore(const CompiledProgram &Program,
                             AnalyzerOptions Options)
    : Program(&Program), Options(Options), Hints(*Program.Module) {
  // The store's reuse machinery — interned multi-root table, journal
  // replay, dependency cone — is defined in worklist-over-interner terms.
  // AnalysisSession refuses other configurations with a descriptive error;
  // normalize here so a directly constructed store is well-formed too.
  this->Options.Driver = DriverKind::Worklist;
  this->Options.UseInterning = true;
  Dom = findDomain(this->Options.DomainName);
  if (!Dom)
    Dom = &defaultDomain();
  resetState();
}

AnalysisStore::~AnalysisStore() = default;

void AnalysisStore::resetState() {
  Interner = std::make_unique<PatternInterner>(Options.DepthLimit, Dom);
  Table = std::make_unique<ExtensionTable>(Options.TableImpl,
                                           Interner.get());
  Core = SchedulerCore();
  EdgeSeen.clear();
  Roots.clear();
  HintSet.clear();
  Hints = RunJournal(*Program->Module);
  St.HintTraces = 0;
}

void AnalysisStore::bankHint(std::shared_ptr<const RunTrace> T) {
  if (HintSet.insert(T.get()).second)
    Hints.append(std::move(T));
}

void AnalysisStore::dropHints(
    const std::unordered_set<const RunTrace *> &Drop) {
  auto Dropped = [&Drop](const std::shared_ptr<const RunTrace> &T) {
    return Drop.count(T.get()) != 0;
  };
  if (std::none_of(Hints.runs().begin(), Hints.runs().end(), Dropped))
    return;
  RunJournal Old = std::move(Hints);
  Hints = RunJournal(*Program->Module);
  HintSet.clear();
  for (const std::shared_ptr<const RunTrace> &T : Old.runs())
    if (!Dropped(T))
      bankHint(T);
  St.HintTraces = Hints.runs().size();
}

void AnalysisStore::setLastQuery(std::string_view Name, const Pattern &Entry) {
  LastName.assign(Name);
  LastEntry = Entry;
  HaveLast = true;
}

size_t AnalysisStore::numRoots() const {
  size_t N = 0;
  for (const RootInfo &RI : Roots)
    if (RI.Valid)
      ++N;
  return N;
}

int AnalysisStore::findRootSlot(std::string_view Name,
                                PatternId CallId) const {
  // Linear scan: CallId is a stable identity here because the interner is
  // append-only and shared by every query of this store.
  for (size_t I = 0; I != Roots.size(); ++I)
    if (Roots[I].CallId == CallId && Roots[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const AnalysisResult *AnalysisStore::projection(std::string_view Name,
                                                const Pattern &Entry) {
  PatternId CallId = Interner->internNormalized(Entry);
  int Slot = findRootSlot(Name, CallId);
  return Slot >= 0 && Roots[Slot].Valid ? &Roots[Slot].Cached : nullptr;
}

Result<AnalysisResult> AnalysisStore::query(std::string_view EntrySpec) {
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return query(Parsed->first, Parsed->second);
}

Result<AnalysisResult> AnalysisStore::query(std::string_view Name,
                                            const Pattern &Entry) {
  const CodeModule &M = *Program->Module;
  Symbol Sym = M.symbols().lookup(Name);
  int Arity = static_cast<int>(Entry.Roots.size());
  int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Arity);
  if (Pid < 0)
    return makeError(undefinedPredicateMessage(M, "entry", Name, Arity));
  ++St.Queries;
  setLastQuery(Name, Entry);
  LastDrain.reset();

  PatternId CallId = Interner->internNormalized(Entry);
  if (int Slot = findRootSlot(Name, CallId);
      Slot >= 0 && Roots[Slot].Valid) {
    ++St.CacheHits;
    return Roots[Slot].Cached;
  }

  // Build-aside drain: a fresh per-query table and machine, sharing only
  // the store's (append-only) interner. Nothing below writes store state
  // until the merge, so a failing query — machine error, budget hit —
  // leaves the store exactly as it was.
  ExtensionTable QTable(Options.TableImpl, Interner.get());
  AbsMachineOptions MachineOptions;
  MachineOptions.DepthLimit = Options.DepthLimit;
  MachineOptions.MaxSteps = Options.MaxSteps;
  MachineOptions.Dom = Dom;
  AbstractMachine Machine(*Program, QTable, MachineOptions);
  auto OutJournal = std::make_unique<RunJournal>(M);
  Machine.setRunJournal(OutJournal.get());
  // The shared interner's counters keep growing across queries; snapshot
  // so the result reports this query's own activity.
  InternerStats Before = Interner->stats();

  bool Created = false;
  ETEntry &Root = QTable.findOrCreate(Pid, CallId, Created);

  // Pool every valid root's journal as the replay source. The drain
  // validates each trace against the live query table before applying it,
  // so banked runs act as pre-verified memo hits wherever they still hold
  // and fall back to execution wherever they don't — which is what makes
  // the warm result byte-identical to a scratch run of this entry. Roots
  // share replayed traces by handle, so the pool dedupes by trace address
  // (and skips error traces, which never validate) — the second handle to
  // a trace could only re-validate what the first already applied.
  std::vector<std::shared_ptr<const RunTrace>> PrevRuns;
  std::unordered_set<const RunTrace *> Pooled;
  for (const RootInfo &RI : Roots)
    if (RI.Valid && RI.Journal)
      for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs())
        if (!T->Error && Pooled.insert(T.get()).second)
          PrevRuns.push_back(T);
  // The hint bank joins the pool after the roots' own journals: its traces
  // are just more pre-verified candidates for the drain to validate, so an
  // edited root re-drains warm and a fresh store that imported a library's
  // bundle runs its first query warm.
  for (const std::shared_ptr<const RunTrace> &T : Hints.runs())
    if (Pooled.insert(T.get()).second)
      PrevRuns.push_back(T);

  // One drain for every query: with an empty pool nothing replays and the
  // drain is the plain worklist order, with trace recording on.
  bool Warm = !PrevRuns.empty();
  ++(Warm ? St.WarmQueries : St.ColdQueries);
  IncrementalScheduler Drain(QTable, Machine, PrevRuns, OutJournal.get(),
                             Options.MaxSteps);
  Drain.reanalyzeStats().PrevEntries = Table->size();
  WorklistScheduler::Status Status = Drain.run(Root, Options.MaxIterations);
  if (Status == WorklistScheduler::Status::Error)
    return makeError("abstract machine error: " + Machine.errorMessage());
  const IncrementalScheduler::ReanalyzeStats &RS = Drain.reanalyzeStats();
  if (Warm) {
    St.ReplayedRuns += RS.ReplayedRuns;
    St.ExecutedRuns += RS.ExecutedRuns;
    St.ReplayedActivations += RS.ReplayedActivations;
    St.ExecutedActivations += RS.ExecutedActivations;
    LastDrain = RS;
  }

  AnalysisResult R;
  const WorklistScheduler::Stats &SS = Drain.stats();
  R.Converged = Status == WorklistScheduler::Status::Converged;
  R.Iterations = static_cast<int>(SS.Sweeps);
  R.Counters.SchedulerRuns = SS.Runs;
  R.Counters.DepEdges = SS.EdgesRecorded;
  collectResult(R, M, Machine, QTable, Dom, Before);

  // Only a converged fixpoint merges: a budget-hit table is a sound
  // partial answer for *this* query but not a reusable memo.
  if (R.Converged) {
    mergeQuery(Name, Pid, CallId, QTable, Drain.core(), std::move(OutJournal),
               R);
    // A bank trace the drain consumed is superseded by the merged root's
    // journal: it replayed (the journal holds the same handle), or it was
    // rejected and that run was executed and recorded afresh. Dropping it
    // keeps traces that can no longer validate from piling up across
    // chained edits.
    std::unordered_set<const RunTrace *> Consumed;
    for (size_t I : Drain.consumedTraces())
      Consumed.insert(PrevRuns[I].get());
    dropHints(Consumed);
    // Bank hygiene: a warm drain re-banks every replayed trace as a shared
    // handle, so a long query chain accumulates one handle per (root,
    // trace) pair while the distinct traces stay near-constant. Compact
    // once the duplication factor crosses kCompactionFactor — past that
    // point most of the bank is re-validation of already-applied traces.
    constexpr size_t kCompactionMinHandles = 64;
    constexpr size_t kCompactionFactor = 2;
    size_t Handles = 0;
    std::unordered_set<const RunTrace *> Distinct;
    for (const RootInfo &RI : Roots)
      if (RI.Valid && RI.Journal)
        for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs()) {
          ++Handles;
          Distinct.insert(T.get());
        }
    if (Handles > kCompactionMinHandles &&
        Handles > kCompactionFactor * Distinct.size())
      compactJournals();
  }
  return R;
}

uint64_t AnalysisStore::bytesUsed() const {
  uint64_t B = Interner->bytesUsed() + Table->bytesUsed();
  std::unordered_set<const RunTrace *> Seen;
  for (const RootInfo &RI : Roots) {
    B += sizeof(RootInfo) + RI.Name.capacity() + patternHeapBytes(RI.Call) +
         RI.EntryIdxs.capacity() * sizeof(int32_t);
    B += RI.Cached.Items.capacity() * sizeof(AnalysisResult::Item);
    for (const AnalysisResult::Item &It : RI.Cached.Items)
      B += It.PredLabel.capacity() + patternHeapBytes(It.Call) +
           (It.Success ? patternHeapBytes(*It.Success) : 0);
    if (RI.Journal)
      B += RI.Journal->bytesUsed(Seen);
  }
  return B + Hints.bytesUsed(Seen);
}

uint64_t AnalysisStore::compactJournals() {
  const CodeModule &M = *Program->Module;
  uint64_t Dropped = 0;
  std::unordered_set<const RunTrace *> Kept;
  for (RootInfo &RI : Roots) {
    if (!RI.Valid || !RI.Journal)
      continue;
    auto NewJ = std::make_unique<RunJournal>(M);
    for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs()) {
      if (!T->Error && Kept.insert(T.get()).second)
        NewJ->append(T);
      else
        ++Dropped;
    }
    RI.Journal = std::move(NewJ);
  }
  ++St.Compactions;
  St.CompactedTraces += Dropped;
  return Dropped;
}

SummaryBundle AnalysisStore::exportBundle() const {
  const CodeModule &M = *Program->Module;
  SummaryBundle B;
  B.DomainName = std::string(Dom->name());
  B.DepthLimit = Options.DepthLimit;
  B.ModuleFingerprint = M.fingerprint();

  // Summary pairs: every table entry some valid root reached.
  for (const ETEntry &E : Table->entries()) {
    bool Live = false;
    for (int32_t R : E.Roots)
      if (Roots[static_cast<size_t>(R)].Valid) {
        Live = true;
        break;
      }
    if (!Live)
      continue;
    const PredicateInfo &P = M.predicate(E.PredId);
    SummaryBundle::Summary S;
    S.Sig = {std::string(M.symbols().name(P.Name)), P.Arity};
    S.Call = E.Call;
    S.Success = E.Success;
    B.Summaries.push_back(std::move(S));
  }

  // Traces: what query() replays from, each distinct trace once (error
  // traces never validate, so they don't ship). Re-exporting a store that
  // itself imported includes the surviving foreign traces — bundles
  // compose — and re-exporting after importing its own export emits the
  // same bytes again.
  TraceSet Distinct;
  std::unordered_map<int32_t, PredSig> Sigs;
  auto Harvest = [&](const RunJournal &J) {
    for (const std::shared_ptr<const RunTrace> &T : J.runs())
      if (!T->Error && Distinct.insert(T.get()).second)
        B.Traces.push_back(T);
    for (const auto &[Pid, Sig] : J.sigs())
      Sigs.emplace(Pid, Sig);
  };
  for (const RootInfo &RI : Roots)
    if (RI.Valid && RI.Journal)
      Harvest(*RI.Journal);
  Harvest(Hints);

  // Deterministic bytes: the sig table sorts by pid. Every referenced
  // predicate gets a clause-code fingerprint — including undefined ones,
  // whose "no clauses" hash only matches another module where the call
  // also fails, which is exactly the staleness check's job.
  std::vector<int32_t> Pids;
  Pids.reserve(Sigs.size());
  for (const auto &[Pid, Sig] : Sigs)
    Pids.push_back(Pid);
  std::sort(Pids.begin(), Pids.end());
  for (int32_t Pid : Pids) {
    B.TraceSigs.emplace_back(Pid, Sigs[Pid]);
    B.PredCodes.push_back({Sigs[Pid], M.predicateFingerprint(Pid)});
  }
  return B;
}

std::string AnalysisStore::exportSummaries() const {
  return exportBundle().serialize(Program->Module->symbols());
}

Result<AnalysisStore::ImportStats>
AnalysisStore::importBundle(const SummaryBundle &B) {
  const CodeModule &M = *Program->Module;
  if (B.DomainName != Dom->name())
    return makeError("summary bundle: domain mismatch (bundle '" +
                     B.DomainName + "', store '" +
                     std::string(Dom->name()) + "')");
  if (B.DepthLimit != Options.DepthLimit)
    return makeError("summary bundle: depth-limit mismatch (bundle " +
                     std::to_string(B.DepthLimit) + ", store " +
                     std::to_string(Options.DepthLimit) + ")");

  ImportStats IS;
  IS.BundleTraces = B.Traces.size();
  IS.Summaries = B.Summaries.size();

  // Resolve the bundle's pid space against this module and precompute the
  // staleness verdict per pid. A missing fingerprint entry counts as
  // stale — the guard must be positive evidence of unchanged code.
  std::vector<int32_t> PidMap = pidMapInto(B.TraceSigs, M);
  std::vector<char> Stale(PidMap.size(), 1);
  std::map<std::pair<std::string, int32_t>, uint64_t> Fps;
  for (const SummaryBundle::PredCode &PC : B.PredCodes)
    Fps[{PC.Sig.Name, PC.Sig.Arity}] = PC.CodeFp;
  for (const auto &[Pid, Sig] : B.TraceSigs) {
    int32_t NewPid = PidMap[static_cast<size_t>(Pid)];
    if (NewPid < 0)
      continue;
    auto It = Fps.find({Sig.Name, Sig.Arity});
    Stale[static_cast<size_t>(Pid)] =
        It == Fps.end() || It->second != M.predicateFingerprint(NewPid);
  }

  for (const std::shared_ptr<const RunTrace> &T : B.Traces) {
    if (!T || T->Error)
      continue;
    bool Unresolved = false, IsStale = false;
    auto Check = [&](int32_t Pid) {
      if (static_cast<size_t>(Pid) >= PidMap.size() ||
          PidMap[static_cast<size_t>(Pid)] < 0)
        Unresolved = true;
      else if (Stale[static_cast<size_t>(Pid)])
        IsStale = true;
    };
    Check(T->Pred);
    for (const TraceOp &Op : T->Ops)
      if (Op.Pred >= 0)
        Check(Op.Pred);
    if (Unresolved)
      ++IS.DroppedUnresolved;
    else if (IsStale)
      ++IS.DroppedStale;
    else {
      bankHint(remapTrace(T, PidMap));
      ++IS.Banked;
    }
  }
  if (IS.Banked)
    ++St.BundlesImported;
  St.HintTraces = Hints.runs().size();
  return IS;
}

Result<AnalysisStore::ImportStats>
AnalysisStore::importSummaries(std::string_view Bytes) {
  Result<SummaryBundle> B =
      SummaryBundle::deserialize(Bytes, Program->Module->symbols());
  if (!B)
    return B.diag();
  return importBundle(*B);
}

void AnalysisStore::mergeQuery(std::string_view Name, int32_t Pid,
                               PatternId CallId,
                               const ExtensionTable &QTable,
                               const SchedulerCore &QCore,
                               std::unique_ptr<RunJournal> Journal,
                               const AnalysisResult &R) {
  int Slot = findRootSlot(Name, CallId);
  if (Slot < 0) {
    Slot = static_cast<int>(Roots.size());
    Roots.emplace_back();
  }
  RootInfo &RI = Roots[Slot];
  RI.Name.assign(Name);
  RI.Call = Pattern(Interner->pattern(CallId));
  RI.Arity = static_cast<int32_t>(RI.Call.Roots.size());
  RI.Pid = Pid;
  RI.CallId = CallId;
  RI.EntryIdxs.clear();

  // Install the query table into the store table, tagging each entry with
  // this root's ordinal. A key two queries share has one summary: both are
  // the least fixpoint at (pred, calling pattern), which depends on the
  // program alone — not on which entry goal reached it.
  std::vector<int32_t> IdxMap;
  IdxMap.reserve(QTable.size());
  for (const ETEntry &E : QTable.entries()) {
    bool Created = false;
    ETEntry &SE = installEntry(*Table, E.PredId, E, Slot, Created);
    assert((Created || SE.Success == E.Success) &&
           "converged summaries of a shared key must agree");
    ++(Created ? St.NewEntries : St.SharedEntries);
    IdxMap.push_back(SE.Idx);
    RI.EntryIdxs.push_back(SE.Idx);
  }

  // Accumulate the drain's dependency edges (remapped to store indices) —
  // reverseClosure over the union graph is the invalidation cone.
  Core.ensure(static_cast<int32_t>(Table->size()));
  copyEdges(QCore, IdxMap, Core, EdgeSeen);

  RI.Journal = std::move(Journal);
  RI.Cached = R;
  RI.Valid = true;
  ++St.MergedRoots;
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const std::vector<PredSig> &EditedPreds) {
  if (!HaveLast)
    return makeError("reanalyze requires a prior analyze()");
  return reanalyzeAt(*Program, EditedPreds, LastName, LastEntry);
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const std::vector<PredSig> &EditedPreds,
                         std::string_view Name, const Pattern &Entry) {
  return reanalyzeAt(*Program, EditedPreds, Name, Entry);
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const CompiledProgram &Edited) {
  if (!HaveLast)
    return makeError("reanalyze requires a prior analyze()");
  // Diffed against the outgoing program, before the edited one installs.
  return reanalyzeAt(Edited, diffPrograms(*Program, Edited), LastName,
                     LastEntry);
}

Result<AnalysisResult>
AnalysisStore::reanalyzeAt(const CompiledProgram &NewP,
                           const std::vector<PredSig> &Edited,
                           std::string_view Name, const Pattern &Entry) {
  uint64_t PrevEntries = Table->size();
  invalidate(NewP, Edited);
  Result<AnalysisResult> R = query(Name, Entry);
  if (LastDrain) {
    LastDrain->PrevEntries = PrevEntries;
    LastDrain->ConeEntries = St.LastConeEntries;
  }
  return R;
}

void AnalysisStore::invalidate(const CompiledProgram &NewP,
                               const std::vector<PredSig> &Edited) {
  ++St.Reanalyses;
  const CodeModule &MOld = *Program->Module;
  const CodeModule &MNew = *NewP.Module;

  // Distinct symbol tables: patterns of the two modules are incomparable
  // (they embed Symbols), and the interner's stored patterns could
  // structurally alias unrelated new-module terms. Nothing survives.
  if (&MOld.symbols() != &MNew.symbols()) {
    St.InvalidatedRoots += numRoots();
    St.InvalidatedEntries += Table->size();
    St.LastConeEntries = Table->size();
    Program = &NewP;
    resetState();
    return;
  }

  // The cone: reverse closure of the edited predicates' entries over the
  // accumulated dependency graph.
  std::vector<char> IsEdited(static_cast<size_t>(MOld.numPredicates()), 0);
  for (const PredSig &Sig : Edited) {
    Symbol Sym = MOld.symbols().lookup(Sig.Name);
    int32_t Pid = Sym == ~0u ? -1 : MOld.findPredicate(Sym, Sig.Arity);
    if (Pid >= 0)
      IsEdited[Pid] = 1;
  }
  std::vector<int32_t> Seeds;
  for (const ETEntry &E : Table->entries())
    if (static_cast<size_t>(E.PredId) < IsEdited.size() &&
        IsEdited[E.PredId])
      Seeds.push_back(E.Idx);
  std::vector<char> Mark = Core.reverseClosure(Seeds);
  Mark.resize(Table->size(), 0);
  St.LastConeEntries = static_cast<uint64_t>(
      std::count(Mark.begin(), Mark.end(), char(1)));

  // Ids may shift on recompilation (first-reference order); re-resolve by
  // name/arity, which the shared symbol table makes directly comparable.
  auto MapOldPid = [&](int32_t Old) {
    const PredicateInfo &P = MOld.predicate(Old);
    return MNew.findPredicate(P.Name, P.Arity);
  };

  // A root survives iff its projection misses the cone entirely (an edit
  // it could have observed implies an edge into the cone: a memo read of
  // a changed summary records an edge, and entering edited code marks the
  // entry itself) and everything it references still resolves. A dead
  // root's journal goes to the hint bank below.
  std::vector<std::unique_ptr<RunJournal>> DeadJournals;
  for (RootInfo &RI : Roots) {
    if (!RI.Valid)
      continue;
    bool Dead = MapOldPid(RI.Pid) < 0;
    for (int32_t Idx : RI.EntryIdxs) {
      if (Mark[static_cast<size_t>(Idx)] ||
          MapOldPid(Table->entryAt(static_cast<size_t>(Idx)).PredId) < 0) {
        Dead = true;
        break;
      }
    }
    if (Dead) {
      RI.Valid = false;
      RI.Cached = AnalysisResult{};
      RI.EntryIdxs.clear();
      if (RI.Journal)
        DeadJournals.push_back(std::move(RI.Journal));
      ++St.InvalidatedRoots;
    }
  }

  // Rebuild the physical table and graph from the survivors. The table's
  // lookup index embeds PredId, so shifted ids force re-insertion anyway;
  // rebuilding also drops every dead entry and edge in one pass.
  uint64_t OldEntries = Table->size();
  auto NewTable =
      std::make_unique<ExtensionTable>(Options.TableImpl, Interner.get());
  SchedulerCore NewCore;
  std::unordered_set<uint64_t> NewEdgeSeen;
  std::vector<int32_t> OldToNew(Table->size(), -1);
  for (size_t RIdx = 0; RIdx != Roots.size(); ++RIdx) {
    RootInfo &RI = Roots[RIdx];
    if (!RI.Valid)
      continue;
    RI.Pid = MapOldPid(RI.Pid);
    for (int32_t &Idx : RI.EntryIdxs) {
      const ETEntry &Old = Table->entryAt(static_cast<size_t>(Idx));
      int32_t NewPid = MapOldPid(Old.PredId);
      assert(NewPid >= 0 && "survivors resolve by construction");
      bool Created = false;
      ETEntry &NE = installEntry(*NewTable, NewPid, Old,
                                 static_cast<int32_t>(RIdx), Created);
      OldToNew[static_cast<size_t>(Idx)] = NE.Idx;
      Idx = NE.Idx;
    }
    // The cached projection's items carry PredIds for reachability joins.
    for (AnalysisResult::Item &It : RI.Cached.Items)
      It.PredId = MapOldPid(It.PredId);
    // Re-key the journal to the new module's ids. A surviving root's drain
    // never executed an edited predicate (it would be in the cone), and
    // removed predicates are reported as edited by diffPrograms; dropping
    // a trace is always safe — replay validation, not the journal, is
    // what guarantees correctness.
    if (RI.Journal) {
      auto NewJ = std::make_unique<RunJournal>(MNew);
      carryTraces(*RI.Journal, MNew, IsEdited,
                  [&](std::shared_ptr<const RunTrace> T) {
                    NewJ->append(std::move(T));
                  });
      RI.Journal = std::move(NewJ);
    }
  }
  NewCore.ensure(static_cast<int32_t>(NewTable->size()));
  copyEdges(Core, OldToNew, NewCore, NewEdgeSeen);

  // Rebuild the hint bank: the dead roots' journals first (the most recent
  // runs, in recording order — the order the re-answer pops their keys),
  // then the previous bank, each filtered and re-keyed by the same rule.
  RunJournal OldHints = std::move(Hints);
  HintSet.clear();
  Hints = RunJournal(MNew);
  auto Bank = [&](std::shared_ptr<const RunTrace> T) {
    bankHint(std::move(T));
  };
  for (const std::unique_ptr<RunJournal> &J : DeadJournals)
    carryTraces(*J, MNew, IsEdited, Bank);
  carryTraces(OldHints, MNew, IsEdited, Bank);
  St.HintTraces = Hints.runs().size();

  St.InvalidatedEntries += OldEntries - NewTable->size();
  Table = std::move(NewTable);
  Core = std::move(NewCore);
  EdgeSeen = std::move(NewEdgeSeen);
  Program = &NewP;
}

std::string AnalysisStore::canonicalDump(const SymbolTable &Syms) const {
  // Tag roots by identity (name + calling pattern), never by ordinal:
  // ordinals depend on query order, identities don't.
  std::vector<std::string> RootTag(Roots.size());
  for (size_t I = 0; I != Roots.size(); ++I)
    RootTag[I] = Roots[I].Name + Roots[I].Call.str(Syms);
  const CodeModule &M = *Program->Module;
  std::vector<std::string> Lines;
  for (const ETEntry &E : Table->entries()) {
    std::vector<std::string> Tags;
    for (int32_t R : E.Roots)
      if (Roots[static_cast<size_t>(R)].Valid)
        Tags.push_back(RootTag[static_cast<size_t>(R)]);
    if (Tags.empty())
      continue;
    std::sort(Tags.begin(), Tags.end());
    std::string Line = M.predicateLabel(E.PredId) + " " + E.Call.str(Syms) +
                       " -> " +
                       (E.Success ? E.Success->str(Syms) : "(fails)") +
                       "  roots:";
    for (const std::string &T : Tags)
      Line += " " + T;
    Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

std::string awam::formatAnalysis(AnalysisStore &Store, std::string_view Name,
                                 const Pattern &Entry,
                                 const SymbolTable &Syms) {
  const AnalysisResult *R = Store.projection(Name, Entry);
  return R ? formatAnalysis(*R, Syms) : std::string();
}
