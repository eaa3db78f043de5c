//===-- rspec/Validity.cpp - Resource-spec validity (Def. 3.1) -------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "rspec/Validity.h"

#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"
#include "support/trace/Stopwatch.h"
#include "support/trace/Trace.h"
#include "value/ValueOps.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <sstream>
#include <unordered_map>

using namespace commcsl;

namespace {

/// Folds one property check's result into the metrics registry. The check
/// counts are deterministic at any job count (see runBoundedTier); the
/// wall/CPU seconds are not.
void flushValidityMetrics(const char *Property, const ValidityResult &R) {
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter(std::string("validity.") + Property + ".bounded_checks")
      .add(R.BoundedChecks);
  M.counter(std::string("validity.") + Property + ".random_checks")
      .add(R.RandomChecks);
  M.counter(std::string("validity.") + Property + ".counterexamples")
      .add(R.Valid ? 0 : 1);
  M.counter(std::string("validity.") + Property + ".absint_obligations")
      .add(R.AbsintObligations);
  M.counter(std::string("validity.") + Property + ".absint_proved")
      .add(R.AbsintProved);
  M.counter(std::string("validity.") + Property + ".unbounded")
      .add(R.Unbounded ? 1 : 0);
  M.gauge(std::string("validity.") + Property + ".wall_seconds")
      .add(R.WallSeconds);
  M.gauge(std::string("validity.") + Property + ".cpu_seconds")
      .add(R.CpuSeconds);
}

} // namespace

std::string ValidityCounterexample::describe() const {
  std::ostringstream OS;
  if (Prop == Property::Precondition) {
    OS << "action '" << ActionA
       << "' violates property (A) (precondition does not preserve low "
          "abstraction): ";
  } else if (Prop == Property::Invariant) {
    OS << "action '" << ActionA
       << "' does not preserve the spec invariant: from state " << V1->str()
       << " with argument " << Arg1->str() << " it reaches " << V2->str();
    return OS.str();
  } else if (Prop == Property::History) {
    OS << "action '" << ActionA
       << "' has an incoherent history clause: after state " << V1->str()
       << ", history claims " << AlphaLeft->str()
       << " but the actual returns were " << AlphaRight->str();
    return OS.str();
  } else {
    OS << "actions '" << ActionA << "' and '" << ActionB
       << "' do not commute modulo alpha (property (B)): ";
  }
  OS << "states v=" << V1->str() << ", v'=" << V2->str();
  OS << "; args " << Arg1->str() << ", " << Arg2->str();
  OS << "; abstractions " << AlphaLeft->str() << " != " << AlphaRight->str();
  return OS.str();
}

std::vector<std::pair<size_t, size_t>>
commcsl::relevantActionPairs(const ResourceSpecDecl &Spec) {
  std::vector<std::pair<size_t, size_t>> Pairs;
  for (size_t I = 0; I < Spec.Actions.size(); ++I) {
    for (size_t J = I; J < Spec.Actions.size(); ++J) {
      if (I == J && Spec.Actions[I].Unique)
        continue; // unique actions need not commute with themselves
      Pairs.emplace_back(I, J);
    }
  }
  return Pairs;
}

ValidityChecker::ValidityChecker(const RSpecRuntime &Runtime,
                                 ValidityConfig Config)
    : Runtime(Runtime.decl(), Runtime.program(),
              std::make_shared<SpecEvalCache>()),
      Config(Config) {
  const ResourceSpecDecl &Decl = Runtime.decl();
  Scope.IntLo = Decl.ScopeIntLo;
  Scope.IntHi = Decl.ScopeIntHi;
  Scope.CollectionBound = Decl.ScopeCollectionBound;
}

void ValidityChecker::buildStateUniverse() {
  if (!States.empty())
    return;
  DomainRef StateDom = Runtime.decl().StateTy->toDomain(Scope);
  States = StateDom->enumerate(Config.MaxStates);

  // Bucket states by their abstraction; same-alpha pairs come from within
  // buckets (including the diagonal).
  std::unordered_map<ValueRef, std::vector<size_t>, ValueRefHash, ValueRefEq>
      Buckets;
  for (size_t I = 0; I < States.size(); ++I)
    Buckets[Runtime.alphaOf(States[I])].push_back(I);
  for (const auto &[Alpha, Members] : Buckets) {
    (void)Alpha;
    for (size_t X = 0; X < Members.size(); ++X)
      for (size_t Y = X; Y < Members.size(); ++Y)
        SameAlphaPairs.emplace_back(Members[X], Members[Y]);
  }
}

std::vector<ValueRef> ValidityChecker::argsFor(const ActionDecl &A) const {
  DomainRef ArgDom = A.ArgTy->toDomain(Scope);
  return ArgDom->enumerate(Config.MaxArgs);
}

const absint::SpecAbsResult *
ValidityChecker::absintResult(ValidityResult &R) {
  if (!Config.RunAbsintTier)
    return nullptr;
  if (!AbsRan) {
    AbsRan = true;
    TraceSpan Span("validity", "absint tier");
    auto Res = std::make_shared<absint::SpecAbsResult>(
        absint::analyzeSpec(Runtime.decl(), Runtime.program(), Config.Absint));
    Abs = Res;
    MetricsRegistry &M = MetricsRegistry::global();
    M.counter("validity.absint.specs").add(1);
    M.counter("validity.absint.applicable").add(Res->Applicable ? 1 : 0);
    M.counter("validity.absint.obligations").add(Res->Obligations);
    M.counter("validity.absint.proved").add(Res->ProvedCount);
    M.counter("validity.absint.rewrite_steps").add(Res->RewriteSteps);
    M.counter("validity.absint.splits").add(Res->Splits);
    M.counter("validity.absint.widenings").add(Res->Widenings);
  }
  if (Abs && !AbsCostFlushed) {
    // Whole-spec analysis cost, attributed to whichever property ran first.
    AbsCostFlushed = true;
    R.AbsintSteps += Abs->RewriteSteps;
    R.AbsintSplits += Abs->Splits;
  }
  R.Absint = Abs;
  return Abs.get();
}

void ValidityChecker::failPre(const ActionDecl &A, const ValueRef &V1,
                              const ValueRef &V2, const ValueRef &Arg1,
                              const ValueRef &Arg2, const ValueRef &L,
                              const ValueRef &Rt, ValidityResult &R) {
  ValidityCounterexample CE;
  CE.Prop = ValidityCounterexample::Property::Precondition;
  CE.ActionA = A.Name;
  CE.V1 = V1;
  CE.V2 = V2;
  CE.Arg1 = Arg1;
  CE.Arg2 = Arg2;
  CE.AlphaLeft = L;
  CE.AlphaRight = Rt;
  R.Valid = false;
  R.CE = CE;
}

void ValidityChecker::failComm(const ActionDecl &A, const ActionDecl &B,
                               const ValueRef &V1, const ValueRef &V2,
                               const ValueRef &ArgA, const ValueRef &ArgB,
                               const ValueRef &L, const ValueRef &Rt,
                               ValidityResult &R) {
  ValidityCounterexample CE;
  CE.Prop = ValidityCounterexample::Property::Commutativity;
  CE.ActionA = A.Name;
  CE.ActionB = B.Name;
  CE.V1 = V1;
  CE.V2 = V2;
  CE.Arg1 = ArgA;
  CE.Arg2 = ArgB;
  CE.AlphaLeft = L;
  CE.AlphaRight = Rt;
  R.Valid = false;
  R.CE = CE;
}

bool ValidityChecker::checkPreInstance(const ActionDecl &A, const ValueRef &V1,
                                       const ValueRef &V2,
                                       const ValueRef &Arg1,
                                       const ValueRef &Arg2,
                                       ValidityResult &R) {
  ValueRef L = Runtime.alphaOf(Runtime.applyAction(A, V1, Arg1));
  ValueRef Rt = Runtime.alphaOf(Runtime.applyAction(A, V2, Arg2));
  if (Value::equal(L, Rt))
    return true;
  failPre(A, V1, V2, Arg1, Arg2, L, Rt, R);
  return false;
}

bool ValidityChecker::checkCommInstance(const ActionDecl &A,
                                        const ActionDecl &B,
                                        const ValueRef &V1, const ValueRef &V2,
                                        const ValueRef &ArgA,
                                        const ValueRef &ArgB,
                                        ValidityResult &R) {
  // alpha(f_b(f_a(v, argA), argB)) == alpha(f_a(f_b(v', argB), argA))
  ValueRef L =
      Runtime.alphaOf(Runtime.applyAction(B, Runtime.applyAction(A, V1, ArgA),
                                          ArgB));
  ValueRef Rt =
      Runtime.alphaOf(Runtime.applyAction(A, Runtime.applyAction(B, V2, ArgB),
                                          ArgA));
  if (Value::equal(L, Rt))
    return true;
  failComm(A, B, V1, V2, ArgA, ArgB, L, Rt, R);
  return false;
}

uint64_t ValidityChecker::weightedPairTotal() const {
  uint64_t W = 0;
  for (const auto &P : SameAlphaPairs)
    W += P.first == P.second ? 1 : 2;
  return W;
}

std::vector<ValueRef>
ValidityChecker::buildPreTable(const ActionDecl &A,
                               const std::vector<ValueRef> &Args) {
  TraceSpan Span("validity", [&] { return "pre table " + A.Name; });
  const size_t NArgs = Args.size();
  std::vector<ValueRef> Table(States.size() * NArgs);
  unsigned Jobs = ThreadPool::effectiveJobs(Config.Jobs);
  ThreadPool::shared().parallelForChunks(
      Table.size(), Jobs, [&](uint64_t Begin, uint64_t End, unsigned) {
        for (uint64_t I = Begin; I < End; ++I)
          Table[I] = Runtime.alphaOf(
              Runtime.applyAction(A, States[I / NArgs], Args[I % NArgs]));
      });
  return Table;
}

void ValidityChecker::buildCommTables(const ActionDecl &A, const ActionDecl &B,
                                      const std::vector<ValueRef> &ArgsA,
                                      const std::vector<ValueRef> &ArgsB,
                                      std::vector<ValueRef> &TAB,
                                      std::vector<ValueRef> &TBA) {
  TraceSpan Span("validity",
                 [&] { return "comm tables " + A.Name + " x " + B.Name; });
  const size_t NA = ArgsA.size(), NB = ArgsB.size();
  TAB.resize(States.size() * NA * NB);
  TBA.resize(States.size() * NA * NB);
  unsigned Jobs = ThreadPool::effectiveJobs(Config.Jobs);
  // First table, one row per (state, argA): the inner loop shares the
  // one-action intermediate f_A(s, argA) across every argB.
  ThreadPool::shared().parallelForChunks(
      States.size() * NA, Jobs, [&](uint64_t Begin, uint64_t End, unsigned) {
        for (uint64_t I = Begin; I < End; ++I) {
          size_t S = size_t(I / NA), AI = size_t(I % NA);
          ValueRef Mid = Runtime.applyAction(A, States[S], ArgsA[AI]);
          ValueRef *Row = &TAB[(S * NA + AI) * NB];
          for (size_t BI = 0; BI < NB; ++BI)
            Row[BI] = Runtime.alphaOf(Runtime.applyAction(B, Mid, ArgsB[BI]));
        }
      });
  // Second table, one column run per (state, argB), written strided into
  // the same [s][argA][argB] layout the lookup uses.
  ThreadPool::shared().parallelForChunks(
      States.size() * NB, Jobs, [&](uint64_t Begin, uint64_t End, unsigned) {
        for (uint64_t I = Begin; I < End; ++I) {
          size_t S = size_t(I / NB), BI = size_t(I % NB);
          ValueRef Mid = Runtime.applyAction(B, States[S], ArgsB[BI]);
          for (size_t AI = 0; AI < NA; ++AI)
            TBA[(S * NA + AI) * NB + BI] =
                Runtime.alphaOf(Runtime.applyAction(A, Mid, ArgsA[AI]));
        }
      });
}

bool ValidityChecker::runBoundedTier(size_t NumArgPairs,
                                     const BoundedInstanceCheck &Check,
                                     ValidityResult &R, double &ParWall,
                                     double &ParCpu) {
  if (NumArgPairs == 0 || SameAlphaPairs.empty())
    return false;

  // Flatten the (state pair x argument pair x orientation) instance space:
  // a diagonal state pair (v, v) contributes one instance per argument
  // pair, an off-diagonal pair two — the primary orientation and, directly
  // after it, the symmetric (v', v) one — reproducing the sequential
  // checker's visit order exactly. The budget caps the flat index range, so
  // every checked instance (symmetric ones included) consumes one unit.
  std::vector<uint64_t> Offsets(SameAlphaPairs.size() + 1, 0);
  for (size_t K = 0; K < SameAlphaPairs.size(); ++K) {
    uint64_t Weight = SameAlphaPairs[K].first == SameAlphaPairs[K].second
                          ? 1
                          : 2;
    Offsets[K + 1] = Offsets[K] + Weight * NumArgPairs;
  }
  uint64_t Total =
      std::min<uint64_t>(Offsets.back(), Config.MaxChecksPerProperty);
  if (Total == 0)
    return false;

  TraceSpan Tier("validity", [&] {
    return "bounded tier (" + std::to_string(Total) + " instances)";
  });

  unsigned Jobs = ThreadPool::effectiveJobs(Config.Jobs);
  uint64_t NumChunks = ThreadPool::chunkCount(Total, Jobs);

  // The winning counterexample is the failing instance with the lowest
  // global index; workers abandon their chunk as soon as a lower index has
  // already failed, because a chunk visits ascending indices only.
  std::atomic<uint64_t> BestIdx{UINT64_MAX};
  std::mutex BestMu;
  ValidityCounterexample BestCE;
  std::vector<double> ChunkSeconds(NumChunks, 0.0);

  Stopwatch T0;
  ThreadPool::shared().parallelForChunks(
      Total, Jobs, [&](uint64_t Begin, uint64_t End, unsigned Chunk) {
        TraceSpan ChunkSpan("validity", [&] {
          return "chunk " + std::to_string(Chunk);
        });
        Stopwatch C0;
        size_t K = static_cast<size_t>(
            std::upper_bound(Offsets.begin(), Offsets.end(), Begin) -
            Offsets.begin() - 1);
        // Budget checkpoints: steps are charged per instance (one relaxed
        // add); the deadline is polled every 512 instances. An exhausted
        // budget makes the worker abandon the rest of its chunk — the
        // graceful partial drain the serve daemon's timeout contract
        // promises.
        CheckBudget *Budget = Config.Budget.get();
        if (Budget && Budget->exhausted())
          return;
        for (uint64_t Idx = Begin; Idx < End; ++Idx) {
          if (Idx >= BestIdx.load(std::memory_order_relaxed))
            break;
          if (Budget && (Budget->charge(1) ||
                         (((Idx - Begin) & 511) == 0 && Budget->expired())))
            break;
          while (Offsets[K + 1] <= Idx)
            ++K;
          uint64_t Weight =
              SameAlphaPairs[K].first == SameAlphaPairs[K].second ? 1 : 2;
          uint64_t InBlock = Idx - Offsets[K];
          size_t ArgPair = static_cast<size_t>(InBlock / Weight);
          bool Swapped = (InBlock % Weight) != 0;
          ValidityResult Local;
          if (!Check(K, ArgPair, Swapped, Local)) {
            std::lock_guard<std::mutex> Lock(BestMu);
            if (Idx < BestIdx.load(std::memory_order_relaxed)) {
              BestIdx.store(Idx, std::memory_order_relaxed);
              BestCE = *Local.CE;
            }
            break;
          }
        }
        ChunkSeconds[Chunk] = C0.seconds();
      });
  ParWall += T0.seconds();
  ParCpu += std::accumulate(ChunkSeconds.begin(), ChunkSeconds.end(), 0.0);

  uint64_t Found = BestIdx.load(std::memory_order_relaxed);
  if (Found != UINT64_MAX) {
    // Deterministic accounting: exactly the instances a sequential run
    // would have visited before stopping, regardless of how many extra
    // instances other workers raced through.
    R.BoundedChecks += Found + 1;
    R.Valid = false;
    R.CE = BestCE;
    return true;
  }
  if (Config.Budget && Config.Budget->fired()) {
    // The sweep was cut short with no counterexample: inconclusive, not
    // valid. BoundedChecks stays at whatever was completed before the cut.
    R.TimedOut = true;
    R.Valid = false;
    return true;
  }
  R.BoundedChecks += Total;
  return false;
}

ValidityResult ValidityChecker::checkPreconditions() {
  ValidityResult R;
  TraceSpan PropSpan("validity", "preconditions");
  Stopwatch T0;
  double ParWall = 0, ParCpu = 0;
  auto Finish = [&] {
    R.WallSeconds = T0.seconds();
    R.CpuSeconds = std::max(0.0, R.WallSeconds - ParWall) + ParCpu;
    R.Cache = Runtime.cacheStats();
    flushValidityMetrics("preconditions", R);
  };
  const ResourceSpecDecl &Decl = Runtime.decl();
  const absint::SpecAbsResult *AbsR = absintResult(R);

  for (const ActionDecl &A : Decl.Actions) {
    // A budget exhausted by an earlier action (or an earlier spec sharing
    // the same request budget) stops the walk before any new tier starts.
    if (Config.Budget && Config.Budget->exhausted()) {
      R.TimedOut = true;
      R.Valid = false;
      Finish();
      return R;
    }
    TraceSpan ActionSpan("validity", [&] { return "pre " + A.Name; });
    if (AbsR && AbsR->Applicable) {
      const absint::ActionAbs *AA = AbsR->action(A.Name);
      if (AA) {
        ++R.AbsintObligations;
        if (AA->Pre == absint::ObStatus::Proved) {
          // Proved for every state and argument; nothing left for the
          // concrete tiers. (Refuted is only a hint — it falls through so
          // the report always carries a concrete counterexample.)
          ++R.AbsintProved;
          continue;
        }
      }
    }
    buildStateUniverse();
    std::vector<ValueRef> Args = argsFor(A);
    // Precompute argument pairs that satisfy the relational precondition.
    std::vector<std::pair<size_t, size_t>> PrePairs;
    for (size_t I = 0; I < Args.size(); ++I)
      for (size_t J = 0; J < Args.size(); ++J)
        if (Runtime.preHolds(A, Args[I], Args[J]))
          PrePairs.emplace_back(I, J);

    if (Config.RunBoundedTier) {
      // Dense fast path: when the full (state x argument) result table is no
      // larger than the budgeted instance space, precompute every
      // alpha(f_A(s, arg)) once and reduce each instance to two array loads
      // plus an interned-pointer comparison. The table performs exactly the
      // distinct evaluations the instance sweep would have routed through
      // the memo cache, so the guard can only trade probe time away.
      const size_t NArgs = Args.size();
      uint64_t Budget = std::min<uint64_t>(
          weightedPairTotal() * PrePairs.size(), Config.MaxChecksPerProperty);
      std::vector<ValueRef> PreTable;
      if (!PrePairs.empty() && NArgs != 0 &&
          uint64_t(States.size()) * NArgs <= Budget)
        PreTable = buildPreTable(A, Args);

      if (runBoundedTier(
              PrePairs.size(),
              [&](size_t K, size_t P, bool Swapped, ValidityResult &Out) {
                auto [SI, SJ] = SameAlphaPairs[K];
                size_t S1 = Swapped ? SJ : SI;
                size_t S2 = Swapped ? SI : SJ;
                size_t A1 = PrePairs[P].first, A2 = PrePairs[P].second;
                if (!PreTable.empty()) {
                  const ValueRef &L = PreTable[S1 * NArgs + A1];
                  const ValueRef &Rt = PreTable[S2 * NArgs + A2];
                  if (Value::equal(L, Rt))
                    return true;
                  failPre(A, States[S1], States[S2], Args[A1], Args[A2], L,
                          Rt, Out);
                  return false;
                }
                return checkPreInstance(A, States[S1], States[S2], Args[A1],
                                        Args[A2], Out);
              },
              R, ParWall, ParCpu)) {
        Finish();
        return R;
      }
    }

    if (Config.RunRandomTier) {
      std::mt19937_64 Rng(Config.Seed ^ std::hash<std::string>()(A.Name));
      DomainRef StateDom = Decl.StateTy->toDomain(Scope);
      DomainRef ArgDom = A.ArgTy->toDomain(Scope);
      for (unsigned Round = 0; Round < Config.RandomRounds; ++Round) {
        if (Config.Budget &&
            (Config.Budget->charge(1) ||
             ((Round & 255) == 0 && Config.Budget->expired()))) {
          R.TimedOut = true;
          R.Valid = false;
          Finish();
          return R;
        }
        ValueRef V1 = StateDom->sample(Rng);
        // Prefer pairs with equal abstraction: first try an independent
        // sample, fall back to the diagonal.
        ValueRef V2 = StateDom->sample(Rng);
        if (!Value::equal(Runtime.alphaOf(V1), Runtime.alphaOf(V2)))
          V2 = V1;
        ValueRef Arg1 = ArgDom->sample(Rng);
        ValueRef Arg2 = ArgDom->sample(Rng);
        if (!Runtime.preHolds(A, Arg1, Arg2))
          Arg2 = Arg1;
        if (!Runtime.preHolds(A, Arg1, Arg2))
          continue; // even the diagonal violates a unary constraint
        ++R.RandomChecks;
        if (!checkPreInstance(A, V1, V2, Arg1, Arg2, R)) {
          Finish();
          return R;
        }
      }
    }
  }
  R.Unbounded = R.Valid && AbsR && AbsR->Applicable &&
                R.AbsintProved == Decl.Actions.size();
  Finish();
  return R;
}

ValidityResult ValidityChecker::checkCommutativity() {
  ValidityResult R;
  TraceSpan PropSpan("validity", "commutativity");
  Stopwatch T0;
  double ParWall = 0, ParCpu = 0;
  auto Finish = [&] {
    R.WallSeconds = T0.seconds();
    R.CpuSeconds = std::max(0.0, R.WallSeconds - ParWall) + ParCpu;
    R.Cache = Runtime.cacheStats();
    flushValidityMetrics("commutativity", R);
  };
  const ResourceSpecDecl &Decl = Runtime.decl();
  const absint::SpecAbsResult *AbsR = absintResult(R);

  // Commutativity is only required for arguments satisfying the unary
  // projection of each action's precondition: at unshare time, Lemma 4.2
  // applies to argument multisets for which PRE holds, so every recorded
  // argument individually satisfies its action's (unary) constraints. This
  // is what makes disjoint-range unique puts (Fig. 4 right) valid.
  auto FilterArgs = [&](const ActionDecl &Act) {
    std::vector<ValueRef> Out;
    for (ValueRef &V : argsFor(Act))
      if (Runtime.preHoldsUnary(Act, V))
        Out.push_back(std::move(V));
    return Out;
  };

  for (const auto &[IA, IB] : relevantActionPairs(Decl)) {
    if (Config.Budget && Config.Budget->exhausted()) {
      R.TimedOut = true;
      R.Valid = false;
      Finish();
      return R;
    }
    const ActionDecl &A = Decl.Actions[IA];
    const ActionDecl &B = Decl.Actions[IB];
    TraceSpan PairSpan("validity",
                       [&] { return "comm " + A.Name + " x " + B.Name; });
    if (AbsR && AbsR->Applicable) {
      const absint::PairAbs *PA = AbsR->pair(A.Name, B.Name);
      if (PA) {
        ++R.AbsintObligations;
        if (PA->Comm == absint::ObStatus::Proved) {
          ++R.AbsintProved;
          continue; // commutes for all states/arguments of the types
        }
      }
    }
    buildStateUniverse();
    std::vector<ValueRef> ArgsA = FilterArgs(A);
    std::vector<ValueRef> ArgsB = FilterArgs(B);

    if (Config.RunBoundedTier) {
      // Argument pairs are the cross product ArgsA x ArgsB, flattened in
      // the sequential (ArgA-major) order.
      const size_t NA = ArgsA.size(), NB = ArgsB.size();
      const uint64_t NumArgPairs = uint64_t(NA) * NB;
      // Dense fast path (see checkPreconditions): both composition tables
      // cost 2 * |S| * |ArgsA| * |ArgsB| evaluations, each instance then
      // reduces to two loads and a pointer comparison.
      uint64_t Budget = std::min<uint64_t>(
          weightedPairTotal() * NumArgPairs, Config.MaxChecksPerProperty);
      std::vector<ValueRef> TAB, TBA;
      if (NumArgPairs != 0 &&
          2 * uint64_t(States.size()) * NumArgPairs <= Budget)
        buildCommTables(A, B, ArgsA, ArgsB, TAB, TBA);

      if (runBoundedTier(
              NA * NB,
              [&](size_t K, size_t P, bool Swapped, ValidityResult &Out) {
                auto [SI, SJ] = SameAlphaPairs[K];
                size_t S1 = Swapped ? SJ : SI;
                size_t S2 = Swapped ? SI : SJ;
                size_t AI = P / NB, BI = P % NB;
                if (!TAB.empty()) {
                  const ValueRef &L = TAB[(S1 * NA + AI) * NB + BI];
                  const ValueRef &Rt = TBA[(S2 * NA + AI) * NB + BI];
                  if (Value::equal(L, Rt))
                    return true;
                  failComm(A, B, States[S1], States[S2], ArgsA[AI], ArgsB[BI],
                           L, Rt, Out);
                  return false;
                }
                return checkCommInstance(A, B, States[S1], States[S2],
                                         ArgsA[AI], ArgsB[BI], Out);
              },
              R, ParWall, ParCpu)) {
        Finish();
        return R;
      }
    }

    if (Config.RunRandomTier) {
      std::mt19937_64 Rng(Config.Seed ^
                          (std::hash<std::string>()(A.Name + "#" + B.Name)));
      DomainRef StateDom = Decl.StateTy->toDomain(Scope);
      DomainRef DomA = A.ArgTy->toDomain(Scope);
      DomainRef DomB = B.ArgTy->toDomain(Scope);
      for (unsigned Round = 0; Round < Config.RandomRounds; ++Round) {
        if (Config.Budget &&
            (Config.Budget->charge(1) ||
             ((Round & 255) == 0 && Config.Budget->expired()))) {
          R.TimedOut = true;
          R.Valid = false;
          Finish();
          return R;
        }
        ValueRef V1 = StateDom->sample(Rng);
        ValueRef V2 = StateDom->sample(Rng);
        if (!Value::equal(Runtime.alphaOf(V1), Runtime.alphaOf(V2)))
          V2 = V1;
        ValueRef ArgA = DomA->sample(Rng);
        ValueRef ArgB = DomB->sample(Rng);
        if (!Runtime.preHoldsUnary(A, ArgA) ||
            !Runtime.preHoldsUnary(B, ArgB))
          continue;
        ++R.RandomChecks;
        if (!checkCommInstance(A, B, V1, V2, ArgA, ArgB, R)) {
          Finish();
          return R;
        }
      }
    }
  }
  R.Unbounded = R.Valid && AbsR && AbsR->Applicable &&
                R.AbsintProved == relevantActionPairs(Decl).size();
  Finish();
  return R;
}

ValidityResult ValidityChecker::checkHistoryCoherence() {
  ValidityResult R;
  TraceSpan PropSpan("validity", "history");
  Stopwatch T0;
  // Sequential tier: aggregate worker time equals wall time.
  auto Finish = [&] {
    R.CpuSeconds = R.WallSeconds = T0.seconds();
    R.Cache = Runtime.cacheStats();
    flushValidityMetrics("history", R);
  };
  const ResourceSpecDecl &Decl = Runtime.decl();
  bool AnyHistory = Decl.Inv != nullptr;
  for (const ActionDecl &A : Decl.Actions)
    AnyHistory |= (A.History != nullptr);
  if (!AnyHistory) {
    Finish();
    return R;
  }

  std::mt19937_64 Rng(Config.Seed ^ 0x9157ULL);
  DomainRef StateDom = Decl.StateTy->toDomain(Scope);
  const unsigned Rounds = std::max(200u, Config.RandomRounds / 4);
  const unsigned StepsPerRound = 12;

  for (unsigned Round = 0; Round < Rounds; ++Round) {
    if (Config.Budget && Config.Budget->exhausted()) {
      R.TimedOut = true;
      R.Valid = false;
      Finish();
      return R;
    }
    ValueRef V = StateDom->sample(Rng);
    // History is a statement about *reachable* executions, so start states
    // are filtered by the spec's well-formedness invariant (unlike the
    // commutativity check, which must range over all states, App. D).
    if (!Runtime.invHolds(V))
      continue;
    // Per-action collected return sequences, seeded with the history of the
    // (arbitrary) start state.
    std::vector<ValueRef> Collected(Decl.Actions.size());
    for (size_t I = 0; I < Decl.Actions.size(); ++I)
      if (Decl.Actions[I].History)
        Collected[I] = Runtime.historyOf(Decl.Actions[I], V);

    for (unsigned Step = 0; Step < StepsPerRound; ++Step) {
      size_t Pick = Rng() % Decl.Actions.size();
      const ActionDecl &A = Decl.Actions[Pick];
      DomainRef ArgDom = A.ArgTy->toDomain(Scope);
      ValueRef Arg = ArgDom->sample(Rng);
      if (!Runtime.preHoldsUnary(A, Arg) || !Runtime.isEnabled(A, V))
        continue;
      ValueRef Ret = Runtime.actionResult(A, V, Arg);
      ValueRef Prev = V;
      V = Runtime.applyAction(A, V, Arg);
      if (!Runtime.invHolds(V)) {
        ValidityCounterexample CE;
        CE.Prop = ValidityCounterexample::Property::Invariant;
        CE.ActionA = A.Name;
        CE.V1 = Prev;
        CE.V2 = V;
        CE.Arg1 = Arg;
        CE.Arg2 = Arg;
        CE.AlphaLeft = CE.AlphaRight = Runtime.alphaOf(V);
        R.Valid = false;
        R.CE = CE;
        Finish();
        return R;
      }
      if (A.History)
        Collected[Pick] = vops::seqAppend(Collected[Pick], Ret);
      ++R.RandomChecks;
      for (size_t I = 0; I < Decl.Actions.size(); ++I) {
        if (!Decl.Actions[I].History)
          continue;
        ValueRef Claimed = Runtime.historyOf(Decl.Actions[I], V);
        if (!Value::equal(Claimed, Collected[I])) {
          ValidityCounterexample CE;
          CE.Prop = ValidityCounterexample::Property::History;
          CE.ActionA = Decl.Actions[I].Name;
          CE.V1 = V;
          CE.V2 = V;
          CE.Arg1 = Arg;
          CE.Arg2 = Arg;
          CE.AlphaLeft = Claimed;
          CE.AlphaRight = Collected[I];
          R.Valid = false;
          R.CE = CE;
          Finish();
          return R;
        }
      }
    }
  }
  Finish();
  return R;
}

ValidityResult ValidityChecker::check() {
  ValidityResult R = checkPreconditions();
  if (!R.Valid)
    return R;
  ValidityResult C = checkCommutativity();
  C.BoundedChecks += R.BoundedChecks;
  C.RandomChecks += R.RandomChecks;
  C.AbsintObligations += R.AbsintObligations;
  C.AbsintProved += R.AbsintProved;
  C.AbsintSteps += R.AbsintSteps;
  C.AbsintSplits += R.AbsintSplits;
  C.WallSeconds += R.WallSeconds;
  C.CpuSeconds += R.CpuSeconds;
  if (!C.Valid)
    return C;
  ValidityResult H = checkHistoryCoherence();
  H.BoundedChecks += C.BoundedChecks;
  H.RandomChecks += C.RandomChecks;
  H.AbsintObligations += C.AbsintObligations;
  H.AbsintProved += C.AbsintProved;
  H.AbsintSteps += C.AbsintSteps;
  H.AbsintSplits += C.AbsintSplits;
  H.WallSeconds += C.WallSeconds;
  H.CpuSeconds += C.CpuSeconds;
  H.Absint = C.Absint ? C.Absint : R.Absint;
  // The spec as a whole holds on the unbounded domains only when both
  // symbolic properties were fully discharged and nothing was left to the
  // (finite, simulation-based) history/invariant tier.
  const ResourceSpecDecl &Decl = Runtime.decl();
  bool AnyHistory = Decl.Inv != nullptr;
  for (const ActionDecl &A : Decl.Actions)
    AnyHistory |= (A.History != nullptr);
  H.Unbounded = H.Valid && R.Unbounded && C.Unbounded && !AnyHistory;
  return H;
}
