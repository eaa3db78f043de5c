//===-- hyper/NonInterference.cpp - Empirical 2-safety testing -------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "hyper/NonInterference.h"

#include "sem/Scheduler.h"
#include "support/ThreadPool.h"
#include "support/trace/Metrics.h"
#include "support/trace/Stopwatch.h"
#include "support/trace/Trace.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <climits>
#include <numeric>
#include <sstream>

using namespace commcsl;

std::string NIViolation::describe() const {
  std::ostringstream OS;
  OS << Kind << ": " << Detail << "\n";
  auto PrintVals = [&OS](const char *Label,
                         const std::vector<ValueRef> &Vals) {
    OS << "  " << Label << ": [";
    for (size_t I = 0; I < Vals.size(); ++I)
      OS << (I ? ", " : "") << (Vals[I] ? Vals[I]->str() : "<none>");
    OS << "]\n";
  };
  PrintVals("inputs A", InputsA);
  PrintVals("inputs B", InputsB);
  OS << "  schedulers: " << SchedulerA << " vs " << SchedulerB << "\n";
  PrintVals("low outputs A", LowOutputsA);
  PrintVals("low outputs B", LowOutputsB);
  return OS.str();
}

NonInterferenceHarness::NonInterferenceHarness(const Program &Prog,
                                               std::string ProcName,
                                               NIConfig Config)
    : Prog(Prog), Proc(Prog.findProc(ProcName)), Config(Config) {
  if (!Proc)
    return;
  auto MarksLow = [](const Contract &C, const std::string &Name) {
    for (const ContractAtom &A : C)
      if (A.AtomKind == ContractAtom::Kind::Low && !A.Cond &&
          A.E->Kind == ExprKind::Var && A.E->Name == Name)
        return true;
    return false;
  };
  for (size_t I = 0; I < Proc->Params.size(); ++I)
    if (MarksLow(Proc->Requires, Proc->Params[I].Name))
      LowParams.push_back(I);
  for (size_t I = 0; I < Proc->Returns.size(); ++I)
    if (MarksLow(Proc->Ensures, Proc->Returns[I].Name))
      LowReturns.push_back(I);
  // Conditional classifications over plain variables, both the `level`
  // clause and the equivalent `g ==> low(x)` form.
  auto CollectLevels = [](const Contract &C, const std::vector<Param> &Vars,
                          std::vector<LevelSlot> &Out) {
    for (size_t I = 0; I < Vars.size(); ++I)
      for (const ContractAtom &A : C)
        if (A.AtomKind == ContractAtom::Kind::Low && A.Cond &&
            A.E->Kind == ExprKind::Var && A.E->Name == Vars[I].Name)
          Out.push_back({I, A.Cond});
  };
  CollectLevels(Proc->Requires, Proc->Params, LevelParams);
  CollectLevels(Proc->Ensures, Proc->Returns, LevelReturns);
}

NIReport NonInterferenceHarness::run() {
  NIReport Report;
  if (!Proc) {
    NIViolation V;
    V.Kind = "abort";
    V.Detail = "unknown procedure";
    Report.Violation = std::move(V);
    return Report;
  }
  TraceSpan SweepSpan("ni", [&] { return "sweep " + Proc->Name; });
  Stopwatch T0;
  SpecCaches = std::make_shared<SpecCacheRegistry>();

  std::vector<DomainRef> ParamDoms;
  for (const Param &P : Proc->Params)
    ParamDoms.push_back(P.Ty->toDomain(Config.InputScope));

  auto IsLowParam = [this](size_t I) {
    for (size_t L : LowParams)
      if (L == I)
        return true;
    return false;
  };

  // Trials are independent work units: each derives its RNG stream from
  // (Seed, TrialIndex), so its outcome does not depend on which worker runs
  // it or in what order. The merge below reproduces the sequential
  // stop-at-first-violation report exactly.
  struct TrialOutcome {
    uint64_t Runs = 0;
    uint64_t Pairs = 0;
    std::optional<NIViolation> Violation;
  };
  std::vector<TrialOutcome> Trials(Config.Trials);
  std::atomic<unsigned> FirstViolating{UINT_MAX};
  unsigned Jobs = ThreadPool::effectiveJobs(Config.Jobs);
  uint64_t NumChunks =
      std::max<uint64_t>(1, ThreadPool::chunkCount(Config.Trials, Jobs));
  std::vector<double> ChunkSeconds(NumChunks, 0.0);

  ThreadPool::shared().parallelForChunks(
      Config.Trials, Jobs, [&](uint64_t Begin, uint64_t End, unsigned Chunk) {
        Stopwatch C0;
        for (uint64_t Trial = Begin; Trial < End; ++Trial) {
          // A trial after an already-known violating one contributes
          // nothing to the merged report; skip it.
          if (Trial > FirstViolating.load(std::memory_order_relaxed))
            continue;
          std::mt19937_64 Rng(deriveSeed(Config.Seed, Trial));
          std::vector<std::vector<ValueRef>> Assignments;
          if (Config.TrialGen) {
            Assignments = Config.TrialGen(Rng);
          } else {
            // Fix the low inputs; vary the highs.
            std::vector<ValueRef> LowVals(Proc->Params.size());
            for (size_t I = 0; I < Proc->Params.size(); ++I)
              if (IsLowParam(I))
                LowVals[I] = ParamDoms[I]->sample(Rng);
            for (unsigned H = 0; H < Config.HighSamples; ++H) {
              std::vector<ValueRef> Inputs(Proc->Params.size());
              for (size_t I = 0; I < Proc->Params.size(); ++I)
                Inputs[I] =
                    IsLowParam(I) ? LowVals[I] : ParamDoms[I]->sample(Rng);
              // Stay inside the relation induced by conditional
              // classifications: the guard must agree with the reference
              // assignment (copy its free variables), and when it holds
              // the classified parameter is low (copy it too).
              if (!LevelParams.empty() && !Assignments.empty()) {
                const std::vector<ValueRef> &First = Assignments.front();
                for (const LevelSlot &LS : LevelParams) {
                  std::vector<std::string> Vars;
                  LS.Guard->freeVars(Vars);
                  for (const std::string &V : Vars)
                    for (size_t I = 0; I < Proc->Params.size(); ++I)
                      if (Proc->Params[I].Name == V)
                        Inputs[I] = First[I];
                }
                ExprEvaluator GuardEval(&Prog);
                EvalEnv Env;
                for (size_t I = 0; I < Proc->Params.size(); ++I)
                  Env[Proc->Params[I].Name] = First[I];
                for (const LevelSlot &LS : LevelParams)
                  if (GuardEval.eval(*LS.Guard, Env)->getBool())
                    Inputs[LS.Index] = First[LS.Index];
              }
              Assignments.push_back(std::move(Inputs));
            }
          }
          NIReport Local;
          {
            TraceSpan TrialSpan(
                "ni", [&] { return "trial " + std::to_string(Trial); });
            runTrial(Assignments, Rng, Local);
          }
          TrialOutcome &Out = Trials[Trial];
          Out.Runs = Local.Runs;
          Out.Pairs = Local.PairsCompared;
          Out.Violation = std::move(Local.Violation);
          if (Out.Violation) {
            unsigned Cur = FirstViolating.load(std::memory_order_relaxed);
            while (Trial < Cur &&
                   !FirstViolating.compare_exchange_weak(
                       Cur, static_cast<unsigned>(Trial))) {
            }
          }
        }
        ChunkSeconds[Chunk] = C0.seconds();
      });

  Report.WallSeconds = T0.seconds();
  Report.CpuSeconds =
      std::accumulate(ChunkSeconds.begin(), ChunkSeconds.end(), 0.0);
  // Deterministic merge in trial order.
  for (unsigned Trial = 0; Trial < Config.Trials; ++Trial) {
    Report.Runs += Trials[Trial].Runs;
    Report.PairsCompared += Trials[Trial].Pairs;
    if (Trials[Trial].Violation) {
      Report.Violation = std::move(Trials[Trial].Violation);
      break;
    }
  }

  // Runs/pairs (and whether a violation was found) replicate the
  // sequential sweep at any job count; wall/CPU time does not.
  MetricsRegistry &M = MetricsRegistry::global();
  M.counter("ni.runs").add(Report.Runs);
  M.counter("ni.pairs_compared").add(Report.PairsCompared);
  M.counter("ni.violations").add(Report.Violation ? 1 : 0);
  M.gauge("ni.wall_seconds").add(Report.WallSeconds);
  M.gauge("ni.cpu_seconds").add(Report.CpuSeconds);
  return Report;
}

bool commcsl::sameReleases(std::vector<Release> A, std::vector<Release> B) {
  if (A.size() != B.size())
    return false;
  auto Less = [](const Release &X, const Release &Y) {
    if (X.Site != Y.Site)
      return std::less<const Expr *>()(X.Site, Y.Site);
    return Value::compare(X.Val, Y.Val) < 0;
  };
  std::sort(A.begin(), A.end(), Less);
  std::sort(B.begin(), B.end(), Less);
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Site != B[I].Site || !Value::equal(A[I].Val, B[I].Val))
      return false;
  return true;
}

bool NonInterferenceHarness::runTrial(
    const std::vector<std::vector<ValueRef>> &Assignments,
    std::mt19937_64 &Rng, NIReport &Report) {
  RunConfig RC;
  RC.MaxSteps = Config.MaxSteps;
  RC.SpecCaches = SpecCaches;
  Interpreter Interp(Prog, RC);
  ExprEvaluator Eval(&Prog);

  // Everything one run exposes to the comparison: the low outputs, the
  // in-state verdicts of ensures-side level guards (with the classified
  // values), and the release log.
  struct Obs {
    std::vector<ValueRef> Low;
    std::vector<ValueRef> Inputs;
    std::string Sched;
    std::vector<uint8_t> EnsGuards;
    std::vector<ValueRef> EnsVals;
    std::vector<Release> Released;
  };
  // Compares run B against reference A; fills Report.Violation and
  // returns false on a mismatch. Incomparable pairs (differing release
  // logs) are skipped without counting.
  auto Compare = [&](const Obs &A, const Obs &B) {
    if (!sameReleases(A.Released, B.Released))
      return true;
    ++Report.PairsCompared;
    auto Mismatch = [&](const char *Detail) {
      NIViolation V;
      V.Kind = "low-output mismatch";
      V.Detail = Detail;
      V.InputsA = A.Inputs;
      V.InputsB = B.Inputs;
      V.SchedulerA = A.Sched;
      V.SchedulerB = B.Sched;
      V.LowOutputsA = A.Low;
      V.LowOutputsB = B.Low;
      Report.Violation = std::move(V);
      return false;
    };
    if (A.Low.size() != B.Low.size())
      return Mismatch("different numbers of public outputs");
    for (size_t I = 0; I < A.Low.size(); ++I)
      if (!Value::equal(A.Low[I], B.Low[I]))
        return Mismatch("low-equivalent inputs produced different low "
                        "outputs (a value channel)");
    for (size_t I = 0; I < LevelReturns.size(); ++I) {
      if (A.EnsGuards[I] != B.EnsGuards[I]) {
        NIViolation V;
        V.Kind = "level guard mismatch";
        V.Detail = "conditional classification guard disagrees across "
                   "low-equivalent runs (the level itself leaks)";
        V.InputsA = A.Inputs;
        V.InputsB = B.Inputs;
        V.SchedulerA = A.Sched;
        V.SchedulerB = B.Sched;
        V.LowOutputsA = {A.EnsVals[I]};
        V.LowOutputsB = {B.EnsVals[I]};
        Report.Violation = std::move(V);
        return false;
      }
      if (A.EnsGuards[I] && !Value::equal(A.EnsVals[I], B.EnsVals[I])) {
        NIViolation V;
        V.Kind = "low-output mismatch";
        V.Detail = "conditionally-low return differs while its level "
                   "guard holds";
        V.InputsA = A.Inputs;
        V.InputsB = B.Inputs;
        V.SchedulerA = A.Sched;
        V.SchedulerB = B.Sched;
        V.LowOutputsA = {A.EnsVals[I]};
        V.LowOutputsB = {B.EnsVals[I]};
        Report.Violation = std::move(V);
        return false;
      }
    }
    return true;
  };
  // Whether two input assignments are related by the requires-side level
  // relation: every guard agrees, and a held guard forces agreement of the
  // classified parameter. The default generator pins inputs to satisfy
  // this by construction; a custom TrialGen may not, and unrelated
  // assignments are only compared within themselves.
  auto RelatedInputs = [&](const std::vector<ValueRef> &A,
                           const std::vector<ValueRef> &B) {
    if (LevelParams.empty())
      return true;
    EvalEnv EnvA, EnvB;
    for (size_t I = 0; I < Proc->Params.size(); ++I) {
      EnvA[Proc->Params[I].Name] = A[I];
      EnvB[Proc->Params[I].Name] = B[I];
    }
    for (const LevelSlot &LS : LevelParams) {
      bool GA = Eval.eval(*LS.Guard, EnvA)->getBool();
      bool GB = Eval.eval(*LS.Guard, EnvB)->getBool();
      if (GA != GB)
        return false;
      if (GA && !Value::equal(A[LS.Index], B[LS.Index]))
        return false;
    }
    return true;
  };

  bool HaveRef = false;
  Obs Ref;

  for (const std::vector<ValueRef> &Inputs : Assignments) {
    // Runs of an assignment outside the reference's relation are still
    // executed (faults count) and compared among themselves (scheduler
    // determinism is a property of the single input), just not against
    // the reference.
    bool Related = !HaveRef || RelatedInputs(Ref.Inputs, Inputs);
    bool HaveLocalRef = false;
    Obs LocalRef;
    // Scheduler family: round-robin, several random seeds, burst.
    std::vector<std::unique_ptr<Scheduler>> Scheds;
    Scheds.push_back(std::make_unique<RoundRobinScheduler>());
    for (unsigned R = 0; R < Config.RandomSchedules; ++R)
      Scheds.push_back(std::make_unique<RandomScheduler>(Rng()));
    Scheds.push_back(std::make_unique<BurstScheduler>(Rng(), Config.BurstLen));

    for (auto &Sched : Scheds) {
      RunResult R;
      {
        TraceSpan RunSpan("ni", [&] { return "run " + Sched->name(); });
        R = Interp.run(Proc->Name, Inputs, *Sched);
      }
      ++Report.Runs;
      if (R.St != RunResult::Status::Ok) {
        NIViolation V;
        // Step-limit exhaustion is reported apart from genuine faults: a
        // fuel-bounded run says nothing about the program, and downstream
        // consumers (the fuzzing oracle) classify it as a flake rather
        // than a soundness signal.
        V.Kind = R.St == RunResult::Status::Deadlock    ? "deadlock"
                 : R.St == RunResult::Status::StepLimit ? "step-limit"
                                                        : "abort";
        V.Detail = R.AbortReason;
        V.InputsA = Inputs;
        V.SchedulerA = Sched->name();
        Report.Violation = std::move(V);
        return false;
      }
      Obs O;
      O.Inputs = Inputs;
      O.Sched = Sched->name();
      for (size_t I : LowReturns)
        O.Low.push_back(R.Returns[I]);
      // The public output channel is observable in its entirety.
      O.Low.insert(O.Low.end(), R.Outputs.begin(), R.Outputs.end());
      O.Released = std::move(R.Declassified);
      if (!LevelReturns.empty()) {
        EvalEnv Env;
        for (size_t I = 0; I < Proc->Params.size(); ++I)
          Env[Proc->Params[I].Name] = Inputs[I];
        for (size_t I = 0; I < Proc->Returns.size(); ++I)
          Env[Proc->Returns[I].Name] = R.Returns[I];
        for (const LevelSlot &LS : LevelReturns) {
          O.EnsGuards.push_back(Eval.eval(*LS.Guard, Env)->getBool() ? 1
                                                                     : 0);
          O.EnsVals.push_back(R.Returns[LS.Index]);
        }
      }

      if (Related) {
        if (!HaveRef) {
          HaveRef = true;
          Ref = std::move(O);
          continue;
        }
        if (!Compare(Ref, O))
          return false;
      } else {
        if (!HaveLocalRef) {
          HaveLocalRef = true;
          LocalRef = std::move(O);
          continue;
        }
        if (!Compare(LocalRef, O))
          return false;
      }
    }
  }
  return true;
}
