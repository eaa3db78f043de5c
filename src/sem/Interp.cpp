//===-- sem/Interp.cpp - Concurrent small-step interpreter -----------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "sem/Interp.h"

#include <cassert>

using namespace commcsl;

namespace {

/// A procedure activation record; par branches of the same procedure share
/// one activation (the paper's semantics has a single store per program,
/// rules PAR1/PAR2).
struct Activation {
  EvalEnv Locals;
};
using ActPtr = std::shared_ptr<Activation>;

/// One continuation-stack entry.
///
/// `Act` is a non-owning pointer: every activation is kept alive either by
/// run()'s `MainAct` local or by the owning thread's `OwnedActs` stack (one
/// entry per in-flight procedure call), and that owner strictly outlives
/// every entry referencing the activation — callee entries sit above their
/// CallProc entry until the call returns, and par children share the
/// parent's activation while the parent is blocked on `WaitingChildren`
/// with its own stack intact. Keeping the entry trivially copyable (no
/// owning member) lets push/pop — the interpreter's hottest edge — inline
/// to a couple of stores.
struct StackEntry {
  const Command *Cmd = nullptr;
  size_t Idx = 0; ///< Block: next child; CallProc: 0 = enter, 1 = return
  Activation *Act = nullptr;
};

static_assert(std::is_trivially_copyable_v<StackEntry>,
              "stack pushes must compile to plain stores");

struct Thread {
  std::vector<StackEntry> Stack;
  /// Activations of in-flight procedure calls, innermost last. Entries in
  /// `Stack` borrow these; the innermost call's CallProc entry reads
  /// `OwnedActs.back()` on return.
  std::vector<ActPtr> OwnedActs;
  size_t Parent = static_cast<size_t>(-1);
  unsigned WaitingChildren = 0;
  bool Done = false;
};

/// Hint-cached access to the local binding named by \p Cmd's target
/// variable (default-inserting like operator[]).
ValueRef &localVar(Activation &Act, const Command &Cmd) {
  uint32_t H = Cmd.VarSlotHint.load(std::memory_order_relaxed);
  ValueRef &R = Act.Locals.slot(Cmd.Var, H);
  Cmd.VarSlotHint.store(H, std::memory_order_relaxed);
  return R;
}

/// Whole-run mutable state.
struct RunState {
  const Program &Prog;
  ExprEvaluator Eval;
  RunConfig Config;

  std::vector<Thread> Threads;
  std::vector<ResourceState> Resources;
  std::vector<ValueRef> Outputs;
  std::vector<Release> Declassified;
  std::map<int64_t, int64_t> Heap;
  int64_t NextLoc = 1;

  bool Aborted = false;
  std::string AbortReason;

  /// Per-run spec runtimes, one per distinct spec (almost always one).
  /// Building a runtime involves a cache-registry lookup when memoization
  /// is on; performs sit in the innermost loop, so pay that once per run.
  std::vector<std::pair<const ResourceSpecDecl *, RSpecRuntime>> Runtimes;

  /// One-entry memo for the action-name lookup a `perform` does against
  /// its spec; the same perform node executes millions of times in loops.
  const Command *LastPerformCmd = nullptr;
  const ResourceSpecDecl *LastPerformSpec = nullptr;
  const ActionDecl *LastPerformAction = nullptr;

  explicit RunState(const Program &Prog, RunConfig Config)
      : Prog(Prog), Eval(&Prog), Config(std::move(Config)) {
    Eval.DeclassifySink = &Declassified;
  }

  /// A spec runtime wired to the shared per-spec memo cache, when one is
  /// configured. The returned reference is invalidated by the next
  /// runtimeFor call; use it immediately.
  const RSpecRuntime &runtimeFor(const ResourceSpecDecl *Spec) {
    for (const auto &E : Runtimes)
      if (E.first == Spec)
        return E.second;
    Runtimes.emplace_back(
        Spec, RSpecRuntime(*Spec, &Prog,
                           Config.SpecCaches ? Config.SpecCaches->cacheFor(Spec)
                                             : nullptr));
    return Runtimes.back().second;
  }

  const ActionDecl *performAction(const Command &Cmd,
                                  const ResourceSpecDecl *Spec) {
    if (LastPerformCmd == &Cmd && LastPerformSpec == Spec)
      return LastPerformAction;
    const ActionDecl *Action = Spec->findAction(Cmd.Rets[0]);
    LastPerformCmd = &Cmd;
    LastPerformSpec = Spec;
    LastPerformAction = Action;
    return Action;
  }

  void abort(const std::string &Reason) {
    if (!Aborted) {
      Aborted = true;
      AbortReason = Reason;
    }
  }

  ValueRef eval(const Expr &E, const Activation &Act) {
    return Eval.eval(E, Act.Locals);
  }

  ResourceState *resourceFor(const Command &Cmd, const Activation &Act) {
    uint32_t H = Cmd.AuxSlotHint.load(std::memory_order_relaxed);
    auto It = Act.Locals.findHint(Cmd.Aux, H);
    Cmd.AuxSlotHint.store(H, std::memory_order_relaxed);
    if (It == Act.Locals.end()) {
      abort("use of unbound resource handle '" + Cmd.Aux + "'");
      return nullptr;
    }
    int64_t Id = It->second->getInt();
    if (Id < 0 || static_cast<size_t>(Id) >= Resources.size()) {
      abort("invalid resource handle '" + Cmd.Aux + "'");
      return nullptr;
    }
    return &Resources[static_cast<size_t>(Id)];
  }

  /// Runtime check of ghost boolean assertions whose variables are bound.
  void checkGhost(const Contract &C, const Activation &Act) {
    if (!Config.CheckGhostAsserts)
      return;
    for (const ContractAtom &A : C) {
      if (A.AtomKind != ContractAtom::Kind::Bool)
        continue;
      std::vector<std::string> Vars;
      A.E->freeVars(Vars);
      bool AllBound = true;
      for (const std::string &V : Vars)
        AllBound &= Act.Locals.count(V) != 0;
      if (!AllBound)
        continue;
      if (!eval(*A.E, Act)->getBool())
        abort("ghost assertion failed: " + A.E->str());
    }
  }

  /// Executes an atomic block body to completion (rule ATOMIC). Returns
  /// false on abort. \p Fuel bounds inner loops.
  bool execAtomic(const Command &Cmd, Activation &Act, ResourceState &Res,
                  uint64_t &Fuel);
};

bool RunState::execAtomic(const Command &Cmd, Activation &Act,
                          ResourceState &Res, uint64_t &Fuel) {
  if (Aborted)
    return false;
  if (Fuel-- == 0) {
    abort("step limit exhausted inside atomic block");
    return false;
  }
  switch (Cmd.Kind) {
  case CmdKind::Skip:
    return true;
  case CmdKind::Block:
    for (const CommandRef &Child : Cmd.Children)
      if (!execAtomic(*Child, Act, Res, Fuel))
        return false;
    return true;
  case CmdKind::VarDecl:
    localVar(Act, Cmd) = Cmd.Exprs.empty() ? Cmd.DeclTy->defaultValue()
                                             : eval(*Cmd.Exprs[0], Act);
    return true;
  case CmdKind::Assign:
    localVar(Act, Cmd) = eval(*Cmd.Exprs[0], Act);
    return true;
  case CmdKind::If: {
    bool Cond = eval(*Cmd.Exprs[0], Act)->getBool();
    return execAtomic(Cond ? *Cmd.Children[0] : *Cmd.Children[1], Act, Res,
                      Fuel);
  }
  case CmdKind::While: {
    while (eval(*Cmd.Exprs[0], Act)->getBool()) {
      if (!execAtomic(*Cmd.Children[0], Act, Res, Fuel))
        return false;
      if (Fuel-- == 0) {
        abort("step limit exhausted inside atomic loop");
        return false;
      }
    }
    return true;
  }
  case CmdKind::HeapRead: {
    int64_t Addr = eval(*Cmd.Exprs[0], Act)->getInt();
    auto It = Heap.find(Addr);
    if (It == Heap.end()) {
      abort("heap read from unallocated location");
      return false;
    }
    localVar(Act, Cmd) = ValueFactory::intV(It->second);
    return true;
  }
  case CmdKind::HeapWrite: {
    int64_t Addr = eval(*Cmd.Exprs[0], Act)->getInt();
    auto It = Heap.find(Addr);
    if (It == Heap.end()) {
      abort("heap write to unallocated location");
      return false;
    }
    It->second = eval(*Cmd.Exprs[1], Act)->getInt();
    return true;
  }
  case CmdKind::Alloc: {
    int64_t Loc = NextLoc++;
    Heap[Loc] = eval(*Cmd.Exprs[0], Act)->getInt();
    localVar(Act, Cmd) = ValueFactory::intV(Loc);
    return true;
  }
  case CmdKind::Perform: {
    const ActionDecl *Action = performAction(Cmd, Res.Spec);
    assert(Action && "perform of unknown action after type checking");
    const RSpecRuntime &Runtime = runtimeFor(Res.Spec);
    ValueRef Arg = eval(*Cmd.Exprs[0], Act);
    ValueRef Ret = Runtime.actionResult(*Action, Res.Value, Arg);
    Res.Value = Runtime.applyAction(*Action, Res.Value, Arg);
    Res.Log.push_back(
        {Action->Name, Action->Unique, std::move(Arg), std::move(Ret)});
    if (!Cmd.Var.empty())
      localVar(Act, Cmd) = Res.Log.back().Ret;
    return true;
  }
  case CmdKind::ResVal:
    localVar(Act, Cmd) = Res.Value;
    return true;
  case CmdKind::AssertGhost:
    checkGhost(Cmd.Asserted, Act);
    return !Aborted;
  case CmdKind::Output:
    Outputs.push_back(eval(*Cmd.Exprs[0], Act));
    return true;
  default:
    abort("unsupported command inside atomic block");
    return false;
  }
}

/// Whether \p Cmd contains an atomic block gated by a `when` action.
bool cmdHasWhenAtomic(const Command &Cmd) {
  if (Cmd.Kind == CmdKind::Atomic && !Cmd.Var.empty())
    return true;
  for (const CommandRef &Child : Cmd.Children)
    if (Child && cmdHasWhenAtomic(*Child))
      return true;
  return false;
}

} // namespace

Interpreter::Interpreter(const Program &Prog, RunConfig Config)
    : Prog(Prog), Config(std::move(Config)), HasWhenAtomic([&Prog] {
        for (const ProcDecl &P : Prog.Procs)
          if (P.Body && cmdHasWhenAtomic(*P.Body))
            return true;
        return false;
      }()) {}

RunResult Interpreter::run(const std::string &ProcName,
                           const std::vector<ValueRef> &Args,
                           Scheduler &Sched) const {
  // Dispatch once on the concrete scheduler type so the per-step pick()
  // call in the stepping loop is non-virtual and inlinable.
  if (auto *RS = dynamic_cast<RandomScheduler *>(&Sched))
    return runWith(ProcName, Args, *RS);
  if (auto *RR = dynamic_cast<RoundRobinScheduler *>(&Sched))
    return runWith(ProcName, Args, *RR);
  if (auto *BS = dynamic_cast<BurstScheduler *>(&Sched))
    return runWith(ProcName, Args, *BS);
  return runWith(ProcName, Args, Sched);
}

template <class SchedT>
RunResult Interpreter::runWith(const std::string &ProcName,
                               const std::vector<ValueRef> &Args,
                               SchedT &Sched) const {
  RunResult Result;
  const ProcDecl *Proc = Prog.findProc(ProcName);
  if (!Proc) {
    Result.St = RunResult::Status::Abort;
    Result.AbortReason = "unknown procedure '" + ProcName + "'";
    return Result;
  }
  assert(Args.size() == Proc->Params.size() && "argument count mismatch");

  RunState S(Prog, Config);
  auto MainAct = std::make_shared<Activation>();
  for (size_t I = 0; I < Proc->Params.size(); ++I)
    MainAct->Locals[Proc->Params[I].Name] = Args[I];
  for (const Param &R : Proc->Returns)
    MainAct->Locals[R.Name] = R.Ty->defaultValue();

  Thread Main;
  Main.Stack.reserve(8);
  Main.Stack.push_back({Proc->Body.get(), 0, MainAct.get()});
  S.Threads.push_back(std::move(Main));

  uint64_t Steps = 0;
  std::vector<size_t> Runnable; // hoisted: reused across steps
  // Without `when`-gated atomics, a thread's runnability changes only on
  // spawn/completion events: the scan below is skipped on steps in between
  // and the previous runnable set is reused (it is exactly what the scan
  // would recompute). With `when` guards, any step can flip enabledness,
  // so the set is rebuilt every step.
  bool RunnableDirty = true;
  while (true) {
    if (S.Aborted) {
      Result.St = RunResult::Status::Abort;
      Result.AbortReason = S.AbortReason;
      break;
    }
    if (HasWhenAtomic || RunnableDirty) {
      RunnableDirty = false;
      // Collect runnable threads.
      Runnable.clear();
      bool AllDone = true;
      for (size_t I = 0; I < S.Threads.size(); ++I) {
        Thread &T = S.Threads[I];
        if (T.Done)
          continue;
        AllDone = false;
        if (T.WaitingChildren > 0)
          continue;
        if (T.Stack.empty())
          continue; // completion handled below, should not linger
        // atomic-when gating.
        const StackEntry &Top = T.Stack.back();
        if (Top.Cmd->Kind == CmdKind::Atomic && !Top.Cmd->Var.empty()) {
          ResourceState *Res = S.resourceFor(*Top.Cmd, *Top.Act);
          if (!Res)
            break;
          const ActionDecl *Action = Res->Spec->findAction(Top.Cmd->Var);
          assert(Action && "when-action resolved during type checking");
          const RSpecRuntime &Runtime = S.runtimeFor(Res->Spec);
          if (!Runtime.isEnabled(*Action, Res->Value))
            continue; // blocked
        }
        Runnable.push_back(I);
      }
      if (S.Aborted)
        continue;
      if (AllDone) {
        Result.St = RunResult::Status::Ok;
        break;
      }
      if (Runnable.empty()) {
        Result.St = RunResult::Status::Deadlock;
        Result.AbortReason = "all threads blocked on atomic-when";
        break;
      }
    }
    if (Steps >= Config.MaxSteps) {
      Result.St = RunResult::Status::StepLimit;
      Result.AbortReason = "step limit exhausted";
      break;
    }
    ++Steps;

    size_t Tid = Sched.pick(Runnable);
    Thread &T = S.Threads[Tid];
    StackEntry &Top = T.Stack.back();
    const Command &Cmd = *Top.Cmd;

    switch (Cmd.Kind) {
    case CmdKind::Skip:
      T.Stack.pop_back();
      break;
    case CmdKind::Block: {
      if (Top.Idx < Cmd.Children.size()) {
        size_t I = Top.Idx++;
        T.Stack.push_back({Cmd.Children[I].get(), 0, Top.Act});
      } else {
        T.Stack.pop_back();
      }
      break;
    }
    case CmdKind::VarDecl:
      localVar(*Top.Act, Cmd) = Cmd.Exprs.empty()
                                     ? Cmd.DeclTy->defaultValue()
                                     : S.eval(*Cmd.Exprs[0], *Top.Act);
      T.Stack.pop_back();
      break;
    case CmdKind::Assign:
      localVar(*Top.Act, Cmd) = S.eval(*Cmd.Exprs[0], *Top.Act);
      T.Stack.pop_back();
      break;
    case CmdKind::HeapRead: {
      int64_t Addr = S.eval(*Cmd.Exprs[0], *Top.Act)->getInt();
      auto It = S.Heap.find(Addr);
      if (It == S.Heap.end()) {
        S.abort("heap read from unallocated location");
        break;
      }
      localVar(*Top.Act, Cmd) = ValueFactory::intV(It->second);
      T.Stack.pop_back();
      break;
    }
    case CmdKind::HeapWrite: {
      int64_t Addr = S.eval(*Cmd.Exprs[0], *Top.Act)->getInt();
      auto It = S.Heap.find(Addr);
      if (It == S.Heap.end()) {
        S.abort("heap write to unallocated location");
        break;
      }
      It->second = S.eval(*Cmd.Exprs[1], *Top.Act)->getInt();
      T.Stack.pop_back();
      break;
    }
    case CmdKind::Alloc: {
      int64_t Loc = S.NextLoc++;
      S.Heap[Loc] = S.eval(*Cmd.Exprs[0], *Top.Act)->getInt();
      localVar(*Top.Act, Cmd) = ValueFactory::intV(Loc);
      T.Stack.pop_back();
      break;
    }
    case CmdKind::If: {
      bool Cond = S.eval(*Cmd.Exprs[0], *Top.Act)->getBool();
      const Command *Branch =
          (Cond ? Cmd.Children[0] : Cmd.Children[1]).get();
      Activation *Act = Top.Act;
      T.Stack.pop_back();
      T.Stack.push_back({Branch, 0, Act});
      break;
    }
    case CmdKind::While: {
      if (S.eval(*Cmd.Exprs[0], *Top.Act)->getBool())
        T.Stack.push_back({Cmd.Children[0].get(), 0, Top.Act});
      else
        T.Stack.pop_back();
      break;
    }
    case CmdKind::Par: {
      if (Top.Idx == 0) {
        Top.Idx = 1;
        T.WaitingChildren = static_cast<unsigned>(Cmd.Children.size());
        Activation *Act = Top.Act;
        // NOTE: pushing to S.Threads invalidates T/Top; nothing below uses
        // them before re-acquisition at the end of the loop body.
        for (const CommandRef &Branch : Cmd.Children) {
          Thread Child;
          Child.Parent = Tid;
          Child.Stack.reserve(8);
          Child.Stack.push_back({Branch.get(), 0, Act});
          S.Threads.push_back(std::move(Child));
        }
        RunnableDirty = true; // parent blocked, children spawned
      } else {
        T.Stack.pop_back();
      }
      break;
    }
    case CmdKind::CallProc: {
      if (Top.Idx == 0) {
        const ProcDecl *Callee = Prog.findProc(Cmd.Aux);
        assert(Callee && "unknown callee after type checking");
        auto CalleeAct = std::make_shared<Activation>();
        for (size_t I = 0; I < Callee->Params.size(); ++I)
          CalleeAct->Locals[Callee->Params[I].Name] =
              S.eval(*Cmd.Exprs[I], *Top.Act);
        for (const Param &R : Callee->Returns)
          CalleeAct->Locals[R.Name] = R.Ty->defaultValue();
        Top.Idx = 1;
        Activation *CalleeA = CalleeAct.get();
        T.OwnedActs.push_back(std::move(CalleeAct));
        T.Stack.push_back({Callee->Body.get(), 0, CalleeA});
      } else {
        const ProcDecl *Callee = Prog.findProc(Cmd.Aux);
        Activation &CalleeA = *T.OwnedActs.back();
        for (size_t I = 0; I < Cmd.Rets.size(); ++I)
          Top.Act->Locals[Cmd.Rets[I]] =
              CalleeA.Locals[Callee->Returns[I].Name];
        T.OwnedActs.pop_back();
        T.Stack.pop_back();
      }
      break;
    }
    case CmdKind::Share: {
      const ResourceSpecDecl *Spec = Prog.findSpec(Cmd.Aux);
      assert(Spec && "unknown spec after type checking");
      ValueRef Init = S.eval(*Cmd.Exprs[0], *Top.Act);
      const RSpecRuntime &Runtime = S.runtimeFor(Spec);
      if (!Runtime.invHolds(Init)) {
        S.abort("shared initial value violates the spec invariant of '" +
                Spec->Name + "'");
        break;
      }
      ResourceState Res;
      Res.Spec = Spec;
      Res.InitialValue = Init;
      Res.Value = Init;
      Res.Shared = true;
      localVar(*Top.Act, Cmd) =
          ValueFactory::intV(static_cast<int64_t>(S.Resources.size()));
      S.Resources.push_back(std::move(Res));
      T.Stack.pop_back();
      break;
    }
    case CmdKind::Unshare: {
      ResourceState *Res = S.resourceFor(Cmd, *Top.Act);
      if (!Res)
        break;
      if (!Res->Shared) {
        S.abort("unshare of an already-unshared resource");
        break;
      }
      if (Config.CheckConsistencyOnUnshare) {
        const RSpecRuntime &Runtime = S.runtimeFor(Res->Spec);
        ValueRef Replayed = replayLog(Runtime, Res->InitialValue, Res->Log);
        if (!Value::equal(Replayed, Res->Value)) {
          S.abort("consistency check failed at unshare: the recorded "
                  "action log does not reproduce the resource value");
          break;
        }
      }
      Res->Shared = false;
      localVar(*Top.Act, Cmd) = Res->Value;
      T.Stack.pop_back();
      break;
    }
    case CmdKind::Atomic: {
      ResourceState *Res = S.resourceFor(Cmd, *Top.Act);
      if (!Res)
        break;
      if (!Res->Shared) {
        S.abort("atomic block on an unshared resource");
        break;
      }
      uint64_t Fuel = Config.MaxSteps - Steps + 1;
      S.execAtomic(*Cmd.Children[0], *Top.Act, *Res, Fuel);
      if (!S.Aborted)
        T.Stack.pop_back();
      break;
    }
    case CmdKind::Perform:
    case CmdKind::ResVal:
      S.abort("perform/resval outside atomic block");
      break;
    case CmdKind::AssertGhost:
      S.checkGhost(Cmd.Asserted, *Top.Act);
      if (!S.Aborted)
        T.Stack.pop_back();
      break;
    case CmdKind::Output:
      S.Outputs.push_back(S.eval(*Cmd.Exprs[0], *Top.Act));
      T.Stack.pop_back();
      break;
    }

    // Thread completion propagates to the parent. Re-acquire the thread:
    // the Par case above may have reallocated S.Threads.
    Thread &Stepped = S.Threads[Tid];
    if (!S.Aborted && Stepped.Stack.empty() && !Stepped.Done) {
      Stepped.Done = true;
      if (Stepped.Parent != static_cast<size_t>(-1)) {
        assert(S.Threads[Stepped.Parent].WaitingChildren > 0);
        --S.Threads[Stepped.Parent].WaitingChildren;
      }
      RunnableDirty = true; // thread retired (and maybe parent woken)
    }
  }

  Result.Steps = Steps;
  if (Result.St == RunResult::Status::Ok)
    for (const Param &R : Proc->Returns)
      Result.Returns.push_back(MainAct->Locals[R.Name]);
  Result.Resources = std::move(S.Resources);
  Result.Outputs = std::move(S.Outputs);
  Result.Declassified = std::move(S.Declassified);
  return Result;
}

ValueRef commcsl::replayLog(const RSpecRuntime &Runtime,
                            const ValueRef &Initial,
                            const std::vector<ActionLogEntry> &Log) {
  ValueRef V = Initial;
  for (const ActionLogEntry &E : Log) {
    const ActionDecl *Action = Runtime.decl().findAction(E.Action);
    assert(Action && "log entry with unknown action");
    V = Runtime.applyAction(*Action, V, E.Arg);
  }
  return V;
}
