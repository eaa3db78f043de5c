//===-- rspec/RSpec.cpp - Runtime resource specifications ------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "rspec/RSpec.h"

#include <set>

using namespace commcsl;

namespace {

/// Per-thread scratch environment for spec-function evaluation. The spec
/// functions are evaluated millions of times on the interpreter's hot path,
/// and each call binds one or two parameters; reusing one environment per
/// thread avoids re-allocating the key strings on every call. Safe because
/// type-checked spec expressions can reference only their declared
/// parameters (the type checker rejects undeclared variables), and
/// `truncate` makes any stale deeper slots unobservable.
EvalEnv &specScratch() {
  static thread_local EvalEnv Env;
  return Env;
}

/// Binds scratch slot \p I to (\p K, \p V). When the slot already carries
/// key \p K (the common case: the same spec function is evaluated over and
/// over), only the value is assigned — no string copy, no scan. Otherwise
/// the stale tail is dropped and the binding goes through `operator[]`,
/// which preserves the original map semantics (a key duplicated across
/// parameters overwrites the earlier binding).
void bindSlot(EvalEnv &Env, size_t I, const std::string &K,
              const ValueRef &V) {
  if (I < Env.size()) {
    EvalEnv::value_type &Slot = Env.begin()[I];
    if (envKeyEq(Slot.first, K)) {
      Slot.second = V;
      return;
    }
    Env.truncate(I);
  }
  Env[K] = V;
}

} // namespace

ValueRef RSpecRuntime::evalAlpha(const ValueRef &State) const {
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Decl.AlphaParam, State);
  Env.truncate(1);
  return Eval.eval(*Decl.Alpha, Env);
}

ValueRef RSpecRuntime::alphaOf(const ValueRef &State) const {
  if (Cache)
    return Cache->alpha(State, [&] { return evalAlpha(State); });
  return evalAlpha(State);
}

ValueRef RSpecRuntime::evalAction(const ActionDecl &Action,
                                  const ValueRef &State,
                                  const ValueRef &Arg) const {
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Action.StateName, State);
  bindSlot(Env, 1, Action.ArgName, Arg);
  Env.truncate(2);
  return Eval.eval(*Action.Apply, Env);
}

ValueRef RSpecRuntime::applyAction(const ActionDecl &Action,
                                   const ValueRef &State,
                                   const ValueRef &Arg) const {
  if (Cache)
    return Cache->action(Action, State, Arg,
                         [&] { return evalAction(Action, State, Arg); });
  return evalAction(Action, State, Arg);
}

ValueRef RSpecRuntime::actionResult(const ActionDecl &Action,
                                    const ValueRef &State,
                                    const ValueRef &Arg) const {
  if (!Action.Returns)
    return ValueFactory::unit();
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Action.StateName, State);
  bindSlot(Env, 1, Action.ArgName, Arg);
  Env.truncate(2);
  return Eval.eval(*Action.Returns, Env);
}

bool RSpecRuntime::isEnabled(const ActionDecl &Action,
                             const ValueRef &State) const {
  if (!Action.Enabled)
    return true;
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Action.StateName, State);
  Env.truncate(1);
  return Eval.eval(*Action.Enabled, Env)->getBool();
}

bool RSpecRuntime::invHolds(const ValueRef &State) const {
  if (!Decl.Inv)
    return true;
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Decl.AlphaParam, State);
  Env.truncate(1);
  return Eval.eval(*Decl.Inv, Env)->getBool();
}

ValueRef RSpecRuntime::historyOf(const ActionDecl &Action,
                                 const ValueRef &State) const {
  assert(Action.History && "action has no history clause");
  EvalEnv &Env = specScratch();
  bindSlot(Env, 0, Action.StateName, State);
  Env.truncate(1);
  return Eval.eval(*Action.History, Env);
}

bool RSpecRuntime::preHolds(const ActionDecl &Action, const ValueRef &Arg1,
                            const ValueRef &Arg2) const {
  EvalEnv Env1, Env2;
  Env1[Action.ArgName] = Arg1;
  Env2[Action.ArgName] = Arg2;
  for (const ContractAtom &A : Action.Pre) {
    switch (A.AtomKind) {
    case ContractAtom::Kind::Low: {
      if (A.Cond) {
        ValueRef C1 = Eval.eval(*A.Cond, Env1);
        ValueRef C2 = Eval.eval(*A.Cond, Env2);
        if (!Value::equal(C1, C2))
          return false;
        if (!C1->getBool())
          break; // condition false in both: nothing required
      }
      ValueRef V1 = Eval.eval(*A.E, Env1);
      ValueRef V2 = Eval.eval(*A.E, Env2);
      if (!Value::equal(V1, V2))
        return false;
      break;
    }
    case ContractAtom::Kind::Bool: {
      if (!Eval.eval(*A.E, Env1)->getBool())
        return false;
      if (!Eval.eval(*A.E, Env2)->getBool())
        return false;
      break;
    }
    case ContractAtom::Kind::SGuard:
    case ContractAtom::Kind::UGuard:
    case ContractAtom::Kind::AllPre:
      // Rejected by the type checker in action preconditions.
      break;
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Consistency (Sec. 3.5)
//===----------------------------------------------------------------------===//

namespace {
struct ConsistencySearch {
  const RSpecRuntime &Runtime;
  const ValueRef &Final;
  // Remaining arguments: for unique actions a queue (front first); for the
  // shared action(s) an unordered pool.
  std::vector<std::pair<const ActionDecl *, std::vector<ValueRef>>> Remaining;
  std::set<std::string> Visited;

  bool search(const ValueRef &V) {
    bool AllEmpty = true;
    for (const auto &[Action, Args] : Remaining)
      AllEmpty &= Args.empty();
    if (AllEmpty)
      return Value::equal(V, Final);

    // Memoize on (value, remaining footprint).
    std::string Key = V->str();
    for (const auto &[Action, Args] : Remaining) {
      Key += "|" + Action->Name + ":";
      for (const ValueRef &A : Args)
        Key += A->str() + ",";
    }
    if (!Visited.insert(Key).second)
      return false;

    for (auto &[Action, Args] : Remaining) {
      if (Args.empty())
        continue;
      if (Action->Unique) {
        // Order fixed: only the front may fire.
        ValueRef Arg = Args.front();
        Args.erase(Args.begin());
        bool Found = search(Runtime.applyAction(*Action, V, Arg));
        Args.insert(Args.begin(), Arg);
        if (Found)
          return true;
        continue;
      }
      // Shared: any remaining argument may fire; skip duplicates.
      std::set<std::string> Tried;
      for (size_t I = 0; I < Args.size(); ++I) {
        ValueRef Arg = Args[I];
        if (!Tried.insert(Arg->str()).second)
          continue;
        Args.erase(Args.begin() + I);
        bool Found = search(Runtime.applyAction(*Action, V, Arg));
        Args.insert(Args.begin() + I, Arg);
        if (Found)
          return true;
      }
    }
    return false;
  }
};
} // namespace

bool commcsl::consistentWith(
    const RSpecRuntime &Runtime, const ValueRef &Initial,
    const std::map<std::string, ValueRef> &ArgsByAction,
    const ValueRef &Final) {
  ConsistencySearch Search{Runtime, Final, {}, {}};
  for (const auto &[Name, Args] : ArgsByAction) {
    const ActionDecl *Action = Runtime.decl().findAction(Name);
    assert(Action && "unknown action in consistency query");
    assert(((Action->Unique && Args->kind() == ValueKind::Seq) ||
            (!Action->Unique && Args->kind() == ValueKind::Multiset)) &&
           "argument collection kind mismatch");
    Search.Remaining.emplace_back(Action, Args->elems());
  }
  return Search.search(Initial);
}
