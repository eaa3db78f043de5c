//===-- rspec/RSpec.h - Runtime resource specifications ---------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime view of a resource specification (Sec. 2.4 / 3.2): concrete
/// evaluation of the abstraction function `alpha`, the action functions
/// `f_a`, optional action result functions, and the *relational* action
/// preconditions `pre_a(arg, arg')`; and the consistency relation of
/// Sec. 3.5 between a resource's recorded actions and its final value.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_RSPEC_RSPEC_H
#define COMMCSL_RSPEC_RSPEC_H

#include "lang/ExprEval.h"
#include "lang/Program.h"
#include "rspec/EvalCache.h"
#include "value/Value.h"

#include <map>
#include <memory>
#include <string>

namespace commcsl {

/// Evaluates a resource specification's functions on concrete values.
/// The declaration must be type-checked.
///
/// An optional `SpecEvalCache` memoizes the two hot calls, `alphaOf` and
/// `applyAction` (both pure). Copies of a runtime share the attached cache;
/// without one, every call evaluates through the expression interpreter.
class RSpecRuntime {
public:
  RSpecRuntime(const ResourceSpecDecl &Decl, const Program *Prog,
               std::shared_ptr<SpecEvalCache> Cache = nullptr)
      : Decl(Decl), Prog(Prog), Eval(Prog), Cache(std::move(Cache)) {}

  const ResourceSpecDecl &decl() const { return Decl; }

  /// The enclosing program (for inlining user functions in static tiers);
  /// may be null when the spec was built without one.
  const Program *program() const { return Prog; }

  /// Stats of the attached cache (zeros when none is attached).
  CacheStats cacheStats() const {
    return Cache ? Cache->stats() : CacheStats{};
  }

  /// alpha(v).
  ValueRef alphaOf(const ValueRef &State) const;

  /// f_a(v, arg). \p Action must name a declared action.
  ValueRef applyAction(const ActionDecl &Action, const ValueRef &State,
                       const ValueRef &Arg) const;

  /// The action's result value on the *pre*-state, or unit if the action
  /// declares no returns clause.
  ValueRef actionResult(const ActionDecl &Action, const ValueRef &State,
                        const ValueRef &Arg) const;

  /// The relational precondition pre_a(arg1, arg2) (Sec. 3.2): `low(e)`
  /// atoms require e(arg1) == e(arg2); boolean atoms must hold of the
  /// argument in each execution; `c ==> low(e)` requires c to agree in both
  /// and, when true, e to agree.
  bool preHolds(const ActionDecl &Action, const ValueRef &Arg1,
                const ValueRef &Arg2) const;

  /// Unary projection of the precondition: whether \p Arg could legally be
  /// used in some execution pair (i.e. pre_a(Arg, Arg) holds). Useful for
  /// input generation and for the commutativity check's argument filter.
  bool preHoldsUnary(const ActionDecl &Action, const ValueRef &Arg) const {
    return preHolds(Action, Arg, Arg);
  }

  /// Whether the action is enabled in \p State (true if no enabled clause).
  bool isEnabled(const ActionDecl &Action, const ValueRef &State) const;

  /// Whether the spec's well-formedness invariant holds of \p State (true
  /// if no inv clause).
  bool invHolds(const ValueRef &State) const;

  /// The action's return-history function on \p State; only valid when the
  /// action declares one.
  ValueRef historyOf(const ActionDecl &Action, const ValueRef &State) const;

private:
  ValueRef evalAlpha(const ValueRef &State) const;
  ValueRef evalAction(const ActionDecl &Action, const ValueRef &State,
                      const ValueRef &Arg) const;

  const ResourceSpecDecl &Decl;
  const Program *Prog;
  ExprEvaluator Eval;
  std::shared_ptr<SpecEvalCache> Cache;
};

/// Sec. 3.5 consistency: \p Final is reachable from \p Initial by applying
/// every recorded argument exactly once, in *some* interleaving that keeps
/// each unique action's arguments in order (shared arguments may be
/// permuted). Bounded exhaustive search with memoization.
bool consistentWith(
    const RSpecRuntime &Runtime, const ValueRef &Initial,
    const std::map<std::string, ValueRef> &ArgsByAction, // ms or seq
    const ValueRef &Final);

} // namespace commcsl

#endif // COMMCSL_RSPEC_RSPEC_H
