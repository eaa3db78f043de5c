//===-- lang/Program.h - Top-level program structure ------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Top-level declarations of a surface program: pure functions, resource
/// specifications (Sec. 2.4 / 3.2: abstraction function, shared and unique
/// actions with relational preconditions), and procedures with relational
/// contracts.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_LANG_PROGRAM_H
#define COMMCSL_LANG_PROGRAM_H

#include "lang/Command.h"
#include "lang/Contract.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace commcsl {

/// A typed formal parameter / return variable.
struct Param {
  std::string Name;
  TypeRef Ty;
  SourceLoc Loc;
};

/// A user-defined pure, non-recursive function, inlined at use sites.
struct FuncDecl {
  std::string Name;
  std::vector<Param> Params;
  TypeRef RetTy;
  ExprRef Body;
  SourceLoc Loc;
};

/// A declared action of a resource specification. `Apply` is the action
/// function f_a(v, arg); `Returns` optionally describes a value handed back
/// to the performing thread, evaluated on the pre-state (used to model
/// consuming from a queue). `Pre` is the *relational* precondition over the
/// argument: `low(e)` atoms relate both executions' arguments; boolean atoms
/// must hold of the argument in each execution separately.
struct ActionDecl {
  std::string Name;
  bool Unique = false;
  std::string ArgName;
  TypeRef ArgTy;
  std::string StateName; ///< name binding the state value inside Apply.
  ExprRef Apply;         ///< f_a: expression over {StateName, ArgName}.
  ExprRef Returns;       ///< optional; over {StateName, ArgName}; may be null.
  Contract Pre;          ///< atoms over ArgName only (Low / Bool).

  /// Optional enabledness condition over {StateName}: a thread executing
  /// `atomic r when A {..}` blocks until this holds (the paper's
  /// `atomic c when e`, App. D). Null means always enabled.
  ExprRef Enabled;

  /// Optional (unique actions with Returns only) return-history function
  /// over {StateName}: the sequence of values this action has returned so
  /// far, as a function of the current state. Checked for coherence by the
  /// validity checker; lets the verifier recover the low-ness of recorded
  /// returns from the final state's abstraction at unshare (this is what
  /// makes the paper's Pipeline example work retroactively).
  ExprRef History;

  SourceLoc Loc;
};

/// A resource specification: state type, abstraction function alpha, and the
/// legal actions (Fig. 4). Scope hints bound the validity checker's
/// enumeration domains.
struct ResourceSpecDecl {
  std::string Name;
  TypeRef StateTy;
  std::string AlphaParam;
  ExprRef Alpha;

  /// Optional well-formedness invariant over reachable states (bound to
  /// AlphaParam). Not used for the Def. 3.1 commutativity check — that must
  /// hold on all states, including the "impossible" intermediate states of
  /// permuted schedules (App. D) — but it filters the start states of the
  /// history-coherence simulation and is itself checked to be preserved by
  /// enabled actions and to hold of shared initial values.
  ExprRef Inv;

  std::vector<ActionDecl> Actions;
  // Small-scope bounds for the Def. 3.1 validity check.
  int64_t ScopeIntLo = -2;
  int64_t ScopeIntHi = 2;
  unsigned ScopeCollectionBound = 3;
  SourceLoc Loc;

  const ActionDecl *findAction(const std::string &ActionName) const {
    for (const ActionDecl &A : Actions)
      if (A.Name == ActionName)
        return &A;
    return nullptr;
  }

  /// Renders the declaration in surface syntax (as Program::str does).
  std::string str() const;
};

/// A procedure with relational contracts.
struct ProcDecl {
  std::string Name;
  std::vector<Param> Params;
  std::vector<Param> Returns;
  Contract Requires;
  Contract Ensures;
  CommandRef Body;
  SourceLoc Loc;

  const Param *findParam(const std::string &Name_) const {
    for (const Param &P : Params)
      if (P.Name == Name_)
        return &P;
    return nullptr;
  }

  const Param *findReturn(const std::string &Name_) const {
    for (const Param &P : Returns)
      if (P.Name == Name_)
        return &P;
    return nullptr;
  }
};

/// A parsed surface program.
struct Program {
  std::vector<FuncDecl> Funcs;
  std::vector<ResourceSpecDecl> Specs;
  std::vector<ProcDecl> Procs;

  const FuncDecl *findFunc(const std::string &Name) const {
    for (const FuncDecl &F : Funcs)
      if (F.Name == Name)
        return &F;
    return nullptr;
  }

  const ResourceSpecDecl *findSpec(const std::string &Name) const {
    for (const ResourceSpecDecl &S : Specs)
      if (S.Name == Name)
        return &S;
    return nullptr;
  }

  const ProcDecl *findProc(const std::string &Name) const {
    for (const ProcDecl &P : Procs)
      if (P.Name == Name)
        return &P;
    return nullptr;
  }

  /// Renders the whole program in surface syntax.
  std::string str() const;
  /// Renders the function declarations only, in declaration order.
  std::string funcsStr() const;
};

/// Structural equality of whole programs: same declarations in the same
/// order, with structurally equal types, expressions, contracts, and
/// bodies. Source locations and type-checker annotations are ignored, so
/// `structurallyEqual(parse(print(P)), P)` is the printer's correctness
/// property.
bool structurallyEqual(const Program &A, const Program &B);

/// Number of executable statements in the program: every command node
/// except pure `Block` containers. The shrinker reports its progress in
/// this measure.
unsigned countStatements(const Program &P);
unsigned countStatements(const CommandRef &C);

} // namespace commcsl

#endif // COMMCSL_LANG_PROGRAM_H
