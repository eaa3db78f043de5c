//===-- solver/Solver.h - Congruence closure + bounds -----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The entailment engine the verifier discharges proof obligations with,
/// replacing the Viper/Z3 backend of the paper's HyperViper tool. It works
/// on the project's one term language (absint/Term.h), over terms the
/// verifier has normalized with absint's rewrite rules, and combines:
///
///  - congruence closure over the hash-consed terms (equalities propagate
///    through all operations, which carries `Low(alpha(v))` facts to
///    derived outputs);
///  - difference-bound reasoning for `<=` goals: a goal `a <= b` holds if
///    `b - a` normalizes to a non-negative constant modulo at most two
///    assumed `<=` facts (enough for loop-counter arithmetic). The bounds
///    are over mathematical integers, while `vops::add` wraps: a known,
///    documented incompleteness of the soundness story (DESIGN §13);
///  - contradiction tracking (a contradictory context proves anything —
///    standard for unreachable branches).
///
/// The engine sees every term through `solverArgs`: an n-ary AC node is a
/// left-nested binary chain. Certificates serialize terms the same way and
/// the independent checker (cert/Check.cpp) replays each recorded query with
/// its own copy of this procedure over those chains, so the verdicts agree
/// query for query.
///
/// Solvers are value types: branch verification clones the solver and the
/// two copies diverge.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SOLVER_SOLVER_H
#define COMMCSL_SOLVER_SOLVER_H

#include "solver/Proof.h"

#include <array>
#include <map>
#include <unordered_map>
#include <vector>

namespace commcsl {

/// The operands of a term as the solver and the certificate pool see them
/// (at most three). `Add`/`Mul`/`And`/`Or` nodes become binary: a leading
/// constant moves last (`c + x + y` is `(x + y) + c`), and three or more
/// remaining operands nest to the left (`x + y + z` is `(x + y) + z`). The
/// inner chain nodes are interned in \p F, so a prefix that also occurs on
/// its own is the same term. Every other node keeps its children.
struct SolverArgs {
  TermRef Arg[3] = {nullptr, nullptr, nullptr};
  unsigned N = 0;
  const TermRef *begin() const { return Arg; }
  const TermRef *end() const { return Arg + N; }
  TermRef operator[](unsigned I) const { return Arg[I]; }
};
SolverArgs solverArgs(absint::TermFactory &F, TermRef T);

/// Entailment context over a term factory.
class Solver {
public:
  explicit Solver(absint::TermFactory &F);

  /// Attaches a certificate recording sink (solver/Proof.h). Copies of this
  /// solver (branch states) inherit the pointer and their assumed prefix;
  /// the case-split engine's internal clones detach themselves.
  void attachProofLog(ProofLog *L) { Log = L; }

  /// Assumes a boolean term. Conjunctions are decomposed; equalities feed
  /// the congruence closure; `<=` facts feed the bounds engine; everything
  /// is also equated with `true` for propositional lookups.
  void assumeTrue(TermRef B);

  /// Assumes a == b.
  void assumeEq(TermRef A, TermRef B);

  /// Whether the context entails the boolean term \p B.
  bool provesTrue(TermRef B);

  /// Whether the context entails a == b.
  bool provesEq(TermRef A, TermRef B);

  /// Whether the assumed facts are contradictory (distinct constants were
  /// merged). A contradictory context proves everything.
  bool inContradiction() const { return Contradiction; }

private:
  /// Unlogged bodies of the assumption entry points. The public wrappers
  /// record the top-level fact (when a log is attached) and delegate here;
  /// internal recursion (conjunction decomposition, case-split hypotheses)
  /// uses these directly so only verification-context assumptions are
  /// logged.
  void assumeTrueImpl(TermRef B);
  void assumeEqImpl(TermRef A, TermRef B);

  // Union-find over the factory's dense term ids (lazily registered).
  uint32_t find(uint32_t Id);
  void registerTerm(TermRef T);
  void merge(TermRef A, TermRef B);

  /// Signature of a term under current representatives, for congruence:
  /// its operator tag and the representatives of its (at most three)
  /// solver arguments.
  using Signature = std::array<uint64_t, 4>;
  struct SignatureHash {
    size_t operator()(const Signature &S) const;
  };
  Signature signatureOf(TermRef T);

  /// Linear forms for the bounds engine: absint's linearization with each
  /// atom replaced by its congruence representative (or by the integer
  /// constant its class holds).
  struct LinForm {
    std::map<uint32_t, int64_t> Coeffs; ///< representative id -> coefficient
    int64_t Const = 0;

    void addScaled(const LinForm &O, int64_t K);
    bool isConst() const { return Coeffs.empty(); }
  };
  LinForm linearize(TermRef T);
  /// Whether `A + Bias <= B` follows from the assumed bounds.
  bool leImplied(TermRef A, TermRef B, int64_t Bias);

  /// `!B` the way the certificate checker builds it for case splits:
  /// constants fold, a double negation strips, anything else is wrapped.
  TermRef negate(TermRef B);

  /// Case-split fallback: find an undecided Ite condition in the goal and
  /// prove the goal under both polarities. Bounded depth; this is what
  /// discharges value-dependent sensitivity goals (`b ==> low(e)`) and
  /// unary postconditions of high conditionals.
  bool caseSplitTrue(TermRef B, unsigned Depth);
  bool caseSplitEq(TermRef A, TermRef B, unsigned Depth);
  TermRef findUndecidedIteCond(TermRef T, unsigned FuelDepth);

  /// Split-free cores of the entailment queries; the case-split wrappers
  /// call these so that the total number of splits stays bounded by the
  /// initial depth budget.
  bool provesEqCore(TermRef A, TermRef B);
  bool provesTrueCore(TermRef B);

  /// AC-chain matching: two flattened chains of the same associative-
  /// commutative operator are equal if their operands match up to
  /// congruence under some permutation (bounded backtracking). Handles the
  /// incompleteness of pairwise congruence on chains whose normal forms
  /// ordered congruent-but-distinct operands differently on the two
  /// execution sides.
  bool acChainsEq(TermRef A, TermRef B, unsigned Depth);
  void flattenAC(TermRef T, int Key, std::vector<TermRef> &Out);

  absint::TermFactory *F;
  TermRef True, False, Zero;
  bool Contradiction = false;

  /// Theory propagation hooks, run when a class changes:
  ///  - an Ite whose condition class holds a boolean constant collapses to
  ///    the corresponding branch (value-dependent sensitivity, Sec. 3.4);
  ///  - injective constructors (seq append, pair) that land in one class
  ///    propagate equalities to their arguments (needed to match recorded
  ///    action returns against a history function at unshare).
  void propagateClass(uint32_t Rep,
                      std::vector<std::pair<TermRef, TermRef>> &Pending);

  /// An assumed bound `X + Bias <= Y`.
  struct LeFact {
    TermRef X, Y;
    int64_t Bias;
  };

  /// Per-id state, indexed by the factory's dense term ids and grown on
  /// registration, so that cloning a solver for a branch copies flat
  /// arrays. Ids past the end are unregistered singleton classes.
  void reserveIds(uint32_t Id);
  std::vector<uint32_t> Parent;             ///< id -> parent id
  std::vector<uint8_t> Registered;          ///< id -> registered?
  std::vector<std::vector<TermRef>> Uses;   ///< rep -> users
  std::vector<TermRef> ClassConst;          ///< rep -> const member (or null)
  /// rep -> injective-constructor members (SeqAppend, PairMk) of the class.
  std::unordered_map<uint32_t, std::vector<TermRef>> CtorMembers;
  std::unordered_map<Signature, TermRef, SignatureHash> Sigs;
  std::vector<LeFact> LeFacts;
  std::vector<std::pair<TermRef, TermRef>> Disequals; ///< assumed a != b

  /// Certificate recording (null outside `--emit-cert` runs).
  ProofLog *Log = nullptr;
  std::vector<uint32_t> Assumed; ///< log fact indices visible to this solver
};

} // namespace commcsl

#endif // COMMCSL_SOLVER_SOLVER_H
