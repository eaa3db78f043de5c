//===-- cert/Check.h - Independent certificate checker ----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent certificate checker. It re-derives every step of a
/// certificate from the program AST alone:
///
///  - the program digest must match the parsed program;
///  - each spec unit's universe counts, sample digest, and algebraic family
///    are recomputed (cert/Evidence.h, cert/Algebra.h) and compared; a
///    "valid" claim requires every recomputed sample to hold, an "invalid"
///    claim requires the recorded counterexample to re-execute as a real
///    violation;
///  - each recorded entailment query is replayed on `CheckSolver` — a
///    self-contained port of the solver's decision procedure (congruence
///    closure, difference bounds, AC-chain matching, Ite case splits) over
///    interned pool ids — and must reproduce the recorded verdict. One
///    solver per proc follows the queries' contexts on its undo trail
///    (`ProcReplay`), so replay costs the facts that change between
///    consecutive queries, not the whole context of each;
///  - the final verdict must follow from the units: verified iff all specs
///    valid and all procs ok.
///
/// Trust story (DESIGN §12): the checker shares no code with the verifier
/// or solver libraries, so a bug (or injected fault) that makes the
/// verifier accept produces a certificate whose steps the checker cannot
/// re-derive. What remains trusted is obligation *enumeration* — that the
/// verifier emitted an obligation for every side condition the program
/// needs — and, for spec units, the probabilistic coverage of the sample
/// draws.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_CERT_CHECK_H
#define COMMCSL_CERT_CHECK_H

#include "cert/Cert.h"
#include "lang/Program.h"
#include "support/ComputeOnceMemo.h"

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace commcsl {
namespace cert {

/// Number of deterministic evidence samples drawn per spec unit, shared by
/// the emitter and the checker.
inline constexpr unsigned SampleDraws = 64;

/// Floors on the recorded universe caps: a certificate claiming a smaller
/// swept universe than the default validity configuration is rejected, so a
/// forged certificate cannot shrink its own evidence base.
inline constexpr uint64_t MinStatesCap = 300;
inline constexpr uint64_t MinArgsCap = 50;

struct CheckResult {
  bool Ok = true;
  std::string Error; ///< first failing step, human-readable
};

/// A content-keyed memo of spec-unit checks. A spec unit's check reads
/// only the unit, its declaration and the program's `function`
/// declarations, so the key is the printed form of all three and a forged
/// unit can never hit a genuine unit's entry. Lookups bump the stable
/// `cert.spec_check_memo.hits` / `.computed` metrics counters.
class SpecCheckMemo : public ComputeOnceMemo<CheckResult> {
public:
  SpecCheckMemo()
      : ComputeOnceMemo("cert.spec_check_memo.hits",
                        "cert.spec_check_memo.computed") {}
};

/// Checks \p C against \p Prog (which must be type-checked, so spec
/// expressions evaluate). Returns the first failing step. With \p Memo,
/// each distinct spec unit is checked once across every call sharing it.
/// Bumps the stable `cert.check.queries` / `cert.check.facts_assumed`
/// metrics counters.
CheckResult checkCertificate(const Certificate &C, const Program &Prog,
                             SpecCheckMemo *Memo = nullptr);

/// The solver port the query replay runs on. Public so unit tests can
/// exercise the decision procedure directly; everything operates on pool
/// ids of the attached TermPool (which grows when case splits intern new
/// negations).
///
/// Every mutation is logged on an undo trail: `undo(M)` restores exactly
/// the state `mark()` returned \p M in, so a solver can assume a fact,
/// decide a goal, and return to where it was. Case splits and the
/// incremental query replay both work this way instead of copying, and the
/// trail points into the solver's own maps, so a solver is not copyable.
class CheckSolver {
public:
  explicit CheckSolver(TermPool &Pool) : Pool(&Pool) {}
  CheckSolver(const CheckSolver &) = delete;
  CheckSolver &operator=(const CheckSolver &) = delete;

  void assume(const CertFact &F);
  void assumeTrue(uint32_t B);
  void assumeEq(uint32_t A, uint32_t B);
  /// Assumes the linear bound A + Bias <= B.
  void assumeLe(uint32_t A, uint32_t B, int64_t Bias);
  bool provesTrue(uint32_t B);
  bool provesEq(uint32_t A, uint32_t B);
  bool inContradiction() const { return Contradiction; }

  /// A point on the undo trail.
  struct Mark {
    size_t Trail, SigTrail, LeFacts, Disequals;
    bool Contradiction;
  };
  Mark mark() const {
    return {Trail.size(), SigTrail.size(), LeFacts.size(), Disequals.size(),
            Contradiction};
  }
  void undo(const Mark &M);

private:
  static constexpr uint32_t NoTerm = 0xFFFFFFFFu;

  using IdMap = std::unordered_map<uint32_t, uint32_t>;
  using ListMap = std::unordered_map<uint32_t, std::vector<uint32_t>>;
  using SigMap = std::map<std::vector<uint64_t>, uint32_t>;

  /// One logged mutation. Set: Map[Key] was Old (absent unless Existed).
  /// Register: Key was added to Registered.
  /// Push: a value was appended to List[Key] (created unless Existed).
  /// Move: Count values were moved from List[Key] (erased; it existed) to
  /// the end of List[To] (created unless ToExisted).
  struct Undo {
    enum class Op : uint8_t {
      SetParent, SetClassConst, Register, PushUses, PushCtor, MoveUses,
      MoveCtor
    } K;
    bool Existed = false, ToExisted = false;
    uint32_t Key = 0, Old = 0, To = 0, Count = 0;
  };

  void set(IdMap &Map, Undo::Op K, uint32_t Key, uint32_t Val);
  void push(ListMap &Map, Undo::Op K, uint32_t Key, uint32_t Val);
  /// Appends List[From] to List[To] and erases List[From]; returns the
  /// moved values.
  std::vector<uint32_t> moveList(ListMap &Map, Undo::Op K, uint32_t From,
                                 uint32_t To);
  void addSig(std::vector<uint64_t> Sig, uint32_t Id);
  /// Proves a goal under \p Cond and under its negation.
  bool splitOn(uint32_t Cond, const std::function<bool()> &Prove);

  uint32_t find(uint32_t Id);
  void registerTerm(uint32_t T);
  void merge(uint32_t A, uint32_t B);
  std::vector<uint64_t> signatureOf(uint32_t T);
  void propagateClass(uint32_t Rep,
                      std::vector<std::pair<uint32_t, uint32_t>> &Pending);

  struct LinForm {
    std::map<uint32_t, int64_t> Coeffs;
    int64_t Const = 0;
    void addScaled(const LinForm &O, int64_t K);
    bool isConst() const { return Coeffs.empty(); }
  };
  /// One assumed bound X + Bias <= Y. Bounds carry an explicit bias instead
  /// of a normalized `x + 1` term, which is what lets this checker avoid
  /// reimplementing the arena's normalizing constructors.
  struct LeFact {
    uint32_t X, Y;
    int64_t Bias;
  };
  LinForm linearize(uint32_t T);
  bool leImplied(uint32_t A, uint32_t B, int64_t Bias);

  bool caseSplitTrue(uint32_t B, unsigned Depth);
  bool caseSplitEq(uint32_t A, uint32_t B, unsigned Depth);
  uint32_t findUndecidedIteCond(uint32_t T, unsigned FuelDepth);
  bool provesEqCore(uint32_t A, uint32_t B);
  bool provesTrueCore(uint32_t B);
  bool acChainsEq(uint32_t A, uint32_t B, unsigned Depth);

  TermPool *Pool;
  bool Contradiction = false;
  IdMap Parent;
  std::unordered_set<uint32_t> Registered;
  ListMap Uses; ///< rep -> terms with an argument in its class
  IdMap ClassConst; ///< rep -> const term id
  ListMap CtorMembers;
  SigMap Sigs;
  std::vector<LeFact> LeFacts;
  std::vector<std::pair<uint32_t, uint32_t>> Disequals;
  std::vector<Undo> Trail;
  std::vector<SigMap::iterator> SigTrail; ///< Sigs entries, in insertion order
};

/// Replays one proc unit's recorded queries incrementally on a single
/// CheckSolver. The solver holds the facts of the previous query's
/// context, one trail mark per fact; a query undoes back to the longest
/// prefix its own context shares with them, assumes the rest, and is
/// decided between a mark and an undo. Every verdict equals the one a
/// fresh solver that assumed the whole context would reach: the trail
/// restores exact state, and the shared pool interns terms in the same
/// first-seen order.
class ProcReplay {
public:
  ProcReplay(const CertProcUnit &P, TermPool &Pool) : P(P), S(Pool) {}

  /// Decides \p Q under exactly its recorded context.
  bool decide(const CertQuery &Q);
  uint64_t queries() const { return Queries; }
  uint64_t factsAssumed() const { return FactsAssumed; }

private:
  const CertProcUnit &P;
  CheckSolver S;
  std::vector<uint32_t> Assumed;       ///< fact indices, in assumption order
  std::vector<CheckSolver::Mark> Marks; ///< Marks[I]: state before Assumed[I]
  uint64_t Queries = 0, FactsAssumed = 0;
};

} // namespace cert
} // namespace commcsl

#endif // COMMCSL_CERT_CHECK_H
