//===-- cert/Cert.h - Checkable proof certificates --------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checkable proof-certificate format (DESIGN §12). A certificate is the
/// verifier's claim, made explicit: per resource specification the validity
/// evidence (scope, recomputable sample digest, matched algebraic family,
/// counterexample when invalid), and per procedure the entailment queries the
/// symbolic engine discharged — each with its goal, its assumption context,
/// and the verdict — tied to the CommCSL side conditions by obligation
/// labels. The independent checker (cert/Check.h) re-derives every step from
/// the program AST alone.
///
/// Serialization is a compact LFSC-like s-expression format with interned
/// terms (per-proc term pools, `@id` back-references), following the
/// proof-checker idiom of hand-rolled lexing and term interning. The printer
/// is canonical: printing the same certificate always yields the same bytes,
/// which is what makes golden certificates and the warm-vs-cold byte-identity
/// contract of the serve daemon testable.
///
/// This library deliberately depends only on `commcsl_lang`,
/// `commcsl_value` (the AST and the pure value domain), and
/// `commcsl_absint` (the shared equational core that split-tree replay
/// needs, cert/AbsCheck.h) — never on the solver or verifier it audits.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_CERT_CERT_H
#define COMMCSL_CERT_CERT_H

#include "lang/Expr.h"
#include "value/Value.h"

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace commcsl {
namespace cert {

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

/// FNV-1a 64-bit, the certificate's digest primitive (stable across
/// platforms; no dependence on std::hash).
inline uint64_t fnv64(const void *Data, size_t N, uint64_t H = 0xcbf29ce484222325ULL) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

inline uint64_t fnv64(const std::string &S, uint64_t H = 0xcbf29ce484222325ULL) {
  return fnv64(S.data(), S.size(), H);
}

/// String-literal overload. Without it `fnv64("x", H)` silently prefers the
/// raw-pointer overload above with H as the byte count.
inline uint64_t fnv64(const char *S, uint64_t H = 0xcbf29ce484222325ULL) {
  return fnv64(S, std::char_traits<char>::length(S), H);
}

/// splitmix64, the certificate's deterministic sample-derivation PRNG.
inline uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Term pool
//===----------------------------------------------------------------------===//

/// A certificate term: the serialized image of a verifier term as the
/// solver sees it (solver/Solver.h `solverArgs`: n-ary sums, products and
/// connectives as binary chains), over the lang operator enums
/// (Const / Sym / Unary / Binary / Builtin). It lives in a plain indexed
/// pool — `Args` hold pool ids, and interning makes id equality coincide
/// with structural equality (the pool-id analogue of hash-consing).
struct CTerm {
  enum class Kind : uint8_t { Const, Sym, Unary, Binary, Builtin };

  Kind K = Kind::Const;
  UnaryOp UOp = UnaryOp::Neg;
  BinaryOp BOp = BinaryOp::Add;
  BuiltinKind BK = BuiltinKind::PairMk;
  ValueRef ConstVal;       ///< Const payload
  uint32_t SymId = 0;      ///< Sym payload (identity)
  std::string SymName;     ///< Sym payload (display only)
  std::vector<uint32_t> Args; ///< pool ids of operands

  bool isConst() const { return K == Kind::Const; }
  bool isConstInt(int64_t V) const {
    return isConst() && ConstVal->isInt() && ConstVal->getInt() == V;
  }
  bool isTrue() const {
    return isConst() && ConstVal->isBool() && ConstVal->getBool();
  }
  bool isFalse() const {
    return isConst() && ConstVal->isBool() && !ConstVal->getBool();
  }
};

/// An interning term pool. Ids are dense and stable; structurally equal
/// terms share one id.
class TermPool {
public:
  uint32_t constant(ValueRef V);
  uint32_t intConst(int64_t V);
  uint32_t boolConst(bool V);
  uint32_t sym(uint32_t SymId, std::string Name);
  uint32_t unary(UnaryOp Op, uint32_t A);
  uint32_t binary(BinaryOp Op, uint32_t A, uint32_t B);
  uint32_t builtin(BuiltinKind BK, std::vector<uint32_t> Args);

  /// `not(A)` with the arena's Not normalization replicated: constants fold,
  /// double negation strips, everything else interns a raw Not node. Keeps
  /// checker-constructed case-split conditions identical to emitted terms.
  uint32_t mkNot(uint32_t A);

  const CTerm &at(uint32_t Id) const { return Terms[Id]; }
  size_t size() const { return Terms.size(); }

private:
  uint32_t intern(CTerm T);

  std::vector<CTerm> Terms;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
};

//===----------------------------------------------------------------------===//
// Certificate document model
//===----------------------------------------------------------------------===//

/// A logged assumption: `eq A B`, `true A`, or the linear bound
/// `A + Bias <= B` (kind Le). Bounds carry an explicit bias so the checker
/// never needs the arena's normalizing `add` constructor.
struct CertFact {
  enum class Kind : uint8_t { Eq, True, Le };
  Kind K = Kind::True;
  uint32_t A = 0;
  uint32_t B = 0;
  int64_t Bias = 0;
};

/// One entailment query the solver answered under an obligation: goal
/// (provesEq A B / provesTrue A), the assumption context (indices into the
/// proc unit's fact list, in assumption order), and the recorded verdict.
struct CertQuery {
  bool IsEq = false;
  uint32_t A = 0;
  uint32_t B = 0;
  bool Proved = false;
  std::vector<uint32_t> Ctx;
};

/// One proof obligation (a CommCSL side condition instance), labeled by its
/// discharge site ("postcondition", "share: invariant", ...).
struct CertObligation {
  std::string Label;
  bool Ok = false;
  std::vector<CertQuery> Queries;
};

/// Per-procedure certificate unit.
struct CertProcUnit {
  std::string Name;
  bool Ok = false;
  /// Set when the proc was rejected for a structural reason (missing guard
  /// fraction, heap misuse, ...) rather than a failed entailment.
  bool StructuralFail = false;
  TermPool Pool;
  std::vector<CertFact> Facts;
  std::vector<CertObligation> Obligations;
};

/// A validity counterexample, re-executable by the checker.
struct CertCE {
  enum class Prop : uint8_t { Precondition, Commutativity, History, Invariant };
  Prop P = Prop::Commutativity;
  std::string ActionA, ActionB;
  ValueRef V1, V2, Arg1, Arg2, AlphaLeft, AlphaRight; ///< any may be null
};

/// Known commutative families the algebraic tier can match syntactically
/// (cert/Algebra.h). `None` means only enumeration evidence backs the spec.
enum class Family : uint8_t { None, ConstantAbstraction, AcUpdate };

/// One recorded differencing-tier obligation (DESIGN §13): the A'
/// low-preservation proof of an action (`IsPre`, ActionB empty) or the B1
/// commutation proof of an action pair. `Tree` is the recorded split tree,
/// flattened pre-order — a node with a non-empty guard (a serialized absint
/// term, absint/TermIO.h) is followed by its then- and else-subtrees; an
/// empty string is a leaf. Only *proved* obligations are recorded; the
/// checker re-derives both sides of each one from the program AST and
/// replays the tree without searching.
struct CertAbsOb {
  bool IsPre = true;
  std::string ActionA, ActionB;
  std::vector<std::string> Tree;
};

/// Recorded unbounded-validity evidence: the normalized abstraction's
/// component count, the per-action update templates the factorization
/// produced, and the proved obligations. The templates are the claim the
/// checker audits semantically — it re-derives each from alpha and the
/// action body and compares structurally, so a certificate recording a
/// corrupted template (or tree) is rejected even though the analysis
/// verdict it shipped with was honest.
struct CertAbsSection {
  bool Unbounded = false; ///< whole spec proved for the unbounded domains
  uint32_t NumComps = 0;  ///< pair-tree components of normalized alpha(s)
  std::vector<std::pair<std::string, std::string>> Templates; ///< action, U
  std::vector<CertAbsOb> Obligations;
};

/// Per-specification certificate unit. The universe counts and the sample
/// digest are recomputable from the program AST alone (cert/Evidence.h);
/// the bounded/random check counts are informational.
struct CertSpecUnit {
  std::string Name;
  bool Valid = false;
  int64_t ScopeLo = -2, ScopeHi = 2;
  unsigned ScopeBound = 3;
  uint64_t StatesCap = 0, ArgsCap = 0;
  uint64_t NumStates = 0, NumAlphaPairs = 0;
  std::vector<std::pair<std::string, uint64_t>> ArgCounts;
  unsigned SampleCount = 0;
  uint64_t SampleDigest = 0;
  Family Fam = Family::None;
  std::string FamilyOp; ///< AcUpdate: the shared operator's surface name
  uint64_t BoundedChecks = 0, RandomChecks = 0;
  /// Differencing-tier evidence; absent when the tier was off or the
  /// abstraction was not translatable.
  std::optional<CertAbsSection> Absint;
  std::optional<CertCE> CE;
};

/// A whole-program certificate.
struct Certificate {
  std::string ProgramName;
  uint64_t ProgramDigest = 0; ///< fnv64 of Program::str()
  bool Verified = false;
  std::vector<CertSpecUnit> Specs;
  std::vector<CertProcUnit> Procs;
};

//===----------------------------------------------------------------------===//
// Printing / parsing
//===----------------------------------------------------------------------===//

/// Canonical s-expression rendering (byte-deterministic).
std::string print(const Certificate &C);

/// Canonical rendering of one spec unit, as `print` embeds it.
std::string printSpecUnit(const CertSpecUnit &S);

/// Parses a printed certificate. Returns std::nullopt and sets \p Error on
/// malformed input.
std::optional<Certificate> parse(const std::string &Text, std::string *Error);

/// Canonical s-expression rendering of a value (`(i 3)`, `(sq ...)`, ...),
/// shared by the printer and the evidence digests.
std::string printValue(const ValueRef &V);

/// Structural equality of certificates (the printer/parser round-trip
/// property). Term pools compare by structure, not id layout.
bool structurallyEqual(const Certificate &A, const Certificate &B);

} // namespace cert
} // namespace commcsl

#endif // COMMCSL_CERT_CERT_H
