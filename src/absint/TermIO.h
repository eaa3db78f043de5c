//===-- absint/TermIO.h - Canonical term serialization ----------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical s-expression serialization of absint terms, used by proof
/// certificates to record update templates and split-tree guards. The
/// round-trip is exact: `parseTerm(F, printTerm(T))` re-interns the same
/// structure (the parser uses the structure-preserving factory
/// constructors, never the normalizing ones), so terms printed from one
/// factory compare pointer-equal after parsing into another factory that
/// re-derived the same normal forms.
///
/// Grammar:
///   term := const | symbol
///         | (+ term term+) | (* term term+) | (/ term term) | (% term term)
///         | (= term term) | (< term term) | (<= term term) | (! term)
///         | (and term term+) | (or term term+) | (if term term term)
///         | (<builtin-name> term*)
///   const := INT | #t | #f | #u | "string"
///         | (#pair const const) | (#seq const*) | (#set const*)
///         | (#mset const*) | (#map {const const})
///
/// Fresh (numbered) symbols are verifier-only and print by their display
/// name; they never occur in certificate templates or guards.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_ABSINT_TERMIO_H
#define COMMCSL_ABSINT_TERMIO_H

#include "absint/Term.h"

namespace commcsl {
namespace absint {

/// Canonical rendering; byte-deterministic.
std::string printTerm(const ATerm *T);

/// Parses a printed term into \p F. Returns null on malformed input (never
/// throws); the whole input must be consumed.
const ATerm *parseTerm(TermFactory &F, const std::string &Text);

} // namespace absint
} // namespace commcsl

#endif // COMMCSL_ABSINT_TERMIO_H
