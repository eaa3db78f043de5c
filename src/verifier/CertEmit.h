//===-- verifier/CertEmit.h - Certificate emission --------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts the verifier's in-memory evidence into certificate units
/// (cert/Cert.h): a recorded ProofLog becomes a per-procedure unit with an
/// interned term pool, and a spec validity result becomes a per-spec unit
/// with recomputable enumeration evidence. Emission lives on the verifier
/// side of the trust boundary — the independent checker never calls it.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_VERIFIER_CERTEMIT_H
#define COMMCSL_VERIFIER_CERTEMIT_H

#include "cert/Cert.h"
#include "lang/Program.h"
#include "rspec/Validity.h"
#include "solver/Proof.h"

namespace commcsl {

/// Builds the per-procedure certificate unit from the recorded proof log,
/// whose terms live in \p F. \p Ok is the verifier's verdict; a failed proc
/// whose recorded obligations all succeeded is marked as a structural
/// failure.
cert::CertProcUnit buildProcCertUnit(const ProofLog &Log,
                                     absint::TermFactory &F,
                                     const std::string &Name, bool Ok);

/// Builds the per-spec certificate unit: declared scope, universe caps from
/// \p Cfg, recomputable evidence (cert/Evidence.h), matched algebraic family
/// (cert/Algebra.h), tier check counts, and — for honest invalid verdicts —
/// the re-executable counterexample. With \p Forge, an invalid spec is
/// claimed valid and its counterexample dropped.
cert::CertSpecUnit buildSpecCertUnit(const ResourceSpecDecl &Spec,
                                     const Program &Prog,
                                     const ValidityConfig &Cfg,
                                     const ValidityResult &R, bool Forge);

} // namespace commcsl

#endif // COMMCSL_VERIFIER_CERTEMIT_H
