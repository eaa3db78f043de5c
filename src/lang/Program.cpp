//===-- lang/Program.cpp - Top-level program structure ---------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "lang/Program.h"

#include <sstream>

using namespace commcsl;

std::string ContractAtom::str() const {
  std::ostringstream OS;
  switch (AtomKind) {
  case Kind::Low:
    if (Level) {
      OS << "level(" << E->str() << ") = if " << Cond->str()
         << " then low else high";
      break;
    }
    if (Cond)
      OS << Cond->str() << " ==> ";
    OS << "low(" << E->str() << ")";
    break;
  case Kind::Bool:
    OS << E->str();
    break;
  case Kind::SGuard:
    OS << "sguard(" << Res << "." << Action << ", " << FracNum << "/"
       << FracDen << ", " << (ArgsEmpty ? "empty" : ArgVar) << ")";
    break;
  case Kind::UGuard:
    OS << "uguard(" << Res << "." << Action << ", "
       << (ArgsEmpty ? "empty" : ArgVar) << ")";
    break;
  case Kind::AllPre:
    OS << "allpre(" << Res << "." << Action << ", " << ArgVar << ")";
    break;
  }
  return OS.str();
}

std::string commcsl::contractStr(const Contract &C) {
  std::ostringstream OS;
  for (size_t I = 0; I < C.size(); ++I)
    OS << (I ? " && " : "") << C[I].str();
  if (C.empty())
    OS << "true";
  return OS.str();
}

namespace {
void printParams(std::ostringstream &OS, const std::vector<Param> &Params) {
  for (size_t I = 0; I < Params.size(); ++I)
    OS << (I ? ", " : "") << Params[I].Name << ": " << Params[I].Ty->str();
}
} // namespace

std::string Program::funcsStr() const {
  std::ostringstream OS;
  for (const FuncDecl &F : Funcs) {
    OS << "function " << F.Name << "(";
    printParams(OS, F.Params);
    OS << "): " << F.RetTy->str() << " = " << F.Body->str() << ";\n\n";
  }
  return OS.str();
}

std::string ResourceSpecDecl::str() const {
  std::ostringstream OS;
  OS << "resource " << Name << " {\n";
  OS << "  state: " << StateTy->str() << ";\n";
  OS << "  alpha(" << AlphaParam << ") = " << Alpha->str() << ";\n";
  if (Inv)
    OS << "  inv(" << AlphaParam << ") = " << Inv->str() << ";\n";
  // Scope hints bound the validity checker's enumeration; dropping them
  // on reprint would silently change the Def. 3.1 verdict of a
  // print/parse round trip. Only non-default hints are materialized.
  ResourceSpecDecl Defaults;
  if (ScopeIntLo != Defaults.ScopeIntLo || ScopeIntHi != Defaults.ScopeIntHi)
    OS << "  scope int " << ScopeIntLo << " .. " << ScopeIntHi << ";\n";
  if (ScopeCollectionBound != Defaults.ScopeCollectionBound)
    OS << "  scope size " << ScopeCollectionBound << ";\n";
  for (const ActionDecl &A : Actions) {
    OS << "  " << (A.Unique ? "unique" : "shared") << " action " << A.Name
       << "(" << A.ArgName << ": " << A.ArgTy->str() << ") {\n";
    OS << "    apply(" << A.StateName << ", " << A.ArgName
       << ") = " << A.Apply->str() << ";\n";
    if (A.Returns)
      OS << "    returns(" << A.StateName << ", " << A.ArgName
         << ") = " << A.Returns->str() << ";\n";
    if (A.Enabled)
      OS << "    enabled(" << A.StateName << ") = " << A.Enabled->str()
         << ";\n";
    if (A.History)
      OS << "    history(" << A.StateName << ") = " << A.History->str()
         << ";\n";
    if (!A.Pre.empty())
      OS << "    requires " << contractStr(A.Pre) << ";\n";
    OS << "  }\n";
  }
  OS << "}\n\n";
  return OS.str();
}

std::string Program::str() const {
  std::ostringstream OS;
  OS << funcsStr();
  for (const ResourceSpecDecl &S : Specs)
    OS << S.str();
  for (const ProcDecl &P : Procs) {
    OS << "procedure " << P.Name << "(";
    printParams(OS, P.Params);
    OS << ")";
    if (!P.Returns.empty()) {
      OS << " returns (";
      printParams(OS, P.Returns);
      OS << ")";
    }
    OS << "\n";
    if (!P.Requires.empty())
      OS << "  requires " << contractStr(P.Requires) << ";\n";
    if (!P.Ensures.empty())
      OS << "  ensures " << contractStr(P.Ensures) << ";\n";
    OS << P.Body->str(0) << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Structural equality and statement counting
//===----------------------------------------------------------------------===//

namespace {

bool paramsEqual(const std::vector<Param> &A, const std::vector<Param> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Name != B[I].Name || !Type::equal(A[I].Ty, B[I].Ty))
      return false;
  return true;
}

bool actionsEqual(const ActionDecl &A, const ActionDecl &B) {
  return A.Name == B.Name && A.Unique == B.Unique && A.ArgName == B.ArgName &&
         Type::equal(A.ArgTy, B.ArgTy) && A.StateName == B.StateName &&
         structurallyEqual(A.Apply, B.Apply) &&
         structurallyEqual(A.Returns, B.Returns) &&
         structurallyEqual(A.Enabled, B.Enabled) &&
         structurallyEqual(A.History, B.History) &&
         structurallyEqual(A.Pre, B.Pre);
}

} // namespace

bool commcsl::structurallyEqual(const Program &A, const Program &B) {
  if (A.Funcs.size() != B.Funcs.size() || A.Specs.size() != B.Specs.size() ||
      A.Procs.size() != B.Procs.size())
    return false;
  for (size_t I = 0; I < A.Funcs.size(); ++I) {
    const FuncDecl &F = A.Funcs[I], &G = B.Funcs[I];
    if (F.Name != G.Name || !paramsEqual(F.Params, G.Params) ||
        !Type::equal(F.RetTy, G.RetTy) || !structurallyEqual(F.Body, G.Body))
      return false;
  }
  for (size_t I = 0; I < A.Specs.size(); ++I) {
    const ResourceSpecDecl &S = A.Specs[I], &T = B.Specs[I];
    if (S.Name != T.Name || !Type::equal(S.StateTy, T.StateTy) ||
        S.AlphaParam != T.AlphaParam ||
        !structurallyEqual(S.Alpha, T.Alpha) ||
        !structurallyEqual(S.Inv, T.Inv) ||
        S.ScopeIntLo != T.ScopeIntLo || S.ScopeIntHi != T.ScopeIntHi ||
        S.ScopeCollectionBound != T.ScopeCollectionBound ||
        S.Actions.size() != T.Actions.size())
      return false;
    for (size_t J = 0; J < S.Actions.size(); ++J)
      if (!actionsEqual(S.Actions[J], T.Actions[J]))
        return false;
  }
  for (size_t I = 0; I < A.Procs.size(); ++I) {
    const ProcDecl &P = A.Procs[I], &Q = B.Procs[I];
    if (P.Name != Q.Name || !paramsEqual(P.Params, Q.Params) ||
        !paramsEqual(P.Returns, Q.Returns) ||
        !structurallyEqual(P.Requires, Q.Requires) ||
        !structurallyEqual(P.Ensures, Q.Ensures) ||
        !structurallyEqual(P.Body, Q.Body))
      return false;
  }
  return true;
}

unsigned commcsl::countStatements(const CommandRef &C) {
  if (!C)
    return 0;
  unsigned N = C->Kind == CmdKind::Block ? 0 : 1;
  for (const CommandRef &Child : C->Children)
    N += countStatements(Child);
  return N;
}

unsigned commcsl::countStatements(const Program &P) {
  unsigned N = 0;
  for (const ProcDecl &Proc : P.Procs)
    N += countStatements(Proc.Body);
  return N;
}
