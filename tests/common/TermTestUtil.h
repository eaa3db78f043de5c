//===-- tests/common/TermTestUtil.h - Normalizing term builder --*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds terms the way the verifier does: each operator node is made by
/// absint's shared operator translation (the one `translateExpr` uses) and
/// then brought into normal form by absint's rewrite rules under no facts.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_TESTS_TERMTESTUTIL_H
#define COMMCSL_TESTS_TERMTESTUTIL_H

#include "absint/Differencing.h"
#include "absint/Normalize.h"
#include "solver/Proof.h"

#include <gtest/gtest.h>

namespace commcsl {
namespace test {

class NormArena {
public:
  NormArena() : NoFacts(F), N(F, NoFacts) {}

  absint::TermFactory F;

  TermRef norm(TermRef T) {
    TermRef R = N.normalize(T);
    EXPECT_TRUE(R) << "normalization budget exhausted";
    return R ? R : T;
  }

  TermRef constant(ValueRef V) { return F.constant(std::move(V)); }
  TermRef intConst(int64_t V) { return F.intConst(V); }
  TermRef boolConst(bool V) { return F.boolConst(V); }
  TermRef freshSym(const std::string &Name) { return F.freshSym(Name); }

  TermRef unary(UnaryOp Op, TermRef A) {
    return norm(absint::translateUnary(F, Op, A));
  }
  TermRef binary(BinaryOp Op, TermRef A, TermRef B) {
    return norm(absint::translateBinary(F, Op, A, B));
  }
  TermRef builtin(BuiltinKind K, std::vector<TermRef> Args) {
    if (K == BuiltinKind::Ite)
      return norm(F.ite(Args[0], Args[1], Args[2]));
    return norm(F.bi(K, std::move(Args)));
  }

  TermRef add(TermRef A, TermRef B) { return binary(BinaryOp::Add, A, B); }
  TermRef sub(TermRef A, TermRef B) { return binary(BinaryOp::Sub, A, B); }
  TermRef eq(TermRef A, TermRef B) { return binary(BinaryOp::Eq, A, B); }
  TermRef le(TermRef A, TermRef B) { return binary(BinaryOp::Le, A, B); }
  TermRef logAnd(TermRef A, TermRef B) { return binary(BinaryOp::And, A, B); }
  TermRef logNot(TermRef A) { return unary(UnaryOp::Not, A); }

  size_t size() const { return F.size(); }

private:
  absint::FactCtx NoFacts;
  absint::Normalizer N;
};

} // namespace test
} // namespace commcsl

#endif // COMMCSL_TESTS_TERMTESTUTIL_H
