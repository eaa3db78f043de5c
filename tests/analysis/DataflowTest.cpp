//===-- tests/analysis/DataflowTest.cpp - Dataflow framework tests ---------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the generic monotone worklist solver on a simple problem
/// phrased directly against the CFG: forward reachability ("which nodes can
/// execute"). It has a known closed form on small graphs, so the fixpoint is
/// checked exactly; solving twice must give identical results
/// (determinism).
///
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "analysis/CFG.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

/// Builds a CFG over \p Prog (kept alive by the caller: CFG holds
/// pointers into the program's AST).
CFG buildCFG(Program &Prog, const std::string &Source) {
  Prog = parseChecked(Source);
  const ProcDecl *Proc = Prog.findProc("main");
  EXPECT_NE(Proc, nullptr);
  return CFG::build(*Proc);
}

/// Forward may-reach: State is "control can get here" (0/1 — int rather
/// than bool so DataflowResult's vectors are real containers, not the
/// std::vector<bool> proxy).
struct ReachProblem {
  using State = int;
  State bottom(const CFG &) const { return 0; }
  State boundary(const CFG &) const { return 1; }
  bool join(State &Into, const State &From) const {
    if (Into || !From)
      return false;
    Into = 1;
    return true;
  }
  State transfer(const CFG &, unsigned, const State &In) const { return In; }
};

} // namespace

TEST(DataflowTest, ForwardReachabilityCoversConnectedGraph) {
  Program Prog;
  CFG G = buildCFG(Prog, "procedure main(l: int) returns (out: int)\n"
                   "  requires low(l)\n"
                   "  ensures low(out)\n"
                   "{\n"
                   "  var i: int := 0;\n"
                   "  while (i < l) invariant low(i) { i := i + 1; }\n"
                   "  if (i > 2) { out := 1; } else { out := 0; }\n"
                   "}\n");
  ReachProblem P;
  DataflowResult<ReachProblem> R = solveDataflow(G, P);
  ASSERT_EQ(R.Out.size(), G.size());
  for (unsigned I = 0; I < G.size(); ++I)
    EXPECT_TRUE(R.Out[I]) << "node " << I << " unreachable in fixpoint";
}

TEST(DataflowTest, SolvingTwiceIsIdentical) {
  Program Prog;
  CFG G = buildCFG(Prog, "procedure main(l: int, h: int) returns (out: int)\n"
                   "  requires low(l)\n"
                   "  ensures low(out)\n"
                   "{\n"
                   "  var a: int := 0;\n"
                   "  var b: int := 0;\n"
                   "  par { a := l; } and { b := h; }\n"
                   "  out := a;\n"
                   "}\n");
  ReachProblem P1, P2;
  DataflowResult<ReachProblem> R1 = solveDataflow(G, P1);
  DataflowResult<ReachProblem> R2 = solveDataflow(G, P2);
  EXPECT_EQ(R1.In, R2.In);
  EXPECT_EQ(R1.Out, R2.Out);
}
