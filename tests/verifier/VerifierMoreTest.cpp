//===-- tests/verifier/VerifierMoreTest.cpp - More verifier cases ----------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Additional verifier coverage: heap reasoning, ghost asserts over guards,
/// sequential resource lifecycles, loop/guard interaction edge cases, and
/// value-dependent action preconditions.
///
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

DiagnosticEngine verify(const std::string &Source, bool &Ok) {
  Program P = parseChecked(Source);
  DiagnosticEngine Diags;
  VerifierConfig Cfg;
  Cfg.Validity.MaxStates = 120;
  Cfg.Validity.MaxArgs = 30;
  Cfg.Validity.MaxChecksPerProperty = 30000;
  Cfg.Validity.RandomRounds = 300;
  Verifier V(P, Diags, Cfg);
  Ok = V.verifyAll().Ok;
  return Diags;
}

void expectVerifies(const std::string &Source) {
  bool Ok = false;
  DiagnosticEngine D = verify(Source, Ok);
  EXPECT_TRUE(Ok) << D.str();
}

void expectRejected(const std::string &Source, DiagCode Code) {
  bool Ok = false;
  DiagnosticEngine D = verify(Source, Ok);
  EXPECT_FALSE(Ok) << "expected rejection";
  EXPECT_TRUE(D.hasErrorWithCode(Code))
      << "expected code " << diagCodeName(Code) << ", got:\n"
      << D.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Heap reasoning
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, HeapCellsCarryLowness) {
  expectVerifies(R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var p: int := 0;
      var x: int := 0;
      p := alloc(l);
      [p] := l + 1;
      x := [p];
      out := x;
    }
  )");
}

TEST(VerifierMoreTest, HighHeapValueMayNotLeak) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var p: int := 0;
      var x: int := 0;
      p := alloc(h);
      x := [p];
      out := x;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierMoreTest, UnknownLocationRejected) {
  expectRejected(R"(
    procedure main() returns (out: int)
      ensures low(out)
    {
      out := [77];
    }
  )",
                 DiagCode::VerifyHeap);
}

TEST(VerifierMoreTest, HeapWriteUnderLowBranchJoins) {
  expectVerifies(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var p: int := 0;
      p := alloc(0);
      if (l > 0) { [p] := 1; } else { [p] := 2; }
      out := [p];
    }
  )");
}

TEST(VerifierMoreTest, HeapWriteUnderHighBranchTaints) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var p: int := 0;
      p := alloc(0);
      if (h > 0) { [p] := 1; }
      out := [p];
    }
  )",
                 DiagCode::VerifyEntailment);
}

//===----------------------------------------------------------------------===//
// Ghost asserts and guard atoms mid-proof
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, GhostAssertChecksGuardState) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      assert sguard(r.Add, 1/1, empty);
      atomic r { perform r.Add(l); }
      assert sguard(r.Add, 1/1, S) && allpre(r.Add, S) && card(S) == 1;
      out := unshare r;
    }
  )");
}

TEST(VerifierMoreTest, GhostAssertFailureRejected) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      assert low(h);
      out := 0;
    }
  )",
                 DiagCode::VerifyEntailment);
}

//===----------------------------------------------------------------------===//
// Resource lifecycle
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, SequentialReshareOfNewResource) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var a: int := 0;
      share r1: Counter := 0;
      atomic r1 { perform r1.Add(l); }
      a := unshare r1;
      share r2: Counter := a;
      atomic r2 { perform r2.Add(1); }
      out := unshare r2;
    }
  )");
}

TEST(VerifierMoreTest, DoubleUnshareRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main() returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      out := unshare r;
      out := unshare r;
    }
  )",
                 DiagCode::VerifyResourceState);
}

TEST(VerifierMoreTest, AtomicAfterUnshareRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main() returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      out := unshare r;
      atomic r { perform r.Add(1); }
    }
  )",
                 DiagCode::VerifyResourceState);
}

TEST(VerifierMoreTest, UnshareByNonSharerRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure helper(r: resource<Counter>) returns (x: int)
    {
      x := unshare r;
    }
  )",
                 DiagCode::VerifyResourceState);
}

TEST(VerifierMoreTest, TwoPerformsInOneAtomicRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main() returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      atomic r {
        perform r.Add(1);
        perform r.Add(2);
      }
      out := unshare r;
    }
  )",
                 DiagCode::VerifyResourceState);
}

TEST(VerifierMoreTest, PerformUnderIfInsideAtomicRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      atomic r {
        if (l > 0) { perform r.Add(1); }
      }
      out := unshare r;
    }
  )",
                 DiagCode::VerifyResourceState);
}

TEST(VerifierMoreTest, ReadOnlyAtomicIsAllowed) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var snapshot: int := 0;
      share r: Counter := 0;
      atomic r { snapshot := resval(r); }
      atomic r { perform r.Add(l); }
      out := unshare r;
    }
  )");
}

//===----------------------------------------------------------------------===//
// Loops and guards
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, GuardModifiedInLoopWithoutInvariantRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(n: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      var i: int := 0;
      share r: Counter := 0;
      while (i < n)
        invariant low(i)
      {
        atomic r { perform r.Add(1); }
        i := i + 1;
      }
      out := unshare r;
    }
  )",
                 DiagCode::VerifyGuardMissing);
}

TEST(VerifierMoreTest, NestedLowLoops) {
  expectVerifies(R"(
    procedure main(n: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      var i: int := 0;
      var acc: int := 0;
      while (i < n)
        invariant low(i) && low(acc)
      {
        var j: int := 0;
        while (j < i)
          invariant low(j) && low(acc)
        {
          acc := acc + 1;
          j := j + 1;
        }
        i := i + 1;
      }
      out := acc;
    }
  )");
}

TEST(VerifierMoreTest, HighLoopInsideLowLoop) {
  expectVerifies(R"(
    procedure main(n: int, h: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      var i: int := 0;
      var acc: int := 0;
      while (i < n)
        invariant low(i) && low(acc)
      {
        var w: int := 0;
        while (w < h % 5)
          invariant w >= 0
        {
          w := w + 1;
        }
        acc := acc + 2;
        i := i + 1;
      }
      out := acc;
    }
  )");
}

TEST(VerifierMoreTest, LoopInvariantMustHoldOnEntry) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var x: int := h;
      var i: int := 0;
      while (i < 3)
        invariant low(i) && low(x)
      {
        x := 0;
        i := i + 1;
      }
      out := 0;
    }
  )",
                 DiagCode::VerifyEntailment);
}

//===----------------------------------------------------------------------===//
// Value-dependent sensitivity in action preconditions
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, ValueDependentActionArgument) {
  // The pair's flag says whether its payload is public; the abstraction
  // keeps the whole state low only for flagged entries via the action's
  // conditional precondition.
  expectVerifies(R"(
    resource FlaggedList {
      state: seq<pair<bool, int>>;
      alpha(v) = len(v);
      scope int -1 .. 1;
      scope size 2;
      shared action Append(a: pair<bool, int>) {
        apply(v, a) = append(v, a);
        requires low(fst(a)) && fst(a) ==> low(snd(a));
      }
    }
    procedure main(flag: bool, pubVal: int, secVal: int) returns (out: int)
      requires low(flag) && low(pubVal)
      ensures low(out)
    {
      share l: FlaggedList := seq_empty();
      par {
        atomic l { perform l.Append(pair(true, pubVal)); }
      } and {
        atomic l { perform l.Append(pair(false, secVal)); }
      }
      var fin: seq<pair<bool, int>> := seq_empty();
      fin := unshare l;
      out := len(fin);
    }
  )");
}

TEST(VerifierMoreTest, ValueDependentViolationRejected) {
  expectRejected(R"(
    resource FlaggedList {
      state: seq<pair<bool, int>>;
      alpha(v) = len(v);
      scope int -1 .. 1;
      scope size 2;
      shared action Append(a: pair<bool, int>) {
        apply(v, a) = append(v, a);
        requires low(fst(a)) && fst(a) ==> low(snd(a));
      }
    }
    procedure main(secVal: int) returns (out: int)
      ensures low(out)
    {
      share l: FlaggedList := seq_empty();
      atomic l { perform l.Append(pair(true, secVal)); }
      var fin: seq<pair<bool, int>> := seq_empty();
      fin := unshare l;
      out := len(fin);
    }
  )",
                 DiagCode::VerifyPreUnprovable);
}

//===----------------------------------------------------------------------===//
// Par structure
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, ThreeWayParSplitsGuards) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      par {
        atomic r { perform r.Add(l); }
      } and {
        atomic r { perform r.Add(l + 1); }
      } and {
        atomic r { perform r.Add(l + 2); }
      }
      out := unshare r;
    }
  )");
}

TEST(VerifierMoreTest, NestedParInsideBranch) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      par {
        par {
          atomic r { perform r.Add(l); }
        } and {
          atomic r { perform r.Add(1); }
        }
      } and {
        atomic r { perform r.Add(2); }
      }
      out := unshare r;
    }
  )");
}

TEST(VerifierMoreTest, BranchReadsOtherBranchVarRejected) {
  expectRejected(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var a: int := 0;
      var b: int := 0;
      par {
        a := l;
      } and {
        b := a + 1;
      }
      out := b;
    }
  )",
                 DiagCode::VerifyDataRace);
}

//===----------------------------------------------------------------------===//
// Guard cardinality tracking
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, CardinalityInvariantThroughLoop) {
  // The loop invariant ties the number of recorded applications to the
  // loop counter; after the loop the exact count is provable.
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main(n: int) returns (out: int)
      requires low(n) && n >= 0
      ensures low(out)
    {
      var i: int := 0;
      share r: Counter := 0;
      while (i < n)
        invariant low(i) && i >= 0 && i <= n
        invariant sguard(r.Add, 1/1, T) && allpre(r.Add, T) && card(T) == i
      {
        atomic r { perform r.Add(1); }
        i := i + 1;
      }
      assert sguard(r.Add, 1/1, S) && card(S) == n;
      out := unshare r;
    }
  )");
}

TEST(VerifierMoreTest, CardinalityFlowsThroughCallContracts) {
  expectVerifies(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure addTwice(r: resource<Counter>, x: int)
      requires low(x)
      requires sguard(r.Add, 1/2, empty)
      ensures sguard(r.Add, 1/2, S) && allpre(r.Add, S) && card(S) == 2
    {
      atomic r { perform r.Add(x); }
      atomic r { perform r.Add(x + 1); }
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      par {
        call addTwice(r, l);
      } and {
        call addTwice(r, 2 * l);
      }
      assert sguard(r.Add, 1/1, S) && card(S) == 4;
      out := unshare r;
    }
  )");
}

TEST(VerifierMoreTest, WrongCardinalityAssertRejected) {
  expectRejected(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
    procedure main() returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      atomic r { perform r.Add(1); }
      assert sguard(r.Add, 1/1, S) && card(S) == 2;
      out := unshare r;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierMoreTest, UniqueGuardLengthTracking) {
  expectVerifies(R"(
    resource Log {
      state: seq<int>;
      alpha(v) = len(v);
      scope int -1 .. 1;
      scope size 2;
      unique action App(a: int) { apply(v, a) = append(v, a); }
    }
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      share r: Log := seq_empty();
      atomic r { perform r.App(h); }
      atomic r { perform r.App(h * 2); }
      assert uguard(r.App, S) && len(S) == 2;
      var fin: seq<int> := seq_empty();
      fin := unshare r;
      out := len(fin);
    }
  )");
}

//===----------------------------------------------------------------------===//
// Output channel discipline
//===----------------------------------------------------------------------===//

TEST(VerifierMoreTest, OutputOfLowValueVerifies) {
  expectVerifies(R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      output l + 1;
      out := 0;
    }
  )");
}

TEST(VerifierMoreTest, OutputOfHighValueRejected) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      output h;
      out := 0;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierMoreTest, OutputUnderHighBranchRejected) {
  // Even a constant output leaks through the *presence* of the emission:
  // the observable trace length depends on the secret.
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      if (h > 0) { output 1; }
      out := 0;
    }
  )",
                 DiagCode::VerifyHighBranchEffect);
}

TEST(VerifierMoreTest, OutputUnderHighLoopRejected) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var w: int := 0;
      while (w < h % 5)
        invariant w >= 0
      {
        output 7;
        w := w + 1;
      }
      out := 0;
    }
  )",
                 DiagCode::VerifyHighBranchEffect);
}

TEST(VerifierMoreTest, OutputUnderLowBranchVerifies) {
  expectVerifies(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      if (l > 0) { output l; }
      out := 0;
    }
  )");
}

TEST(VerifierMoreTest, OutputInsideParRejected) {
  // Trace order across branches is schedule-dependent.
  expectRejected(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var a: int := 0;
      par { output 1; } and { a := l; }
      out := a;
    }
  )",
                 DiagCode::VerifyHighBranchEffect);
}

TEST(VerifierMoreTest, OutputAfterJoinVerifies) {
  expectVerifies(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      var a: int := 0;
      var b: int := 0;
      par { a := l; } and { b := 2 * l; }
      output a + b;
      out := 0;
    }
  )");
}

//===----------------------------------------------------------------------===//
// Deeply nested par: exact guard fractions
//===----------------------------------------------------------------------===//

namespace {

/// A counter shared into `par` nested \p Depth deep, every branch adding
/// `l + k` (or `h + k` at one level when \p LeakAt is that level).
std::string nestedParCounter(int Depth, int LeakAt) {
  std::string Body;
  std::string Close;
  for (int K = 0; K <= Depth; ++K) {
    std::string Leaf = std::string("atomic c { perform c.Add(") +
                       (K == LeakAt ? "h" : "l") + " + " +
                       std::to_string(K) + "); }\n";
    if (K == Depth) {
      Body += Leaf;
      break;
    }
    Body += "par {\n" + Leaf + "} and {\n";
    Close += "}\n";
  }
  return R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share c: Counter := 0;
  )" + Body + Close +
         R"(
      out := unshare c;
    }
  )";
}

} // namespace

TEST(VerifierMoreTest, FortyDeepParSplitsGuardsExactly) {
  // Level k holds a 1/2^k share of the guard, so from depth 32 on the
  // fraction arithmetic needs more than int64 cross products.
  expectVerifies(nestedParCounter(40, -1));
  expectRejected(nestedParCounter(40, 20), DiagCode::VerifyPreUnprovable);
}

//===----------------------------------------------------------------------===//
// Function inlining depth
//===----------------------------------------------------------------------===//

namespace {

/// f0(x) = x + 1 and fk(x) = f(k-1)(x) + 1, and a procedure returning
/// \p Out, which may call them.
std::string functionChain(int Depth, const std::string &Out) {
  std::string Funcs = "function f0(x: int): int = x + 1;\n";
  for (int K = 1; K <= Depth; ++K)
    Funcs += "function f" + std::to_string(K) + "(x: int): int = f" +
             std::to_string(K - 1) + "(x) + 1;\n";
  return Funcs + R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := )" + Out + R"(;
    }
  )";
}

} // namespace

TEST(VerifierMoreTest, DeepFunctionChainsInlineCompletely) {
  // Functions are non-recursive, so inlining has no depth limit: a call
  // chain 40 deep is translated through, not replaced by an opaque value.
  expectVerifies(functionChain(40, "f40(l)"));
  expectVerifies(functionChain(40, "f40(h) - h"));
  expectRejected(functionChain(40, "f40(h)"), DiagCode::VerifyEntailment);
}

TEST(VerifierMoreTest, GuardTrueOnlyOverMathematicalIntegersRejected) {
  // `h < h + 1` fails at h = 2^63 - 1, where h + 1 wraps. Over the
  // integers the else branch would be dead and `out` constant; the
  // verifier must not conclude that, so the program stays rejected.
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      if (h < h + 1) { out := 0; } else { out := h; }
    }
  )",
                 DiagCode::VerifyEntailment);
}
