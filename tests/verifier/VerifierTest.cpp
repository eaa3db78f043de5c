//===-- tests/verifier/VerifierTest.cpp - Verifier unit tests --------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the CommCSL relational verifier on the paper's programming
/// patterns: sequential information flow, the Fig. 1/2/3 examples, guard
/// discipline, high branching (If2/While2), retroactive PRE checking, and
/// the producer-consumer / pipeline patterns.
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

/// Verifies a program through the Driver; returns the diagnostics engine
/// for inspection.
DiagnosticEngine verify(const std::string &Source, bool &Ok,
                        bool SkipValidity = false) {
  DriverOptions Options;
  Options.Jobs = 1;
  Options.Verifier.SkipValidityCheck = SkipValidity;
  // Modest budgets keep unit tests fast.
  Options.Verifier.Validity.MaxStates = 120;
  Options.Verifier.Validity.MaxArgs = 30;
  Options.Verifier.Validity.MaxChecksPerProperty = 30000;
  Options.Verifier.Validity.RandomRounds = 300;
  DriverResult R = Driver(Options).verifySource(Source, "test.hv");
  EXPECT_TRUE(R.ParseOk) << R.Diags.str();
  Ok = R.Verified;
  return R.Diags;
}

void expectVerifies(const std::string &Source) {
  bool Ok = false;
  DiagnosticEngine D = verify(Source, Ok);
  EXPECT_TRUE(Ok) << D.str();
}

DiagnosticEngine expectRejected(const std::string &Source, DiagCode Code) {
  bool Ok = false;
  DiagnosticEngine D = verify(Source, Ok);
  EXPECT_FALSE(Ok) << "expected rejection";
  EXPECT_TRUE(D.hasErrorWithCode(Code))
      << "expected code " << diagCodeName(Code) << ", got:\n"
      << D.str();
  return D;
}

const char *CounterSpec = R"(
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) {
      apply(v, a) = v + a;
      requires low(a);
    }
  }
)";

} // namespace

//===----------------------------------------------------------------------===//
// Sequential information flow
//===----------------------------------------------------------------------===//

TEST(VerifierTest, SequentialLowFlow) {
  expectVerifies(R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := l * 2 + 1;
    }
  )");
}

TEST(VerifierTest, DirectLeakRejected) {
  expectRejected(R"(
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := h;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierTest, HighDataMayFlowToHighOutput) {
  expectVerifies(R"(
    procedure main(l: int, h: int) returns (out: int, secret: int)
      requires low(l)
      ensures low(out)
    {
      out := l;
      secret := h * l;
    }
  )");
}

TEST(VerifierTest, LowConditionalBothBranchesLow) {
  expectVerifies(R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      if (l > 0) { out := 1; } else { out := 2; }
    }
  )");
}

TEST(VerifierTest, HighConditionalIndirectLeakRejected) {
  // The classic implicit flow: if (h) out := 1 else out := 0.
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      if (h > 0) { out := 1; } else { out := 0; }
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierTest, HighConditionalWithUnaryPostconditionOk) {
  expectVerifies(R"(
    procedure main(h: int) returns (out: int)
      ensures out >= 0
    {
      if (h > 0) { out := 1; } else { out := 0; }
    }
  )");
}

TEST(VerifierTest, LowLoopPreservesLowness) {
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
        acc := acc + i;
        i := i + 1;
      }
      out := acc;
    }
  )");
}

TEST(VerifierTest, HighLoopCounterBecomesHigh) {
  // Fig. 1's right thread: the loop itself is fine, but t2 is high after a
  // loop with a high bound and may not be leaked.
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var t2: int := 0;
      while (t2 < h)
        invariant t2 >= 0
      {
        t2 := t2 + 1;
      }
      out := t2;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierTest, HighLoopAllowedWhenNotLeaked) {
  expectVerifies(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var t2: int := 0;
      while (t2 < h)
        invariant t2 >= 0
      {
        t2 := t2 + 1;
      }
      out := 7;
    }
  )");
}

TEST(VerifierTest, RelationalInvariantInHighLoopRejected) {
  expectRejected(R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var t2: int := 0;
      while (t2 < h)
        invariant low(t2)
      {
        t2 := t2 + 1;
      }
      out := t2;
    }
  )",
                 DiagCode::VerifyHighBranchEffect);
}

TEST(VerifierTest, ValueDependentSensitivity) {
  // b ==> low(x): the paper's value-dependent classification (Sec. 3.4).
  expectVerifies(R"(
    procedure main(b: bool, x: int) returns (out: int)
      requires low(b) && b ==> low(x)
      ensures b ==> low(out)
    {
      out := x + 1;
    }
  )");
}

TEST(VerifierTest, ProcedureCallUsesContract) {
  expectVerifies(R"(
    procedure double(x: int) returns (r: int)
      requires low(x)
      ensures low(r)
    {
      r := 2 * x;
    }
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := call double(l + 1);
    }
  )");
}

TEST(VerifierTest, CallWithUnprovablePreRejected) {
  expectRejected(R"(
    procedure double(x: int) returns (r: int)
      requires low(x)
      ensures low(r)
    {
      r := 2 * x;
    }
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      out := call double(h);
    }
  )",
                 DiagCode::VerifyContract);
}

TEST(VerifierTest, CalleeBodyIsVerifiedToo) {
  expectRejected(R"(
    procedure leak(x: int, h: int) returns (r: int)
      requires low(x)
      ensures low(r)
    {
      r := h;
    }
    procedure main(l: int, h: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      out := call leak(l, h);
    }
  )",
                 DiagCode::VerifyEntailment);
}

//===----------------------------------------------------------------------===//
// Resources: the Fig. 1 / Fig. 2 / Fig. 3 stories
//===----------------------------------------------------------------------===//

TEST(VerifierTest, Fig2SharedCounter) {
  expectVerifies(std::string(CounterSpec) + R"(
    procedure worker(r: resource<Counter>, n: int)
      requires low(n) && sguard(r.Add, 1/2, empty)
      ensures sguard(r.Add, 1/2, S) && allpre(r.Add, S)
    {
      var i: int := 0;
      while (i < n)
        invariant low(i) && sguard(r.Add, 1/2, T) && allpre(r.Add, T)
      {
        atomic r { perform r.Add(1); }
        i := i + 1;
      }
    }
    procedure main(n: int, h: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      share r: Counter := 0;
      par {
        call worker(r, n);
      } and {
        call worker(r, n);
      }
      out := unshare r;
    }
  )");
}

TEST(VerifierTest, CounterIntermediateReadIsHigh) {
  // Reading the shared value inside an atomic block yields high data.
  expectRejected(std::string(CounterSpec) + R"(
    procedure main(n: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      var x: int := 0;
      share r: Counter := 0;
      par {
        atomic r { perform r.Add(1); }
      } and {
        atomic r {
          x := resval(r);
          perform r.Add(2);
        }
      }
      var fin: int := 0;
      fin := unshare r;
      out := x;
    }
  )",
                 DiagCode::VerifyEntailment);
}

TEST(VerifierTest, CounterFinalValueIsLow) {
  expectVerifies(std::string(CounterSpec) + R"(
    procedure main(n: int) returns (out: int)
      requires low(n)
      ensures low(out)
    {
      share r: Counter := 0;
      par {
        atomic r { perform r.Add(3); }
      } and {
        atomic r { perform r.Add(4); }
      }
      out := unshare r;
    }
  )");
}

TEST(VerifierTest, HighInitialValueRejected) {
  expectRejected(std::string(CounterSpec) + R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      share r: Counter := h;
      out := unshare r;
    }
  )",
                 DiagCode::VerifyLowInitialValue);
}

TEST(VerifierTest, HighActionArgumentRejected) {
  // Property (3a): the Add precondition requires a low argument.
  expectRejected(std::string(CounterSpec) + R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      atomic r { perform r.Add(h); }
      out := unshare r;
    }
  )",
                 DiagCode::VerifyPreUnprovable);
}

TEST(VerifierTest, PerformWithoutGuardRejected) {
  expectRejected(std::string(CounterSpec) + R"(
    procedure helper(r: resource<Counter>)
    {
      atomic r { perform r.Add(1); }
    }
  )",
                 DiagCode::VerifyGuardMissing);
}

TEST(VerifierTest, PerformUnderHighBranchRejectedAtUnshare) {
  // Property (2): the number of modifications must not depend on a secret.
  expectRejected(std::string(CounterSpec) + R"(
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      share r: Counter := 0;
      if (h > 0) {
        atomic r { perform r.Add(1); }
      }
      out := unshare r;
    }
  )",
                 DiagCode::VerifyPreUnprovable);
}

TEST(VerifierTest, PerformUnderLowBranchOk) {
  expectVerifies(std::string(CounterSpec) + R"(
    procedure main(l: int) returns (out: int)
      requires low(l)
      ensures low(out)
    {
      share r: Counter := 0;
      if (l > 0) {
        atomic r { perform r.Add(1); }
      }
      out := unshare r;
    }
  )");
}

TEST(VerifierTest, Fig1RejectedBecauseSpecInvalid) {
  // The original Fig. 1: arbitrary assignments with the value leaked.
  expectRejected(R"(
    resource Racy {
      state: int;
      alpha(v) = v;
      unique action SetL(a: unit) { apply(v, a) = 3; }
      unique action SetR(a: unit) { apply(v, a) = 4; }
    }
    procedure main(h: int) returns (s: int)
      ensures low(s)
    {
      var t1: int := 0;
      var t2: int := 0;
      share r: Racy := 0;
      par {
        while (t1 < 100) invariant t1 >= 0 { t1 := t1 + 1; }
        atomic r { perform r.SetL(unit); }
      } and {
        while (t2 < h) invariant t2 >= 0 { t2 := t2 + 1; }
        atomic r { perform r.SetR(unit); }
      }
      s := unshare r;
    }
  )",
                 DiagCode::SpecInvalidCommutes);
}

TEST(VerifierTest, Fig1ConstantAbstractionVerifies) {
  // Fig. 1 with the value not leaked: constant abstraction, s stays high.
  expectVerifies(R"(
    resource Racy {
      state: int;
      alpha(v) = 0;
      unique action SetL(a: unit) { apply(v, a) = 3; }
      unique action SetR(a: unit) { apply(v, a) = 4; }
    }
    procedure main(h: int) returns (out: int)
      ensures low(out)
    {
      var t1: int := 0;
      var t2: int := 0;
      var s: int := 0;
      share r: Racy := 0;
      par {
        while (t1 < 100) invariant t1 >= 0 { t1 := t1 + 1; }
        atomic r { perform r.SetL(unit); }
      } and {
        while (t2 < h) invariant t2 >= 0 { t2 := t2 + 1; }
        atomic r { perform r.SetR(unit); }
      }
      s := unshare r;
      out := 0;
    }
  )");
}

TEST(VerifierTest, Fig1CommutingAdditionsVerify) {
  // Fig. 1 fixed: s := s + 3 || s := s + 4; the sum is low.
  expectVerifies(R"(
    resource AddOnly {
      state: int;
      alpha(v) = v;
      unique action AddL(a: unit) { apply(v, a) = v + 3; }
      unique action AddR(a: unit) { apply(v, a) = v + 4; }
    }
    procedure main(h: int) returns (s: int)
      ensures low(s)
    {
      var t1: int := 0;
      var t2: int := 0;
      share r: AddOnly := 0;
      par {
        while (t1 < 100) invariant t1 >= 0 { t1 := t1 + 1; }
        atomic r { perform r.AddL(unit); }
      } and {
        while (t2 < h) invariant t2 >= 0 { t2 := t2 + 1; }
        atomic r { perform r.AddR(unit); }
      }
      s := unshare r;
    }
  )");
}

TEST(VerifierTest, Fig3MapKeySet) {
  expectVerifies(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope int -1 .. 1;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
    procedure worker(addrs: seq<int>, rsns: seq<int>, f: int, t: int,
                     m: resource<MapKS>)
      requires low(addrs) && low(f) && low(t)
      requires sguard(m.Put, 1/2, empty)
      ensures sguard(m.Put, 1/2, S) && allpre(m.Put, S)
    {
      var i: int := f;
      while (i < t)
        invariant low(i) && sguard(m.Put, 1/2, T) && allpre(m.Put, T)
      {
        var adr: int := at(addrs, i);
        var rsn: int := at(rsns, i);
        atomic m {
          perform m.Put(pair(adr, rsn));
        }
        i := i + 1;
      }
    }
    procedure main(addrs: seq<int>, rsns: seq<int>) returns (res: seq<int>)
      requires low(addrs)
      ensures low(res)
    {
      var n: int := len(addrs);
      share m: MapKS := map_empty();
      par {
        call worker(addrs, rsns, 0, n / 2, m);
      } and {
        call worker(addrs, rsns, n / 2, n, m);
      }
      var fin: map<int, int> := map_empty();
      fin := unshare m;
      res := sort(set_to_seq(dom(fin)));
    }
  )");
}

TEST(VerifierTest, Fig3LeakingValuesRejected) {
  // Leaking the map's values (not just keys) must fail: the abstraction
  // only makes the key set low.
  expectRejected(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope int -1 .. 1;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
    procedure main(k: int, h: int) returns (res: mset<int>)
      requires low(k)
      ensures low(res)
    {
      share m: MapKS := map_empty();
      atomic m { perform m.Put(pair(k, h)); }
      var fin: map<int, int> := map_empty();
      fin := unshare m;
      res := map_values(fin);
    }
  )",
                 DiagCode::VerifyEntailment);
}

//===----------------------------------------------------------------------===//
// Par discipline
//===----------------------------------------------------------------------===//

TEST(VerifierTest, ParDataRaceRejected) {
  expectRejected(R"(
    procedure main() returns (out: int)
      ensures low(out)
    {
      var a: int := 0;
      par { a := 1; } and { a := 2; }
      out := 0;
    }
  )",
                 DiagCode::VerifyDataRace);
}

TEST(VerifierTest, ParDisjointWritesOk) {
  expectVerifies(R"(
    procedure main() returns (out: int)
      ensures low(out)
    {
      var a: int := 0;
      var b: int := 0;
      par { a := 1; } and { b := 2; }
      out := a + b;
    }
  )");
}

TEST(VerifierTest, UniqueGuardUsedByTwoBranchesRejected) {
  expectRejected(R"(
    resource AddOnly {
      state: int;
      alpha(v) = v;
      unique action AddL(a: unit) { apply(v, a) = v + 3; }
      unique action AddR(a: unit) { apply(v, a) = v + 4; }
    }
    procedure main() returns (s: int)
      ensures low(s)
    {
      share r: AddOnly := 0;
      par {
        atomic r { perform r.AddL(unit); }
      } and {
        atomic r { perform r.AddL(unit); }
      }
      s := unshare r;
    }
  )",
                 DiagCode::VerifyUniqueGuardSplit);
}

//===----------------------------------------------------------------------===//
// Producer-consumer and pipeline (App. D)
//===----------------------------------------------------------------------===//

namespace {
const char *QueueSpec = R"(
  resource PCQueue {
    state: pair<seq<int>, int>;
    alpha(v) = v;
    inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
    scope size 2;
    unique action Prod(a: int) {
      apply(v, a) = pair(append(fst(v), a), snd(v));
      requires low(a);
    }
    unique action Cons(a: unit) {
      apply(v, a) = pair(fst(v), snd(v) + 1);
      returns(v, a) = at(fst(v), snd(v));
      enabled(v) = snd(v) < len(fst(v));
      history(v) = take(fst(v), snd(v));
    }
  }
)";
} // namespace

TEST(VerifierTest, ProducerConsumerFinalStateLow) {
  expectVerifies(std::string(QueueSpec) + R"(
    procedure main(n: int) returns (out: seq<int>)
      requires low(n)
      ensures low(out)
    {
      share q: PCQueue := pair(seq_empty(), 0);
      par {
        var i: int := 0;
        while (i < n)
          invariant low(i) && uguard(q.Prod, PS) && allpre(q.Prod, PS)
        {
          atomic q { perform q.Prod(i * 10); }
          i := i + 1;
        }
      } and {
        var j: int := 0;
        var x: int := 0;
        while (j < n)
          invariant low(j) && uguard(q.Cons, CS) && allpre(q.Cons, CS)
        {
          atomic q when Cons {
            x := perform q.Cons(unit);
          }
          j := j + 1;
        }
      }
      var fin: pair<seq<int>, int> := pair(seq_empty(), 0);
      fin := unshare q;
      out := take(fst(fin), snd(fin));
    }
  )");
}

TEST(VerifierTest, PipelineRetroactiveLowness) {
  // The paper's pipeline: the middle thread learns only after unsharing
  // the first queue that the data it forwarded was low. Straight-line
  // stages (one item); the retroactive PRE check at unshare(q1) makes the
  // recorded q2-produce argument low via the history link.
  expectVerifies(std::string(QueueSpec) + R"(
    procedure main(v0: int) returns (out: seq<int>)
      requires low(v0)
      ensures low(out)
    {
      var x: int := 0;
      var y: int := 0;
      share q1: PCQueue := pair(seq_empty(), 0);
      share q2: PCQueue := pair(seq_empty(), 0);
      par {
        atomic q1 { perform q1.Prod(v0); }
      } and {
        atomic q1 when Cons { x := perform q1.Cons(unit); }
        atomic q2 { perform q2.Prod(x + 1); }
      } and {
        atomic q2 when Cons { y := perform q2.Cons(unit); }
      }
      var f1: pair<seq<int>, int> := pair(seq_empty(), 0);
      f1 := unshare q1;
      var f2: pair<seq<int>, int> := pair(seq_empty(), 0);
      f2 := unshare q2;
      out := take(fst(f2), snd(f2));
    }
  )");
}

TEST(VerifierTest, PipelineWithoutHistoryRejected) {
  // Without the history clause, the consumed value stays high and the
  // second queue's produce precondition is unprovable.
  expectRejected(R"(
    resource PCQueueNoHist {
      state: pair<seq<int>, int>;
      alpha(v) = v;
      inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
      scope size 2;
      unique action Prod(a: int) {
        apply(v, a) = pair(append(fst(v), a), snd(v));
        requires low(a);
      }
      unique action Cons(a: unit) {
        apply(v, a) = pair(fst(v), snd(v) + 1);
        returns(v, a) = at(fst(v), snd(v));
        enabled(v) = snd(v) < len(fst(v));
      }
    }
    procedure main(v0: int) returns (out: int)
      requires low(v0)
      ensures low(out)
    {
      var x: int := 0;
      share q1: PCQueueNoHist := pair(seq_empty(), 0);
      share q2: PCQueueNoHist := pair(seq_empty(), 0);
      par {
        atomic q1 { perform q1.Prod(v0); }
      } and {
        atomic q1 when Cons { x := perform q1.Cons(unit); }
        atomic q2 { perform q2.Prod(x + 1); }
      }
      var f1: pair<seq<int>, int> := pair(seq_empty(), 0);
      f1 := unshare q1;
      var f2: pair<seq<int>, int> := pair(seq_empty(), 0);
      f2 := unshare q2;
      out := 0;
    }
  )",
                 DiagCode::VerifyPreUnprovable);
}
