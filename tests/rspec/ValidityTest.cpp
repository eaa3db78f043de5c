//===-- tests/rspec/ValidityTest.cpp - Def. 3.1 validity tests -------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the resource-specification validity checker against the paper's
/// examples: the Fig. 4 map specifications, the Fig. 1 assignment actions,
/// the abstraction family used by the Table 1 list examples, and the App. D
/// producer-consumer queue.
///
//===----------------------------------------------------------------------===//

#include "rspec/Validity.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

namespace {

ValidityResult checkSpec(const std::string &Source,
                         ValidityConfig Config = {}) {
  static std::vector<std::unique_ptr<Program>> Keep;
  Keep.push_back(std::make_unique<Program>(parseChecked(Source)));
  Program &P = *Keep.back();
  EXPECT_EQ(P.Specs.size(), 1u);
  static std::vector<std::unique_ptr<RSpecRuntime>> KeepRt;
  KeepRt.push_back(std::make_unique<RSpecRuntime>(P.Specs[0], &P));
  ValidityChecker Checker(*KeepRt.back(), Config);
  return Checker.check();
}

} // namespace

//===----------------------------------------------------------------------===//
// Valid specifications
//===----------------------------------------------------------------------===//

TEST(ValidityTest, CounterAddIsValid) {
  ValidityResult R = checkSpec(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
  // The abstract tier discharges both obligations (A' for Add, B1 for
  // (Add, Add)) over the unbounded int domain; nothing reaches the
  // concrete tiers.
  EXPECT_TRUE(R.Unbounded);
  EXPECT_EQ(R.AbsintObligations, 2u);
  EXPECT_EQ(R.AbsintProved, 2u);
  EXPECT_EQ(R.BoundedChecks, 0u);
  EXPECT_EQ(R.RandomChecks, 0u);
}

TEST(ValidityTest, CounterAddBoundedTiersStillPassWithAbsintOff) {
  ValidityConfig Cfg;
  Cfg.RunAbsintTier = false;
  ValidityResult R = checkSpec(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                               Cfg);
  EXPECT_TRUE(R.Valid) << R.CE->describe();
  EXPECT_FALSE(R.Unbounded);
  EXPECT_EQ(R.AbsintObligations, 0u);
  EXPECT_GT(R.BoundedChecks, 0u);
}

TEST(ValidityTest, MapKeySetAbstractionIsValid) {
  // Fig. 4 (left): puts commute w.r.t. the key set, with only keys low.
  ValidityResult R = checkSpec(R"(
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
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ConstantAbstractionAcceptsAnything) {
  // Fig. 1 variant: arbitrary assignments are fine if nothing is leaked.
  ValidityResult R = checkSpec(R"(
    resource Blind {
      state: int;
      alpha(v) = 0;
      shared action Set(a: int) {
        apply(v, a) = a;
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, CommutingAdditionsFig1VariantValid) {
  // Fig. 1 fixed: s := s + 3 || s := s + 4 commutes with identity alpha.
  ValidityResult R = checkSpec(R"(
    resource AddOnly {
      state: int;
      alpha(v) = v;
      unique action AddL(a: unit) { apply(v, a) = v + 3; }
      unique action AddR(a: unit) { apply(v, a) = v + 4; }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, DisjointRangePutsAreValid) {
  // Fig. 4 (right): unique puts on disjoint key ranges, identity alpha.
  ValidityResult R = checkSpec(R"(
    resource DisjointMap {
      state: map<int, int>;
      alpha(v) = v;
      scope int -2 .. 2;
      scope size 2;
      unique action PutNeg(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a)) && low(snd(a)) && fst(a) < 0;
      }
      unique action PutPos(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a)) && low(snd(a)) && fst(a) >= 0;
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, HistogramIncrementIsValid) {
  // Salary-Histogram: increments on the same key commute.
  ValidityResult R = checkSpec(R"(
    resource Histogram {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action Inc(a: int) {
        apply(v, a) = map_put(v, a, map_get_or(v, a, 0) + 1);
        requires low(a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ConditionalMaxPutIsValid) {
  // Most-Valuable-Purchase: keep the max value per key.
  ValidityResult R = checkSpec(R"(
    resource MaxMap {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action PutMax(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), max(snd(a), map_get_or(v, fst(a), snd(a))));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, SetAddIsValid) {
  ValidityResult R = checkSpec(R"(
    resource IntSet {
      state: set<int>;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = set_add(v, a);
        requires low(a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ListAppendSumLenAbstractionValid) {
  // Mean-Salary: leak (sum, length); the mean is derived after unsharing.
  ValidityResult R = checkSpec(R"(
    resource SalaryList {
      state: seq<int>;
      alpha(v) = pair(sum(v), len(v));
      shared action Append(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ListAppendMultisetAbstractionValid) {
  // Email-Metadata: appends commute modulo the multiset view.
  ValidityResult R = checkSpec(R"(
    resource EventList {
      state: seq<int>;
      alpha(v) = seq_to_mset(v);
      shared action Append(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ListAppendLengthAbstractionValid) {
  // Patient-Statistic: only the length is leaked, so values may be high.
  ValidityResult R = checkSpec(R"(
    resource PatientList {
      state: seq<int>;
      alpha(v) = len(v);
      shared action Append(a: int) {
        apply(v, a) = append(v, a);
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, ProducerConsumerQueueValid) {
  // App. D (Fig. 12, simplified): ghost state (produced, consumedCount).
  ValidityResult R = checkSpec(R"(
    resource PCQueue {
      state: pair<seq<int>, int>;
      alpha(v) = v;
      inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
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
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

TEST(ValidityTest, MultiProducerQueueMultisetAbstractionValid) {
  // 2-Producers-2-Consumers: shared produce/consume; the produced multiset
  // is the abstraction (Table 1).
  ValidityResult R = checkSpec(R"(
    resource MPMCQueue {
      state: pair<seq<int>, int>;
      alpha(v) = pair(seq_to_mset(fst(v)), snd(v));
      inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
      shared action Prod(a: int) {
        apply(v, a) = pair(append(fst(v), a), snd(v));
        requires low(a);
      }
      shared action Cons(a: unit) {
        apply(v, a) = pair(fst(v), snd(v) + 1);
        returns(v, a) = at(fst(v), snd(v));
        enabled(v) = snd(v) < len(fst(v));
      }
    }
  )");
  EXPECT_TRUE(R.Valid) << R.CE->describe();
}

//===----------------------------------------------------------------------===//
// Invalid specifications (each mirrors a paper counterexample)
//===----------------------------------------------------------------------===//

TEST(ValidityTest, Fig1AssignmentsAreRejected) {
  // s := 3 || s := 4 with the full value leaked: not commutative.
  ValidityResult R = checkSpec(R"(
    resource RacyAssign {
      state: int;
      alpha(v) = v;
      unique action SetL(a: unit) { apply(v, a) = 3; }
      unique action SetR(a: unit) { apply(v, a) = 4; }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Commutativity);
}

TEST(ValidityTest, MapIdentityAbstractionRejected) {
  // Fig. 3 without the key-set abstraction: the high values flow into the
  // identity abstraction, so property (A) already fails.
  ValidityResult R = checkSpec(R"(
    resource MapFull {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Precondition);
}

TEST(ValidityTest, MapIdentityLowValuesStillRacesOnKeys) {
  // Even with both components low, last-write-wins on the same key does
  // not commute under the identity abstraction: this isolates property (B).
  ValidityResult R = checkSpec(R"(
    resource MapFullLow {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Commutativity);
}

TEST(ValidityTest, HighKeyPutRejectedByPropertyA) {
  // Keys must be low for the key-set abstraction to stay low.
  ValidityResult R = checkSpec(R"(
    resource MapHighKey {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Precondition);
}

TEST(ValidityTest, ListSequenceAbstractionRejected) {
  // Appends do not commute on the concrete list (the App. D discussion).
  ValidityResult R = checkSpec(R"(
    resource OrderedList {
      state: seq<int>;
      alpha(v) = v;
      shared action Append(a: int) {
        apply(v, a) = append(v, a);
        requires low(a);
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Commutativity);
}

TEST(ValidityTest, HighValueMeanAbstractionRejected) {
  // Appending a high value changes the (sum, len) abstraction.
  ValidityResult R = checkSpec(R"(
    resource BadMean {
      state: seq<int>;
      alpha(v) = pair(sum(v), len(v));
      shared action Append(a: int) {
        apply(v, a) = append(v, a);
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Precondition);
}

TEST(ValidityTest, BadHistoryClauseRejected) {
  // History claims the *whole* produced sequence was already returned.
  ValidityResult R = checkSpec(R"(
    resource BadHistory {
      state: pair<seq<int>, int>;
      alpha(v) = v;
      inv(v) = snd(v) >= 0 && snd(v) <= len(fst(v));
      unique action Prod(a: int) {
        apply(v, a) = pair(append(fst(v), a), snd(v));
        requires low(a);
      }
      unique action Cons(a: unit) {
        apply(v, a) = pair(fst(v), snd(v) + 1);
        returns(v, a) = at(fst(v), snd(v));
        enabled(v) = snd(v) < len(fst(v));
        history(v) = fst(v);
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::History);
}

TEST(ValidityTest, InvariantViolationRejected) {
  ValidityResult R = checkSpec(R"(
    resource BadInv {
      state: int;
      alpha(v) = v;
      inv(v) = v >= 0;
      shared action Dec(a: unit) {
        apply(v, a) = v - 1;
      }
    }
  )");
  ASSERT_FALSE(R.Valid);
  EXPECT_EQ(R.CE->Prop, ValidityCounterexample::Property::Invariant);
}

//===----------------------------------------------------------------------===//
// Properties of the checker itself
//===----------------------------------------------------------------------===//

TEST(ValidityTest, RelevantPairsExcludeUniqueSelfPairs) {
  Program P = parseChecked(R"(
    resource Mixed {
      state: int;
      alpha(v) = v;
      shared action S(a: int) { apply(v, a) = v + a; requires low(a); }
      unique action U(a: int) { apply(v, a) = v + 2 * a; requires low(a); }
    }
  )");
  auto Pairs = relevantActionPairs(P.Specs[0]);
  // (S,S), (S,U) but not (U,U).
  ASSERT_EQ(Pairs.size(), 2u);
  EXPECT_EQ(Pairs[0], (std::pair<size_t, size_t>{0, 0}));
  EXPECT_EQ(Pairs[1], (std::pair<size_t, size_t>{0, 1}));
}

TEST(ValidityTest, BoundedTierAloneFindsFig1Counterexample) {
  ValidityConfig Cfg;
  Cfg.RunRandomTier = false;
  ValidityResult R = checkSpec(R"(
    resource RacyAssign2 {
      state: int;
      alpha(v) = v;
      unique action SetL(a: unit) { apply(v, a) = 3; }
      unique action SetR(a: unit) { apply(v, a) = 4; }
    }
  )",
                               Cfg);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.RandomChecks, 0u);
}

TEST(ValidityTest, RandomTierAloneFindsMapCounterexample) {
  ValidityConfig Cfg;
  Cfg.RunBoundedTier = false;
  ValidityResult R = checkSpec(R"(
    resource MapFull2 {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )",
                               Cfg);
  EXPECT_FALSE(R.Valid);
  EXPECT_EQ(R.BoundedChecks, 0u);
}

TEST(ValidityTest, BudgetIsConsumedBySymmetricInstances) {
  // Regression: the swapped-orientation check of an off-diagonal state pair
  // incremented BoundedChecks without consuming budget, so a property could
  // perform up to 2x MaxChecksPerProperty checks. Every checked instance
  // must now consume one unit. The constant abstraction makes *every* state
  // pair same-alpha (maximally off-diagonal), which is exactly the shape
  // that used to overshoot.
  ValidityConfig Cfg;
  Cfg.RunRandomTier = false;
  Cfg.RunAbsintTier = false; // the regression lives in the bounded tier
  Cfg.MaxChecksPerProperty = 10;
  ValidityResult R = checkSpec(R"(
    resource BlindBudget {
      state: int;
      alpha(v) = 0;
      shared action Set(a: int) { apply(v, a) = a; }
    }
  )",
                               Cfg);
  EXPECT_TRUE(R.Valid);
  // One bounded property instance for (A) on Set and one for (B) on
  // (Set, Set): at most MaxChecksPerProperty each.
  EXPECT_LE(R.BoundedChecks, 2 * Cfg.MaxChecksPerProperty);
  EXPECT_GT(R.BoundedChecks, 0u);
}

TEST(ValidityTest, ParallelCounterexampleIsDeterministic) {
  // The map-with-identity-abstraction family is known invalid; the parallel
  // bounded tier must report the *same* counterexample (the lowest global
  // instance index) and the same check counts at every job count.
  const char *Source = R"(
    resource MapFullJobs {
      state: map<int, int>;
      alpha(v) = v;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a)) && low(snd(a));
      }
    }
  )";
  ValidityConfig Cfg;
  Cfg.RunRandomTier = false;
  Cfg.Jobs = 1;
  ValidityResult Seq = checkSpec(Source, Cfg);
  ASSERT_FALSE(Seq.Valid);
  for (unsigned Jobs : {2u, 8u}) {
    Cfg.Jobs = Jobs;
    ValidityResult Par = checkSpec(Source, Cfg);
    ASSERT_FALSE(Par.Valid) << "Jobs=" << Jobs;
    EXPECT_EQ(Par.CE->describe(), Seq.CE->describe()) << "Jobs=" << Jobs;
    EXPECT_EQ(Par.BoundedChecks, Seq.BoundedChecks) << "Jobs=" << Jobs;
    EXPECT_EQ(Par.RandomChecks, Seq.RandomChecks) << "Jobs=" << Jobs;
  }
}

TEST(ValidityTest, ParallelValidSpecCountsAreDeterministic) {
  // On a valid spec the bounded tier runs to (budgeted) completion; the
  // totals must not depend on the sharding.
  const char *Source = R"(
    resource CounterJobs {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )";
  ValidityConfig Cfg;
  Cfg.Jobs = 1;
  ValidityResult Seq = checkSpec(Source, Cfg);
  ASSERT_TRUE(Seq.Valid) << Seq.CE->describe();
  for (unsigned Jobs : {2u, 8u}) {
    Cfg.Jobs = Jobs;
    ValidityResult Par = checkSpec(Source, Cfg);
    EXPECT_TRUE(Par.Valid) << "Jobs=" << Jobs;
    EXPECT_EQ(Par.BoundedChecks, Seq.BoundedChecks) << "Jobs=" << Jobs;
    EXPECT_EQ(Par.RandomChecks, Seq.RandomChecks) << "Jobs=" << Jobs;
  }
}

TEST(ValidityTest, PreconditionRelationIsEvaluatedRelationally) {
  Program P = parseChecked(R"(
    resource R1 {
      state: int;
      alpha(v) = v;
      shared action Add(a: pair<int, int>) {
        apply(v, a) = v + fst(a);
        requires low(fst(a)) && snd(a) >= 0;
      }
    }
  )");
  RSpecRuntime RT(P.Specs[0], &P);
  const ActionDecl &Add = P.Specs[0].Actions[0];
  // Same low part, different high parts: related.
  EXPECT_TRUE(RT.preHolds(Add, pv(iv(1), iv(5)), pv(iv(1), iv(9))));
  // Different low parts: unrelated.
  EXPECT_FALSE(RT.preHolds(Add, pv(iv(1), iv(5)), pv(iv(2), iv(5))));
  // Unary constraint violated in one side: unrelated.
  EXPECT_FALSE(RT.preHolds(Add, pv(iv(1), iv(-1)), pv(iv(1), iv(5))));
}

//===----------------------------------------------------------------------===//
// Memoization determinism
//===----------------------------------------------------------------------===//

TEST(ValidityTest, MemoizedVerdictIsIdenticalAtAnyJobCount) {
  // The checker's alpha/f_a memo must not make the verdict, the chosen
  // counterexample, or the check counts depend on the job count, and it
  // must actually be consulted. (Invalid spec: the identity abstraction
  // leaks the put values, Fig. 3 without dom().)
  std::string Source = R"(
    resource MapIdMemo {
      state: map<int, int>;
      alpha(v) = v;
      scope int -1 .. 1;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )";
  ValidityConfig Cfg;
  Cfg.Jobs = 1;
  ValidityResult Ref = checkSpec(Source, Cfg);
  ASSERT_FALSE(Ref.Valid);
  EXPECT_GT(Ref.Cache.hits(), 0u);
  Cfg.Jobs = 8;
  ValidityResult Par = checkSpec(Source, Cfg);
  ASSERT_FALSE(Par.Valid);
  EXPECT_EQ(Par.CE->describe(), Ref.CE->describe());
  EXPECT_EQ(Par.BoundedChecks, Ref.BoundedChecks);
  EXPECT_EQ(Par.RandomChecks, Ref.RandomChecks);
  EXPECT_GT(Par.Cache.hits(), 0u);
}

TEST(ValidityTest, MemoizedValidSpecCountsMatchAcrossJobCounts) {
  std::string Source = R"(
    resource MapKSMemo {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope int -1 .. 1;
      scope size 2;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )";
  ValidityConfig Cfg;
  Cfg.Jobs = 1;
  // MapKS is proved unbounded by the abstract tier, which would leave the
  // memo cache cold; this test is about the concrete tiers' caching.
  Cfg.RunAbsintTier = false;
  ValidityResult Ref = checkSpec(Source, Cfg);
  ASSERT_TRUE(Ref.Valid) << Ref.CE->describe();
  for (unsigned Jobs : {1u, 8u}) {
    Cfg.Jobs = Jobs;
    ValidityResult Memo = checkSpec(Source, Cfg);
    EXPECT_TRUE(Memo.Valid) << "Jobs=" << Jobs;
    EXPECT_EQ(Memo.BoundedChecks, Ref.BoundedChecks) << "Jobs=" << Jobs;
    EXPECT_EQ(Memo.RandomChecks, Ref.RandomChecks) << "Jobs=" << Jobs;
    // The bounded tier revisits a small state universe many times; the
    // cache must actually be hitting for the speedup claim to hold.
    EXPECT_GT(Memo.Cache.hits(), Memo.Cache.misses()) << "Jobs=" << Jobs;
  }
}

//===----------------------------------------------------------------------===//
// Request budgets (CheckBudget)
//===----------------------------------------------------------------------===//

TEST(ValidityBudgetTest, StepCapTimesOutWithoutCounterexample) {
  ValidityConfig Cfg;
  Cfg.RunAbsintTier = false; // force the concrete tiers to do the work
  Cfg.Budget = std::make_shared<CheckBudget>(0, 1);
  ValidityResult R = checkSpec(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                               Cfg);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.Valid);
  EXPECT_FALSE(R.CE.has_value()); // a timeout is not a refutation
  EXPECT_TRUE(Cfg.Budget->fired());
}

TEST(ValidityBudgetTest, ExpiredDeadlineTimesOut) {
  ValidityConfig Cfg;
  Cfg.RunAbsintTier = false;
  Cfg.Budget = std::make_shared<CheckBudget>(1, 0);
  // Let the 1ms deadline lapse before the check even starts; the first
  // checkpoint must observe it.
  while (!Cfg.Budget->expired()) {
  }
  ValidityResult R = checkSpec(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                               Cfg);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.Valid);
  EXPECT_FALSE(R.CE.has_value());
}

TEST(ValidityBudgetTest, GenerousBudgetChangesNothing) {
  ValidityConfig Plain;
  Plain.RunAbsintTier = false;
  ValidityConfig Budgeted = Plain;
  Budgeted.Budget = std::make_shared<CheckBudget>(600000, 1000000000);
  const char *Source = R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )";
  ValidityResult A = checkSpec(Source, Plain);
  ValidityResult B = checkSpec(Source, Budgeted);
  EXPECT_FALSE(B.TimedOut);
  EXPECT_EQ(A.Valid, B.Valid);
  EXPECT_EQ(A.BoundedChecks, B.BoundedChecks);
  EXPECT_EQ(A.RandomChecks, B.RandomChecks);
}

TEST(ValidityBudgetTest, AbsintProofNeedsNoConcreteSteps) {
  // When the differencing tier proves the spec outright, a one-step cap
  // never fires: the abstract tier is not budgeted (it is cheap and pure),
  // and no concrete instance runs.
  ValidityConfig Cfg;
  Cfg.Budget = std::make_shared<CheckBudget>(0, 1);
  ValidityResult R = checkSpec(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) {
        apply(v, a) = v + a;
        requires low(a);
      }
    }
  )",
                               Cfg);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_TRUE(R.Valid);
  EXPECT_TRUE(R.Unbounded);
  EXPECT_FALSE(Cfg.Budget->fired());
}
