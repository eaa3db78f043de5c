//===-- tests/integration/ExamplesTest.cpp - Corpus integration ------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end integration over the shipped `.hv` corpus (the Table 1
/// examples): every program must produce its expected verdict; every
/// verified program must pass an empirical non-interference smoke sweep;
/// and every recorded execution must satisfy the Sec. 3.5 consistency
/// relation with schedule-permutation-invariant abstractions (the dynamic
/// face of Lemma 4.2).
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include "rspec/RSpec.h"
#include "sem/Scheduler.h"
#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

using namespace commcsl;
using namespace commcsl::test;

namespace {

struct CorpusCase {
  const char *File;
  bool ExpectVerified;
};

const CorpusCase Corpus[] = {
    {"count_vaccinated.hv", true},
    {"figure2.hv", true},
    {"count_sick_days.hv", true},
    {"figure1.hv", true},
    {"figure1_commute.hv", true},
    {"figure1_reject.hv", false},
    {"mean_salary.hv", true},
    {"email_metadata.hv", true},
    {"patient_statistic.hv", true},
    {"debt_sum.hv", true},
    {"sick_employee_names.hv", true},
    {"website_visitor_ips.hv", true},
    {"figure3.hv", true},
    {"sales_by_region.hv", true},
    {"salary_histogram.hv", true},
    {"count_purchases.hv", true},
    {"most_valuable_purchase.hv", true},
    {"producer_consumer.hv", true},
    {"pipeline.hv", true},
    {"two_producers_two_consumers.hv", true},
    {"output_stream.hv", true},
    {"value_dependent.hv", true},
    {"bounded_buffer.hv", true},
    {"public_stats.hv", true},
    {"consent_telemetry.hv", true},
    {"sealed_auction.hv", true},
    {"vote_tally.hv", true},
};

std::string pathOf(const char *File) {
  return std::string(COMMCSL_EXAMPLES_DIR) + "/" + File;
}

class CorpusTest : public ::testing::TestWithParam<CorpusCase> {};

} // namespace

TEST_P(CorpusTest, VerdictMatches) {
  const CorpusCase &C = GetParam();
  Driver D;
  DriverResult R = D.verifyFile(pathOf(C.File));
  ASSERT_TRUE(R.ParseOk) << R.Diags.str(C.File);
  EXPECT_EQ(R.Verified, C.ExpectVerified) << R.Diags.str(C.File);
  // Table 1 shape: every example is small but non-trivial.
  EXPECT_GT(R.Metrics.LinesOfCode, 10u);
  EXPECT_GT(R.Metrics.AnnotationLines, 5u);
}

INSTANTIATE_TEST_SUITE_P(AllExamples, CorpusTest,
                         ::testing::ValuesIn(Corpus),
                         [](const ::testing::TestParamInfo<CorpusCase> &I) {
                           std::string Name = I.param.File;
                           Name.resize(Name.size() - 3); // drop ".hv"
                           std::replace(Name.begin(), Name.end(), '.', '_');
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Broken twins: each Table 1 family has a negative variant whose rejection
// is pinned to a specific diagnostic code.
//===----------------------------------------------------------------------===//

namespace {

struct BrokenCase {
  const char *File;
  DiagCode Expected;
};

const BrokenCase BrokenCorpus[] = {
    {"broken/counter_high_arg.hv", DiagCode::VerifyPreUnprovable},
    {"broken/counter_high_count.hv", DiagCode::VerifyPreUnprovable},
    {"broken/map_leak_values.hv", DiagCode::VerifyEntailment},
    {"broken/map_identity_alpha.hv", DiagCode::SpecInvalidPrecondition},
    {"broken/map_lastwrite_races.hv", DiagCode::SpecInvalidCommutes},
    {"broken/disjoint_put_overlap.hv", DiagCode::SpecInvalidCommutes},
    {"broken/list_order_leak.hv", DiagCode::VerifyEntailment},
    {"broken/mean_salary_leaks_list.hv", DiagCode::VerifyEntailment},
    {"broken/pc_order_leak.hv", DiagCode::SpecInvalidCommutes},
    {"broken/unique_guard_shared.hv", DiagCode::VerifyUniqueGuardSplit},
    {"broken/race_on_local.hv", DiagCode::VerifyDataRace},
    {"broken/high_initial_value.hv", DiagCode::VerifyLowInitialValue},
    {"broken/intermediate_read_leak.hv", DiagCode::VerifyEntailment},
    {"broken/guard_dropped.hv", DiagCode::VerifyGuardMissing},
    {"broken/output_intermediate.hv", DiagCode::VerifyEntailment},
    {"broken/consent_ignored.hv", DiagCode::VerifyEntailment},
    {"broken/auction_bid_leak.hv", DiagCode::VerifyEntailment},
    {"broken/tally_ballot_leak.hv", DiagCode::VerifyEntailment},
    {"broken/sum_saturation_leak.hv", DiagCode::VerifyEntailment},
    {"broken/max_wraparound_leak.hv", DiagCode::VerifyEntailment},
};

class BrokenTest : public ::testing::TestWithParam<BrokenCase> {};

} // namespace

TEST_P(BrokenTest, RejectedWithExpectedCode) {
  const BrokenCase &C = GetParam();
  Driver D;
  DriverResult R = D.verifyFile(pathOf(C.File));
  ASSERT_TRUE(R.ParseOk) << R.Diags.str(C.File);
  EXPECT_FALSE(R.Verified) << C.File << " unexpectedly verified";
  EXPECT_TRUE(R.Diags.hasErrorWithCode(C.Expected))
      << C.File << ": expected " << diagCodeName(C.Expected) << ", got:\n"
      << R.Diags.str(C.File);
}

INSTANTIATE_TEST_SUITE_P(
    BrokenTwins, BrokenTest, ::testing::ValuesIn(BrokenCorpus),
    [](const ::testing::TestParamInfo<BrokenCase> &I) {
      std::string Name = I.param.File + 7; // drop "broken/"
      Name.resize(Name.size() - 3);        // drop ".hv"
      std::replace(Name.begin(), Name.end(), '.', '_');
      return Name;
    });

//===----------------------------------------------------------------------===//
// Exhaustiveness: the expected-verdict tables above must cover every `.hv`
// file shipped under examples/programs/ (broken/ included). A program added
// to the tree without a row here would otherwise silently escape CI.
//===----------------------------------------------------------------------===//

TEST(CorpusExhaustivenessTest, EveryShippedProgramHasAnExpectedVerdict) {
  std::set<std::string> Expected;
  for (const CorpusCase &C : Corpus)
    Expected.insert(C.File);
  for (const BrokenCase &C : BrokenCorpus)
    Expected.insert(C.File);

  std::set<std::string> Shipped;
  std::filesystem::path Root(COMMCSL_EXAMPLES_DIR);
  ASSERT_TRUE(std::filesystem::exists(Root)) << Root;
  for (const auto &DE : std::filesystem::recursive_directory_iterator(Root)) {
    if (!DE.is_regular_file() || DE.path().extension() != ".hv")
      continue;
    Shipped.insert(
        std::filesystem::relative(DE.path(), Root).generic_string());
  }

  for (const std::string &File : Shipped)
    EXPECT_TRUE(Expected.count(File))
        << File << " is shipped but has no expected-verdict table entry";
  for (const std::string &File : Expected)
    EXPECT_TRUE(Shipped.count(File))
        << File << " has a table entry but no file on disk";
}

namespace {

/// Runs `main` of a verified corpus program once with small deterministic
/// inputs; returns the result (skipping programs whose preconditions the
/// naive sampler cannot satisfy).
RunResult smokeRun(const Program &Prog, uint64_t Seed) {
  const ProcDecl *Main = Prog.findProc("main");
  EXPECT_NE(Main, nullptr);
  std::mt19937_64 Rng(Seed);
  std::vector<ValueRef> Inputs;
  for (const Param &P : Main->Params)
    Inputs.push_back(P.Ty->toDomain(Type::ScopeParams{0, 3, 3})->sample(Rng));
  Interpreter Interp(Prog);
  RandomScheduler Sched(Seed * 31 + 1);
  return Interp.run("main", Inputs, Sched);
}

} // namespace

TEST(CorpusPropertyTest, ActionLogsAreConsistentAndPermutationStable) {
  // The dynamic face of Lemma 4.2: for every recorded execution of a
  // verified example, (1) the final resource value is consistent with the
  // recorded actions, and (2) replaying the log in several different
  // unique-order-respecting permutations leaves the abstraction unchanged.
  for (const CorpusCase &C : Corpus) {
    if (!C.ExpectVerified)
      continue;
    Driver D;
    DriverResult R = D.verifyFile(pathOf(C.File));
    ASSERT_TRUE(R.ParseOk);
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      RunResult Run = smokeRun(*R.Prog, Seed);
      if (!Run.ok())
        continue; // sampler missed a precondition (e.g. equal lengths)
      for (const ResourceState &Res : Run.Resources) {
        RSpecRuntime Runtime(*Res.Spec, R.Prog.get());
        // (1) Consistency with the recorded collections.
        std::map<std::string, std::vector<ValueRef>> Collected;
        for (const ActionLogEntry &E : Res.Log)
          Collected[E.Action].push_back(E.Arg);
        std::map<std::string, ValueRef> ArgsByAction;
        for (const ActionDecl &A : Res.Spec->Actions) {
          auto It = Collected.find(A.Name);
          std::vector<ValueRef> Args =
              It == Collected.end() ? std::vector<ValueRef>{} : It->second;
          ArgsByAction[A.Name] = A.Unique ? ValueFactory::seq(Args)
                                          : ValueFactory::multiset(Args);
        }
        EXPECT_TRUE(consistentWith(Runtime, Res.InitialValue, ArgsByAction,
                                   Res.Value))
            << C.File << ": final value inconsistent with action log";

        // (2) Permutation stability of the abstraction: swap adjacent log
        // entries whenever legal (different actions, or a shared action)
        // and replay.
        ValueRef BaseAlpha = Runtime.alphaOf(
            replayLog(Runtime, Res.InitialValue, Res.Log));
        std::mt19937_64 Rng(Seed);
        for (int Perm = 0; Perm < 10 && Res.Log.size() >= 2; ++Perm) {
          std::vector<ActionLogEntry> Shuffled = Res.Log;
          for (int Swap = 0; Swap < 8; ++Swap) {
            size_t I = Rng() % (Shuffled.size() - 1);
            const ActionLogEntry &X = Shuffled[I];
            const ActionLogEntry &Y = Shuffled[I + 1];
            bool Legal = X.Action != Y.Action || !X.Unique;
            if (Legal)
              std::swap(Shuffled[I], Shuffled[I + 1]);
          }
          ValueRef Alpha = Runtime.alphaOf(
              replayLog(Runtime, Res.InitialValue, Shuffled));
          EXPECT_TRUE(Value::equal(Alpha, BaseAlpha))
              << C.File << ": abstraction changed under a legal permutation";
        }
      }
    }
  }
}

TEST(CorpusPropertyTest, VerifiedExamplesScheduleInsensitive) {
  // For each verified example: fixed inputs, many schedulers — identical
  // low outputs (here: all declared-low returns).
  for (const CorpusCase &C : Corpus) {
    if (!C.ExpectVerified)
      continue;
    Driver D;
    DriverResult R = D.verifyFile(pathOf(C.File));
    ASSERT_TRUE(R.ParseOk);
    const ProcDecl *Main = R.Prog->findProc("main");
    ASSERT_NE(Main, nullptr);
    std::mt19937_64 Rng(11);
    std::vector<ValueRef> Inputs;
    for (const Param &P : Main->Params)
      Inputs.push_back(
          P.Ty->toDomain(Type::ScopeParams{0, 3, 3})->sample(Rng));
    Interpreter Interp(*R.Prog);
    std::optional<std::vector<ValueRef>> Reference;
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      RandomScheduler Sched(Seed);
      RunResult Run = Interp.run("main", Inputs, Sched);
      if (!Run.ok())
        break; // sampler missed a precondition; skip this example
      if (!Reference) {
        Reference = Run.Returns;
        continue;
      }
      for (size_t I = 0; I < Run.Returns.size(); ++I)
        EXPECT_TRUE(Value::equal(Run.Returns[I], (*Reference)[I]))
            << C.File << ": output " << I << " differs across schedules";
    }
  }
}
