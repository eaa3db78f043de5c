//===-- tests/rspec/ConsistencyTest.cpp - Sec. 3.5 consistency tests ------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the consistency relation of Sec. 3.5: a final resource value must
/// be reachable by applying every recorded argument once, in an order that
/// keeps unique actions' arguments in sequence.
///
//===----------------------------------------------------------------------===//

#include "rspec/RSpec.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

using namespace commcsl;
using namespace commcsl::test;

TEST(ConsistencyTest, FindsAnInterleaving) {
  Program P = parseChecked(R"(
    resource Counter {
      state: int;
      alpha(v) = v;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
  )");
  RSpecRuntime RT(P.Specs[0], &P);
  std::map<std::string, ValueRef> Args{{"Add", msv({3, 4})}};
  EXPECT_TRUE(consistentWith(RT, iv(0), Args, iv(7)));
  EXPECT_FALSE(consistentWith(RT, iv(0), Args, iv(8)));
}

TEST(ConsistencyTest, RespectsUniqueActionOrder) {
  Program P = parseChecked(R"(
    resource Seqs {
      state: seq<int>;
      alpha(v) = v;
      unique action App(a: int) { apply(v, a) = append(v, a); requires low(a); }
    }
  )");
  RSpecRuntime RT(P.Specs[0], &P);
  std::map<std::string, ValueRef> Args{{"App", sv({1, 2})}};
  EXPECT_TRUE(consistentWith(RT, sv({}), Args, sv({1, 2})));
  // The unique action's order is fixed: [2, 1] is not reachable.
  EXPECT_FALSE(consistentWith(RT, sv({}), Args, sv({2, 1})));
}

TEST(ConsistencyTest, SharedArgsMayInterleave) {
  Program P = parseChecked(R"(
    resource Seqs {
      state: seq<int>;
      alpha(v) = seq_to_mset(v);
      shared action App(a: int) { apply(v, a) = append(v, a); requires low(a); }
    }
  )");
  RSpecRuntime RT(P.Specs[0], &P);
  std::map<std::string, ValueRef> Args{{"App", msv({1, 2})}};
  // Both orders are reachable for a shared action.
  EXPECT_TRUE(consistentWith(RT, sv({}), Args, sv({1, 2})));
  EXPECT_TRUE(consistentWith(RT, sv({}), Args, sv({2, 1})));
  EXPECT_FALSE(consistentWith(RT, sv({}), Args, sv({1, 1})));
}
