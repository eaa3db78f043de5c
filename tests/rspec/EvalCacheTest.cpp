//===-- tests/rspec/EvalCacheTest.cpp - Spec memo tests --------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SpecEvalCache: a runtime with the memo attached evaluates exactly like
/// one without it, a full shard evicts half of its entries (not all of
/// them), and the live entries never exceed the configured capacity.
///
//===----------------------------------------------------------------------===//

#include "rspec/EvalCache.h"
#include "rspec/RSpec.h"

#include "tests/common/TestUtil.h"

#include <gtest/gtest.h>

#include <vector>

using namespace commcsl;
using namespace commcsl::test;

namespace {

/// Distinct interned integer values make distinct cache keys.
ValueRef key(int64_t I) { return ValueFactory::intV(I); }

/// Whether \p K is cached in the alpha table. A throwing compute makes the
/// lookup pure: a miss inserts nothing, so probing never evicts.
bool alphaCached(SpecEvalCache &C, const ValueRef &K) {
  try {
    C.alpha(K, []() -> ValueRef { throw 0; });
    return true;
  } catch (int) {
    return false;
  }
}

bool actionCached(SpecEvalCache &C, const ActionDecl &A, const ValueRef &K) {
  try {
    C.action(A, K, K, []() -> ValueRef { throw 0; });
    return true;
  } catch (int) {
    return false;
  }
}

} // namespace

TEST(EvalCacheTest, CachedRuntimeEvaluatesLikeUncached) {
  Program P = parseChecked(R"(
    resource Mod {
      state: int;
      alpha(v) = v % 3;
      shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
    }
  )");
  const ResourceSpecDecl &Spec = P.Specs[0];
  const ActionDecl &Add = Spec.Actions[0];
  RSpecRuntime Plain(Spec, &P);
  RSpecRuntime Cached(Spec, &P, std::make_shared<SpecEvalCache>());
  for (int Pass = 0; Pass < 2; ++Pass)
    for (int64_t V = -5; V <= 5; ++V) {
      EXPECT_TRUE(Value::equal(Cached.alphaOf(key(V)), Plain.alphaOf(key(V))))
          << V;
      for (int64_t A = -2; A <= 2; ++A)
        EXPECT_TRUE(Value::equal(Cached.applyAction(Add, key(V), key(A)),
                                 Plain.applyAction(Add, key(V), key(A))))
            << V << " " << A;
    }
  // The second pass was served from the memo.
  EXPECT_EQ(Cached.cacheStats().misses(), 11u + 11u * 5u);
  EXPECT_EQ(Cached.cacheStats().hits(), 11u + 11u * 5u);
  EXPECT_EQ(Plain.cacheStats().hits() + Plain.cacheStats().misses(), 0u);
}

TEST(EvalCacheTest, FirstOverflowEvictsHalfTheShardNotAll) {
  SpecEvalCache C(/*MaxEntries=*/0); // floor: ShardCap = 64
  const size_t Cap = C.shardCap();
  ASSERT_EQ(Cap, 64u);
  // Cap + 1 keys that all land in one alpha shard: the last insert finds
  // the shard full.
  std::vector<ValueRef> Keys;
  for (int64_t I = 0; Keys.size() < Cap + 1; ++I)
    if (key(I)->hash() % SpecEvalCache::numShards() == 0)
      Keys.push_back(key(I));
  for (const ValueRef &K : Keys)
    C.alpha(K, [&] { return K; });
  // evictHalf drops every other entry of the full shard: exactly Cap / 2
  // of the first Cap keys survive. Dropping everything would leave none.
  size_t Survivors = 0;
  for (size_t I = 0; I < Cap; ++I)
    Survivors += alphaCached(C, Keys[I]);
  EXPECT_EQ(Survivors, Cap / 2);
  EXPECT_TRUE(alphaCached(C, Keys[Cap]));
}

TEST(EvalCacheTest, EntriesNeverExceedConfiguredCapacity) {
  SpecEvalCache C(/*MaxEntries=*/0);
  const size_t TableCap = SpecEvalCache::numShards() * C.shardCap();
  ActionDecl Action;
  Action.Name = "act";
  constexpr int64_t N = 20000;
  for (int64_t I = 0; I < N; ++I) {
    ValueRef V = key(I);
    C.alpha(V, [&] { return V; });
    C.action(Action, V, V, [&] { return V; });
  }
  size_t Alpha = 0, Act = 0;
  for (int64_t I = 0; I < N; ++I) {
    Alpha += alphaCached(C, key(I));
    Act += actionCached(C, Action, key(I));
  }
  EXPECT_LE(Alpha, TableCap);
  EXPECT_LE(Act, TableCap);
  // Halving keeps survivors: the cache never collapses to empty shards.
  EXPECT_GE(Alpha + Act, 2 * TableCap / 4);
}

TEST(EvalCacheTest, SurvivorsStillHitAfterEviction) {
  SpecEvalCache C(/*MaxEntries=*/0);
  // Fill well past capacity, then re-query everything: survivors hit, the
  // evicted half recomputes (and every returned value is still correct).
  for (int64_t I = 0; I < 5000; ++I) {
    ValueRef V = key(I);
    C.alpha(V, [&] { return V; });
  }
  uint64_t HitsBefore = C.stats().hits();
  unsigned Recomputed = 0;
  for (int64_t I = 0; I < 5000; ++I) {
    ValueRef V = key(I);
    ValueRef R = C.alpha(V, [&] {
      ++Recomputed;
      return V;
    });
    EXPECT_TRUE(Value::equal(R, V));
  }
  EXPECT_GT(C.stats().hits(), HitsBefore); // some keys survived eviction
  EXPECT_GT(Recomputed, 0u);               // and some were evicted
  EXPECT_LT(Recomputed, 5000u);
}

TEST(EvalCacheTest, RegistryMapsEachSpecToOneCache) {
  SpecCacheRegistry Registry;
  ResourceSpecDecl SpecA, SpecB;
  SpecA.Name = "a";
  SpecB.Name = "b";
  std::shared_ptr<SpecEvalCache> CA = Registry.cacheFor(&SpecA);
  std::shared_ptr<SpecEvalCache> CB = Registry.cacheFor(&SpecB);
  EXPECT_NE(CA, CB);
  EXPECT_EQ(Registry.cacheFor(&SpecA), CA); // stable mapping
}
