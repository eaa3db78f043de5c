//===-- rspec/EvalCache.cpp - Memoized spec evaluation ---------------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "rspec/EvalCache.h"

#include <algorithm>

using namespace commcsl;

namespace {

/// Evicts every other entry in bucket-iteration order, so a full shard
/// sheds half its load instead of dropping everything at once (which would
/// force every cached key to recompute right when the cache is hottest).
template <typename MapT> void evictHalf(MapT &Map) {
  bool Drop = true;
  for (auto It = Map.begin(); It != Map.end();) {
    if (Drop)
      It = Map.erase(It);
    else
      ++It;
    Drop = !Drop;
  }
}

} // namespace

SpecEvalCache::SpecEvalCache(size_t MaxEntries)
    : ShardCap(std::max<size_t>(64, MaxEntries / (2 * NumShards))) {}
// MaxEntries is split between the alpha and action tables (hence /2), then
// across shards. The floor keeps tiny configurations usable.

ValueRef SpecEvalCache::lookupAlpha(const ValueRef &State) {
  AlphaShard &S = AlphaShards[State->hash() % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(State);
  if (It != S.Map.end()) {
    ++S.Hits;
    return It->second;
  }
  ++S.Misses;
  return nullptr;
}

void SpecEvalCache::insertAlpha(const ValueRef &State,
                                const ValueRef &Result) {
  AlphaShard &S = AlphaShards[State->hash() % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Map.size() >= ShardCap)
    evictHalf(S.Map);
  S.Map.emplace(State, Result); // a racing insert of the same key is a no-op
}

ValueRef SpecEvalCache::lookupAction(const ActionDecl &Action,
                                     const ValueRef &State,
                                     const ValueRef &Arg) {
  ActionKey K{&Action, State, Arg};
  ActionShard &S = ActionShards[ActionKeyHash()(K) % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mu);
  auto It = S.Map.find(K);
  if (It != S.Map.end()) {
    ++S.Hits;
    return It->second;
  }
  ++S.Misses;
  return nullptr;
}

void SpecEvalCache::insertAction(const ActionDecl &Action,
                                 const ValueRef &State, const ValueRef &Arg,
                                 const ValueRef &Result) {
  ActionKey K{&Action, State, Arg};
  ActionShard &S = ActionShards[ActionKeyHash()(K) % NumShards];
  std::lock_guard<std::mutex> Lock(S.Mu);
  if (S.Map.size() >= ShardCap)
    evictHalf(S.Map);
  S.Map.emplace(std::move(K), Result);
}

CacheStats SpecEvalCache::stats() const {
  CacheStats Total;
  for (const AlphaShard &S : AlphaShards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Total.Hits += S.Hits;
    Total.Misses += S.Misses;
  }
  for (const ActionShard &S : ActionShards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    Total.Hits += S.Hits;
    Total.Misses += S.Misses;
  }
  return Total;
}

std::shared_ptr<SpecEvalCache>
SpecCacheRegistry::cacheFor(const ResourceSpecDecl *Spec) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::shared_ptr<SpecEvalCache> &C = Caches[Spec];
  if (!C)
    C = std::make_shared<SpecEvalCache>();
  return C;
}
