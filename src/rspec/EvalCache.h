//===-- rspec/EvalCache.h - Memoized spec evaluation ------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent memoization of the two hot resource-specification
/// evaluations: `alpha(v)` and `f_a(v, arg)`. The Def. 3.1 validity checker
/// and the empirical NI harness evaluate these millions of times over a
/// small universe of values, so both calls are cached per specification in
/// sharded hash tables keyed by the (interned, hence pointer-comparable)
/// argument values. A memo lives exactly as long as one
/// `ValidityChecker` or one NI sweep: it is never shared across checks,
/// sweeps or serve requests (whole verdicts are, by the content-keyed
/// verifier/SpecVerdictMemo.h).
///
/// Evaluation is pure and deterministic, so memoization cannot change any
/// verdict, counterexample, or report — only the hit/miss counters (which
/// are diagnostic and may vary with thread interleaving when two workers
/// race to compute the same key).
///
/// Each shard is capacity-bounded: on overflow half of the shard's entries
/// are evicted (an every-other sweep in bucket order), so a large check
/// cannot grow the cache without bound yet a full shard keeps half its
/// working set instead of recomputing everything at once.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_RSPEC_EVALCACHE_H
#define COMMCSL_RSPEC_EVALCACHE_H

#include "lang/Program.h"
#include "value/Value.h"

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace commcsl {

/// Lookup counters of one memo, surfaced in `ValidityResult::Cache`.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
};

/// Per-specification concurrent memo for `alpha` and action applications.
/// Thread-safe; shards keep lock contention negligible at `--jobs N`.
class SpecEvalCache {
public:
  static constexpr size_t DefaultMaxEntries = size_t(1) << 20;

  explicit SpecEvalCache(size_t MaxEntries = DefaultMaxEntries);

  /// Returns the cached `alpha(State)`, or computes, caches, and returns
  /// it. \p Compute must be a pure function of \p State.
  template <typename ComputeFn>
  ValueRef alpha(const ValueRef &State, ComputeFn &&Compute) {
    if (ValueRef Hit = lookupAlpha(State))
      return Hit;
    ValueRef R = Compute();
    insertAlpha(State, R);
    return R;
  }

  /// Returns the cached `f_Action(State, Arg)`, or computes, caches, and
  /// returns it. \p Compute must be a pure function of the key.
  template <typename ComputeFn>
  ValueRef action(const ActionDecl &Action, const ValueRef &State,
                  const ValueRef &Arg, ComputeFn &&Compute) {
    if (ValueRef Hit = lookupAction(Action, State, Arg))
      return Hit;
    ValueRef R = Compute();
    insertAction(Action, State, Arg, R);
    return R;
  }

  CacheStats stats() const;

  /// Per-shard entry bound of each of the two tables (exposed so tests can
  /// assert the capacity invariant).
  size_t shardCap() const { return ShardCap; }
  static constexpr size_t numShards() { return NumShards; }

private:
  static constexpr unsigned NumShards = 16;

  /// Keys hold strong references: a live key can never be a stale pointer,
  /// so pointer-equality fast paths in Value::equal stay sound even though
  /// the interner only tracks live values.
  struct AlphaShard {
    mutable std::mutex Mu;
    std::unordered_map<ValueRef, ValueRef, ValueRefHash, ValueRefEq> Map;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };

  struct ActionKey {
    const ActionDecl *Action = nullptr;
    ValueRef State;
    ValueRef Arg;
  };
  struct ActionKeyHash {
    size_t operator()(const ActionKey &K) const {
      size_t H = std::hash<const void *>()(K.Action);
      H ^= K.State->hash() + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H ^= K.Arg->hash() + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      return H;
    }
  };
  struct ActionKeyEq {
    bool operator()(const ActionKey &A, const ActionKey &B) const {
      return A.Action == B.Action && Value::equal(A.State, B.State) &&
             Value::equal(A.Arg, B.Arg);
    }
  };
  struct ActionShard {
    mutable std::mutex Mu;
    std::unordered_map<ActionKey, ValueRef, ActionKeyHash, ActionKeyEq> Map;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };

  ValueRef lookupAlpha(const ValueRef &State);
  void insertAlpha(const ValueRef &State, const ValueRef &Result);
  ValueRef lookupAction(const ActionDecl &Action, const ValueRef &State,
                        const ValueRef &Arg);
  void insertAction(const ActionDecl &Action, const ValueRef &State,
                    const ValueRef &Arg, const ValueRef &Result);

  size_t ShardCap; ///< per-shard entry bound; evict half on overflow
  std::array<AlphaShard, NumShards> AlphaShards;
  std::array<ActionShard, NumShards> ActionShards;
};

/// Maps resource-spec declarations to their evaluation caches, so the
/// transient `RSpecRuntime` instances of one NI sweep (one per interpreted
/// `perform`) share one cache per spec. The registry must not outlive the
/// program owning the spec declarations it has seen.
class SpecCacheRegistry {
public:
  /// The cache for \p Spec, created on first use. Thread-safe.
  std::shared_ptr<SpecEvalCache> cacheFor(const ResourceSpecDecl *Spec);

private:
  std::mutex Mu;
  std::map<const ResourceSpecDecl *, std::shared_ptr<SpecEvalCache>> Caches;
};

} // namespace commcsl

#endif // COMMCSL_RSPEC_EVALCACHE_H
