//===-- value/Intern.h - Hash-consed value interning ------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, sharded hash-cons table for the value domain. Every value
/// built through `ValueFactory` is routed here; while interning is enabled
/// (the default), structurally equal values share one canonical `Value`
/// object. That upgrades `Value::equal`, `ValueRefHash`-based bucketing
/// (e.g. the validity checker's same-alpha grouping), and the evaluation
/// memo caches' key comparisons to O(1) pointer/word operations.
///
/// The table holds weak references only, so it never extends a value's
/// lifetime: memory stays bounded by the set of live values, and expired
/// slots are swept lazily whenever a shard grows past an adaptive
/// threshold. The canonicity invariant is therefore: any two *live*
/// interned values that are structurally equal are the same object. (Dead
/// values cannot be observed, so the invariant is exactly what
/// `Value::equal`'s pointer fast path needs.)
///
/// Interning can be disabled (`setEnabled(false)`) for ablation; values
/// built while disabled are ordinary uninterned objects and equality falls
/// back to hash-filtered structural comparison. Toggling is safe at any
/// quiescent point: the interned flag is only ever set by the table, so the
/// invariant above survives arbitrary enable/disable sequences. (The
/// scalar singletons `ValueFactory` caches — unit, the booleans, small
/// integers — are built once at first use and served from their caches
/// regardless of the toggle, exactly like the pre-existing `unit()` cache.)
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_VALUE_INTERN_H
#define COMMCSL_VALUE_INTERN_H

#include "value/Value.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace commcsl {

/// Process-wide hash-cons table, sharded to stay contention-free under
/// concurrent construction from pool workers.
class ValueInterner {
public:
  /// Aggregate counters across all shards. Hits count constructions that
  /// found an existing canonical object; Misses count adoptions of a new
  /// one; Purged counts swept expired slots; Live is the current number of
  /// (possibly expired) table slots.
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Purged = 0;
    uint64_t Live = 0;
  };

  /// The process-wide interner used by `ValueFactory`.
  static ValueInterner &global();

  /// Whether hash-consing is active. When off, `intern` just wraps the
  /// fresh value without canonicalizing it.
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }

  /// Enables/disables hash-consing. Call only at quiescent points (no
  /// concurrent value construction); intended for benchmarks and tests.
  static void setEnabled(bool On) {
    Enabled.store(On, std::memory_order_relaxed);
  }

  /// Canonicalizes a staged (stack-built) value: returns the existing
  /// canonical representative, performing no allocation at all on a hit, or
  /// materializes \p Staged on the heap and adopts it as canonical.
  /// \p Staged must have its hash fixed.
  ValueRef intern(Value &&Staged);

  Stats stats() const;

private:
  static constexpr size_t ShardBits = 6;
  static constexpr size_t NumShards = size_t(1) << ShardBits;

  struct Shard {
    mutable std::mutex Mu;
    /// Structural hash -> weak ref to the canonical value. A multimap
    /// because distinct values may collide on the hash.
    std::unordered_multimap<size_t, std::weak_ptr<const Value>> Table;
    /// Sweep expired slots when the table grows past this; re-armed to
    /// twice the surviving size.
    size_t PurgeAt = 1024;
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Purged = 0;
  };

  std::array<Shard, NumShards> Shards;
  static std::atomic<bool> Enabled;
};

} // namespace commcsl

#endif // COMMCSL_VALUE_INTERN_H
