//===-- support/ComputeOnceMemo.h - Content-keyed compute-once memo -*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe map from a content key to a value that is computed at most
/// once per key. Concurrent misses on one key wait for a single
/// computation, so the number of computations (and every counter they
/// bump) does not depend on thread interleaving. Only callers that opt out
/// of waiting (budgeted validity checks) may add a private computation
/// whose count depends on timing. The validity-verdict memo
/// (verifier/SpecVerdictMemo.h) and the certificate checker's spec-unit
/// memo (cert/Check.h) are both instances.
///
//===----------------------------------------------------------------------===//

#ifndef COMMCSL_SUPPORT_COMPUTEONCEMEMO_H
#define COMMCSL_SUPPORT_COMPUTEONCEMEMO_H

#include "support/trace/Metrics.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace commcsl {

template <typename V> class ComputeOnceMemo {
public:
  /// Lookups bump the stable counters \p HitsMetric / \p ComputedMetric. A
  /// computed value is stored only when \p Keep (if given) accepts it; a
  /// rejected value is handed back to the caller that computed it.
  ComputeOnceMemo(const char *HitsMetric, const char *ComputedMetric,
                  bool (*Keep)(const V &) = nullptr)
      : HitsMetric(HitsMetric), ComputedMetric(ComputedMetric), Keep(Keep) {}

  /// Returns the value stored under \p Key, or runs \p Compute, stores its
  /// result, and returns it. When \p Key is in flight elsewhere the caller
  /// waits for that computation, unless \p MayWait is false: then it runs
  /// \p Compute privately and stores nothing. A caller with its own budget
  /// passes false, so another caller's unbounded work cannot hold it.
  std::shared_ptr<const V> getOrCompute(const std::string &Key,
                                        const std::function<V()> &Compute,
                                        bool MayWait = true) {
    MetricsRegistry &M = MetricsRegistry::global();
    bool Owner = false;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      for (;;) {
        auto It = Values.find(Key);
        if (It == Values.end()) {
          Values.emplace(Key, nullptr);
          Owner = true;
          break;
        }
        if (It->second) {
          M.counter(HitsMetric).add(1);
          return It->second;
        }
        if (InCompute || !MayWait)
          break;
        // In flight elsewhere. If that computation stores nothing, one of
        // the waiters becomes the next owner.
        Done.wait(Lock);
      }
    }
    M.counter(ComputedMetric).add(1);

    auto Settle = [&](std::shared_ptr<const V> Val) {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Val)
        Values[Key] = std::move(Val);
      else
        Values.erase(Key);
      Done.notify_all();
    };
    std::shared_ptr<const V> Val;
    try {
      ComputeScope Scope;
      Val = std::make_shared<const V>(Compute());
    } catch (...) {
      if (Owner)
        Settle(nullptr);
      throw;
    }
    if (Owner)
      Settle(!Keep || Keep(*Val) ? Val : nullptr);
    return Val;
  }

private:
  /// Set while this thread runs a computation of this memo type. A
  /// computation that reaches another lookup (possible only when it fans
  /// out on the shared pool and this thread helps drain it) computes
  /// privately instead of waiting, so two computations can never wait on
  /// each other.
  static inline thread_local bool InCompute = false;

  struct ComputeScope {
    bool Outer = InCompute;
    ComputeScope() { InCompute = true; }
    ~ComputeScope() { InCompute = Outer; }
  };

  const char *HitsMetric;
  const char *ComputedMetric;
  bool (*Keep)(const V &);
  std::mutex Mu;
  std::condition_variable Done;
  /// A null value marks a key whose computation is in flight.
  std::unordered_map<std::string, std::shared_ptr<const V>> Values;
};

} // namespace commcsl

#endif // COMMCSL_SUPPORT_COMPUTEONCEMEMO_H
