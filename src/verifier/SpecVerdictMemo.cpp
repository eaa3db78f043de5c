//===-- verifier/SpecVerdictMemo.cpp - Validity verdict memo ---------------===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//

#include "verifier/SpecVerdictMemo.h"

#include "support/trace/Metrics.h"

using namespace commcsl;

namespace {

/// Set while this thread runs a memo computation. A computation that
/// reaches another lookup (possible only when validity fans out on the
/// shared pool and this thread helps drain it) computes privately instead
/// of waiting, so two computations can never wait on each other.
thread_local bool InCompute = false;

struct ComputeScope {
  bool Outer = InCompute;
  ComputeScope() { InCompute = true; }
  ~ComputeScope() { InCompute = Outer; }
};

} // namespace

std::shared_ptr<const SpecVerdict>
SpecVerdictMemo::getOrCompute(const std::string &Key,
                              const std::function<SpecVerdict()> &Compute) {
  MetricsRegistry &M = MetricsRegistry::global();
  bool Owner = false;
  {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      auto It = Verdicts.find(Key);
      if (It == Verdicts.end()) {
        Verdicts.emplace(Key, nullptr);
        Owner = true;
        break;
      }
      if (It->second) {
        M.counter("validity.verdict_memo.hits").add(1);
        return It->second;
      }
      if (InCompute)
        break;
      // In flight elsewhere. If that computation times out it stores
      // nothing, and one of the waiters becomes the next owner.
      Done.wait(Lock);
    }
  }
  M.counter("validity.verdict_memo.computed").add(1);

  auto Settle = [&](std::shared_ptr<const SpecVerdict> V) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (V)
      Verdicts[Key] = std::move(V);
    else
      Verdicts.erase(Key);
    Done.notify_all();
  };
  std::shared_ptr<const SpecVerdict> V;
  try {
    ComputeScope Scope;
    V = std::make_shared<const SpecVerdict>(Compute());
  } catch (...) {
    if (Owner)
      Settle(nullptr);
    throw;
  }
  if (Owner)
    Settle(V->TimedOut ? nullptr : V);
  return V;
}
