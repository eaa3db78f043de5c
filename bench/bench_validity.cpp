//===-- bench/bench_validity.cpp - Validity checker ablation ----*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the Def. 3.1 validity checker (our substitution for the
/// paper's Viper/Z3 backend): bounded-exhaustive vs. randomized tiers,
/// scope scaling, and time-to-counterexample for invalid specifications
/// (Fig. 1's assignments, the Fig. 3 map without the key-set abstraction,
/// and the App. D sequence-abstraction pitfall).
///
//===----------------------------------------------------------------------===//

#include "lang/TypeChecker.h"
#include "parser/Parser.h"
#include "rspec/Validity.h"
#include "value/Intern.h"

#include <benchmark/benchmark.h>

using namespace commcsl;

namespace {

Program parseSpec(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = Parser::parse(Source, Diags);
  TypeChecker Checker(P, Diags);
  Checker.check();
  assert(!Diags.hasErrors());
  return P;
}

const char *CounterSpec = R"(
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
  }
)";

const char *MapKeySetSpec = R"(
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
)";

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

const char *RacySpec = R"(
  resource Racy {
    state: int;
    alpha(v) = v;
    unique action SetL(a: unit) { apply(v, a) = 3; }
    unique action SetR(a: unit) { apply(v, a) = 4; }
  }
)";

const char *OrderedListSpec = R"(
  resource OrderedList {
    state: seq<int>;
    alpha(v) = v;
    shared action Append(a: int) { apply(v, a) = append(v, a); requires low(a); }
  }
)";

void runValidity(benchmark::State &State, const char *Source, bool Bounded,
                 bool Random, bool ExpectValid) {
  Program P = parseSpec(Source);
  RSpecRuntime Runtime(P.Specs[0], &P);
  ValidityConfig Cfg;
  Cfg.RunBoundedTier = Bounded;
  Cfg.RunRandomTier = Random;
  uint64_t Checks = 0;
  for (auto _ : State) {
    ValidityChecker Checker(Runtime, Cfg);
    ValidityResult R = Checker.check();
    if (R.Valid != ExpectValid)
      State.SkipWithError("unexpected validity verdict");
    Checks = R.BoundedChecks + R.RandomChecks;
    benchmark::DoNotOptimize(R);
  }
  State.counters["checks"] = static_cast<double>(Checks);
}

void BM_Valid_Counter_Both(benchmark::State &S) {
  runValidity(S, CounterSpec, true, true, true);
}
void BM_Valid_Counter_BoundedOnly(benchmark::State &S) {
  runValidity(S, CounterSpec, true, false, true);
}
void BM_Valid_MapKeySet_Both(benchmark::State &S) {
  runValidity(S, MapKeySetSpec, true, true, true);
}
void BM_Valid_MapKeySet_RandomOnly(benchmark::State &S) {
  runValidity(S, MapKeySetSpec, false, true, true);
}
void BM_Valid_Queue_Both(benchmark::State &S) {
  runValidity(S, QueueSpec, true, true, true);
}
void BM_Refute_Fig1Racy(benchmark::State &S) {
  runValidity(S, RacySpec, true, true, false);
}
void BM_Refute_OrderedList(benchmark::State &S) {
  runValidity(S, OrderedListSpec, true, true, false);
}

BENCHMARK(BM_Valid_Counter_Both)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Valid_Counter_BoundedOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Valid_MapKeySet_Both)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Valid_MapKeySet_RandomOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Valid_Queue_Both)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Refute_Fig1Racy)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Refute_OrderedList)->Unit(benchmark::kMicrosecond);

/// Scope scaling: how the bounded tier's cost grows with the enumeration
/// scope (collection bound 1..3).
void BM_ScopeScaling_MapKeySet(benchmark::State &State) {
  std::string Source = std::string(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope int -1 .. 1;
      scope size )") + std::to_string(State.range(0)) + R"(;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )";
  Program P = parseSpec(Source);
  RSpecRuntime Runtime(P.Specs[0], &P);
  ValidityConfig Cfg;
  Cfg.RunRandomTier = false;
  uint64_t Checks = 0;
  for (auto _ : State) {
    ValidityChecker Checker(Runtime, Cfg);
    ValidityResult R = Checker.check();
    Checks = R.BoundedChecks;
    benchmark::DoNotOptimize(R);
  }
  State.counters["checks"] = static_cast<double>(Checks);
}
BENCHMARK(BM_ScopeScaling_MapKeySet)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

/// Parallel scaling of the bounded tier: the same (scope size 3) workload
/// sharded over 1/2/4 worker threads. The verdict and check counts are
/// identical at every arity (see ValidityConfig::Jobs); `cpu_over_wall`
/// reports the realized speedup (aggregate worker seconds / wall seconds),
/// which approaches the job count on a machine with that many free cores.
void BM_JobsScaling_MapKeySet(benchmark::State &State) {
  std::string Source = std::string(R"(
    resource MapKS {
      state: map<int, int>;
      alpha(v) = dom(v);
      scope int -1 .. 1;
      scope size 3;
      shared action Put(a: pair<int, int>) {
        apply(v, a) = map_put(v, fst(a), snd(a));
        requires low(fst(a));
      }
    }
  )");
  Program P = parseSpec(Source);
  RSpecRuntime Runtime(P.Specs[0], &P);
  ValidityConfig Cfg;
  Cfg.RunRandomTier = false;
  Cfg.Jobs = static_cast<unsigned>(State.range(0));
  uint64_t Checks = 0;
  double Ratio = 1;
  for (auto _ : State) {
    ValidityChecker Checker(Runtime, Cfg);
    ValidityResult R = Checker.check();
    if (!R.Valid)
      State.SkipWithError("unexpected validity verdict");
    Checks = R.BoundedChecks;
    if (R.WallSeconds > 0)
      Ratio = R.CpuSeconds / R.WallSeconds;
    benchmark::DoNotOptimize(R);
  }
  State.counters["checks"] = static_cast<double>(Checks);
  State.counters["cpu_over_wall"] = Ratio;
}
BENCHMARK(BM_JobsScaling_MapKeySet)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// Tier-4 conclusiveness ablation: the full tier stack with the
/// differencing abstract tier toggled (arg: 0 = off, 1 = on). Verdicts are
/// identical either way; what changes is how *conclusive* a `valid` is.
/// The `unbounded` counter (1.0 when the spec concluded over the full
/// unbounded domains) and the `checks` counter (concrete instances the
/// run still needed — 0 when the abstract tier proved everything) are
/// BENCH_validity.json's conclusiveness column. The Queue row documents
/// the deliberate fall-through: `enabled`/`history` clauses stay with the
/// concrete tiers, so it reports unbounded=0 at both settings.
void runAbsintAblation(benchmark::State &State, const char *Source) {
  Program P = parseSpec(Source);
  RSpecRuntime Runtime(P.Specs[0], &P);
  ValidityConfig Cfg;
  Cfg.RunAbsintTier = State.range(0) != 0;
  uint64_t Checks = 0;
  bool Unbounded = false;
  for (auto _ : State) {
    ValidityChecker Checker(Runtime, Cfg);
    ValidityResult R = Checker.check();
    if (!R.Valid)
      State.SkipWithError("unexpected validity verdict");
    Checks = R.BoundedChecks + R.RandomChecks;
    Unbounded = R.Unbounded;
    benchmark::DoNotOptimize(R);
  }
  State.counters["checks"] = static_cast<double>(Checks);
  State.counters["unbounded"] = Unbounded ? 1.0 : 0.0;
}
void BM_AbsintConclusive_Counter(benchmark::State &S) {
  runAbsintAblation(S, CounterSpec);
}
void BM_AbsintConclusive_MapKeySet(benchmark::State &S) {
  runAbsintAblation(S, MapKeySetSpec);
}
void BM_AbsintConclusive_Queue(benchmark::State &S) {
  runAbsintAblation(S, QueueSpec);
}
BENCHMARK(BM_AbsintConclusive_Counter)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AbsintConclusive_MapKeySet)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AbsintConclusive_Queue)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// Interning / memoization ablation: the scope-3 bounded workload with
/// value interning and alpha/f_a memoization independently toggled.
/// Verdicts and check counts are identical across all four variants; only
/// the evaluation cost changes. Arg encoding: bit 0 = interning on,
/// bit 1 = memoization on.
void BM_InternMemoAblation_MapKeySet(benchmark::State &State) {
  bool Intern = State.range(0) & 1;
  bool Memo = State.range(0) & 2;
  bool WasEnabled = ValueInterner::enabled();
  ValueInterner::setEnabled(Intern);
  {
    std::string Source = std::string(R"(
      resource MapKS {
        state: map<int, int>;
        alpha(v) = dom(v);
        scope int -1 .. 1;
        scope size 3;
        shared action Put(a: pair<int, int>) {
          apply(v, a) = map_put(v, fst(a), snd(a));
          requires low(fst(a));
        }
      }
    )");
    Program P = parseSpec(Source);
    RSpecRuntime Runtime(P.Specs[0], &P);
    ValidityConfig Cfg;
    // The absint tier proves MapKS unbounded before any enumeration; off,
    // so the bounded tier this ablates actually runs.
    Cfg.RunAbsintTier = false;
    Cfg.RunRandomTier = false;
    Cfg.Jobs = 1;
    Cfg.Memoize = Memo;
    uint64_t Checks = 0;
    double HitRate = 0;
    for (auto _ : State) {
      ValidityChecker Checker(Runtime, Cfg);
      ValidityResult R = Checker.check();
      if (!R.Valid)
        State.SkipWithError("unexpected validity verdict");
      Checks = R.BoundedChecks;
      if (Checks == 0) {
        State.SkipWithError("no bounded checks ran: nothing is measured");
        break;
      }
      uint64_t Lookups = R.Cache.hits() + R.Cache.misses();
      HitRate = Lookups ? static_cast<double>(R.Cache.hits()) / Lookups : 0;
      benchmark::DoNotOptimize(R);
    }
    State.counters["checks"] = static_cast<double>(Checks);
    State.counters["hit_rate"] = HitRate;
  }
  ValueInterner::setEnabled(WasEnabled);
}
BENCHMARK(BM_InternMemoAblation_MapKeySet)
    ->Arg(0) // baseline: no interning, no memo
    ->Arg(1) // interning only
    ->Arg(2) // memo only (structural-compare keys)
    ->Arg(3) // interning + memo
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
