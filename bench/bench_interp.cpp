//===-- bench/bench_interp.cpp - Interpreter throughput ---------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Throughput benchmarks for the operational-semantics substrate: steps
/// per second of the concurrent interpreter on the Fig. 2 workload under
/// different schedulers.
///
//===----------------------------------------------------------------------===//

#include "lang/TypeChecker.h"
#include "parser/Parser.h"
#include "sem/Interp.h"
#include "sem/Scheduler.h"

#include <benchmark/benchmark.h>

using namespace commcsl;

namespace {

Program parseProgram(const std::string &Source) {
  DiagnosticEngine Diags;
  Program P = Parser::parse(Source, Diags);
  TypeChecker Checker(P, Diags);
  Checker.check();
  assert(!Diags.hasErrors());
  return P;
}

const char *CounterWorkload = R"(
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) { apply(v, a) = v + a; requires low(a); }
  }
  procedure worker(vals: seq<int>, c: resource<Counter>)
    requires low(vals)
    requires sguard(c.Add, 1/2, empty)
    ensures sguard(c.Add, 1/2, S) && allpre(c.Add, S)
  {
    var i: int := 0;
    while (i < len(vals))
      invariant low(i) && sguard(c.Add, 1/2, T) && allpre(c.Add, T)
    {
      atomic c { perform c.Add(at(vals, i)); }
      i := i + 1;
    }
  }
  procedure main(vals: seq<int>) returns (out: int)
    requires low(vals)
    ensures low(out)
  {
    share c: Counter := 0;
    par { call worker(vals, c); } and { call worker(vals, c); }
    out := unshare c;
  }
)";

ValueRef seqOfSize(int64_t N) {
  std::vector<ValueRef> Elems;
  for (int64_t I = 0; I < N; ++I)
    Elems.push_back(ValueFactory::intV(I % 7));
  return ValueFactory::seq(std::move(Elems));
}

void BM_Interp_Counter_Random(benchmark::State &State) {
  Program P = parseProgram(CounterWorkload);
  Interpreter Interp(P);
  ValueRef Vals = seqOfSize(State.range(0));
  uint64_t Steps = 0;
  uint64_t Seed = 1;
  for (auto _ : State) {
    RandomScheduler Sched(Seed++);
    RunResult R = Interp.run("main", {Vals}, Sched);
    if (!R.ok())
      State.SkipWithError("run aborted");
    Steps += R.Steps;
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}
BENCHMARK(BM_Interp_Counter_Random)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_Interp_Counter_RoundRobin(benchmark::State &State) {
  Program P = parseProgram(CounterWorkload);
  Interpreter Interp(P);
  ValueRef Vals = seqOfSize(State.range(0));
  uint64_t Steps = 0;
  for (auto _ : State) {
    RoundRobinScheduler Sched;
    RunResult R = Interp.run("main", {Vals}, Sched);
    if (!R.ok())
      State.SkipWithError("run aborted");
    Steps += R.Steps;
    benchmark::DoNotOptimize(R);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}
BENCHMARK(BM_Interp_Counter_RoundRobin)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
