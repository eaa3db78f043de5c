//===-- examples/audit_pipeline.cpp - Batch verification ---------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small "CI auditor" built on the library: verifies every `.hv` program
/// of the shipped corpus, cross-checks each verified program dynamically
/// with the scheduler harness, and exercises the consistency relation of
/// Sec. 3.5 on a recorded execution (the final resource value must be
/// reachable by *some* interleaving of the recorded actions — and, for a
/// valid spec, every permutation must agree modulo alpha).
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"
#include "rspec/RSpec.h"
#include "sem/Scheduler.h"
#include "value/ValueOps.h"

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace commcsl;

namespace {

/// Replays a finished run's action log against the Sec. 3.5 consistency
/// relation, as an end-to-end check of the semantics' bookkeeping.
bool checkConsistency(const Program &Prog, const ResourceState &Res) {
  RSpecRuntime Runtime(*Res.Spec, &Prog);
  std::map<std::string, ValueRef> ArgsByAction;
  std::map<std::string, std::vector<ValueRef>> Collected;
  for (const ActionLogEntry &E : Res.Log)
    Collected[E.Action].push_back(E.Arg);
  for (const ActionDecl &A : Res.Spec->Actions) {
    auto It = Collected.find(A.Name);
    std::vector<ValueRef> Args =
        It == Collected.end() ? std::vector<ValueRef>{} : It->second;
    ArgsByAction[A.Name] = A.Unique ? ValueFactory::seq(Args)
                                    : ValueFactory::multiset(Args);
  }
  return consistentWith(Runtime, Res.InitialValue, ArgsByAction, Res.Value);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Dir = Argc > 1 ? Argv[1] : COMMCSL_EXAMPLES_DIR;
  Driver D;

  unsigned Verified = 0, Rejected = 0, Dynamic = 0, Consistent = 0;
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".hv")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());

  for (const std::string &File : Files) {
    DriverResult R = D.verifyFile(File);
    std::string Base = std::filesystem::path(File).filename().string();
    if (!R.Verified) {
      ++Rejected;
      std::printf("%-34s rejected\n", Base.c_str());
      continue;
    }
    ++Verified;

    // Dynamic cross-check on a handful of schedules (cheap smoke).
    Interpreter Interp(*R.Prog);
    const ProcDecl *Main = R.Prog->findProc("main");
    bool RanOk = true, ConsOk = true;
    if (Main) {
      std::mt19937_64 Rng(7); // deterministic smoke inputs
      std::vector<ValueRef> Inputs;
      for (const Param &P : Main->Params)
        Inputs.push_back(
            P.Ty->toDomain(Type::ScopeParams{0, 3, 3})->sample(Rng));
      RandomScheduler Sched(99);
      RunResult Run = Interp.run("main", Inputs, Sched);
      RanOk = Run.ok();
      if (RanOk) {
        ++Dynamic;
        for (const ResourceState &Res : Run.Resources)
          ConsOk &= checkConsistency(*R.Prog, Res);
        if (ConsOk)
          ++Consistent;
      }
    }
    std::printf("%-34s verified  run:%s  consistency:%s\n", Base.c_str(),
                RanOk ? "ok" : "-", ConsOk ? "ok" : "FAIL");
  }

  std::printf("\n%u verified, %u rejected; %u dynamic runs, %u consistent "
              "action logs\n",
              Verified, Rejected, Dynamic, Consistent);
  return 0;
}
