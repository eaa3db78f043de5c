//===-- examples/quickstart.cpp - Five-minute tour ---------------*- C++ -*-===//
//
// Part of the CommCSL-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: verify a concurrent program for information-flow security
/// with three calls — parse, verify, and (optionally) fuzz the 2-safety
/// property dynamically.
///
/// The program is the paper's shared-counter pattern (Fig. 2): two threads
/// add low values to a shared counter while their *timing* depends on a
/// secret. CommCSL accepts it because increments commute; the empirical
/// harness then confirms that no scheduler/secret combination changes the
/// public output.
///
//===----------------------------------------------------------------------===//

#include "hyperviper/Driver.h"

#include <cstdio>

using namespace commcsl;

static const char *Source = R"(
  // A shared counter whose final value is public.
  resource Counter {
    state: int;
    alpha(v) = v;
    shared action Add(a: int) {
      apply(v, a) = v + a;
      requires low(a);
    }
  }

  procedure main(l: int, h: int) returns (out: int)
    requires low(l)
    ensures low(out)
  {
    share c: Counter := 0;
    par {
      // Secret-dependent delay before the update.
      var w: int := 0;
      while (w < h % 8) invariant w >= 0 { w := w + 1; }
      atomic c { perform c.Add(l); }
    } and {
      atomic c { perform c.Add(2 * l); }
    }
    out := unshare c;
  }
)";

int main() {
  // 1. Parse + type-check + verify (spec validity and program rules).
  Driver D;
  DriverResult R = D.verifySource(Source, "quickstart");
  std::printf("verifier: %s\n", R.Verified ? "verified" : "REJECTED");
  if (!R.Verified) {
    std::fputs(R.Diags.str("quickstart").c_str(), stderr);
    return 1;
  }
  std::printf("  specs checked: %u, procedures: %zu, total %.1f ms\n",
              R.Verification.NumSpecsChecked, R.Verification.Procs.size(),
              1000 * R.totalSeconds());

  // 2. Cross-check dynamically: many schedules and secrets, one public
  //    answer.
  NIConfig Cfg;
  Cfg.Trials = 4;
  NIReport Report = D.runEmpirical(*R.Prog, "main", Cfg);
  std::printf("empirical: %llu runs, %llu pairs compared -> %s\n",
              static_cast<unsigned long long>(Report.Runs),
              static_cast<unsigned long long>(Report.PairsCompared),
              Report.secure() ? "no violation" : "violation");
  return Report.secure() ? 0 : 1;
}
