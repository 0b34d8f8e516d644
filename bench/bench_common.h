//===- bench/bench_common.h - Shared sweep driver ----------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (scheme x mix x thread count) sweep driver shared by the
/// `lfsmr-bench` figure suites. Each suite names a data structure and the
/// figure panels it regenerates; the driver runs every data point and
/// feeds per-repeat results into the structured report layer
/// (support/report.h), which renders them as JSON, CSV, or human text.
/// Two parameter sets:
///  - default: CI-sized (short runs, coarse thread sweep);
///  - --full:  paper-sized (10 s x 5 repeats, dense sweep; Section 6).
/// Other flags: --threads 1,4,8  --secs 0.5  --repeats 2  --schemes a,b
///             --keyrange N  --prefill N  --seed S
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_BENCH_BENCH_COMMON_H
#define LFSMR_BENCH_BENCH_COMMON_H

#include "harness/registry.h"
#include "support/cli.h"
#include "support/report.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace lfsmr::bench {

/// One figure panel: a workload mix plus the paper's panel label.
struct Panel {
  const char *Label;            ///< e.g. "fig11a+12a"
  harness::WorkloadMix Mix;
  const char *Description;      ///< e.g. "HM list, write 50i/50d"
};

struct SweepOptions {
  std::vector<int64_t> Threads;
  double Secs;
  unsigned Repeats;
  uint64_t KeyRange;
  uint64_t Prefill;
  uint64_t Seed;
  std::vector<std::string> Schemes;
};

/// Expands the `--schemes all` keyword to every runnable scheme; any
/// other list passes through.
inline std::vector<std::string>
expandSchemes(std::vector<std::string> Requested) {
  if (Requested.size() == 1 && Requested[0] == "all")
    return harness::allSchemes();
  return Requested;
}

/// Validates each name in \p Requested against the registry's runnable
/// set; on an unknown name prints the valid set and exits 2 (no silent
/// defaulting).
inline void checkSchemes(const std::vector<std::string> &Requested) {
  const std::vector<std::string> &Valid = harness::allSchemes();
  if (Requested.empty()) {
    // A trailing `=` typo (--schemes=) must not silently emit an empty
    // report.
    std::fprintf(stderr, "error: --schemes must name at least one scheme\n");
    std::exit(2);
  }
  for (const std::string &S : Requested) {
    bool Found = false;
    for (const std::string &V : Valid)
      if (S == V) {
        Found = true;
        break;
      }
    if (!Found) {
      std::fprintf(stderr, "error: unknown scheme '%s'\nvalid schemes:",
                   S.c_str());
      for (const std::string &V : Valid)
        std::fprintf(stderr, " %s", V.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
  }
}

/// Exits 2 unless \p V >= 1. Returns \p V for inline use.
inline int64_t requireAtLeastOne(int64_t V, const char *Flag) {
  if (V < 1) {
    std::fprintf(stderr, "error: --%s must be >= 1\n", Flag);
    std::exit(2);
  }
  return V;
}

/// Exits 2 unless \p Threads is non-empty with every entry >= 1.
inline void checkThreadList(const std::vector<int64_t> &Threads) {
  if (Threads.empty()) {
    std::fprintf(stderr, "error: --threads must list at least one count\n");
    std::exit(2);
  }
  for (const int64_t T : Threads)
    if (T < 1) {
      std::fprintf(stderr, "error: --threads entries must be >= 1\n");
      std::exit(2);
    }
}

inline SweepOptions parseSweep(const CommandLine &Cmd) {
  SweepOptions O;
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  std::vector<int64_t> DefaultThreads;
  if (Full)
    DefaultThreads = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48};
  else
    DefaultThreads = {1, 4, 8, static_cast<int64_t>(HW ? HW : 8),
                      static_cast<int64_t>(HW ? HW + HW / 3 : 12),
                      static_cast<int64_t>(HW ? 2 * HW : 16)};
  O.Threads = Cmd.getIntList("threads", DefaultThreads);
  checkThreadList(O.Threads);
  O.Secs = Cmd.getDouble("secs", Full ? 10.0 : 0.25);
  O.Repeats = static_cast<unsigned>(
      requireAtLeastOne(Cmd.getInt("repeats", Full ? 5 : 1), "repeats"));
  O.KeyRange = static_cast<uint64_t>(
      requireAtLeastOne(Cmd.getInt("keyrange", 100000), "keyrange"));
  const int64_t Prefill = Cmd.getInt("prefill", 50000);
  if (Prefill < 0 || static_cast<uint64_t>(Prefill) > O.KeyRange) {
    // The prefill draws distinct keys from [0, KeyRange), so it cannot
    // exceed the key space (and a negative value would wrap to ~2^64).
    std::fprintf(stderr,
                 "error: --prefill must be in [0, keyrange=%llu]\n",
                 static_cast<unsigned long long>(O.KeyRange));
    std::exit(2);
  }
  O.Prefill = static_cast<uint64_t>(Prefill);
  O.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  O.Schemes = expandSchemes(Cmd.getStringList("schemes", harness::allSchemes()));
  checkSchemes(O.Schemes);
  return O;
}

/// Runs all panels for one structure, emitting one DataPoint per
/// (panel x scheme x thread count) into \p Rep.
inline void runSweep(const std::string &SuiteName,
                     const std::string &Structure,
                     const std::vector<Panel> &Panels, const SweepOptions &O,
                     report::Report &Rep) {
  for (const Panel &P : Panels) {
    for (const std::string &Scheme : O.Schemes) {
      if (!harness::isSupported(Scheme, Structure))
        continue;
      for (int64_t T : O.Threads) {
        report::DataPoint Pt;
        Pt.Suite = SuiteName;
        Pt.Panel = P.Label;
        Pt.Structure = Structure;
        Pt.Mix = P.Mix.Name;
        Pt.Scheme = Scheme;
        Pt.Threads = static_cast<unsigned>(T);
        for (unsigned R = 0; R < O.Repeats; ++R) {
          harness::RunSpec Spec;
          Spec.Scheme = Scheme;
          Spec.Ds = Structure;
          Spec.Mix = P.Mix;
          Spec.Threads = static_cast<unsigned>(T);
          Spec.Params.KeyRange = O.KeyRange;
          Spec.Params.Prefill = O.Prefill;
          Spec.Params.DurationSec = O.Secs;
          Spec.Params.Seed = O.Seed + R;
          const harness::RunResult Res = harness::runOne(Spec);
          Pt.Mops.add(Res.Mops);
          Pt.AvgUnreclaimed.add(Res.AvgUnreclaimed);
          Pt.PeakUnreclaimed.add(static_cast<double>(Res.PeakUnreclaimed));
          Pt.TotalOps += Res.TotalOps;
          Pt.WallSec += Res.ElapsedSec;
        }
        Rep.addPoint(Pt);
      }
    }
  }
}

} // namespace lfsmr::bench

#endif // LFSMR_BENCH_BENCH_COMMON_H
