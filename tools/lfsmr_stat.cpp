//===- tools/lfsmr_stat.cpp - Telemetry exercise + exposition tool --------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `lfsmr-stat`: drives a short mixed workload against `lfsmr::kv::store`
/// under any (or every) reclamation scheme and renders the resulting
/// `telemetry::store_stats` snapshot — the quickest way to see what the
/// telemetry subsystem reports for a live store, and the vehicle the CI
/// reconciliation check drives across the nine-scheme lineup.
///
///   lfsmr-stat --scheme hyalines --secs 0.5 --format json
///   lfsmr-stat --scheme all --format prom          # Prometheus text
///   lfsmr-stat --scheme epoch --check              # reconcile & exit rc
///   lfsmr-stat --scheme hyalines --trace           # drain trace rings
///
/// `--check` verifies, at quiescence, that the snapshot's accounting is
/// internally consistent (retired <= allocated, freed <= retired,
/// unreclaimed == retired - freed, histogram quantiles ordered, txn
/// outcomes covering the commits issued) and exits non-zero on any
/// violation.
///
//===----------------------------------------------------------------------===//

#include <lfsmr/kv.h>
#include <lfsmr/kv_async.h>
#include <lfsmr/schemes.h>
#include <lfsmr/telemetry.h>

#include "smr/scheme_list.h"
#include "support/cli.h"

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace lfsmr;

namespace {

struct ToolOptions {
  double Secs = 0.5;
  unsigned Threads = 4;
  std::uint64_t Keys = 4096;
  std::string Format = "human"; // human | json | prom
  bool Check = false;
  bool Trace = false;
};

/// Workload totals the reconciliation check compares the telemetry
/// snapshot against (exact: every worker counts what it issued).
struct WorkloadTotals {
  std::uint64_t Opens = 0;
  std::uint64_t Commits = 0;
  std::uint64_t Aborts = 0;
  std::uint64_t AsyncIssued = 0;
};

std::uint64_t mix64(std::uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// A short serving-shaped workload: per thread, a put/get/erase mix with
/// periodic snapshot opens (held briefly), a burst of async batched
/// writes every 16 ops (half waited on, half fire-and-forget — filling
/// the submit counters and batch-length histogram), and a two-key
/// transaction every 64 ops so the txn counters and commit-latency
/// histogram fill.
template <typename Scheme>
WorkloadTotals runWorkload(kv::Store<Scheme> &Db, const ToolOptions &Opt) {
  std::atomic<bool> Stop{false};
  std::vector<WorkloadTotals> PerThread(Opt.Threads);
  kv::Submitter<Scheme> Sub(Db);
  std::vector<std::thread> Workers;
  Workers.reserve(Opt.Threads);
  for (unsigned T = 0; T < Opt.Threads; ++T)
    Workers.emplace_back([&, T] {
      WorkloadTotals &W = PerThread[T];
      std::uint64_t X = mix64(T + 1);
      std::uint64_t Op = 0;
      while (!Stop.load(std::memory_order_relaxed)) {
        X = mix64(X + ++Op);
        const std::uint64_t K = X % Opt.Keys;
        switch (Op & 7) {
        case 0:
        case 1:
        case 2:
          Db.put(T, K, X);
          break;
        case 3: {
          kv::snapshot S = Db.open_snapshot();
          ++W.Opens;
          (void)Db.get(T, K, S);
          break;
        }
        case 4:
          Db.erase(T, K);
          break;
        default:
          (void)Db.get(T, K);
          break;
        }
        if ((Op & 15) == 0) {
          Sub.put(T, (K + 2) % Opt.Keys, X); // fire-and-forget
          auto F = Sub.put(T, (K + 3) % Opt.Keys, X ^ 2);
          W.AsyncIssued += 2;
          F.get(T);
        }
        if ((Op & 63) == 0) {
          auto Txn = Db.begin_transaction();
          ++W.Opens; // begin_transaction pins a snapshot
          Txn.put(K, X);
          Txn.put((K + 1) % Opt.Keys, X ^ 1);
          if (Txn.commit(T))
            ++W.Commits;
          else
            ++W.Aborts;
        }
      }
    });
  std::this_thread::sleep_for(
      std::chrono::duration<double>(Opt.Secs > 0 ? Opt.Secs : 0.1));
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();
  WorkloadTotals Sum;
  for (const WorkloadTotals &W : PerThread) {
    Sum.Opens += W.Opens;
    Sum.Commits += W.Commits;
    Sum.Aborts += W.Aborts;
    Sum.AsyncIssued += W.AsyncIssued;
  }
  return Sum;
}

bool checkSummary(const char *Name, const telemetry::histogram_summary &H,
                  int &Failures) {
  const bool Ordered = H.p50 <= H.p90 && H.p90 <= H.p99 && H.p99 <= H.max;
  const bool Consistent = H.count == 0 ? (H.mean == 0 && H.max == 0) : Ordered;
  if (!Consistent) {
    std::fprintf(stderr, "lfsmr-stat: FAIL %s: quantiles out of order\n",
                 Name);
    ++Failures;
  }
  return Consistent;
}

/// Reconciles the quiesced snapshot against itself and the workload's own
/// op counts. Returns the number of violations (0 = consistent).
int reconcile(const telemetry::store_stats &St, const WorkloadTotals &W) {
  int Failures = 0;
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "lfsmr-stat: FAIL %s\n", What);
      ++Failures;
    }
  };
  Expect(St.retired <= St.allocated, "retired <= allocated");
  Expect(St.freed <= St.retired, "freed <= retired");
  Expect(St.unreclaimed == St.retired - St.freed,
         "unreclaimed == retired - freed");
  Expect(St.live_snapshots == 0, "no snapshot outlives the workload");
  Expect(St.version_clock >= 1, "version clock seeded at 1");
#if LFSMR_TELEMETRY_ENABLED
  Expect(St.slow_acquires >= 1, "first acquire of each thread is slow");
  Expect(St.slow_acquires <= W.Opens, "slow acquires <= snapshot opens");
  Expect(St.txn_commits == W.Commits, "txn commit counter == issued commits");
  Expect(St.txn_aborts == W.Aborts, "txn abort counter == issued aborts");
  Expect(St.async_submits == W.AsyncIssued,
         "async submit counter == issued async ops");
  Expect(St.sync_fallbacks <= St.async_submits,
         "sync fallbacks <= async submits");
  Expect(St.async_submits == St.sync_fallbacks ||
             St.combiner_takeovers >= 1,
         "ring-applied ops imply a combiner takeover");
#else
  (void)W;
  Expect(St.slow_acquires == 0 && St.txn_commits == 0 &&
             St.async_submits == 0,
         "disabled telemetry reads zero");
#endif
  checkSummary("snapshot_open_ns", St.snapshot_open_ns, Failures);
  checkSummary("trim_walk_len", St.trim_walk_len, Failures);
  checkSummary("txn_commit_ns", St.txn_commit_ns, Failures);
  checkSummary("submit_batch_len", St.submit_batch_len, Failures);
  return Failures;
}

void printHuman(const char *SchemeName, const telemetry::store_stats &St) {
  std::printf("scheme %s\n", SchemeName);
  std::printf("  allocated %" PRId64 "  retired %" PRId64 "  freed %" PRId64
              "  unreclaimed %" PRId64 "\n",
              St.allocated, St.retired, St.freed, St.unreclaimed);
  std::printf("  era %" PRIu64 "  version_clock %" PRIu64
              "  live_snapshots %" PRIu64 "  snapshot_slots %" PRIu64 "\n",
              St.era, St.version_clock, St.live_snapshots, St.snapshot_slots);
  std::printf("  slow_acquires %" PRIu64 "  fast_rejects %" PRIu64
              "  index_resizes %" PRIu64 "\n",
              St.slow_acquires, St.fast_rejects, St.index_resizes);
  std::printf("  txn_commits %" PRIu64 "  txn_aborts %" PRIu64 "\n",
              St.txn_commits, St.txn_aborts);
  std::printf("  async_submits %" PRIu64 "  combiner_takeovers %" PRIu64
              "  sync_fallbacks %" PRIu64 "\n",
              St.async_submits, St.combiner_takeovers, St.sync_fallbacks);
  auto Hist = [](const char *Name, const telemetry::histogram_summary &H) {
    std::printf("  %s: count %" PRIu64 " mean %.0f p50 %.0f p90 %.0f "
                "p99 %.0f max %.0f\n",
                Name, H.count, H.mean, H.p50, H.p90, H.p99, H.max);
  };
  Hist("snapshot_open_ns", St.snapshot_open_ns);
  Hist("trim_walk_len", St.trim_walk_len);
  Hist("txn_commit_ns", St.txn_commit_ns);
  Hist("submit_batch_len", St.submit_batch_len);
}

template <typename Scheme>
int runScheme(const char *SchemeName, const ToolOptions &Opt) {
  kv::options KO;
  KO.Reclaim.MaxThreads = Opt.Threads + 1;
  kv::Store<Scheme> Db(KO);
  for (std::uint64_t K = 0; K < Opt.Keys; K += 7)
    Db.put(0, K, K);

  const WorkloadTotals W = runWorkload(Db, Opt);
  Db.compact(0);
  const telemetry::store_stats St = Db.stats();

  if (Opt.Format == "json") {
    std::printf("{\"scheme\": \"%s\", \"stats\": ", SchemeName);
    std::string J = telemetry::to_json(St);
    while (!J.empty() && (J.back() == '\n' || J.back() == ' '))
      J.pop_back();
    std::fputs(J.c_str(), stdout);
    std::fputs("}\n", stdout);
  } else if (Opt.Format == "prom") {
    std::fputs(telemetry::to_prometheus(St).c_str(), stdout);
  } else {
    printHuman(SchemeName, St);
  }
  if (Opt.Trace)
    std::fputs(telemetry::drain_trace_json().c_str(), stdout);
  return Opt.Check ? reconcile(St, W) : 0;
}

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--scheme NAME|all] [--secs S] [--threads N] [--keys N]\n"
      "          [--format human|json|prom] [--check] [--trace]\n",
      Prog);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  CommandLine CL(argc, argv);
  const std::vector<std::string> Known = {"scheme", "secs",   "threads",
                                          "keys",   "format", "check",
                                          "trace",  "help"};
  if (CL.has("help") || !CL.unknownFlags(Known).empty())
    return usage(CL.program().c_str());

  ToolOptions Opt;
  Opt.Secs = CL.getDouble("secs", 0.5);
  Opt.Threads = static_cast<unsigned>(CL.getInt("threads", 4));
  Opt.Keys = static_cast<std::uint64_t>(CL.getInt("keys", 4096));
  Opt.Format = CL.getString("format", "human");
  Opt.Check = CL.has("check");
  Opt.Trace = CL.has("trace");
  const std::string SchemeArg = CL.getString("scheme", "all");
  if (Opt.Format != "human" && Opt.Format != "json" && Opt.Format != "prom")
    return usage(CL.program().c_str());
  if (!Opt.Threads || !Opt.Keys)
    return usage(CL.program().c_str());

  int Failures = 0;
  bool Matched = false;
#define LFSMR_STAT_RUN(NAME, TYPE)                                           \
  if (SchemeArg == "all" || SchemeArg == NAME) {                             \
    Matched = true;                                                          \
    Failures += runScheme<TYPE>(NAME, Opt);                                  \
  }
  LFSMR_FOREACH_SCHEME(LFSMR_STAT_RUN)
#undef LFSMR_STAT_RUN
  if (!Matched) {
    std::fprintf(stderr, "lfsmr-stat: unknown scheme '%s'\n",
                 SchemeArg.c_str());
    return usage(CL.program().c_str());
  }
  if (Failures)
    std::fprintf(stderr, "lfsmr-stat: %d reconciliation failure(s)\n",
                 Failures);
  return Failures ? 1 : 0;
}
