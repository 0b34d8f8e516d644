//===- bench/suites.cpp - lfsmr-bench suite registry ----------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "suites.h"

#include "bench_common.h"

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline1s.h"
#include "core/hyaline_s.h"
#include "lfsmr/kv.h"
#include "lfsmr/kv_async.h"
#include "lfsmr/version.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"
#include "smr/reclaimer_traits.h"
#include "smr/scheme_list.h"
#include "support/barrier.h"
#include "support/random.h"
#include "support/telemetry.h"
#include "support/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <type_traits>

using namespace lfsmr;
using namespace lfsmr::bench;

//===----------------------------------------------------------------------===//
// Figure sweeps (list / hashmap / nmtree / bonsai)
//===----------------------------------------------------------------------===//

namespace {

void runListSuite(const CommandLine &Cmd, report::Report &Rep) {
  runSweep("list", "list",
           {Panel{"fig11a+12a", harness::WriteMix, "HM list, write 50i/50d"},
            Panel{"fig11d+12d", harness::ReadMix, "HM list, read 90g/10p"}},
           parseSweep(Cmd), Rep);
}

void runHashMapSuite(const CommandLine &Cmd, report::Report &Rep) {
  runSweep("hashmap", "hashmap",
           {Panel{"fig11b+12b", harness::WriteMix, "Michael hash map, write"},
            Panel{"fig11e+12e", harness::ReadMix, "Michael hash map, read"}},
           parseSweep(Cmd), Rep);
}

void runNMTreeSuite(const CommandLine &Cmd, report::Report &Rep) {
  runSweep("nmtree", "nmtree",
           {Panel{"fig11c+12c", harness::WriteMix, "NM tree, write 50i/50d"},
            Panel{"fig11f+12f", harness::ReadMix, "NM tree, read 90g/10p"}},
           parseSweep(Cmd), Rep);
}

void runBonsaiSuite(const CommandLine &Cmd, report::Report &Rep) {
  runSweep("bonsai", "bonsai",
           {Panel{"fig13a+13c", harness::WriteMix, "Bonsai tree, write 50i/50d"},
            Panel{"fig13b", harness::ReadMix, "Bonsai tree, read 90g/10p"}},
           parseSweep(Cmd), Rep);
}

//===----------------------------------------------------------------------===//
// enter-leave: SMR primitive microbenchmarks (paper Section 3.2 "Costs")
//===----------------------------------------------------------------------===//

/// Raw-storage node usable with any scheme's NodeHeader.
struct RawNode {
  alignas(16) char Header[64];
  uint64_t Payload;
};

template <typename S> void deleteRawNode(void *Hdr, void *) {
  delete reinterpret_cast<RawNode *>(Hdr);
}

template <typename S> typename S::NodeHeader *headerOf(RawNode *N) {
  static_assert(sizeof(typename S::NodeHeader) <= sizeof(N->Header));
  return new (N->Header) typename S::NodeHeader();
}

struct MicroOptions {
  std::vector<int64_t> Threads;
  double Secs;
  unsigned Repeats;
  std::vector<std::string> Schemes;
};

/// Per-thread operation cap for the non-allocating primitives — a
/// backstop only, far above what a timed run reaches.
constexpr uint64_t MicroOpsCap = uint64_t{1} << 40;

/// Per-thread backstop cap for alloc_retire (memory stays bounded per
/// scheme: reclaiming schemes drain as the run progresses, and NoMM uses
/// discard() below). Early exit is harmless to throughput: the rate math
/// divides by the longest worker's measured interval, the phase's wall
/// time.
constexpr uint64_t AllocOpsCap = uint64_t{1} << 24;

/// Runs \p Body (thread index -> op count) on \p Threads workers for
/// roughly \p Secs, invoking \p Sampler from the coordinating thread
/// about once per millisecond while they run (the harness runner's
/// Figure 12 sampling idiom). Throughput is total ops over the phase's
/// wall time — the longest worker's measured interval, not the sleep
/// duration — the same rule as `harness::runMeasured`, so the kv suites
/// and the paper-figure suites measure throughput the same way.
template <typename Body, typename Sample>
void timedPhaseSampled(unsigned Threads, double Secs, Body &&Fn,
                       Sample &&Sampler, double &MopsOut, uint64_t &OpsOut,
                       double &ElapsedOut) {
  SpinBarrier Barrier(Threads + 1);
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Ops(Threads, 0);
  std::vector<double> Took(Threads, 0.0);
  std::vector<std::thread> Workers;
  Workers.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&, T] {
      Barrier.arriveAndWait();
      const auto Begin = std::chrono::steady_clock::now();
      Ops[T] = Fn(T, Stop);
      Took[T] = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Begin)
                    .count();
    });
  Barrier.arriveAndWait();
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(Secs);
  while (std::chrono::steady_clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Sampler();
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();
  double MaxTook = 0;
  uint64_t Total = 0;
  for (unsigned T = 0; T < Threads; ++T) {
    Total += Ops[T];
    if (Took[T] > MaxTook)
      MaxTook = Took[T];
  }
  MopsOut = MaxTook > 0 ? static_cast<double>(Total) / MaxTook / 1e6 : 0;
  OpsOut = Total;
  ElapsedOut = MaxTook;
}

/// timedPhaseSampled without a sampler.
template <typename Body>
void timedPhase(unsigned Threads, double Secs, Body &&Fn, double &MopsOut,
                uint64_t &OpsOut, double &ElapsedOut) {
  timedPhaseSampled(Threads, Secs, std::forward<Body>(Fn), [] {}, MopsOut,
                    OpsOut, ElapsedOut);
}

/// Shared state for one timed primitive run (one scheme instance).
struct MicroCtx {
  std::atomic<RawNode *> Cell{nullptr}; ///< published node for deref
};

/// The three primitive benchmarks for one scheme type.
template <typename S> struct MicroSuiteOp {
  using IterFn = uint64_t (*)(S &, MicroCtx &, unsigned,
                              std::atomic<bool> &);
  using HookFn = void (*)(S &, MicroCtx &);

  static void addPrimitive(const char *Primitive, const std::string &Scheme,
                           const MicroOptions &O, report::Report &Rep,
                           IterFn Iter, HookFn Setup, HookFn Teardown) {
    for (const int64_t T : O.Threads) {
      report::DataPoint Pt;
      Pt.Suite = "enter-leave";
      Pt.Panel = Primitive;
      Pt.Structure = "-";
      Pt.Mix = "-";
      Pt.Scheme = Scheme;
      Pt.Threads = static_cast<unsigned>(T);
      for (unsigned R = 0; R < O.Repeats; ++R) {
        smr::Config C;
        C.MaxThreads = static_cast<unsigned>(T);
        S Instance(C, &deleteRawNode<S>, nullptr);
        MicroCtx Ctx;
        if (Setup)
          Setup(Instance, Ctx);
        double Mops = 0, Elapsed = 0;
        uint64_t Ops = 0;
        timedPhase(
            static_cast<unsigned>(T), O.Secs,
            [&](unsigned Tid, std::atomic<bool> &Stop) {
              return Iter(Instance, Ctx, Tid, Stop);
            },
            Mops, Ops, Elapsed);
        if (Teardown)
          Teardown(Instance, Ctx);
        Pt.Mops.add(Mops);
        Pt.AvgUnreclaimed.add(
            static_cast<double>(Instance.memCounter().unreclaimed()));
        Pt.PeakUnreclaimed.add(
            static_cast<double>(Instance.memCounter().unreclaimed()));
        Pt.TotalOps += Ops;
        Pt.WallSec += Elapsed;
      }
      Rep.addPoint(Pt);
    }
  }

  static uint64_t enterLeaveIter(S &Scheme, MicroCtx &, unsigned Tid,
                                 std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < MicroOpsCap) {
      for (unsigned I = 0; I < 64; ++I) {
        auto G = Scheme.enter(Tid);
        Scheme.leave(G);
      }
      Local += 64;
    }
    return Local;
  }

  /// Publishes the shared node the deref workers read. Runs on the main
  /// thread before the workers start (thread id 0 is reused: strictly
  /// sequential with the workers, as in the harness prefill).
  static void derefSetup(S &Scheme, MicroCtx &Ctx) {
    auto G = Scheme.enter(0);
    auto *N = new RawNode();
    Scheme.initNode(G, headerOf<S>(N));
    Ctx.Cell.store(N, std::memory_order_release);
    Scheme.leave(G);
  }

  static void derefTeardown(S &Scheme, MicroCtx &Ctx) {
    auto G = Scheme.enter(0);
    if (auto *N = Ctx.Cell.exchange(nullptr))
      Scheme.retire(G,
                    reinterpret_cast<typename S::NodeHeader *>(N->Header));
    Scheme.leave(G);
  }

  static uint64_t derefIter(S &Scheme, MicroCtx &Ctx, unsigned Tid,
                            std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < MicroOpsCap) {
      auto G = Scheme.enter(Tid);
      for (unsigned I = 0; I < 64; ++I) {
        auto *P = Scheme.deref(G, Ctx.Cell, 0);
        // Keep the deref observable (the gbench DoNotOptimize idiom).
        asm volatile("" : : "r"(P));
        ++Local;
      }
      Scheme.leave(G);
    }
    return Local;
  }

  static uint64_t allocRetireIter(S &Scheme, MicroCtx &, unsigned Tid,
                                  std::atomic<bool> &Stop) {
    uint64_t Local = 0;
    while (!Stop.load(std::memory_order_relaxed) && Local < AllocOpsCap) {
      auto G = Scheme.enter(Tid);
      auto *N = new RawNode();
      auto *Hdr = headerOf<S>(N);
      Scheme.initNode(G, Hdr);
      if constexpr (std::is_same_v<S, smr::NoMM>) {
        // NoMM's retire leaks by design; at --full rates that is tens of
        // GB in one process. discard() frees with honest retire+free
        // accounting, so nomm measures the alloc+discard round trip.
        Scheme.discard(Hdr);
      } else {
        Scheme.retire(G, Hdr);
      }
      Scheme.leave(G);
      ++Local;
    }
    return Local;
  }

  static void run(const std::string &Scheme, const MicroOptions &O,
                  report::Report &Rep) {
    addPrimitive("enter_leave", Scheme, O, Rep, &enterLeaveIter, nullptr,
                 nullptr);
    addPrimitive("deref_x64", Scheme, O, Rep, &derefIter, &derefSetup,
                 &derefTeardown);
    addPrimitive("alloc_retire", Scheme, O, Rep, &allocRetireIter, nullptr,
                 nullptr);
  }
};

/// Calls Op<ConcreteScheme>::run for the named scheme; false if unknown.
/// The name/type pairs come from the shared smr/scheme_list.h X-macro.
template <template <typename> class Op, typename... Args>
bool dispatchScheme(const std::string &Name, Args &&...A) {
#define LFSMR_DISPATCH_SCHEME(NAME, TYPE)                                    \
  if (Name == NAME) {                                                        \
    Op<TYPE>::run(Name, A...);                                               \
    return true;                                                             \
  }
  LFSMR_FOREACH_SCHEME(LFSMR_DISPATCH_SCHEME)
#undef LFSMR_DISPATCH_SCHEME
  return false;
}

void runEnterLeaveSuite(const CommandLine &Cmd, report::Report &Rep) {
  MicroOptions O;
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  if (Full)
    O.Threads = {1, 2, 4, 8, 16, 32};
  else
    O.Threads = {1, static_cast<int64_t>(HW ? HW : 4)};
  O.Threads = Cmd.getIntList("threads", O.Threads);
  checkThreadList(O.Threads);
  O.Secs = Cmd.getDouble("secs", Full ? 2.0 : 0.1);
  O.Repeats = static_cast<unsigned>(
      requireAtLeastOne(Cmd.getInt("repeats", Full ? 5 : 1), "repeats"));
  O.Schemes = expandSchemes(Cmd.getStringList("schemes", harness::allSchemes()));
  checkSchemes(O.Schemes);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<MicroSuiteOp>(Scheme, O, Rep);
}

//===----------------------------------------------------------------------===//
// kv: versioned key-value store (lfsmr::kv) — snapshot reads, write trim
//===----------------------------------------------------------------------===//

/// Strided latency samples land in one `telemetry::Histogram` shared by
/// every worker of a repeat (log-bucketed cells, one relaxed add per
/// record), replacing the per-thread reservoirs + merge step this file
/// used to carry: the repeat reads p50/p99 straight off `summarize()`,
/// the same path `store::stats()` reports. Builds with
/// `LFSMR_TELEMETRY=OFF` compile the recording away, so the `lat_*`
/// fields simply stay absent from such reports.
double nsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

/// Records the nanoseconds since \p T0 into \p H (no-op when telemetry
/// is compiled out).
void recordNsSince(telemetry::Histogram &H,
                   std::chrono::steady_clock::time_point T0) {
  H.record(static_cast<uint64_t>(nsSince(T0)));
}

/// Folds one repeat's shared latency histogram into the point: each
/// repeat contributes its sampled p50/p99. An empty summary (nothing
/// recorded, or an LFSMR_TELEMETRY=OFF build) leaves the `lat_*` fields
/// unset rather than reporting zeros.
void addLatency(report::DataPoint &Pt, const telemetry::histogram_summary &L) {
  if (L.count) {
    Pt.LatP50Ns.add(L.p50);
    Pt.LatP99Ns.add(L.p99);
  }
}

/// Workload mixes for the kv suite. Read/write are YCSB-ish point-op
/// blends; snapshot interleaves writes with snapshot-handle read bursts
/// (version pinning + trimming); scan interleaves writes with whole-store
/// snapshot scans (the kv/scan.h layer); resize pours fresh keys into
/// deliberately tiny tables so the cooperative bucket growth runs
/// continuously.
enum class KvMix { Read, Write, Snapshot, Scan, Resize };

/// One thread of a timed kv run; returns its op count. \p NThreads is
/// the worker count (the resize mix strides fresh keys across it).
template <typename S>
uint64_t kvWorker(kv::Store<S> &Db, KvMix Mix, unsigned Tid,
                  unsigned NThreads, uint64_t Seed, uint64_t KeyRange,
                  std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  uint64_t Seq = 0; // resize mix: per-thread fresh-key sequence
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Rng.nextBounded(KeyRange);
      switch (Mix) {
      case KvMix::Read:
        // 90% get / 8% put / 2% erase (read-heavy serving).
        if (Rng.nextPercent(90))
          (void)Db.get(Tid, K);
        else if (Rng.nextPercent(80))
          Db.put(Tid, K, K * 2);
        else
          Db.erase(Tid, K);
        break;
      case KvMix::Write:
        // 50% put / 30% erase / 20% get (version churn).
        if (Rng.nextPercent(50))
          Db.put(Tid, K, K * 2);
        else if (Rng.nextPercent(60))
          Db.erase(Tid, K);
        else
          (void)Db.get(Tid, K);
        break;
      case KvMix::Snapshot:
        // Writers churn while every 256th op opens a snapshot and reads
        // a 32-key burst through it (counted as ops).
        if ((Ops & 255) == 0) {
          kv::snapshot Snap = Db.open_snapshot();
          for (unsigned J = 0; J < 32; ++J)
            (void)Db.get(Tid, Rng.nextBounded(KeyRange), Snap);
          Ops += 32;
        }
        if (Rng.nextPercent(60))
          Db.put(Tid, K, K * 2);
        else
          (void)Db.get(Tid, K);
        break;
      case KvMix::Scan:
        // Writers churn while every 4096th op opens a snapshot and scans
        // the whole store through it (each visited binding counts as one
        // op — the scan is the product being measured).
        if ((Ops & 4095) == 0) {
          kv::snapshot Snap = Db.open_snapshot();
          uint64_t Seen = 0;
          Db.scan(Tid, Snap, [&](const uint64_t &, const uint64_t &) {
            ++Seen;
          });
          Ops += Seen;
        }
        if (Rng.nextPercent(60))
          Db.put(Tid, K, K * 2);
        else
          (void)Db.get(Tid, K);
        break;
      case KvMix::Resize:
        // Mostly fresh keys, striped per thread so tables only grow;
        // every 16th op retires an old key. Run against tiny initial
        // tables, this keeps the cooperative doubling hot for the whole
        // measurement.
        if ((Ops & 15) == 0 && Seq > 16)
          Db.erase(Tid, Tid + NThreads * (Seq - 16));
        else
          Db.put(Tid, Tid + NThreads * Seq++, K);
        break;
      }
    }
  }
  return Ops;
}

/// The string-panel key format — one definition, shared by the prefill
/// and the workers (they must stay byte-identical or the panel measures
/// an empty store).
inline std::string kvStringKey(uint64_t K) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "key/%016llx",
                static_cast<unsigned long long>(K));
  return Buf;
}

/// One thread of a timed *string-keyed* kv run (read-heavy serving over
/// `store<S, std::string, std::string>`): the panel that prices the
/// codec layer's variable-size records.
template <typename S>
uint64_t kvStringWorker(kv::Store<S, std::string, std::string> &Db,
                        unsigned Tid, uint64_t Seed, uint64_t KeyRange,
                        std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  char Buf[64];
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Rng.nextBounded(KeyRange);
      const std::string Key = kvStringKey(K);
      if (Rng.nextPercent(90))
        (void)Db.get(Tid, Key);
      else if (Rng.nextPercent(80)) {
        std::snprintf(Buf, sizeof(Buf), "value/%llu/padpadpadpadpad",
                      static_cast<unsigned long long>(K * 2));
        Db.put(Tid, Key, std::string(Buf));
      } else
        Db.erase(Tid, Key);
    }
  }
  return Ops;
}

/// Stride between latency-sampled commits (power of two), matching the
/// snap-cycle discipline: timing every commit would price the clock.
constexpr uint64_t TxnLatStride = 64;

/// One thread of a timed transactional run: each iteration buffers a
/// \p Batch-key read-modify-write transaction (read-your-writes `get`
/// then `put`) and commits; every TxnLatStride-th commit is timed into
/// \p Lat. Only committed writes count as ops — the panel measures
/// commit throughput, with the abort share reported separately via
/// \p Attempts / \p Aborts.
template <typename S>
uint64_t kvTxnWorker(kv::Store<S> &Db, telemetry::Histogram &Lat,
                     unsigned Batch,
                     unsigned Tid, uint64_t Seed, uint64_t KeyRange,
                     std::atomic<uint64_t> &Attempts,
                     std::atomic<uint64_t> &Aborts, std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0, Tried = 0, Failed = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 16; ++I) {
      auto Txn = Db.begin_transaction();
      const uint64_t Base = Rng.nextBounded(KeyRange);
      for (unsigned J = 0; J < Batch; ++J) {
        // Scattered keys off one random base: cheap to draw, spread
        // across shards, still contended enough to exercise aborts.
        const uint64_t K = (Base + J * 7919) % KeyRange;
        const auto Cur = Txn.get(Tid, K);
        Txn.put(K, Cur.value_or(K) + 1);
      }
      ++Tried;
      bool Ok;
      if ((Tried & (TxnLatStride - 1)) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        Ok = Txn.commit(Tid);
        recordNsSince(Lat, T0);
      } else {
        Ok = Txn.commit(Tid);
      }
      if (Ok)
        Ops += Batch;
      else
        ++Failed;
    }
  }
  Attempts.fetch_add(Tried, std::memory_order_relaxed);
  Aborts.fetch_add(Failed, std::memory_order_relaxed);
  return Ops;
}

template <typename S> struct KvSuiteOp {
  /// One (panel × threads) data point: builds a store per repeat via
  /// \p MakeStore, runs \p Worker(Db, Tid, Seed, Stop) on every thread,
  /// sampling the Figure 12 metric while the workers run (the snapshot
  /// and scan mixes pin version chains mid-run, so the end-of-run
  /// residual would badly understate the true peak).
  template <typename Store, typename MakeStore, typename Worker>
  static void runPanel(const char *Panel, const char *Mix,
                       const std::string &Scheme, const SweepOptions &O,
                       report::Report &Rep, MakeStore &&Make,
                       Worker &&Work) {
    for (const int64_t T : O.Threads) {
      report::DataPoint Pt;
      Pt.Suite = "kv";
      Pt.Panel = Panel;
      Pt.Structure = "kv";
      Pt.Mix = Mix;
      Pt.Scheme = Scheme;
      Pt.Threads = static_cast<unsigned>(T);
      for (unsigned R = 0; R < O.Repeats; ++R) {
        std::unique_ptr<Store> Db = Make(static_cast<unsigned>(T));
        double Mops = 0, Elapsed = 0;
        uint64_t Ops = 0;
        double SumUnreclaimed = 0;
        int64_t PeakUnreclaimed = 0;
        uint64_t Samples = 0;
        timedPhaseSampled(
            static_cast<unsigned>(T), O.Secs,
            [&](unsigned Tid, std::atomic<bool> &Stop) {
              // Per-thread stream off the suite seed (repeat R shifts
              // it, matching the figure sweeps' seed discipline).
              return Work(*Db, Tid,
                          SplitMix64(O.Seed + R * 1024 + Tid).next(), Stop);
            },
            [&] {
              const int64_t U = Db->stats().unreclaimed;
              SumUnreclaimed += static_cast<double>(U);
              if (U > PeakUnreclaimed)
                PeakUnreclaimed = U;
              ++Samples;
            },
            Mops, Ops, Elapsed);
        const telemetry::store_stats MS = Db->stats();
        Pt.Mops.add(Mops);
        Pt.AvgUnreclaimed.add(
            Samples ? SumUnreclaimed / static_cast<double>(Samples)
                    : static_cast<double>(MS.unreclaimed));
        Pt.PeakUnreclaimed.add(
            Samples ? static_cast<double>(PeakUnreclaimed)
                    : static_cast<double>(MS.unreclaimed));
        Pt.TotalOps += Ops;
        Pt.WallSec += Elapsed;
        Pt.Stats = MS; // last repeat's snapshot rides in the report
      }
      Rep.addPoint(Pt);
    }
  }

  /// Amply sized store for the point-op and scan panels.
  static kv::Options pointOptions(unsigned Threads, uint64_t KeyRange) {
    kv::Options KO;
    KO.Reclaim.MaxThreads = Threads;
    KO.Shards = 16;
    KO.BucketsPerShard =
        nextPowerOfTwo(std::max<uint64_t>(KeyRange / (16 * 4), 64));
    return KO;
  }

  /// One kv-txn data point: \p Batch-key transactions over a prefilled
  /// store. Extends the plain runPanel shape with the per-repeat commit
  /// latency histogram (p50/p99 over the strided samples of every
  /// thread, shared concurrent recording) and the abort share of commit
  /// attempts.
  static void runTxnPanel(const char *Panel, unsigned Batch,
                          const std::string &Scheme, const SweepOptions &O,
                          report::Report &Rep) {
    using Store = kv::Store<S>;
    for (const int64_t T : O.Threads) {
      report::DataPoint Pt;
      Pt.Suite = "kv";
      Pt.Panel = Panel;
      Pt.Structure = "kv";
      Pt.Mix = "txn";
      Pt.Scheme = Scheme;
      Pt.Threads = static_cast<unsigned>(T);
      for (unsigned R = 0; R < O.Repeats; ++R) {
        auto Db =
            std::make_unique<Store>(pointOptions(static_cast<unsigned>(T),
                                                 O.KeyRange));
        for (uint64_t K = 0; K < O.Prefill; ++K)
          Db->put(0, K, K * 2);
        telemetry::Histogram Lat;
        std::atomic<uint64_t> Attempts{0}, Aborts{0};
        double Mops = 0, Elapsed = 0;
        uint64_t Ops = 0;
        double SumUnreclaimed = 0;
        int64_t PeakUnreclaimed = 0;
        uint64_t Samples = 0;
        timedPhaseSampled(
            static_cast<unsigned>(T), O.Secs,
            [&](unsigned Tid, std::atomic<bool> &Stop) {
              return kvTxnWorker(*Db, Lat, Batch, Tid,
                                 SplitMix64(O.Seed + R * 1024 + Tid).next(),
                                 O.KeyRange, Attempts, Aborts, Stop);
            },
            [&] {
              const int64_t U = Db->stats().unreclaimed;
              SumUnreclaimed += static_cast<double>(U);
              if (U > PeakUnreclaimed)
                PeakUnreclaimed = U;
              ++Samples;
            },
            Mops, Ops, Elapsed);
        const telemetry::store_stats MS = Db->stats();
        Pt.Mops.add(Mops);
        Pt.AvgUnreclaimed.add(
            Samples ? SumUnreclaimed / static_cast<double>(Samples)
                    : static_cast<double>(MS.unreclaimed));
        Pt.PeakUnreclaimed.add(
            Samples ? static_cast<double>(PeakUnreclaimed)
                    : static_cast<double>(MS.unreclaimed));
        addLatency(Pt, Lat.summarize());
        Pt.Stats = MS;
        const uint64_t A = Attempts.load(std::memory_order_relaxed);
        Pt.AbortPct.add(
            A ? 100.0 *
                    static_cast<double>(
                        Aborts.load(std::memory_order_relaxed)) /
                    static_cast<double>(A)
              : 0.0);
        Pt.TotalOps += Ops;
        Pt.WallSec += Elapsed;
      }
      Rep.addPoint(Pt);
    }
  }

  static void run(const std::string &Scheme, const SweepOptions &O,
                  report::Report &Rep) {
    struct PanelDef {
      const char *Panel;
      const char *Mix;
      KvMix M;
    };
    // u64 point/snapshot/scan panels over a prefilled store.
    static constexpr PanelDef Panels[] = {
        {"kv-read", "read", KvMix::Read},
        {"kv-write", "write", KvMix::Write},
        {"kv-snapshot", "snapshot", KvMix::Snapshot},
        {"kv-scan", "scan", KvMix::Scan},
    };
    using U64Store = kv::Store<S>;
    for (const PanelDef &P : Panels)
      runPanel<U64Store>(
          P.Panel, P.Mix, Scheme, O, Rep,
          [&](unsigned T) {
            auto Db = std::make_unique<U64Store>(pointOptions(T, O.KeyRange));
            for (uint64_t K = 0; K < O.Prefill; ++K)
              Db->put(0, K, K * 2);
            return Db;
          },
          [&, M = P.M](U64Store &Db, unsigned Tid, uint64_t Seed,
                       std::atomic<bool> &Stop) {
            return kvWorker(Db, M, Tid,
                            static_cast<unsigned>(Db.options().Reclaim
                                                      .MaxThreads),
                            Seed, O.KeyRange, Stop);
          });

    // kv-resize: deliberately tiny tables, insert-heavy striped keys —
    // measures throughput *while* the cooperative doubling runs.
    runPanel<U64Store>(
        "kv-resize", "resize", Scheme, O, Rep,
        [&](unsigned T) {
          kv::Options KO;
          KO.Reclaim.MaxThreads = T;
          KO.Shards = 8;
          KO.BucketsPerShard = 4;
          KO.MaxLoadFactor = 2;
          return std::make_unique<U64Store>(KO);
        },
        [&](U64Store &Db, unsigned Tid, uint64_t Seed,
            std::atomic<bool> &Stop) {
          return kvWorker(Db, KvMix::Resize, Tid,
                          static_cast<unsigned>(
                              Db.options().Reclaim.MaxThreads),
                          Seed, O.KeyRange, Stop);
        });

    // kv-string: owned byte-string keys and values through the codec
    // layer (variable-size records), read-heavy serving blend.
    using StrStore = kv::Store<S, std::string, std::string>;
    runPanel<StrStore>(
        "kv-string", "string", Scheme, O, Rep,
        [&](unsigned T) {
          auto Db =
              std::make_unique<StrStore>(pointOptions(T, O.KeyRange));
          for (uint64_t K = 0; K < O.Prefill; ++K)
            Db->put(0, kvStringKey(K), "value/" + std::to_string(K * 2));
          return Db;
        },
        [&](StrStore &Db, unsigned Tid, uint64_t Seed,
            std::atomic<bool> &Stop) {
          return kvStringWorker(Db, Tid, Seed, O.KeyRange, Stop);
        });

    // kv-txn: multi-key read-modify-write transactions at three batch
    // sizes — b1 is the solo fast path (no commit record), b4/b16 run
    // the shared-commit-record protocol with rising conflict odds.
    runTxnPanel("kv-txn-b1", 1, Scheme, O, Rep);
    runTxnPanel("kv-txn-b4", 4, Scheme, O, Rep);
    runTxnPanel("kv-txn-b16", 16, Scheme, O, Rep);
  }
};

void runKvSuite(const CommandLine &Cmd, report::Report &Rep) {
  const SweepOptions O = parseSweep(Cmd);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<KvSuiteOp>(Scheme, O, Rep);
  Rep.note("kv: hp runs the store's intrusive node mode; every other "
           "scheme runs transparent allocation (guard::create/retire)");
  Rep.note("kv: nomm never reclaims trimmed versions (leaking floor)");
  Rep.note("kv: kv-string runs store<S, std::string, std::string> "
           "(variable-size codec records); kv-resize starts from 4-bucket "
           "shards so cooperative growth runs for the whole measurement");
  Rep.note("kv: kv-txn-bN commits N-key read-modify-write transactions; "
           "mops counts committed writes only, abort_pct is the share of "
           "commit attempts lost to first-writer-wins conflicts, lat_* is "
           "the strided commit-call latency");
  Rep.note("kv: each point's stats object is the final repeat's "
           "store::stats() snapshot (scheme accounting, registry "
           "counters, store histograms); absent counters read 0 when the "
           "library was built with LFSMR_TELEMETRY=OFF");
}

//===----------------------------------------------------------------------===//
// Shared per-repeat scaffolding (kv-snap-cycle / kv-serve / kv-async)
//===----------------------------------------------------------------------===//

/// One measured repeat of a store-level panel, as its runner hands it
/// back to the shared point-accumulation helpers below.
struct ServeRepeat {
  double Mops = 0;
  uint64_t Ops = 0;
  double Elapsed = 0;
  double AvgUnreclaimed = 0;
  double PeakUnreclaimed = 0;
  /// Summary of the repeat's shared latency histogram (count == 0 when
  /// nothing was recorded, e.g. under LFSMR_TELEMETRY=OFF).
  telemetry::histogram_summary Lat;
  /// End-of-repeat `store::stats()` snapshot, embedded in the point's
  /// `stats` block (the last repeat wins).
  telemetry::store_stats Stats;
};

/// Folds the sampled unreclaimed series of one repeat; finish() falls
/// back to the end-of-run residual when the run was too short to sample.
struct UnreclaimedSampler {
  double Sum = 0;
  int64_t Peak = 0;
  uint64_t Samples = 0;

  void take(int64_t U) {
    Sum += static_cast<double>(U);
    if (U > Peak)
      Peak = U;
    ++Samples;
  }

  void finish(ServeRepeat &Rr, int64_t Residual) const {
    Rr.AvgUnreclaimed = Samples ? Sum / static_cast<double>(Samples)
                                : static_cast<double>(Residual);
    Rr.PeakUnreclaimed = Samples ? static_cast<double>(Peak)
                                 : static_cast<double>(Residual);
  }
};

/// Folds one finished repeat into its data point — the accumulation
/// block every store panel used to carry by hand.
void addRepeat(report::DataPoint &Pt, const ServeRepeat &Rr) {
  Pt.Mops.add(Rr.Mops);
  Pt.AvgUnreclaimed.add(Rr.AvgUnreclaimed);
  Pt.PeakUnreclaimed.add(Rr.PeakUnreclaimed);
  addLatency(Pt, Rr.Lat);
  Pt.TotalOps += Rr.Ops;
  Pt.WallSec += Rr.Elapsed;
  Pt.Stats = Rr.Stats;
}

/// The per-repeat histogram setup shared by the store-level panels of
/// kv-snap-cycle, kv-serve, and kv-async: fresh latency histogram +
/// unreclaimed sampler around one timedPhaseSampled run over \p Db,
/// stats snapshot and summaries folded into the returned repeat.
/// \p Fn is invoked as Fn(Tid, Lat, Stop) and returns the thread's op
/// count.
template <typename Store, typename Body>
ServeRepeat measuredStoreRepeat(Store &Db, unsigned Threads, double Secs,
                                Body &&Fn) {
  telemetry::Histogram Lat;
  ServeRepeat Rr;
  UnreclaimedSampler U;
  timedPhaseSampled(
      Threads, Secs,
      [&](unsigned Tid, std::atomic<bool> &Stop) {
        return Fn(Tid, Lat, Stop);
      },
      [&] { U.take(Db.stats().unreclaimed); }, Rr.Mops, Rr.Ops, Rr.Elapsed);
  Rr.Stats = Db.stats();
  U.finish(Rr, Rr.Stats.unreclaimed);
  Rr.Lat = Lat.summarize();
  return Rr;
}

//===----------------------------------------------------------------------===//
// kv-snap-cycle: snapshot open/close fast-path latency (one-RMW acquire)
//===----------------------------------------------------------------------===//

/// Stride between latency-sampled cycles (power of two). Timing every
/// cycle would let the clock calls dominate the thing being measured.
constexpr uint64_t SnapLatStride = 64;

/// One thread of a bare-registry open/close run: every cycle is an
/// acquire+release pair; every SnapLatStride-th is timed. \p TickEvery
/// (0 = never) advances the version clock from inside the cycle loop,
/// which strands hints and forces the slow-path fallback — the churn
/// panel's subject.
uint64_t snapCycleWorker(kv::SnapshotRegistry &Reg, telemetry::Histogram &Lat,
                         uint64_t TickEvery, std::atomic<bool> &Stop) {
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      if (TickEvery && (Ops % TickEvery) == 0)
        Reg.tick();
      if ((Ops & (SnapLatStride - 1)) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        const auto T = Reg.acquire();
        Reg.release(T);
        recordNsSince(Lat, T0);
      } else {
        const auto T = Reg.acquire();
        Reg.release(T);
      }
    }
  }
  return Ops;
}

/// One bare-registry panel (scheme-independent, scheme "-"): open/close
/// cycles on a shared SnapshotRegistry, p50/p99 per-cycle latency from
/// the shared telemetry histogram of each repeat. The point's `stats`
/// block carries the final repeat's registry counters (slow acquires,
/// fast rejects, slot capacity), making the one-RMW fast-path hit rate
/// visible per run: fast hits = cycles - slow_acquires.
void runSnapCyclePanel(const char *Panel, const char *Mix, uint64_t TickEvery,
                       const SweepOptions &O, report::Report &Rep) {
  for (const int64_t T : O.Threads) {
    report::DataPoint Pt;
    Pt.Suite = "kv-snap-cycle";
    Pt.Panel = Panel;
    Pt.Structure = "registry";
    Pt.Mix = Mix;
    Pt.Scheme = "-";
    Pt.Threads = static_cast<unsigned>(T);
    for (unsigned R = 0; R < O.Repeats; ++R) {
      kv::SnapshotRegistry Reg(
          std::max<std::size_t>(8, static_cast<std::size_t>(T)));
      telemetry::Histogram Lat;
      ServeRepeat Rr;
      timedPhase(
          static_cast<unsigned>(T), O.Secs,
          [&](unsigned Tid, std::atomic<bool> &Stop) {
            (void)Tid;
            return snapCycleWorker(Reg, Lat, TickEvery, Stop);
          },
          Rr.Mops, Rr.Ops, Rr.Elapsed);
      Rr.Lat = Lat.summarize();
      // No store behind this panel (and no allocation, so unreclaimed
      // stays 0); synthesize the registry's share of the stats block so
      // the acquire counters still ride the report.
      const kv::SnapshotRegistry::AcquireStats A = Reg.acquireStats();
      Rr.Stats.version_clock = Reg.clock();
      Rr.Stats.snapshot_slots = Reg.slotCapacity();
      Rr.Stats.slow_acquires = A.SlowAcquires;
      Rr.Stats.fast_rejects = A.FastRejects;
      addRepeat(Pt, Rr);
    }
    Rep.addPoint(Pt);
  }
}

/// The store-level panel: the kv snapshot read blend, but measuring the
/// open+close cost of each snapshot burst (reads run between the two
/// timed windows, untimed) — the fast path under a real mixed workload.
template <typename S> struct KvSnapCycleOp {
  static uint64_t worker(kv::Store<S> &Db, telemetry::Histogram &Lat,
                         unsigned Tid, uint64_t Seed, uint64_t KeyRange,
                         std::atomic<bool> &Stop) {
    Xoshiro256 Rng(Seed);
    uint64_t Ops = 0;
    while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
      for (unsigned I = 0; I < 64; ++I, ++Ops) {
        const uint64_t K = Rng.nextBounded(KeyRange);
        if ((Ops & 255) == 0) {
          const auto T0 = std::chrono::steady_clock::now();
          kv::snapshot Snap = Db.open_snapshot();
          const double OpenNs = nsSince(T0);
          for (unsigned J = 0; J < 32; ++J)
            (void)Db.get(Tid, Rng.nextBounded(KeyRange), Snap);
          const auto T1 = std::chrono::steady_clock::now();
          Snap.reset();
          Lat.record(static_cast<uint64_t>(OpenNs + nsSince(T1)));
          Ops += 32;
        } else if (Rng.nextPercent(90)) {
          (void)Db.get(Tid, K);
        } else {
          Db.put(Tid, K, K * 2);
        }
      }
    }
    return Ops;
  }

  static void run(const std::string &Scheme, const SweepOptions &O,
                  report::Report &Rep) {
    for (const int64_t T : O.Threads) {
      report::DataPoint Pt;
      Pt.Suite = "kv-snap-cycle";
      Pt.Panel = "read-mix";
      Pt.Structure = "kv";
      Pt.Mix = "read";
      Pt.Scheme = Scheme;
      Pt.Threads = static_cast<unsigned>(T);
      for (unsigned R = 0; R < O.Repeats; ++R) {
        auto Db = std::make_unique<kv::Store<S>>(
            KvSuiteOp<S>::pointOptions(static_cast<unsigned>(T), O.KeyRange));
        for (uint64_t K = 0; K < O.Prefill; ++K)
          Db->put(0, K, K * 2);
        addRepeat(Pt, measuredStoreRepeat(
                          *Db, static_cast<unsigned>(T), O.Secs,
                          [&](unsigned Tid, telemetry::Histogram &Lat,
                              std::atomic<bool> &Stop) {
                            return worker(*Db, Lat, Tid,
                                          SplitMix64(O.Seed + R * 1024 + Tid)
                                              .next(),
                                          O.KeyRange, Stop);
                          }));
      }
      Rep.addPoint(Pt);
    }
  }
};

void runKvSnapCycleSuite(const CommandLine &Cmd, report::Report &Rep) {
  SweepOptions O = parseSweep(Cmd);
  // The fast path is a contention story: sweep 2..64 threads under
  // --full (the acceptance sweep), a CI-sized pair otherwise.
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  std::vector<int64_t> Def;
  if (Full)
    Def = {2, 4, 8, 16, 32, 64};
  else
    Def = {2, static_cast<int64_t>(HW ? HW : 4)};
  O.Threads = Cmd.getIntList("threads", Def);
  checkThreadList(O.Threads);

  runSnapCyclePanel("open-close", "cycle", /*TickEvery=*/0, O, Rep);
  runSnapCyclePanel("open-close-churn", "cycle-churn", /*TickEvery=*/1024, O,
                    Rep);
  for (const std::string &Scheme : O.Schemes)
    dispatchScheme<KvSnapCycleOp>(Scheme, O, Rep);
  Rep.note("kv-snap-cycle: open-close panels drive the bare "
           "SnapshotRegistry (scheme-independent, scheme '-'); the churn "
           "variant ticks the clock every 1024 cycles per thread to price "
           "the slow-path fallback");
  Rep.note("kv-snap-cycle: latency is per open+close pair, sampled every "
           "64th cycle (every snapshot burst for read-mix); lat_p50_ns/"
           "lat_p99_ns aggregate each repeat's sampled percentile");
  Rep.note("kv-snap-cycle: each point's stats object carries the final "
           "repeat's acquire counters — slow_acquires/fast_rejects "
           "against total cycles give the one-RMW fast-path hit rate "
           "(open-close panels synthesize it from the bare registry)");
}

//===----------------------------------------------------------------------===//
// kv-serve: serving-realism workloads (zipf skew, churn, oversub, stalls)
//===----------------------------------------------------------------------===//

struct KvServeOptions {
  SweepOptions Sweep;
  double ZipfTheta; ///< skew of every panel's key picks, in (0, 1)
};

/// Stride between latency-sampled serve ops (power of two), matching the
/// txn/snap-cycle discipline.
constexpr uint64_t ServeLatStride = 64;

/// One serving thread over zipf-ranked u64 keys. Read-heavy models the
/// cache-serving front (90g/8p/2e); write-heavy models ingest pressure
/// (50p/30e/20g) — the stall-serve panel's churn side. Every
/// ServeLatStride-th op is latency-timed into \p Lat.
template <typename S>
uint64_t kvServeMixWorker(kv::Store<S> &Db,
                          const workload::ZipfianGenerator &Z,
                          telemetry::Histogram &Lat, bool WriteHeavy,
                          unsigned Tid, uint64_t Seed,
                          std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Z.next(Rng);
      const bool Timed = (Ops & (ServeLatStride - 1)) == 0;
      std::chrono::steady_clock::time_point T0;
      if (Timed)
        T0 = std::chrono::steady_clock::now();
      if (WriteHeavy) {
        if (Rng.nextPercent(50))
          Db.put(Tid, K, K * 2);
        else if (Rng.nextPercent(60))
          Db.erase(Tid, K);
        else
          (void)Db.get(Tid, K);
      } else {
        if (Rng.nextPercent(90))
          (void)Db.get(Tid, K);
        else if (Rng.nextPercent(80))
          Db.put(Tid, K, K * 2);
        else
          Db.erase(Tid, K);
      }
      if (Timed)
        recordNsSince(Lat, T0);
    }
  }
  return Ops;
}

/// One serving thread over zipf-ranked *string* keys with values sized
/// from \p Dist (80g/20p): the panel that prices variable-size codec
/// records under skew.
template <typename S>
uint64_t kvServeStringWorker(kv::Store<S, std::string, std::string> &Db,
                             const workload::ZipfianGenerator &Z,
                             const workload::ValueSizeDist &Dist,
                             telemetry::Histogram &Lat, unsigned Tid,
                             uint64_t Seed, std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const std::string Key = kvStringKey(Z.next(Rng));
      const bool Timed = (Ops & (ServeLatStride - 1)) == 0;
      std::chrono::steady_clock::time_point T0;
      if (Timed)
        T0 = std::chrono::steady_clock::now();
      if (Rng.nextPercent(80))
        (void)Db.get(Tid, Key);
      else
        Db.put(Tid, Key, std::string(Dist.sample(Rng), 'v'));
      if (Timed)
        recordNsSince(Lat, T0);
    }
  }
  return Ops;
}

/// One churn *session*: runs on a fresh OS thread (workload::runSessioned
/// spawns one per session), mixes zipf point ops with snapshot read
/// bursts, and exits after a bounded quota so the slot respawns — the
/// join/leave pattern that recycles snapshot-registry slots and
/// thread_local hints mid-run. The burst open+reads+close is the timed
/// unit.
template <typename S>
uint64_t kvServeChurnSession(kv::Store<S> &Db,
                             const workload::ZipfianGenerator &Z,
                             telemetry::Histogram &Lat, unsigned Tid,
                             uint64_t Seed, const std::atomic<bool> &Stop) {
  constexpr uint64_t SessionQuota = 4096;
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < SessionQuota) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      if ((Ops & 255) == 0) {
        const auto T0 = std::chrono::steady_clock::now();
        kv::snapshot Snap = Db.open_snapshot();
        for (unsigned J = 0; J < 16; ++J)
          (void)Db.get(Tid, Z.next(Rng), Snap);
        Snap.reset();
        recordNsSince(Lat, T0);
        Ops += 16;
      } else if (Rng.nextPercent(70)) {
        (void)Db.get(Tid, Z.next(Rng));
      } else {
        const uint64_t K = Z.next(Rng);
        Db.put(Tid, K, K * 2);
      }
    }
  }
  return Ops;
}

template <typename S> struct KvServeOp {
  using U64Store = kv::Store<S>;
  using StrStore = kv::Store<S, std::string, std::string>;

  /// Shared point-accumulation driver: one DataPoint per thread count,
  /// \p ThreadMul scaling the swept count (the oversub panel runs 4x the
  /// requested threads — deliberately past hardware_concurrency).
  /// \p RunOne(Threads, Repeat) executes one measured repeat.
  template <typename RunFn>
  static void servePanel(const char *Panel, const char *Mix,
                         const std::string &Scheme, const KvServeOptions &KO,
                         report::Report &Rep, unsigned ThreadMul,
                         RunFn &&RunOne) {
    for (const int64_t TBase : KO.Sweep.Threads) {
      const unsigned T = static_cast<unsigned>(TBase) * ThreadMul;
      report::DataPoint Pt;
      Pt.Suite = "kv-serve";
      Pt.Panel = Panel;
      Pt.Structure = "kv";
      Pt.Mix = Mix;
      Pt.Scheme = Scheme;
      Pt.Threads = T;
      Pt.ZipfTheta = KO.ZipfTheta;
      for (unsigned R = 0; R < KO.Sweep.Repeats; ++R)
        addRepeat(Pt, RunOne(T, R));
      Rep.addPoint(Pt);
    }
  }

  static uint64_t workerSeed(const KvServeOptions &KO, unsigned Repeat,
                             uint64_t Stream) {
    return SplitMix64(KO.Sweep.Seed + Repeat * 1024 + Stream).next();
  }

  /// A timed mix repeat over a freshly prefilled u64 store. \p StallCfg
  /// sizes the store for the stall panel (one reserved scheme thread id
  /// for the holder, tightened detection thresholds); \p Stall actually
  /// parks the holder on it. The stall-serve baseline twin runs
  /// StallCfg without Stall, so its store is byte-identical to the
  /// stalled side and the latency A/B isolates the stall itself.
  static ServeRepeat u64MixRepeat(const KvServeOptions &KO, unsigned T,
                                  unsigned R, bool WriteHeavy, bool Stall,
                                  bool StallCfg) {
    const SweepOptions &O = KO.Sweep;
    auto StoreOpts =
        KvSuiteOp<S>::pointOptions(StallCfg ? T + 1 : T, O.KeyRange);
    if (StallCfg) {
      // A robust scheme's stall bound is proportional to its detection
      // thresholds (Hyaline-S frees nothing for a stalled slot until it
      // falls AckThreshold acks behind, so its plateau sits near 64x
      // AckThreshold). The library defaults size those for steady state;
      // a smoke-length window ends before the default trip point and
      // every scheme would look unbounded. Tighten detection so the
      // window shows the bound itself, not the pre-trip ramp.
      StoreOpts.Reclaim.EraFreq = 16;
      StoreOpts.Reclaim.AckThreshold = 512;
    }
    auto Db = std::make_unique<U64Store>(std::move(StoreOpts));
    for (uint64_t K = 0; K < O.Prefill; ++K)
      Db->put(0, K, K * 2);
    const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
    std::unique_ptr<workload::StalledSnapshotHolder<U64Store>> Holder;
    if (Stall) {
      // The holder squats on the reserved id T. It briefly pins the trim
      // floor with a snapshot (a held snapshot suppresses retirement for
      // every scheme — chains just grow live), then drops the snapshot
      // before the measured phase so the window sees retirement at write
      // rate past a stalled *guard*: the paper's robustness measurement
      // on the serving surface.
      Holder =
          std::make_unique<workload::StalledSnapshotHolder<U64Store>>(*Db, T);
      Holder->waitUntilHeld();
      Holder->releaseSnapshot();
    }
    ServeRepeat Rr = measuredStoreRepeat(
        *Db, T, O.Secs,
        [&](unsigned Tid, telemetry::Histogram &Lat,
            std::atomic<bool> &Stop) {
          return kvServeMixWorker(*Db, Z, Lat, WriteHeavy, Tid,
                                  workerSeed(KO, R, Tid), Stop);
        });
    if (Holder) {
      // Unpark the holder before the stats snapshot so the stall panel
      // keeps reporting the post-release state of the store.
      Holder->release();
      Rr.Stats = Db->stats();
    }
    return Rr;
  }

  static void run(const std::string &Scheme, const KvServeOptions &KO,
                  report::Report &Rep) {
    const SweepOptions &O = KO.Sweep;

    // zipf-hot: skewed read-heavy serving, hot-key contention.
    servePanel("zipf-hot", "read", Scheme, KO, Rep, 1,
               [&](unsigned T, unsigned R) {
                 return u64MixRepeat(KO, T, R, /*WriteHeavy=*/false,
                                     /*Stall=*/false, /*StallCfg=*/false);
               });

    // oversub: the same serve mix at 4x the swept thread count —
    // deliberately past hardware_concurrency (paper Section 6's
    // oversubscription scenario on the kv surface).
    servePanel("oversub", "read", Scheme, KO, Rep, 4,
               [&](unsigned T, unsigned R) {
                 return u64MixRepeat(KO, T, R, /*WriteHeavy=*/false,
                                     /*Stall=*/false, /*StallCfg=*/false);
               });

    // stall-serve: write-heavy serving under a stalled snapshot holder,
    // paired with a baseline twin (mix "write-baseline") over the
    // byte-identical store/config minus the stall. The two mixes'
    // lat_p50_ns/lat_p99_ns come off the same telemetry histograms, so
    // the stalled-vs-unstalled latency A/B reads directly out of one
    // report — the per-scheme tail-latency cost of a stalled reader,
    // next to the memory-bound robustness story.
    servePanel("stall-serve", "write-stalled", Scheme, KO, Rep, 1,
               [&](unsigned T, unsigned R) {
                 return u64MixRepeat(KO, T, R, /*WriteHeavy=*/true,
                                     /*Stall=*/true, /*StallCfg=*/true);
               });
    servePanel("stall-serve", "write-baseline", Scheme, KO, Rep, 1,
               [&](unsigned T, unsigned R) {
                 return u64MixRepeat(KO, T, R, /*WriteHeavy=*/true,
                                     /*Stall=*/false, /*StallCfg=*/true);
               });

    // churn: worker slots join and leave mid-run (fresh OS thread per
    // session), mixing zipf ops with snapshot bursts. Throughput is
    // wall-clock — session spawn/join gaps are part of the product.
    servePanel(
        "churn", "churn", Scheme, KO, Rep, 1, [&](unsigned T, unsigned R) {
          auto Db = std::make_unique<U64Store>(
              KvSuiteOp<S>::pointOptions(T, O.KeyRange));
          for (uint64_t K = 0; K < O.Prefill; ++K)
            Db->put(0, K, K * 2);
          const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
          telemetry::Histogram Lat;
          ServeRepeat Rr;
          UnreclaimedSampler U;
          std::atomic<bool> Stop{false};
          uint64_t Total = 0;
          const auto Begin = std::chrono::steady_clock::now();
          std::thread Driver([&] {
            Total = workload::runSessioned(
                T, Stop, [&](unsigned W, unsigned Session) {
                  return kvServeChurnSession(
                      *Db, Z, Lat, W,
                      workerSeed(KO, R, W * 8191 + Session), Stop);
                });
          });
          const auto Deadline =
              Begin + std::chrono::duration<double>(O.Secs);
          while (std::chrono::steady_clock::now() < Deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            U.take(Db->stats().unreclaimed);
          }
          Stop.store(true, std::memory_order_relaxed);
          Driver.join();
          Rr.Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Begin)
                           .count();
          Rr.Ops = Total;
          Rr.Mops =
              Rr.Elapsed > 0
                  ? static_cast<double>(Total) / Rr.Elapsed / 1e6
                  : 0;
          Rr.Stats = Db->stats();
          U.finish(Rr, Rr.Stats.unreclaimed);
          Rr.Lat = Lat.summarize();
          return Rr;
        });

    // value-dist: string store, bimodal payload sizes under skew.
    servePanel(
        "value-dist", "string", Scheme, KO, Rep, 1,
        [&](unsigned T, unsigned R) {
          const workload::ValueSizeDist Dist =
              workload::ValueSizeDist::bimodal(16, 512, 10);
          auto Db = std::make_unique<StrStore>(
              KvSuiteOp<S>::pointOptions(T, O.KeyRange));
          {
            Xoshiro256 PrefillRng(O.Seed);
            for (uint64_t K = 0; K < O.Prefill; ++K)
              Db->put(0, kvStringKey(K),
                      std::string(Dist.sample(PrefillRng), 'v'));
          }
          const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
          return measuredStoreRepeat(
              *Db, T, O.Secs,
              [&](unsigned Tid, telemetry::Histogram &Lat,
                  std::atomic<bool> &Stop) {
                return kvServeStringWorker(*Db, Z, Dist, Lat, Tid,
                                           workerSeed(KO, R, Tid), Stop);
              });
        });
  }
};

void runKvServeSuite(const CommandLine &Cmd, report::Report &Rep) {
  KvServeOptions KO;
  KO.Sweep = parseSweep(Cmd);
  // Serving panels multiply threads (oversub runs 4x) and run five
  // panels per scheme; default to a compact sweep unless --threads asks
  // otherwise.
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  std::vector<int64_t> Def;
  if (Full)
    Def = {2, 4, 8, 16, 32};
  else
    Def = {2, static_cast<int64_t>(HW ? HW : 4)};
  KO.Sweep.Threads = Cmd.getIntList("threads", Def);
  checkThreadList(KO.Sweep.Threads);
  KO.ZipfTheta = Cmd.getDouble("zipf-theta", 0.99);
  if (!(KO.ZipfTheta > 0.0 && KO.ZipfTheta < 1.0)) {
    std::fprintf(stderr, "error: --zipf-theta must be in (0, 1)\n");
    std::exit(2);
  }
  for (const std::string &Scheme : KO.Sweep.Schemes)
    dispatchScheme<KvServeOp>(Scheme, KO, Rep);
  Rep.note("kv-serve: all panels draw keys zipfian(theta = zipf_theta), "
           "rank 0 hottest; latency is per-op, sampled every 64th op "
           "(per snapshot burst for churn)");
  Rep.note("kv-serve: oversub runs 4x the swept thread count (threads >> "
           "cores); churn respawns each worker slot on a fresh OS thread "
           "every 4096-op session (snapshot-slot reuse)");
  Rep.note("kv-serve: stall-serve parks a reader on a reserved thread — "
           "its snapshot drops before the window (a held snapshot pins "
           "chains as live memory for every scheme) but its guard stays "
           "stalled, so sampled avg/peak unreclaimed is the paper's "
           "robustness metric on the serving surface: flat for "
           "hp/he/ibr/hyaline1s, growing for epoch/hyaline/hyaline1/nomm "
           "(stall stores run EraFreq=16, AckThreshold=512 so detection "
           "trips inside short windows); hyalines' per-batch birth-era "
           "tag lets the zipf cold tail drag whole batches into the "
           "stalled slot, so its Thm-5 bound reads as growth here — see "
           "ARCHITECTURE.md");
  Rep.note("kv-serve: stall-serve is a latency A/B — mix write-stalled "
           "runs under the holder, mix write-baseline runs the "
           "byte-identical store/config without it, so comparing the two "
           "mixes' lat_p50_ns/lat_p99_ns isolates the stall's tail-"
           "latency cost per scheme");
}

//===----------------------------------------------------------------------===//
// kv-async: batched submission write path vs the direct sync API
//===----------------------------------------------------------------------===//

/// One direct-API writer (80p/20e over zipf-ranked keys — ingest with a
/// hot set, the serving-shaped write load): the sync side of the
/// kv-async A/B. Every ServeLatStride-th op is latency-timed.
template <typename S>
uint64_t kvAsyncSyncWorker(kv::Store<S> &Db,
                           const workload::ZipfianGenerator &Z,
                           telemetry::Histogram &Lat, unsigned Tid,
                           uint64_t Seed, std::atomic<bool> &Stop) {
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Z.next(Rng);
      const bool Timed = (Ops & (ServeLatStride - 1)) == 0;
      std::chrono::steady_clock::time_point T0;
      if (Timed)
        T0 = std::chrono::steady_clock::now();
      if (Rng.nextPercent(80))
        Db.put(Tid, K, K * 2);
      else
        Db.erase(Tid, K);
      if (Timed)
        recordNsSince(Lat, T0);
    }
  }
  return Ops;
}

/// The async twin: the same 80p/20e mix submitted through a shared
/// `kv::submitter`, paced by a closed-loop CompletionWindow of \p Window
/// in-flight futures per thread. The timed unit is one submit+push —
/// which *includes* the wait for the window's oldest completion once the
/// pipeline is full, so the sampled latency is the honest closed-loop
/// client-visible cost, directly comparable to the sync panel's per-op
/// number.
template <typename Submitter>
uint64_t kvAsyncSubmitWorker(Submitter &Sub,
                             const workload::ZipfianGenerator &Z,
                             telemetry::Histogram &Lat, std::size_t Window,
                             unsigned Tid, uint64_t Seed,
                             std::atomic<bool> &Stop) {
  workload::CompletionWindow<typename Submitter::future> Win(Tid, Window);
  Xoshiro256 Rng(Seed);
  uint64_t Ops = 0;
  while (!Stop.load(std::memory_order_relaxed) && Ops < MicroOpsCap) {
    for (unsigned I = 0; I < 64; ++I, ++Ops) {
      const uint64_t K = Z.next(Rng);
      const bool Timed = (Ops & (ServeLatStride - 1)) == 0;
      std::chrono::steady_clock::time_point T0;
      if (Timed)
        T0 = std::chrono::steady_clock::now();
      if (Rng.nextPercent(80))
        Win.push(Sub.put(Tid, K, K * 2));
      else
        Win.push(Sub.erase(Tid, K));
      if (Timed)
        recordNsSince(Lat, T0);
    }
  }
  Win.drain();
  return Ops;
}

/// The write-path A/B: panel sync-write drives the direct store API,
/// panels async-w16/async-w64 push the identical mix through the
/// per-shard submission rings with 16/64 in-flight ops per client. The
/// async panels' stats blocks carry the submission-layer telemetry
/// (async_submits, combiner_takeovers, sync_fallbacks, submit_batch_len)
/// so the amortization — ops per combined guard/stamp window — reads
/// straight out of the report next to the throughput delta.
template <typename S> struct KvAsyncOp {
  using Store = kv::Store<S>;
  using SubmitterT = kv::Submitter<S>;

  static ServeRepeat repeat(bool Async, std::size_t Window,
                            const KvServeOptions &KO, unsigned T,
                            unsigned R) {
    const SweepOptions &O = KO.Sweep;
    // Fewer shards than the other kv suites: submission rings are
    // per-shard, so shard count divides batch depth — and with it the
    // same-key coalescing the suite exists to measure. Both sides of
    // the A/B run the identical store config.
    auto StoreOpts = KvSuiteOp<S>::pointOptions(T, O.KeyRange);
    StoreOpts.Shards = 4;
    auto Db = std::make_unique<Store>(std::move(StoreOpts));
    for (uint64_t K = 0; K < O.Prefill; ++K)
      Db->put(0, K, K * 2);
    const workload::ZipfianGenerator Z(O.KeyRange, KO.ZipfTheta);
    std::unique_ptr<SubmitterT> Sub;
    if (Async) {
      // Oversubscription tuning: deep rings so a descheduled combiner
      // doesn't throw the fleet into sync fallback, and a minimal wait
      // spin — when threads far outnumber cores, spinning on a
      // completion word burns the very timeslice the combiner needs.
      kv::async_options AO;
      // Rings must hold the whole closed-loop in-flight population
      // (T x Window spread over the shards, 2x slack) or every submit
      // degenerates into a sync fallback and nothing ever batches.
      AO.RingCapacity = std::max<std::size_t>(
          4096, 2 * static_cast<std::size_t>(T) * Window /
                    Db->options().Shards);
      AO.WaitSpins = 1;
      AO.CombineDelay = 8;
      Sub = std::make_unique<SubmitterT>(*Db, AO);
    }
    ServeRepeat Rr = measuredStoreRepeat(
        *Db, T, O.Secs,
        [&](unsigned Tid, telemetry::Histogram &Lat,
            std::atomic<bool> &Stop) {
          const uint64_t Seed = SplitMix64(O.Seed + R * 1024 + Tid).next();
          if (Sub)
            return kvAsyncSubmitWorker(*Sub, Z, Lat, Window, Tid, Seed,
                                       Stop);
          return kvAsyncSyncWorker(*Db, Z, Lat, Tid, Seed, Stop);
        });
    if (Sub) {
      // The destructor drain must run before the store dies anyway; run
      // it before the final stats capture so the point's stats block
      // reflects every batch the repeat submitted.
      Sub.reset();
      Rr.Stats = Db->stats();
    }
    return Rr;
  }

  static void panel(const char *Panel, bool Async, std::size_t Window,
                    const std::string &Scheme, const KvServeOptions &KO,
                    report::Report &Rep) {
    for (const int64_t T : KO.Sweep.Threads) {
      report::DataPoint Pt;
      Pt.Suite = "kv-async";
      Pt.Panel = Panel;
      Pt.Structure = "kv";
      Pt.Mix = "write";
      Pt.Scheme = Scheme;
      Pt.Threads = static_cast<unsigned>(T);
      Pt.ZipfTheta = KO.ZipfTheta;
      for (unsigned R = 0; R < KO.Sweep.Repeats; ++R)
        addRepeat(Pt, repeat(Async, Window, KO, static_cast<unsigned>(T), R));
      Rep.addPoint(Pt);
    }
  }

  static void run(const std::string &Scheme, const KvServeOptions &KO,
                  report::Report &Rep) {
    panel("sync-write", /*Async=*/false, 0, Scheme, KO, Rep);
    panel("async-w64", /*Async=*/true, 64, Scheme, KO, Rep);
    panel("async-w1024", /*Async=*/true, 1024, Scheme, KO, Rep);
  }
};

void runKvAsyncSuite(const CommandLine &Cmd, report::Report &Rep) {
  KvServeOptions KO;
  KO.Sweep = parseSweep(Cmd);
  // The submission layer earns its keep when clients outnumber cores
  // (combining collapses context-switched writers into one applier pass),
  // so the full sweep climbs well past hardware_concurrency.
  const bool Full = Cmd.has("full");
  const unsigned HW = std::thread::hardware_concurrency();
  std::vector<int64_t> Def;
  if (Full)
    Def = {2, 4, 8, 16, 32, 64, 256};
  else
    Def = {2, static_cast<int64_t>(HW ? HW : 4)};
  KO.Sweep.Threads = Cmd.getIntList("threads", Def);
  checkThreadList(KO.Sweep.Threads);
  KO.ZipfTheta = Cmd.getDouble("zipf-theta", 0.99);
  if (!(KO.ZipfTheta > 0.0 && KO.ZipfTheta < 1.0)) {
    std::fprintf(stderr, "error: --zipf-theta must be in (0, 1)\n");
    std::exit(2);
  }
  for (const std::string &Scheme : KO.Sweep.Schemes)
    dispatchScheme<KvAsyncOp>(Scheme, KO, Rep);
  Rep.note("kv-async: sync-write drives the direct store API; async-w64/"
           "async-w1024 submit the identical 80p/20e zipf-skewed mix "
           "through kv::submitter with 64/1024 in-flight ops per client "
           "(closed-loop), so same-threads panel pairs are a direct "
           "write-path A/B — shallow windows buy tail latency, deep "
           "windows buy batch depth and with it throughput; combined "
           "batches fold same-key ops into one published version, so "
           "the hot set is where batching pays");
  Rep.note("kv-async: async latency is per submit+push including the "
           "closed-loop wait for the window's oldest completion — "
           "client-visible time per op, comparable to sync per-op "
           "latency");
  Rep.note("kv-async: async panels' stats blocks carry the submission "
           "layer's counters — submit_batch_len is requests per combined "
           "guard/stamp window (the MinBatch amortization applied to the "
           "write path), sync_fallbacks counts ring-full backpressure "
           "events");
  Rep.note("kv-async: a combined batch applies under ONE guard, so batch "
           "depth is also a guard-length robustness probe — the "
           "hyaline family tolerates the long guard (per-batch "
           "accounting), while epoch-family schemes stall reclamation "
           "behind it and collapse at deep windows; compare schemes "
           "before copying the async defaults");
}

//===----------------------------------------------------------------------===//
// ablation: Hyaline Slots × MinBatch knob sweep (paper Section 3.2)
//===----------------------------------------------------------------------===//

/// Replaces the deleted standalone `ablation_batch_slots` binary: sweeps
/// the Hyaline-family `Slots` (per-slot retirement lists, paper §3.2)
/// and `MinBatch` (batch threshold; effective `max(MinBatch, k+1)`)
/// knobs over the Michael hash-map write mix, one data point per
/// (scheme × slots × minbatch × threads). The knobs ride in the panel
/// name as `s<slots>xb<minbatch>`.
void runAblationSuite(const CommandLine &Cmd, report::Report &Rep) {
  SweepOptions O = parseSweep(Cmd);
  // The knobs only exist in the Hyaline family; default to the paper's
  // multi-list variants rather than every scheme.
  if (!Cmd.has("schemes"))
    O.Schemes = {"hyaline", "hyalines"};
  const bool Full = Cmd.has("full");
  const std::vector<int64_t> Slots = Cmd.getIntList(
      "slots", Full ? std::vector<int64_t>{1, 2, 4, 8, 16}
                    : std::vector<int64_t>{2, 8});
  const std::vector<int64_t> Batches = Cmd.getIntList(
      "minbatch", Full ? std::vector<int64_t>{8, 32, 64, 128, 256}
                       : std::vector<int64_t>{16, 64});
  for (const int64_t V : Slots)
    requireAtLeastOne(V, "slots");
  for (const int64_t V : Batches)
    requireAtLeastOne(V, "minbatch");

  for (const std::string &Scheme : O.Schemes) {
    for (const int64_t SlotsK : Slots) {
      for (const int64_t MinBatch : Batches) {
        char Panel[48];
        std::snprintf(Panel, sizeof(Panel), "s%lldxb%lld",
                      static_cast<long long>(SlotsK),
                      static_cast<long long>(MinBatch));
        for (const int64_t T : O.Threads) {
          report::DataPoint Pt;
          Pt.Suite = "ablation";
          Pt.Panel = Panel;
          Pt.Structure = "hashmap";
          Pt.Mix = harness::WriteMix.Name;
          Pt.Scheme = Scheme;
          Pt.Threads = static_cast<unsigned>(T);
          for (unsigned R = 0; R < O.Repeats; ++R) {
            harness::RunSpec Spec;
            Spec.Scheme = Scheme;
            Spec.Ds = "hashmap";
            Spec.Mix = harness::WriteMix;
            Spec.Threads = static_cast<unsigned>(T);
            Spec.Params.KeyRange = O.KeyRange;
            Spec.Params.Prefill = O.Prefill;
            Spec.Params.DurationSec = O.Secs;
            Spec.Params.Seed = O.Seed + R;
            Spec.Cfg.Slots = static_cast<unsigned>(SlotsK);
            Spec.Cfg.MinBatch = static_cast<unsigned>(MinBatch);
            const harness::RunResult Res = harness::runOne(Spec);
            Pt.Mops.add(Res.Mops);
            Pt.AvgUnreclaimed.add(Res.AvgUnreclaimed);
            Pt.PeakUnreclaimed.add(
                static_cast<double>(Res.PeakUnreclaimed));
            Pt.TotalOps += Res.TotalOps;
            Pt.WallSec += Res.ElapsedSec;
          }
          Rep.addPoint(Pt);
        }
      }
    }
  }
  Rep.note("ablation: Slots/MinBatch are Hyaline-family knobs (paper "
           "Section 3.2); the effective batch threshold is "
           "max(MinBatch, slots + 1). Other schemes ignore them.");
}

//===----------------------------------------------------------------------===//
// stall: stalled-reader robustness series (paper Sections 2, 4.2)
//===----------------------------------------------------------------------===//

struct StallOptions {
  int64_t TotalOps;
  unsigned Writers;
  int64_t SamplePeriod;
  uint64_t Seed;
  std::vector<std::string> Schemes;
};

/// One reader derefs a pointer and stalls; writers churn allocate/retire
/// cycles while the unreclaimed count is sampled. Robust schemes plateau;
/// epoch/hyaline/hyaline1 grow linearly with the churn.
template <typename S> struct StallOp {
  static void run(const std::string &Name, const StallOptions &O,
                  report::Report &Rep) {
    smr::Config C;
    C.MaxThreads = O.Writers + 1;
    S Scheme(C, &deleteRawNode<S>, nullptr);

    std::vector<std::atomic<RawNode *>> Cells(64);
    for (auto &Cell : Cells)
      Cell.store(nullptr);

    // Seed one node for the stalled reader to hold.
    auto Boot = Scheme.enter(1);
    auto *Seed = new RawNode();
    Scheme.initNode(Boot, headerOf<S>(Seed));
    Cells[0].store(Seed);
    Scheme.leave(Boot);

    auto Stalled = Scheme.enter(0);
    (void)Scheme.deref(Stalled, Cells[0], 0);

    std::atomic<int64_t> OpsDone{0};
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Ts;
    for (unsigned W = 0; W < O.Writers; ++W)
      Ts.emplace_back([&, W] {
        uint64_t X = O.Seed + W + 1; // per-writer LCG stream off the seed
        while (!Stop.load(std::memory_order_relaxed)) {
          auto G = Scheme.enter(1 + W);
          auto *N = new RawNode();
          Scheme.initNode(G, headerOf<S>(N));
          X = X * 6364136223846793005ULL + 1;
          auto *Old = Cells[(X >> 33) & 63].exchange(N);
          if (Old)
            Scheme.retire(G, reinterpret_cast<typename S::NodeHeader *>(
                                 Old->Header));
          Scheme.leave(G);
          if (OpsDone.fetch_add(1, std::memory_order_relaxed) >= O.TotalOps)
            break;
        }
      });

    const auto AddSample = [&](int64_t Done, int64_t Unreclaimed) {
      report::DataPoint Pt;
      Pt.Suite = "stall";
      Pt.Panel = "series";
      Pt.Structure = "-";
      Pt.Mix = "-";
      Pt.Scheme = Name;
      Pt.Threads = O.Writers;
      Pt.TotalOps = static_cast<uint64_t>(Done);
      Pt.AvgUnreclaimed.add(static_cast<double>(Unreclaimed));
      Pt.PeakUnreclaimed.add(static_cast<double>(Unreclaimed));
      Rep.addPoint(Pt);
    };

    int64_t NextSample = 0;
    while (OpsDone.load(std::memory_order_relaxed) < O.TotalOps) {
      const int64_t Done = OpsDone.load(std::memory_order_relaxed);
      if (Done >= NextSample) {
        AddSample(Done, Scheme.memCounter().unreclaimed());
        NextSample += O.SamplePeriod;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Stop.store(true);
    for (auto &T : Ts)
      T.join();
    AddSample(OpsDone.load(), Scheme.memCounter().unreclaimed());

    // Resume and drain so the scheme destructs cleanly.
    Scheme.leave(Stalled);
    auto G = Scheme.enter(0);
    for (auto &Cell : Cells)
      if (auto *N = Cell.exchange(nullptr))
        Scheme.retire(G,
                      reinterpret_cast<typename S::NodeHeader *>(N->Header));
    Scheme.leave(G);
  }
};

void runStallSuite(const CommandLine &Cmd, report::Report &Rep) {
  StallOptions O;
  const bool Full = Cmd.has("full");
  O.TotalOps =
      requireAtLeastOne(Cmd.getInt("ops", Full ? 2000000 : 200000), "ops");
  O.Writers = static_cast<unsigned>(
      requireAtLeastOne(Cmd.getInt("writers", 4), "writers"));
  O.SamplePeriod = requireAtLeastOne(
      Cmd.getInt("sample", std::max<int64_t>(O.TotalOps / 10, 1)), "sample");
  O.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  // NoMM never reclaims, so a stalled-reader series says nothing new.
  O.Schemes = expandSchemes(Cmd.getStringList(
      "schemes", {"epoch", "hyaline", "hyaline1", "hp", "he", "ibr",
                  "hyalines", "hyaline1s"}));
  checkSchemes(O.Schemes);
  for (const std::string &Scheme : O.Schemes) {
    if (Scheme == "nomm") {
      Rep.note("stall: skipping nomm (never reclaims; series is trivial)");
      continue;
    }
    dispatchScheme<StallOp>(Scheme, O, Rep);
  }
  Rep.note("stall: robust schemes (hp/he/ibr/hyalines/hyaline1s) should "
           "plateau; epoch/hyaline/hyaline1 grow with the churn");
}

//===----------------------------------------------------------------------===//
// table1: qualitative comparison with measured header sizes
//===----------------------------------------------------------------------===//

template <typename S>
report::QualRow qualRow(const char *PaperHeader) {
  const smr::SchemeTraits &T = smr::ReclaimerTraits<S>::Row;
  report::QualRow R;
  R.Name = T.Name;
  R.BasedOn = T.BasedOn;
  R.Performance = T.Performance;
  R.Robust = T.Robust;
  R.Transparent = T.Transparent;
  R.HeaderBytes = T.HeaderBytes;
  R.PaperHeader = PaperHeader;
  R.Api = T.Api;
  R.NeedsDeref = T.NeedsDeref;
  R.NeedsIndices = T.NeedsIndices;
  R.SupportsBonsai = T.SupportsBonsai;
  return R;
}

void runTable1Suite(const CommandLine &, report::Report &Rep) {
  Rep.addQualRow(qualRow<smr::HP>("1 word"));
  Rep.addQualRow(qualRow<smr::EBR>("1 word [*]"));
  Rep.addQualRow(qualRow<smr::HE>("3 words"));
  Rep.addQualRow(qualRow<smr::IBR>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline1>("3 words"));
  Rep.addQualRow(qualRow<core::HyalineS>("3 words"));
  Rep.addQualRow(qualRow<core::Hyaline1S>("3 words"));
  Rep.addQualRow(qualRow<smr::NoMM>("n/a"));
  Rep.note("[*] the paper's 1-word EBR assumes per-epoch retire lists; "
           "this implementation stamps the retire epoch per node (the "
           "variant the paper benchmarks), costing one extra word");
  Rep.note("deref required: HP, HE, IBR, Hyaline-S, Hyaline-1S; indices "
           "required: HP, HE; Bonsai-capable: all except HP, HE");
}

//===----------------------------------------------------------------------===//
// Registry, usage, entry points
//===----------------------------------------------------------------------===//

/// Every flag any suite understands. One union set: common flags stay
/// accepted (and ignored) by suites that do not consume them, so `all`
/// can pass one flag vector to every suite.
const std::vector<std::string> &knownFlags() {
  static const std::vector<std::string> Flags = {
      "help",    "format",  "out",      "full",     "seed",
      "threads", "secs",    "repeats",  "keyrange", "prefill",
      "schemes", "ops",     "writers",  "sample",   "version",
      "slots",   "minbatch", "zipf-theta"};
  return Flags;
}

std::string joinCommand(int Argc, char **Argv) {
  std::string Out;
  for (int I = 0; I < Argc; ++I) {
    if (I)
      Out.push_back(' ');
    Out += Argv[I];
  }
  return Out;
}

int runSuites(const std::vector<const Suite *> &Suites,
              const CommandLine &Cmd, const char *DefaultFormat,
              std::string Command) {
  report::Format Fmt;
  const std::string FmtName = Cmd.getString("format", DefaultFormat);
  if (!report::parseFormat(FmtName, Fmt)) {
    std::fprintf(stderr,
                 "error: unknown --format '%s' (expected json, csv, or "
                 "human)\n",
                 FmtName.c_str());
    return 2;
  }

  std::FILE *Out = stdout;
  const std::string OutPath = Cmd.getString("out", "");
  if (!OutPath.empty()) {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot open --out file '%s'\n",
                   OutPath.c_str());
      return 2;
    }
  }

  report::RunMetadata Meta = report::collectMetadata();
  Meta.Command = std::move(Command);
  Meta.Seed = static_cast<uint64_t>(Cmd.getInt("seed", 0x5eed));
  for (const Suite *S : Suites)
    Meta.Suites.push_back(S->Name);

  {
    report::Report Rep(Fmt, Out);
    Rep.setMetadata(std::move(Meta));
    for (const Suite *S : Suites)
      S->Run(Cmd, Rep);
    Rep.finish();
  }
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}

} // namespace

const std::vector<Suite> &lfsmr::bench::allSuites() {
  static const std::vector<Suite> Suites = {
      {"list", "Harris-Michael list sweep (Fig. 11a/11d, 12a/12d)",
       &runListSuite},
      {"hashmap", "Michael hash-map sweep (Fig. 11b/11e, 12b/12e)",
       &runHashMapSuite},
      {"nmtree", "Natarajan-Mittal tree sweep (Fig. 11c/11f, 12c/12f)",
       &runNMTreeSuite},
      {"bonsai", "Bonsai tree sweep (Fig. 13)", &runBonsaiSuite},
      {"kv", "versioned KV store: snapshot reads/scans, string keys, resize",
       &runKvSuite},
      {"kv-snap-cycle",
       "snapshot open/close latency: one-RMW fast path p50/p99",
       &runKvSnapCycleSuite},
      {"kv-serve",
       "serving realism: zipf skew, thread churn, oversub, stalled reader",
       &runKvServeSuite},
      {"kv-async",
       "batched submission write path vs direct sync API (A/B)",
       &runKvAsyncSuite},
      {"enter-leave", "SMR primitive microbenchmarks (Section 3.2 costs)",
       &runEnterLeaveSuite},
      {"ablation", "Hyaline Slots x MinBatch knob sweep (Section 3.2)",
       &runAblationSuite},
      {"stall", "stalled-reader robustness series (Theorem 5)",
       &runStallSuite},
      {"table1", "qualitative comparison, measured header sizes (Table 1)",
       &runTable1Suite},
  };
  return Suites;
}

void lfsmr::bench::printUsage(std::FILE *Out) {
  std::fprintf(Out, "usage: lfsmr-bench <suite> [flags]\n\nsuites:\n");
  for (const Suite &S : allSuites())
    std::fprintf(Out, "  %-12s %s\n", S.Name, S.Description);
  std::fprintf(Out, "  %-12s %s\n", "all",
               "every suite above, one combined report");
  std::fprintf(
      Out,
      "\nflags:\n"
      "  --format json|csv|human   output format (default human)\n"
      "  --out FILE                write the report to FILE\n"
      "  --full                    paper-sized parameters (10 s x 5 "
      "repeats, dense sweep)\n"
      "  --threads 1,4,8           thread counts to sweep\n"
      "  --secs S                  measured seconds per data point\n"
      "  --repeats N               repeats per data point\n"
      "  --schemes a,b             scheme subset; `all` = every scheme\n"
      "  --keyrange N --prefill N  key space / prefill size\n"
      "  --seed S                  base suite seed (repeat R uses S+R)\n"
      "  --ops N --writers N --sample N   stall-suite churn parameters\n"
      "  --slots 1,2,4 --minbatch 8,64    ablation-suite knob grids\n"
      "  --zipf-theta T            kv-serve key skew, in (0, 1) "
      "(default 0.99)\n"
      "  --version                 print version + build git sha, exit\n"
      "  --help                    this message\n");
}

int lfsmr::bench::benchMain(int Argc, char **Argv) {
  const CommandLine Cmd(Argc, Argv);
  if (Cmd.has("help")) {
    printUsage(stdout);
    return 0;
  }
  if (Cmd.has("version")) {
    // The sha comes from the same provenance the JSON reports stamp
    // (configure-time git sha with the $GITHUB_SHA runtime fallback).
    std::printf("lfsmr-bench %s (%s)\n", LFSMR_VERSION_STRING,
                report::collectMetadata().GitSha.c_str());
    return 0;
  }
  const std::vector<std::string> Unknown = Cmd.unknownFlags(knownFlags());
  if (!Unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n\n", Unknown[0].c_str());
    printUsage(stderr);
    return 2;
  }
  if (Cmd.positional().size() != 1) {
    std::fprintf(stderr, "error: expected exactly one suite name\n\n");
    printUsage(stderr);
    return 2;
  }

  const std::string Name = Cmd.positional()[0];
  std::vector<const Suite *> Run;
  if (Name == "all") {
    for (const Suite &S : allSuites())
      Run.push_back(&S);
  } else {
    for (const Suite &S : allSuites())
      if (Name == S.Name)
        Run.push_back(&S);
    if (Run.empty()) {
      std::fprintf(stderr, "error: unknown suite '%s'\n\n", Name.c_str());
      printUsage(stderr);
      return 2;
    }
  }
  return runSuites(Run, Cmd, /*DefaultFormat=*/"human",
                   joinCommand(Argc, Argv));
}
