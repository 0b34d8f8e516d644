//===- perfbench/kvbench.cpp - Repository benchmark: kv under Hyaline-S ---===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository benchmark. It drives `lfsmr::kv::store<hyaline_s>` as an
/// outside consumer through three closed-loop workloads and prints the
/// end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`)
/// by name, with unit and sample count, ending with one JSON line:
///
///   kvbench --workload read-sparse|mixed-hot|stall-write --seed N
///           --seconds S --trace 0|1
///   kvbench --self-test
///
/// One process, four threads in total (the main thread included). Stores
/// use the library-default `kv::Options` with only `Reclaim.MaxThreads`
/// set, so suspects such as `MaxLoadFactor` are measured as users run
/// them. Every writer stores a value that encodes its key, every hit is
/// checked against it, and each violation counts as a failed op; any
/// failure makes the exit code non-zero.
///
/// Workloads (the clients wait for each reply):
///
///  - read-sparse: 262,144 keys at stride 64, uniform reads over
///    1.125x that range (1/9 miss), 90 get / 8 put / 2 erase on 3 clients.
///    An erased key is re-put by its client's next put, so the key set
///    stays stationary. Key IDs with zero low bits spread over a store far
///    larger than L2: the work sits in codec -> shard_index. Rounds of
///    500 k client ops.
///  - mixed-hot: zipf(0.99) over 16,384 contiguous keys. Two sync clients
///    (50 put / 20 erase / 30 get; every 256th step a snapshot with 32
///    reads, every 64th a 4-key RMW transaction on uniform keys) and one
///    async client (80 put / 20 erase, 64 futures in flight). The work
///    sits in alloc/retire/reclaim, the clock, trim, snapshots, commit and
///    combining; contiguous keys leave the index idle. Rounds of 4 M ops.
///  - stall-write: zipf(0.99) over 65,536 keys, 2 writers doing a fixed
///    1.5 M ops each of 80 put / 20 erase while a stalled holder keeps a
///    guard (its snapshot dropped first) for the whole round. Memory is
///    sampled at equal shares of the writers' work, so it compares at
///    equal work.
///
/// Rounds run on fresh stores until --seconds is used, so every round
/// takes the store through the same states however fast it runs (the
/// scheme's state drifts with the work done). Timings and memory are
/// summarized per round and reported as the median over rounds (the
/// probe's kinds, below, are pooled instead); setup_s is the median build
/// + prefill time of all the run's stores.
///
/// The result line carries every end-to-end metric on every workload.
/// Where a workload's clients do not send an op kind, the main thread
/// sends it as a probe, once per 512 client ops, so the probe is a fixed
/// share of each round's work: a snapshot with 32 reads, a 4-key
/// transaction and a window-1 async put on read-sparse and stall-write,
/// plus a get on stall-write. A probe kind's samples are pooled over the
/// run's rounds, as read-sparse gets under a thousand of them per round.
///
/// The traced run orders its rounds plain, traced, traced, plain, ...
/// In traced rounds every
/// 64th client op is preceded, on the same thread and between ops, by
/// shadow calls into each layer's public entry point on the op's key;
/// count metrics are deltas of `stats()` and introspection values around
/// the traced rounds. Nothing inside the library is instrumented.
///
//===----------------------------------------------------------------------===//

#include "lfsmr/kv.h"
#include "lfsmr/kv_async.h"
#include "lfsmr/schemes.h"
#include "support/random.h"
#include "support/workload.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace {

using Scheme = lfsmr::schemes::hyaline_s;
using Store = lfsmr::kv::store<Scheme>;
using Submitter = lfsmr::kv::submitter<Scheme>;
using Future = lfsmr::kv::future<Scheme>;
using Stats = lfsmr::telemetry::store_stats;
using lfsmr::SplitMix64;
using lfsmr::Xoshiro256;
using lfsmr::workload::ZipfianGenerator;

constexpr unsigned Threads = 4; // every thread of the process, main included
constexpr unsigned MainTid = 0;

constexpr std::uint64_t SparseKeys = 262144;
constexpr std::uint64_t SparseStride = 64;
constexpr std::uint64_t HotKeys = 16384;
constexpr std::uint64_t StallKeys = 65536;
constexpr double ZipfTheta = 0.99;

constexpr unsigned SnapEvery = 256;
constexpr unsigned TxnEvery = 64;
constexpr unsigned SnapReads = 32;
constexpr unsigned TxnKeys = 4;
constexpr unsigned TxnMaxAttempts = 16;
constexpr std::size_t AsyncWindow = 64;
constexpr std::uint64_t StallOpsPerWriter = 1500000;
constexpr std::uint64_t SparseOpsPerRound = 500000;
constexpr std::uint64_t MixedOpsPerRound = 4000000;
constexpr unsigned Shares = 1024; ///< memory samples per stall-write writer
constexpr unsigned ShadowEvery = 64;
constexpr std::uint64_t ProbeEvery = 512; ///< client ops per probe
constexpr auto PollPeriod = std::chrono::microseconds(100);
constexpr auto SamplePeriod = std::chrono::milliseconds(1);

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double secondsSince(std::uint64_t T0) {
  return static_cast<double>(nowNs() - T0) * 1e-9;
}

/// Pins the calling thread to one CPU (when the machine has one per
/// thread), so run-to-run differences in thread placement do not show up
/// as noise. The main thread takes CPU 0, which takes most of a machine's
/// housekeeping interrupts and steal: it holds a guard only during its
/// probe, whereas a client held up inside its guard pins what the others
/// retire meanwhile.
void pinToCpu(unsigned Cpu) {
  if (std::thread::hardware_concurrency() < Threads)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

/// Keeps the compiler from folding a shadow call's result away.
template <typename T> void keep(const T &V) {
  asm volatile("" : : "r"(&V) : "memory");
}

//===----------------------------------------------------------------------===//
// Samples and percentiles
//===----------------------------------------------------------------------===//

/// A bounded, evenly spaced sample of one thread's measurements: when the
/// buffer fills, every other sample is dropped and the stride doubles, so
/// the kept samples cover the whole phase. Threads that pool one kind run
/// the same loop, so their strides stay alike.
class Samples {
public:
  void add(double X) {
    if (Seen++ % Stride != 0)
      return;
    if (V.size() == Cap) {
      for (std::size_t I = 0; I < Cap / 2; ++I)
        V[I] = V[2 * I];
      V.resize(Cap / 2);
      Stride *= 2;
      if ((Seen - 1) % Stride != 0)
        return;
    }
    V.push_back(X);
  }
  const std::vector<double> &values() const { return V; }

private:
  static constexpr std::size_t Cap = std::size_t{1} << 14;
  std::vector<double> V;
  std::uint64_t Seen = 0;
  std::uint64_t Stride = 1;
};

/// A timing as reported: the median and the highest percentile, at most
/// p99 (or a lower cap), that has at least ten samples beyond it.
struct Summary {
  double P50 = 0;
  double Tail = 0;
  unsigned TailPct = 0;
  std::size_t N = 0;
};

/// The highest whole percentile, capped at 99, that leaves at least ten
/// of \p N samples above it (50 when even the median cannot).
unsigned supportedPercentile(std::size_t N) {
  if (N < 20)
    return 50;
  const std::size_t Short = (1000 + N - 1) / N; // ceil(1000 / N) percent
  return static_cast<unsigned>(100 - std::max<std::size_t>(Short, 1));
}

/// Nearest-rank percentile of sorted \p V.
double rankPercentile(const std::vector<double> &V, double Pct) {
  if (V.empty())
    return 0;
  const double Rank = std::ceil(Pct / 100.0 * static_cast<double>(V.size()));
  const std::size_t I = Rank < 1 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return V[std::min(I, V.size() - 1)];
}

Summary summarize(std::vector<double> V, unsigned Cap = 99) {
  std::sort(V.begin(), V.end());
  Summary S;
  S.N = V.size();
  S.TailPct = std::min(supportedPercentile(S.N), Cap);
  S.P50 = rankPercentile(V, 50);
  S.Tail = rankPercentile(V, S.TailPct);
  return S;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const std::size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

/// Completed ops over the wall time of the measured phase (the
/// `harness::runMeasured` formula), never a sum of per-thread rates.
double opsPerSecond(std::uint64_t Ops, double WallSeconds) {
  return WallSeconds > 0 ? static_cast<double>(Ops) / WallSeconds : 0;
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0; }

/// The op counts after which memory is sampled in a round of \p Quota
/// ops: the ends of \p N equal shares of its work.
std::vector<std::uint64_t> shareBoundaries(std::uint64_t Quota, unsigned N) {
  std::vector<std::uint64_t> B;
  for (unsigned K = 1; K <= N; ++K)
    B.push_back(Quota * K / N);
  return B;
}

//===----------------------------------------------------------------------===//
// Workloads and their keys
//===----------------------------------------------------------------------===//

enum class Workload { ReadSparse, MixedHot, StallWrite };

const char *nameOf(Workload W) {
  switch (W) {
  case Workload::ReadSparse:
    return "read-sparse";
  case Workload::MixedHot:
    return "mixed-hot";
  case Workload::StallWrite:
    return "stall-write";
  }
  return "?";
}

std::optional<Workload> parseWorkload(const std::string &S) {
  for (Workload W :
       {Workload::ReadSparse, Workload::MixedHot, Workload::StallWrite})
    if (S == nameOf(W))
      return W;
  return std::nullopt;
}

/// Values carry a tag derived from their key in the high 48 bits and a
/// write counter in the low 16, so a read can tell whose value it got.
std::uint64_t keyTag(std::uint64_t Key) {
  return SplitMix64(Key).next() & ~std::uint64_t{0xffff};
}
std::uint64_t valueFor(std::uint64_t Key, std::uint64_t Seq) {
  return keyTag(Key) | (Seq & 0xffff);
}
bool encodesKey(std::uint64_t Key, std::uint64_t Val) {
  return (Val & ~std::uint64_t{0xffff}) == keyTag(Key);
}

/// Key distributions of one workload. Readers of different threads share
/// one instance; all randomness comes from the caller's stream.
class Keys {
public:
  explicit Keys(Workload W)
      : W(W), Zipf(W == Workload::StallWrite ? StallKeys : HotKeys,
                   ZipfTheta) {}

  /// Keys the store is prefilled with (and the only ones ever written).
  std::uint64_t count() const {
    return W == Workload::ReadSparse ? SparseKeys : Zipf.items();
  }
  std::uint64_t keyAt(std::uint64_t I) const {
    return W == Workload::ReadSparse ? I * SparseStride : I;
  }

  /// A key a get or snapshot read asks for; on read-sparse 1 in 9 lies
  /// past the written range and must miss.
  std::uint64_t readKey(Xoshiro256 &R) const {
    if (W == Workload::ReadSparse)
      return keyAt(R.nextBounded(SparseKeys + SparseKeys / 8));
    return Zipf.next(R);
  }
  /// A key a put or erase targets.
  std::uint64_t writeKey(Xoshiro256 &R) const {
    if (W == Workload::ReadSparse)
      return keyAt(R.nextBounded(SparseKeys));
    return Zipf.next(R);
  }
  /// A uniformly drawn written key (transaction keys).
  std::uint64_t uniformKey(Xoshiro256 &R) const {
    return keyAt(R.nextBounded(count()));
  }
  /// A never-written key derived from \p Key, for the shadow miss.
  std::uint64_t absentKey(std::uint64_t Key) const {
    if (W == Workload::ReadSparse)
      return keyAt(SparseKeys + (Key / SparseStride) % (SparseKeys / 8));
    return count() + Key;
  }
  bool written(std::uint64_t Key) const {
    if (W == Workload::ReadSparse)
      return Key % SparseStride == 0 && Key / SparseStride < SparseKeys;
    return Key < count();
  }

private:
  Workload W;
  ZipfianGenerator Zipf;
};

//===----------------------------------------------------------------------===//
// Per-thread tallies
//===----------------------------------------------------------------------===//

enum LatKind { LGet, LPut, LSnap, LTxn, LAsync, NumLat };
constexpr const char *LatName[NumLat] = {"get", "put", "snap", "txn",
                                         "async"};
/// The tail the result carries per kind. A steal of the host's CPU
/// stalls the one op its thread has in flight, so it reaches a kind's
/// p99 once steals come more often than one per hundred of its ops. On
/// the probe workloads snapshots, transactions and async writes come a
/// few hundred a second, and this happened in a third of the runs: their
/// result tail is p90, with p99 printed beside it.
constexpr unsigned LatTailPct[NumLat] = {99, 99, 90, 90, 90};

enum ShadowKind {
  SHash,
  SMiss,
  SHit,
  SMinLive,
  SOpen,
  SCommit,
  SEnterLeave,
  SAllocRetire,
  SChainDepth,
  NumShadow
};

/// What one thread measured during one round. Timings and memory are
/// summarized per round, and a run reports the median over its rounds, so
/// a burst of host noise inside one round does not move the result.
struct Window {
  std::array<Samples, NumLat> Lat;
  std::vector<double> Unreclaimed;

  void absorb(const Window &O) {
    for (unsigned I = 0; I < NumLat; ++I)
      for (double X : O.Lat[I].values())
        Lat[I].add(X);
    Unreclaimed.insert(Unreclaimed.end(), O.Unreclaimed.begin(),
                       O.Unreclaimed.end());
  }
};

struct Tally {
  std::vector<Window> Windows;
  std::array<Samples, NumShadow> Shadow;
  std::uint64_t Ops = 0;       ///< completed ops as ops_per_s counts them
  std::uint64_t Attempted = 0; ///< ops attempted
  std::uint64_t Failed = 0;    ///< txns that never committed
  std::uint64_t Violations = 0;
  std::uint64_t Writes = 0; ///< completed writes (put, erase, txn, async)
  std::uint64_t Opens = 0;  ///< snapshot acquisitions, txns included
  std::uint64_t TxnAttempts = 0;
  std::uint64_t TxnAborts = 0;
  std::uint64_t AsyncSubmitted = 0;
  std::uint64_t AsyncCompleted = 0;

  Window &window(std::size_t W) {
    if (W >= Windows.size())
      Windows.resize(W + 1);
    return Windows[W];
  }

  /// Adds \p O's counts, and its windows from index \p Offset on: 0 for
  /// threads of one phase, the current window count for a later phase.
  void absorb(const Tally &O, std::size_t Offset) {
    for (std::size_t W = 0; W < O.Windows.size(); ++W)
      window(Offset + W).absorb(O.Windows[W]);
    for (unsigned I = 0; I < NumShadow; ++I)
      for (double X : O.Shadow[I].values())
        Shadow[I].add(X);
    Ops += O.Ops;
    Attempted += O.Attempted;
    Failed += O.Failed;
    Violations += O.Violations;
    Writes += O.Writes;
    Opens += O.Opens;
    TxnAttempts += O.TxnAttempts;
    TxnAborts += O.TxnAborts;
    AsyncSubmitted += O.AsyncSubmitted;
    AsyncCompleted += O.AsyncCompleted;
  }
};

/// The median over windows of each window's p50 and tail; N counts the
/// samples of all windows.
template <typename Values>
Summary overWindows(const std::vector<Window> &Ws, Values Of,
                    unsigned Cap = 99) {
  std::vector<double> P50, Tail;
  Summary S;
  S.TailPct = Cap;
  for (const Window &W : Ws) {
    const std::vector<double> &V = Of(W);
    if (V.empty())
      continue;
    const Summary One = summarize(V, Cap);
    P50.push_back(One.P50);
    Tail.push_back(One.Tail);
    S.N += One.N;
    S.TailPct = std::min(S.TailPct, One.TailPct);
  }
  S.P50 = median(P50);
  S.Tail = median(Tail);
  return S;
}

/// One summary of all windows' samples together.
template <typename Values>
Summary pooled(const std::vector<Window> &Ws, Values Of, unsigned Cap) {
  std::vector<double> All;
  for (const Window &W : Ws) {
    const std::vector<double> &V = Of(W);
    All.insert(All.end(), V.begin(), V.end());
  }
  return summarize(std::move(All), Cap);
}

/// Whether the main thread's probe, not the workload's clients, sends op
/// kind \p K on workload \p W.
bool probeSends(Workload W, LatKind K) {
  if (W == Workload::MixedHot)
    return false;
  return K == LSnap || K == LTxn || K == LAsync ||
         (K == LGet && W == Workload::StallWrite);
}

/// A client kind is the median over rounds of each round's p50 and tail;
/// a probe kind pools the rounds.
Summary latencyOf(Workload W, const Tally &T, LatKind K, unsigned Cap = 99) {
  auto Of = [K](const Window &Win) -> const std::vector<double> & {
    return Win.Lat[K].values();
  };
  return probeSends(W, K) ? pooled(T.Windows, Of, Cap)
                          : overWindows(T.Windows, Of, Cap);
}

/// Shaped like one version record, for the shadow alloc+retire.
struct VersionSized {
  std::uint64_t Stamp = 0;
  std::uintptr_t Older = 0;
  std::uintptr_t Commit = 0;
  std::uint64_t Val = 0;
  bool Tombstone = false;
};

//===----------------------------------------------------------------------===//
// Clients
//===----------------------------------------------------------------------===//

/// Shared state of one measured phase.
struct Phase {
  Store &Db;
  Submitter &Sub;
  const Keys &K;
  bool Traced;
  std::atomic<bool> Go{false};
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> Finished{0};      ///< stall-write writers done
  std::atomic<std::uint64_t> Completed{0}; ///< ops reported toward budget
};

/// One thread's side of a phase: its scheme id, its random stream, and
/// the ops every role runs (timed, checked, counted).
class Client {
public:
  Client(Phase &P, unsigned Tid, std::uint64_t Seed, Tally &T)
      : P(P), Tid(Tid), Rng(Seed), T(T) {}

  void waitForGo() const {
    pinToCpu(Tid);
    while (!P.Go.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  bool stopped() const { return P.Stop.load(std::memory_order_relaxed); }

  /// A get whose hit must carry a value encoding its key; a key that is
  /// never written must miss.
  void get(std::uint64_t Key) {
    ++T.Attempted;
    const std::uint64_t T0 = nowNs();
    const std::optional<std::uint64_t> V = P.Db.get(Tid, Key);
    latency(LGet, T0);
    ++T.Ops;
    check(Key, V);
  }

  void write(std::uint64_t Key, bool Erase) {
    ++T.Attempted;
    const std::uint64_t T0 = nowNs();
    if (Erase)
      P.Db.erase(Tid, Key);
    else
      P.Db.put(Tid, Key, valueFor(Key, ++Seq));
    latency(LPut, T0);
    ++T.Ops;
    ++T.Writes;
  }

  /// Snapshot open + 32 reads + close; each read is one op.
  void snapshot() {
    T.Attempted += SnapReads;
    const std::uint64_t T0 = nowNs();
    {
      lfsmr::kv::snapshot S = P.Db.open_snapshot();
      for (unsigned I = 0; I < SnapReads; ++I) {
        const std::uint64_t Key = P.K.readKey(Rng);
        check(Key, P.Db.get(Tid, Key, S));
      }
    }
    latency(LSnap, T0);
    T.Ops += SnapReads;
    ++T.Opens;
  }

  /// A 4-key read-modify-write transaction on uniformly drawn keys,
  /// retried on abort; its latency runs from the first begin to the
  /// commit that lands.
  void txn() {
    ++T.Attempted;
    std::array<std::uint64_t, TxnKeys> Ks;
    for (std::uint64_t &Key : Ks)
      Key = P.K.uniformKey(Rng);
    const std::uint64_t T0 = nowNs();
    for (unsigned A = 0; A < TxnMaxAttempts; ++A) {
      auto X = P.Db.begin_transaction();
      ++T.Opens;
      ++T.TxnAttempts;
      for (std::uint64_t Key : Ks) {
        const std::optional<std::uint64_t> V = X.get(Tid, Key);
        check(Key, V);
        X.put(Key, valueFor(Key, V ? *V + 1 : 0));
      }
      const std::uint64_t C0 = nowNs();
      const bool Ok = X.commit(Tid);
      if (P.Traced)
        T.Shadow[SCommit].add(static_cast<double>(nowNs() - C0));
      if (Ok) {
        latency(LTxn, T0);
        ++T.Ops;
        ++T.Writes;
        return;
      }
      ++T.TxnAborts;
    }
    ++T.Failed;
  }

  /// A handle on one async op in the client's ring, for
  /// `CompletionWindow`: waiting on it consumes the future.
  struct TimedFuture {
    Client *C = nullptr;
    std::size_t Slot = 0;
    bool get(unsigned WaitTid) { return C->awaitAsync(Slot, WaitTid); }
  };

  /// Submits a put or erase. Its future waits in a ring one longer than
  /// the window, so every in-flight op has a fixed place.
  TimedFuture submit(std::uint64_t Key, bool Erase) {
    ++T.Attempted;
    ++T.AsyncSubmitted;
    const std::size_t Slot = NextSlot++ % Ring.size();
    AsyncOp &Op = Ring[Slot];
    if (Op.F.valid()) // the window never holds more than the ring
      ++T.Violations;
    Op.T0 = nowNs();
    Op.DoneNs = 0;
    Op.F = Erase ? P.Sub.erase(Tid, Key)
                 : P.Sub.put(Tid, Key, valueFor(Key, ++Seq));
    return TimedFuture{this, Slot};
  }

  /// Stamps the completion time of every in-flight op that is done. The
  /// client calls it after each submit and wait, which is where its
  /// batches are applied (the combiner is whichever thread waits), so an
  /// op's latency runs from submit to completion rather than to the
  /// moment the window reaches it.
  void stampCompleted() {
    std::uint64_t Now = 0;
    for (AsyncOp &Op : Ring)
      if (Op.DoneNs == 0 && Op.F.valid() && Op.F.ready())
        Op.DoneNs = Now ? Now : (Now = nowNs());
  }

  /// Ring size for a window of \p Window in-flight ops.
  void reserveAsync(std::size_t Window) { Ring.resize(Window + 1); }

  Xoshiro256 &rng() { return Rng; }
  unsigned tid() const { return Tid; }
  Phase &phase() { return P; }

  /// Shadow calls into each layer's public entry point on \p Key, made
  /// just before the op on that key so the index lookup meets the cache
  /// state the op would meet. One lookup per round, hit and miss taking
  /// turns, so neither warms the other's path. Calls under ~100 ns are
  /// timed in batches; the alloc+retire batch comes last, as it leaves
  /// retired objects behind for the scheme.
  void shadow(std::uint64_t Key) {
    std::uint64_t T0 = nowNs();
    if (++Rounds % 2) {
      const std::optional<std::uint64_t> V = P.Db.get(Tid, Key);
      if (V)
        T.Shadow[SHit].add(static_cast<double>(nowNs() - T0));
      check(Key, V);
    } else {
      const std::uint64_t Absent = P.K.absentKey(Key);
      const std::optional<std::uint64_t> V = P.Db.get(Tid, Absent);
      T.Shadow[SMiss].add(static_cast<double>(nowNs() - T0));
      check(Absent, V);
    }
    if (const std::size_t D = P.Db.version_count(Tid, Key))
      T.Shadow[SChainDepth].add(static_cast<double>(D));

    T0 = nowNs();
    std::uint64_t H = 0;
    for (unsigned I = 0; I < 64; ++I) {
      std::uint64_t X = Key;
      asm volatile("" : "+r"(X));
      H ^= lfsmr::kv::Codec<std::uint64_t>::hash(X);
    }
    keep(H);
    T.Shadow[SHash].add(static_cast<double>(nowNs() - T0) / 64);

    T0 = nowNs();
    for (unsigned I = 0; I < 8; ++I)
      keep(P.Db.registry().minLive());
    T.Shadow[SMinLive].add(static_cast<double>(nowNs() - T0) / 8);

    {
      T0 = nowNs();
      lfsmr::kv::snapshot S = P.Db.open_snapshot();
      T.Shadow[SOpen].add(static_cast<double>(nowNs() - T0));
      ++T.Opens;
    }

    T0 = nowNs();
    for (unsigned I = 0; I < 16; ++I)
      P.Db.domain().enter(Tid).leave();
    T.Shadow[SEnterLeave].add(static_cast<double>(nowNs() - T0) / 16);

    {
      auto G = P.Db.domain().enter(Tid);
      T0 = nowNs();
      for (unsigned I = 0; I < 8; ++I)
        G.retire(G.create<VersionSized>());
      T.Shadow[SAllocRetire].add(static_cast<double>(nowNs() - T0) / 8);
    }
  }

  void maybeShadow(std::uint64_t Step, std::uint64_t Key) {
    if (P.Traced && Step % ShadowEvery == ShadowEvery / 2)
      shadow(Key);
  }

  /// Reports progress toward a round's op budget every 64 steps.
  void endStep(std::uint64_t Step) {
    if (Step % 64 == 0) {
      P.Completed.fetch_add(T.Ops - Reported, std::memory_order_relaxed);
      Reported = T.Ops;
    }
  }

  /// Records the latency of an op that started at \p T0, in us. A phase
  /// is one round, so it fills window 0.
  void latency(LatKind K, std::uint64_t T0) {
    T.window(0).Lat[K].add(static_cast<double>(nowNs() - T0) * 1e-3);
  }
  void sampleUnreclaimed() {
    T.window(0).Unreclaimed.push_back(
        static_cast<double>(P.Db.stats().unreclaimed));
  }

private:
  struct AsyncOp {
    Future F;
    std::uint64_t T0 = 0;
    std::uint64_t DoneNs = 0; ///< 0 until the op is seen complete
  };

  bool awaitAsync(std::size_t Slot, unsigned WaitTid) {
    AsyncOp &Op = Ring[Slot];
    if (!Op.F.valid()) {
      ++T.Violations;
      return false;
    }
    const bool R = Op.F.get(WaitTid);
    const std::uint64_t Done = Op.DoneNs ? Op.DoneNs : nowNs();
    T.window(0).Lat[LAsync].add(static_cast<double>(Done - Op.T0) * 1e-3);
    ++T.Ops;
    ++T.Writes;
    ++T.AsyncCompleted;
    return R;
  }

  void check(std::uint64_t Key, const std::optional<std::uint64_t> &V) {
    if (V && (!P.K.written(Key) || !encodesKey(Key, *V)))
      ++T.Violations;
  }

  Phase &P;
  unsigned Tid;
  Xoshiro256 Rng;
  Tally &T;
  std::uint64_t Seq = 0;
  std::uint64_t Rounds = 0;
  std::uint64_t Reported = 0;
  std::vector<AsyncOp> Ring = std::vector<AsyncOp>(2);
  std::uint64_t NextSlot = 0;
};

/// read-sparse client: 90 get / 8 put / 2 erase; an erased key is the
/// target of this client's next put.
void sparseClient(Client &C) {
  const Keys &K = C.phase().K;
  std::vector<std::uint64_t> Erased;
  C.waitForGo();
  for (std::uint64_t Step = 1; !C.stopped(); ++Step) {
    const std::uint64_t Dice = C.rng().nextBounded(100);
    std::uint64_t Key = Dice < 90 ? K.readKey(C.rng()) : K.writeKey(C.rng());
    if (Dice >= 90 && Dice < 98 && !Erased.empty()) {
      Key = Erased.back();
      Erased.pop_back();
    }
    C.maybeShadow(Step, Key);
    if (Dice < 90) {
      C.get(Key);
    } else if (Dice < 98) {
      C.write(Key, false);
    } else {
      C.write(Key, true);
      Erased.push_back(Key);
    }
    C.endStep(Step);
  }
  for (std::uint64_t Key : Erased) // leave the key set as it started
    C.write(Key, false);
}

/// mixed-hot sync client: 50 put / 20 erase / 30 get, a snapshot every
/// 256th step and a transaction every 64th.
void mixedClient(Client &C) {
  const Keys &K = C.phase().K;
  C.waitForGo();
  for (std::uint64_t Step = 1; !C.stopped(); ++Step) {
    if (Step % SnapEvery == 0) {
      C.snapshot();
    } else if (Step % TxnEvery == 0) {
      C.txn();
    } else {
      const std::uint64_t Key = K.writeKey(C.rng());
      const std::uint64_t Dice = C.rng().nextBounded(100);
      C.maybeShadow(Step, Key);
      if (Dice < 50)
        C.write(Key, false);
      else if (Dice < 70)
        C.write(Key, true);
      else
        C.get(Key);
    }
    C.endStep(Step);
  }
}

/// mixed-hot async client: 80 put / 20 erase through the submitter with
/// 64 futures in flight.
void asyncClient(Client &C) {
  const Keys &K = C.phase().K;
  lfsmr::workload::CompletionWindow<Client::TimedFuture> Win(C.tid(),
                                                             AsyncWindow);
  C.reserveAsync(AsyncWindow);
  C.waitForGo();
  for (std::uint64_t Step = 1; !C.stopped(); ++Step) {
    const std::uint64_t Key = K.writeKey(C.rng());
    C.maybeShadow(Step, Key);
    Win.push(C.submit(Key, C.rng().nextBounded(100) >= 80));
    C.stampCompleted();
    C.endStep(Step);
  }
  Win.drain();
}

/// stall-write writer: a fixed quota of 80 put / 20 erase, sampling the
/// store's unreclaimed count at the end of each equal share of it.
void stallWriter(Client &C) {
  const Keys &K = C.phase().K;
  const std::vector<std::uint64_t> Marks =
      shareBoundaries(StallOpsPerWriter, Shares);
  std::size_t Next = 0;
  C.waitForGo();
  for (std::uint64_t Step = 1; Step <= StallOpsPerWriter; ++Step) {
    const std::uint64_t Key = K.writeKey(C.rng());
    C.maybeShadow(Step, Key);
    C.write(Key, C.rng().nextBounded(100) >= 80);
    if (Next < Marks.size() && Step == Marks[Next]) {
      C.sampleUnreclaimed();
      ++Next;
    }
    C.endStep(Step);
  }
  C.phase().Finished.fetch_add(1, std::memory_order_release);
}

/// The main thread's probe: one op of each kind the workload's clients do
/// not send.
void probe(Client &C, Workload W) {
  const Keys &K = C.phase().K;
  if (probeSends(W, LSnap))
    C.snapshot();
  if (probeSends(W, LTxn))
    C.txn();
  if (probeSends(W, LAsync))
    C.submit(K.writeKey(C.rng()), false).get(C.tid());
  if (probeSends(W, LGet))
    C.get(K.readKey(C.rng()));
}

//===----------------------------------------------------------------------===//
// Stores and phases
//===----------------------------------------------------------------------===//

std::unique_ptr<Store> buildStore(const Keys &K) {
  lfsmr::kv::options O;
  O.Reclaim.MaxThreads = Threads;
  auto Db = std::make_unique<Store>(O);
  for (std::uint64_t I = 0; I < K.count(); ++I)
    Db->put(MainTid, K.keyAt(I), valueFor(K.keyAt(I), 0));
  return Db;
}

/// Output checks and accounting of one measured phase.
struct PhaseResult {
  Tally T;
  double WallS = 0;
  Stats Before, After;
  double MaterializedShare = 0, LoadFactor = 0, ShardSkew = 0;
  std::uint64_t LateProbes = 0; ///< probes run after the clients' work
};

void absorbPhase(PhaseResult &Acc, const PhaseResult &P) {
  Acc.T.absorb(P.T, Acc.T.Windows.size());
  Acc.WallS += P.WallS;
  auto Add = [](Stats &A, const Stats &B, const Stats &C) {
    A.allocated += C.allocated - B.allocated;
    A.retired += C.retired - B.retired;
    A.freed += C.freed - B.freed;
    A.era += C.era - B.era;
    A.version_clock += C.version_clock - B.version_clock;
    A.slow_acquires += C.slow_acquires - B.slow_acquires;
    A.index_resizes += C.index_resizes - B.index_resizes;
    A.async_submits += C.async_submits - B.async_submits;
    A.combiner_takeovers += C.combiner_takeovers - B.combiner_takeovers;
    A.sync_fallbacks += C.sync_fallbacks - B.sync_fallbacks;
  };
  Add(Acc.After, P.Before, P.After); // Acc.Before stays zero: After is Δ
  Acc.After.trim_walk_len = P.After.trim_walk_len;
  Acc.After.submit_batch_len = P.After.submit_batch_len;
  Acc.MaterializedShare = P.MaterializedShare;
  Acc.LoadFactor = P.LoadFactor;
  Acc.ShardSkew = P.ShardSkew;
}

/// Checks the store's memory accounting at quiescence against what the
/// benchmark knows; returns the number of violations. Every object goes
/// allocated -> retired -> freed (a discarded one counts as both), and
/// each key the store holds keeps at least one live version beside the
/// bucket sentinels. read-sparse holds all its keys (an erased key is
/// re-put before its client stops); on the zipf workloads the keys held
/// are counted with a checked get of every key ever written.
std::uint64_t checkMemory(Workload W, Store &Db, const Keys &K,
                          const Stats &S) {
  std::int64_t Held = 0;
  std::uint64_t Violations = 0;
  if (W == Workload::ReadSparse) {
    Held = static_cast<std::int64_t>(K.count());
  } else {
    for (std::uint64_t I = 0; I < K.count(); ++I) {
      const std::uint64_t Key = K.keyAt(I);
      if (const std::optional<std::uint64_t> V = Db.get(MainTid, Key)) {
        ++Held;
        Violations += !encodesKey(Key, *V);
      }
    }
  }
  Violations += !(S.freed <= S.retired && S.retired <= S.allocated);
  Violations += S.allocated - S.freed < Held + Db.dummy_nodes();
  return Violations;
}

std::uint64_t streamSeed(std::uint64_t Seed, unsigned PhaseNo,
                         unsigned Tid) {
  return SplitMix64(Seed ^ (0x9e3779b97f4a7c15ULL * (PhaseNo * Threads + Tid +
                                                     1)))
      .next();
}

/// Runs one round on \p Db, a fixed amount of client work: a budget of
/// client ops on read-sparse and mixed-hot (the probe's ops come on top),
/// the writers' quota on stall-write (which also parks the stalled holder
/// on thread id 3 for the whole round).
PhaseResult runPhase(Workload W, Store &Db, const Keys &K, bool Traced,
                     std::uint64_t Seed, unsigned PhaseNo) {
  PhaseResult R;
  Submitter Sub(Db);
  Phase P{Db, Sub, K, Traced};
  std::array<Tally, Threads> Tallies;
  std::vector<std::unique_ptr<Client>> Clients;
  for (unsigned Tid = 0; Tid < Threads; ++Tid)
    Clients.push_back(std::make_unique<Client>(
        P, Tid, streamSeed(Seed, PhaseNo, Tid), Tallies[Tid]));

  std::unique_ptr<lfsmr::workload::StalledSnapshotHolder<Store>> Holder;
  std::vector<std::thread> Workers;
  if (W == Workload::ReadSparse) {
    for (unsigned Tid = 1; Tid < Threads; ++Tid)
      Workers.emplace_back(sparseClient, std::ref(*Clients[Tid]));
  } else if (W == Workload::MixedHot) {
    Workers.emplace_back(mixedClient, std::ref(*Clients[1]));
    Workers.emplace_back(mixedClient, std::ref(*Clients[2]));
    Workers.emplace_back(asyncClient, std::ref(*Clients[3]));
  } else {
    Holder = std::make_unique<lfsmr::workload::StalledSnapshotHolder<Store>>(
        Db, Threads - 1);
    Holder->waitUntilHeld();
    Holder->releaseSnapshot();
    if (Db.live_snapshots() != 0) // the registry must see the snapshot closed
      ++Tallies[MainTid].Violations;
    Workers.emplace_back(stallWriter, std::ref(*Clients[1]));
    Workers.emplace_back(stallWriter, std::ref(*Clients[2]));
  }

  // The main thread runs the probe once per ProbeEvery client ops and,
  // on read-sparse and mixed-hot, samples memory once per SamplePeriod
  // (never twice at once after a late wake-up); it sleeps in between.
  // The round ends once the clients' work and the probes it owes are
  // both done.
  Client &Main = *Clients[MainTid];
  const std::uint64_t Budget = W == Workload::ReadSparse ? SparseOpsPerRound
                               : W == Workload::MixedHot
                                   ? MixedOpsPerRound
                                   : 2 * StallOpsPerWriter;
  const std::uint64_t Probes =
      W == Workload::MixedHot ? 0 : Budget / ProbeEvery;
  const bool Sampling = W != Workload::StallWrite && !Traced;
  auto NextSample = std::chrono::steady_clock::now();
  std::uint64_t Probed = 0;
  R.Before = Db.stats();
  const std::uint64_t T0 = nowNs();
  P.Go.store(true, std::memory_order_release);
  for (;;) {
    const std::uint64_t Done = P.Completed.load(std::memory_order_relaxed);
    const bool ClientsDone =
        W == Workload::StallWrite
            ? P.Finished.load(std::memory_order_acquire) == 2
            : Done >= Budget;
    if (Sampling && std::chrono::steady_clock::now() >= NextSample) {
      Main.sampleUnreclaimed();
      NextSample = std::chrono::steady_clock::now() + SamplePeriod;
    }
    if (Probed < Probes && (ClientsDone || Done >= (Probed + 1) * ProbeEvery)) {
      R.LateProbes += ClientsDone;
      probe(Main, W);
      ++Probed;
      continue;
    }
    if (ClientsDone)
      break;
    std::this_thread::sleep_for(PollPeriod);
  }
  P.Stop.store(true, std::memory_order_relaxed);
  for (std::thread &Th : Workers)
    Th.join();
  R.WallS = secondsSince(T0);
  R.After = Db.stats(); // quiescent, the holder still inside its guard

  for (const Tally &T : Tallies)
    R.T.absorb(T, 0);
  if (R.T.AsyncCompleted != R.T.AsyncSubmitted)
    R.T.Violations += R.T.AsyncSubmitted - R.T.AsyncCompleted;
  R.T.Violations += checkMemory(W, Db, K, R.After);
  if (Holder)
    Holder->release(); // only now, after the phase and its checks
  std::printf("phase %u%s: %.3f s, %llu ops, %.0f ops/s, %llu probes after "
              "the clients' work\n",
              PhaseNo, Traced ? " traced" : "", R.WallS,
              static_cast<unsigned long long>(R.T.Ops),
              opsPerSecond(R.T.Ops, R.WallS),
              static_cast<unsigned long long>(R.LateProbes));

  double Buckets = 0, KeysSum = 0, MaxKeys = 0;
  for (std::size_t S = 0; S < Db.shards(); ++S) {
    Buckets += static_cast<double>(Db.buckets(S));
    const double N = static_cast<double>(Db.shard_keys(S));
    KeysSum += N;
    MaxKeys = std::max(MaxKeys, N);
  }
  R.MaterializedShare = ratio(static_cast<double>(Db.dummy_nodes()), Buckets);
  R.LoadFactor = ratio(KeysSum, Buckets);
  R.ShardSkew =
      ratio(MaxKeys, KeysSum / static_cast<double>(Db.shards()));
  return R;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// Prints each metric as it is added, then the JSON result line.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           std::size_t N, const std::string &Note = "") {
    std::printf("metric %-36s %16.6f %-6s n=%zu%s%s\n", Name.c_str(), Value,
                Unit.c_str(), N, Note.empty() ? "" : "  ", Note.c_str());
    M.push_back({Name, Value, Unit});
  }

  /// p50 and the supported tail of one timing, as two metrics; \p Cap
  /// is the percentile the tail's name promises.
  void timing(const std::string &Prefix, const Summary &S,
              const std::string &Unit, const char *P50, const char *Tail,
              unsigned Cap = 99) {
    const std::string Note =
        S.TailPct == Cap ? "" : "tail is p" + std::to_string(S.TailPct);
    add(Prefix + P50, S.P50, Unit, S.N);
    add(Prefix + Tail, S.Tail, Unit, S.N, Note);
  }

  void finish(bool Correct, std::uint64_t Attempted, std::uint64_t Failed) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                Correct ? "true" : "false",
                static_cast<unsigned long long>(Attempted),
                static_cast<unsigned long long>(Failed));
    for (std::size_t I = 0; I < M.size(); ++I)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  I ? ", " : "", M[I].Name.c_str(), M[I].Value,
                  M[I].Unit.c_str());
    std::printf("}}\n");
  }

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> M;
};

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void endToEnd(Report &Rep, Workload W, const PhaseResult &R,
              const std::vector<double> &SetupS) {
  const Tally &T = R.T;
  Rep.add("ops_per_s", opsPerSecond(T.Ops, R.WallS), "1/s", T.Ops);
  for (unsigned L = 0; L < NumLat; ++L) {
    const LatKind K = static_cast<LatKind>(L);
    const unsigned Pct = LatTailPct[L];
    const std::string Tail = "_p" + std::to_string(Pct) + "_us";
    Rep.timing(LatName[L], latencyOf(W, T, K, Pct), "us", "_p50_us",
               Tail.c_str(), Pct);
    if (Pct != 99) {
      const Summary S = latencyOf(W, T, K);
      std::printf("%s_p%u_us %.3f us n=%zu (not in the result)\n", LatName[L],
                  S.TailPct, S.Tail, S.N);
    }
  }
  // Memory is sampled in time (in work on stall-write), so its p99 lands
  // inside host steal whenever steal takes over 1% of a client's CPU: a
  // client held up inside its guard pins what the others retire. The
  // result carries p90; p99 is printed beside it.
  auto Unreclaimed = [](const Window &Win) -> const std::vector<double> & {
    return Win.Unreclaimed;
  };
  Rep.timing("unreclaimed", overWindows(T.Windows, Unreclaimed, 90), "count",
             "_p50", "_p90", 90);
  const Summary U99 = overWindows(T.Windows, Unreclaimed);
  std::printf("unreclaimed_p%u %.1f count n=%zu (not in the result)\n",
              U99.TailPct, U99.Tail, U99.N);
  Rep.add("peak_rss_mb", peakRssMb(), "MB", 1);
  Rep.add("setup_s", median(SetupS), "s", SetupS.size());
  // Printed but kept out of the JSON result: it reads 0 on every correct
  // run, and the result's own "failed" / "attempted" carry it.
  std::printf("failed_pct %.6f %% of %llu attempted\n",
              100.0 * ratio(static_cast<double>(T.Failed + T.Violations),
                            static_cast<double>(T.Attempted)),
              static_cast<unsigned long long>(T.Attempted));
}

void perLayer(Report &Rep, const PhaseResult &Traced,
              const PhaseResult &Plain) {
  const Tally &T = Traced.T;
  const Stats &D = Traced.After; // deltas over the traced parts
  auto ShadowOf = [&](ShadowKind S) {
    return summarize(T.Shadow[S].values());
  };
  auto Med = [&](const char *Name, ShadowKind S) {
    const Summary Sm = ShadowOf(S);
    Rep.add(Name, Sm.P50, "ns", Sm.N);
  };
  const double Ops = static_cast<double>(T.Ops);
  const double Retired = static_cast<double>(D.retired);

  Med("codec.hash_ns", SHash);
  Med("shard_index.get_miss_ns", SMiss);
  Rep.add("shard_index.materialized_share", Traced.MaterializedShare,
          "share", 1);
  Rep.add("shard_index.load_factor", Traced.LoadFactor, "keys/bucket", 1);
  Rep.add("shard_index.shard_skew", Traced.ShardSkew, "max/mean", 1);
  Rep.add("shard_index.resizes", static_cast<double>(D.index_resizes),
          "count", 1);
  Med("store.get_hit_ns", SHit);
  const std::vector<double> &Depth = T.Shadow[SChainDepth].values();
  double DepthSum = 0;
  for (double X : Depth)
    DepthSum += X;
  Rep.add("store.chain_depth_avg",
          ratio(DepthSum, static_cast<double>(Depth.size())), "versions",
          Depth.size());
  Rep.add("store.trim_walk_p50", D.trim_walk_len.p50, "nodes",
          D.trim_walk_len.count);
  Rep.add("store.trim_walk_p99", D.trim_walk_len.p99, "nodes",
          D.trim_walk_len.count);
  Med("snapshot_registry.minlive_ns", SMinLive);
  Rep.add("snapshot_registry.ticks_per_write",
          ratio(static_cast<double>(D.version_clock),
                static_cast<double>(T.Writes)),
          "ticks", T.Writes);
  Rep.timing("snapshot_registry.open", ShadowOf(SOpen), "ns", "_p50_ns",
             "_p99_ns");
  Rep.add("snapshot_registry.slow_acquire_share",
          ratio(static_cast<double>(D.slow_acquires),
                static_cast<double>(T.Opens)),
          "share", T.Opens);
  Rep.timing("txn.commit", ShadowOf(SCommit), "ns", "_p50_ns", "_p99_ns");
  Rep.add("txn.abort_share",
          ratio(static_cast<double>(T.TxnAborts),
                static_cast<double>(T.TxnAttempts)),
          "share", T.TxnAttempts);
  Rep.add("submit.batch_len_p50", D.submit_batch_len.p50, "ops",
          D.submit_batch_len.count);
  Rep.add("submit.batch_len_p99", D.submit_batch_len.p99, "ops",
          D.submit_batch_len.count);
  Rep.add("submit.fallback_share",
          ratio(static_cast<double>(D.sync_fallbacks),
                static_cast<double>(D.async_submits)),
          "share", D.async_submits);
  Rep.add("submit.takeover_share",
          ratio(static_cast<double>(D.combiner_takeovers),
                static_cast<double>(D.async_submits)),
          "share", D.async_submits);
  Med("domain.enter_leave_ns", SEnterLeave);
  Med("domain.alloc_retire_ns", SAllocRetire);
  Rep.add("domain.retired_per_op", ratio(Retired, Ops), "objects", T.Ops);
  Rep.add("domain.freed_per_retired",
          ratio(static_cast<double>(D.freed), Retired), "share", D.retired);
  Rep.add("domain.era_per_s", ratio(static_cast<double>(D.era), Traced.WallS),
          "1/s", 1);
  const double Plain_ = opsPerSecond(Plain.T.Ops, Plain.WallS);
  const double Traced_ = opsPerSecond(T.Ops, Traced.WallS);
  Rep.add("trace.overhead_pct", 100.0 * ratio(Plain_ - Traced_, Plain_), "%",
          T.Ops + Plain.T.Ops);
}

/// ROADMAP aim 1's "reconcile the sum": each layer's shadow median as a
/// share of the untraced end-to-end median, plus what is left over.
void reconcile(Workload W, const PhaseResult &Traced,
               const PhaseResult &Plain) {
  auto Med = [&](ShadowKind S) {
    return summarize(Traced.T.Shadow[S].values()).P50;
  };
  const double Hash = Med(SHash), Guard = Med(SEnterLeave), Miss = Med(SMiss),
               Hit = Med(SHit), MinLive = Med(SMinLive),
               Alloc = Med(SAllocRetire);
  const double Walk = Miss - Hash - Guard; // index find of an absent key
  auto Line = [&](const char *Op, double E2eUs,
                  std::vector<std::pair<const char *, double>> Parts) {
    const double E2e = E2eUs * 1000;
    std::printf("reconcile %s %s: end-to-end p50 %.1f ns =", nameOf(W), Op,
                E2e);
    double Sum = 0;
    for (const auto &[Name, Ns] : Parts) {
      std::printf(" %s %.1f%% +", Name, 100 * ratio(Ns, E2e));
      Sum += Ns;
    }
    std::printf(" unexplained %.1f%%\n", 100 * ratio(E2e - Sum, E2e));
  };
  const double GetUs = latencyOf(W, Plain.T, LGet).P50;
  const double PutUs = latencyOf(W, Plain.T, LPut).P50;
  if (W != Workload::StallWrite)
    Line("get", GetUs,
         {{"codec.hash", Hash},
          {"domain.enter_leave", Guard},
          {"shard_index.walk(miss-hash-guard)", Walk},
          {"store.chain(hit-miss)", Hit - Miss}});
  if (W == Workload::MixedHot)
    Line("put", PutUs,
         {{"codec.hash", Hash},
          {"domain.enter_leave", Guard},
          {"shard_index.find(hit-hash-guard)", Hit - Hash - Guard},
          {"snapshot_registry.minlive", MinLive},
          {"domain.alloc_retire", Alloc}});
}

//===----------------------------------------------------------------------===//
// Self-tests
//===----------------------------------------------------------------------===//

int selfTest() {
  int Bad = 0;
  auto Expect = [&](bool Ok, const char *What) {
    if (!Ok) {
      std::fprintf(stderr, "kvbench self-test failed: %s\n", What);
      ++Bad;
    }
  };

  // Percentiles: the highest one with >= 10 samples beyond it.
  Expect(supportedPercentile(1000) == 99, "p99 needs 1000 samples");
  Expect(supportedPercentile(999) == 98, "999 samples support p98");
  Expect(supportedPercentile(100) == 90, "100 samples support p90");
  Expect(supportedPercentile(100000) == 99, "tail capped at p99");
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  const Summary S = summarize(V);
  Expect(S.N == 1000 && S.P50 == 500 && S.Tail == 990 && S.TailPct == 99,
         "summary of 1..1000");
  Expect(std::count_if(V.begin(), V.end(),
                       [&](double X) { return X > S.Tail; }) == 10,
         "ten samples beyond the tail");
  const Summary Small = summarize(std::vector<double>(V.begin(), V.begin() + 100));
  Expect(Small.TailPct == 90 && Small.Tail == 90, "summary of 1..100");

  // Sparse keys: stride 64, 1 in 9 reads past the written range.
  Keys Sparse(Workload::ReadSparse);
  Xoshiro256 R(7);
  std::uint64_t Misses = 0, Draws = 900000;
  bool Strided = true;
  for (std::uint64_t I = 0; I < Draws; ++I) {
    const std::uint64_t K = Sparse.readKey(R);
    Strided &= K % SparseStride == 0;
    Misses += !Sparse.written(K);
  }
  Expect(Strided, "sparse keys are multiples of 64");
  Expect(std::fabs(static_cast<double>(Misses) / Draws - 1.0 / 9) < 0.003,
         "sparse reads miss 1 in 9");
  Expect(!Sparse.written(Sparse.absentKey(64 * 5)), "absent key is absent");
  Expect(Sparse.keyAt(SparseKeys - 1) == (SparseKeys - 1) * 64,
         "prefill is strided");

  // stall-write samples at equal shares of its work.
  const std::vector<std::uint64_t> B =
      shareBoundaries(StallOpsPerWriter, Shares);
  const std::uint64_t Share = StallOpsPerWriter / Shares;
  bool Even = B.size() == Shares && B.back() == StallOpsPerWriter;
  for (std::size_t I = 1; I < B.size(); ++I)
    Even &= B[I] - B[I - 1] == Share || B[I] - B[I - 1] == Share + 1;
  Expect(Even, "share boundaries are equally spaced");

  // ops_per_s is total ops over the phase's wall time, not a sum of
  // per-thread rates (which would be 100/1 + 200/2 + 300/3 = 300).
  Expect(opsPerSecond(100 + 200 + 300, 4.0) == 150.0, "wall-time ops/s");

  // Values encode their key.
  Expect(encodesKey(12345, valueFor(12345, 77)) &&
             !encodesKey(12346, valueFor(12345, 77)),
         "value tags");
  return Bad ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

struct Args {
  Workload W = Workload::ReadSparse;
  std::uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
};

std::optional<Args> parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveW = false, HaveSeed = false, HaveSecs = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Val = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      const std::optional<Workload> W = parseWorkload(Val);
      if (!W)
        return std::nullopt;
      A.W = *W;
      HaveW = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), &End, 0);
      HaveSeed = End && *End == 0 && !Val.empty();
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Val.c_str(), &End);
      HaveSecs = End && *End == 0 && A.Seconds > 0 && A.Seconds <= 120;
    } else if (Flag == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      A.Trace = Val == "1";
    } else {
      return std::nullopt;
    }
  }
  if (Argc % 2 == 0 || !HaveW || !HaveSeed || !HaveSecs || !HaveTrace)
    return std::nullopt;
  return A;
}

void printOptions(const Store &Db) {
  const lfsmr::kv::options &O = Db.options();
  std::printf("store: kv::store<hyaline_s> Shards=%zu BucketsPerShard=%zu "
              "MaxLoadFactor=%zu MinSnapshotSlots=%zu MaxThreads=%u "
              "MinBatch=%u EraFreq=%u\n",
              O.Shards, O.BucketsPerShard, O.MaxLoadFactor,
              O.MinSnapshotSlots, O.Reclaim.MaxThreads, O.Reclaim.MinBatch,
              O.Reclaim.EraFreq);
}

/// Stores built and timed before each round; the round runs on the last,
/// and setup_s is the median over all of the run's builds. A read-sparse
/// build takes seconds; the others take milliseconds and vary more, so
/// about a hundred (mixed-hot) or thirty (stall-write) are timed per run,
/// spread over its rounds so that no one burst of host noise meets them
/// all.
unsigned buildsPerRound(Workload W) {
  switch (W) {
  case Workload::ReadSparse:
    return 1;
  case Workload::MixedHot:
    return 9;
  case Workload::StallWrite:
    return 3;
  }
  return 1;
}

int run(const Args &A) {
  pinToCpu(MainTid);
  const Keys K(A.W);
  std::printf("workload %s seed %llu seconds %g trace %d\n", nameOf(A.W),
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  PhaseResult Plain, Traced;
  std::vector<double> SetupS;
  unsigned PhaseNo = 0;
  auto Build = [&] {
    const std::uint64_t T0 = nowNs();
    std::unique_ptr<Store> Db = buildStore(K);
    SetupS.push_back(secondsSince(T0));
    return Db;
  };

  // Fixed-work rounds on fresh stores until the time is used: every round
  // takes the store through the same states however fast it runs (the
  // scheme's state drifts with the work done). The traced run orders its
  // rounds plain, traced, traced, plain, ... so drift over the run
  // cancels out of trace.overhead_pct.
  const unsigned MinRounds = A.Trace ? 4 : 2;
  const std::uint64_t T0 = nowNs();
  for (unsigned Round = 0; Round < MinRounds || secondsSince(T0) < A.Seconds;
       ++Round) {
    std::unique_ptr<Store> Db;
    for (unsigned I = 0; I < buildsPerRound(A.W); ++I) {
      Db.reset(); // every build starts with no other store alive
      Db = Build();
    }
    if (Round == 0)
      printOptions(*Db);
    const bool T = A.Trace && (Round % 4 == 1 || Round % 4 == 2);
    absorbPhase(T ? Traced : Plain,
                runPhase(A.W, *Db, K, T, A.Seed, PhaseNo++));
  }

  Report Rep;
  if (A.Trace) {
    perLayer(Rep, Traced, Plain);
    reconcile(A.W, Traced, Plain);
  } else {
    endToEnd(Rep, A.W, Plain, SetupS);
  }
  std::uint64_t Attempted = 0, Violations = 0, OutOfRetries = 0, Sent = 0,
                Done = 0, Commits = 0;
  for (const Tally *T : {&Plain.T, &Traced.T}) {
    Attempted += T->Attempted;
    Violations += T->Violations;
    OutOfRetries += T->Failed;
    Sent += T->AsyncSubmitted;
    Done += T->AsyncCompleted;
    Commits += T->TxnAttempts - T->TxnAborts;
  }
  std::printf("checks: %llu violations, %llu txns out of retries, "
              "%llu/%llu async futures completed, %llu txn commits\n",
              static_cast<unsigned long long>(Violations),
              static_cast<unsigned long long>(OutOfRetries),
              static_cast<unsigned long long>(Done),
              static_cast<unsigned long long>(Sent),
              static_cast<unsigned long long>(Commits));
  const std::uint64_t Failed = Violations + OutOfRetries;
  const bool Correct = Failed == 0;
  Rep.finish(Correct, Attempted, Failed);
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--self-test") == 0)
    return selfTest();
  const std::optional<Args> A = parseArgs(Argc, Argv);
  if (!A) {
    std::fprintf(stderr,
                 "usage: kvbench --workload read-sparse|mixed-hot|stall-write "
                 "--seed N --seconds S --trace 0|1\n"
                 "       kvbench --self-test\n");
    return 2;
  }
  if (selfTest() != 0)
    return 1;
  return run(*A);
}
