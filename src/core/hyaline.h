//===- core/hyaline.h - Hyaline (multiple lists) -----------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hyaline, the paper's primary scheme (Sections 3.2 and 4.1, Figure 7):
/// scalable multiple-list reference-counted reclamation. The paper states
/// it with a double-width CAS on the `[HRef, HPtr]` head; this build packs
/// the head into one word as Section 2 suggests ("48-bit ... pointers ...
/// can be squeezed with 16-bit counters"), see core/hyaline_head.h.
///
/// Key ideas:
///  - Reference counters are used only while handling *retired* nodes;
///    ordinary reads and writes of data-structure nodes touch no counter
///    (unlike classical LFRC).
///  - All active threads participate in tracking retired nodes: enter
///    increments the slot's `HRef`; leave decrements it and walks the
///    sublist of batches retired during the operation, decrementing one
///    shared counter per batch. Whoever brings a counter to zero frees
///    the batch — reclamation is balanced across all threads.
///  - `Adjs = 2^64 / k` ensures a batch is only freeable after its
///    insertion into each of the `k` slots has been accounted for
///    (the adjustments sum to 0 mod 2^64).
///
/// Hyaline is *transparent*: threads need no registration; a thread is
/// "off the hook" the moment it leaves and never revisits retired nodes.
/// It is NOT robust — a stalled thread inside an operation pins every
/// batch retired after it entered (the -S variant fixes this).
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_H
#define LFSMR_CORE_HYALINE_H

#include "core/hyaline_base.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "smr/smr.h"
#include "support/align.h"

#include <atomic>
#include <memory>

namespace lfsmr::core {

/// The scalable multiple-list Hyaline scheme.
class Hyaline : public HyalineBase {
public:
  using NodeHeader = HyalineNode;

  /// Per-operation state: the slot entered and the head snapshot taken at
  /// enter (the paper's per-thread `Handle`).
  struct Guard {
    smr::ThreadId Tid;
    unsigned Slot;
    HyalineNode *Handle;
  };

  /// \p Free is invoked (with \p FreeCtx) for every reclaimed node.
  Hyaline(const smr::Config &C, smr::Deleter Free, void *FreeCtx);

  /// Frees nodes still sitting in thread-local batches. All guards must
  /// have been left: at quiescence every published batch has already been
  /// reclaimed (reference counts reach zero eagerly).
  ~Hyaline();

  Hyaline(const Hyaline &) = delete;
  Hyaline &operator=(const Hyaline &) = delete;

  /// Atomically increments the slot's HRef and snapshots HPtr as the
  /// operation's handle (Figure 7, lines 3-5): one wait-free FAA.
  Guard enter(smr::ThreadId Tid);

  /// Decrements HRef and dereferences every batch retired during the
  /// operation (Figure 7, lines 6-19).
  void leave(Guard &G);

  /// Equivalent to leave+enter but without altering Head (Appendix B):
  /// dereferences batches retired so far and advances the handle.
  void trim(Guard &G);

  /// Plain acquire load: the non-robust variants protect whole operations,
  /// not individual pointers.
  template <typename T>
  T *deref(Guard &, const std::atomic<T *> &Src, unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// \copydoc deref
  uintptr_t derefLink(Guard &, const std::atomic<uintptr_t> &Src,
                      unsigned /*Idx*/) {
    return Src.load(std::memory_order_acquire);
  }

  /// Counts the allocation (no birth era in the non-robust variant).
  void initNode(Guard &, NodeHeader *) { Counter.onAlloc(); }

  /// Appends \p Node to the calling thread's local batch; once the batch
  /// holds max(MinBatch, k+1) nodes, publishes it to every active slot
  /// (Figure 7, lines 23-39).
  void retire(Guard &G, NodeHeader *Node);

  /// Number of slots `k` (exposed for tests and benches).
  unsigned slots() const { return K; }

  /// Effective batch-publication threshold (exposed for tests).
  std::size_t batchThreshold() const { return Threshold; }

private:
  void publishBatch(LocalBatch &B);

  struct PerThread {
    LocalBatch Batch;
  };

  const unsigned K;    ///< slot count (power of two)
  const uint64_t Adjs; ///< 2^64 / K
  const std::size_t Threshold;
  const unsigned MaxThreads;

  std::unique_ptr<CachePadded<CountedHead>[]> Heads;
  std::unique_ptr<CachePadded<PerThread>[]> Threads;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_H
