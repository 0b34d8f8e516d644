//===- core/hyaline_base.h - Shared Hyaline reclamation core -----*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference-count adjustment, retirement-list traversal, and batch
/// freeing logic shared by all four Hyaline variants (paper Figure 7,
/// lines 20-22 and 40-48). The variants differ in head representation,
/// slot management, and batch publication, but dereference batches the
/// same way.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_BASE_H
#define LFSMR_CORE_HYALINE_BASE_H

#include "core/hyaline_node.h"
#include "smr/smr.h"
#include "support/align.h"
#include "support/mem_counter.h"

#include <cassert>
#include <thread>

namespace lfsmr::core {

/// Common state and batch-dereferencing helpers for the Hyaline family.
class HyalineBase {
public:
  /// Accounting for this scheme instance.
  const MemCounter &memCounter() const { return Counter; }

  /// Frees a node that was never published into any shared structure
  /// (e.g. a speculative copy discarded after a failed CAS). No other
  /// thread can hold a reference, so no reclamation protocol is needed.
  void discard(HyalineNode *Node) {
    Free(Node, FreeCtx);
    // Counted as an (instant) retire+free so the accounting
    // invariant "live == allocated - retired" holds for tests.
    Counter.onRetire();
    Counter.onFree();
  }

protected:
  HyalineBase(smr::Deleter Free, void *FreeCtx) : Free(Free), FreeCtx(FreeCtx) {
    assert(Free && "Hyaline requires a deleter");
  }
  ~HyalineBase() = default;

  /// The multiple-list slot count `k`: `Config::Slots`, or the core count
  /// when 0, rounded up to a power of two.
  static std::size_t slotsFor(const smr::Config &C) {
    const unsigned Want =
        C.Slots ? C.Slots : std::thread::hardware_concurrency();
    return nextPowerOfTwo(Want); // nextPowerOfTwo(0) == 1
  }

  /// FAA(NRef, Val); frees the batch when the counter reaches zero
  /// (Figure 7, lines 20-22: the old value equals -Val mod 2^64).
  void adjust(HyalineNode *Node, uint64_t Val) {
    HyalineNode *Ref = Node->refNode();
    const uint64_t Old = Ref->fetchAddNRef(Val, std::memory_order_acq_rel);
    if (Old + Val == 0)
      freeBatch(Ref);
  }

  /// Dereferences nodes from \p From through \p Handle inclusive
  /// (Figure 7, lines 40-48). Returns the number of nodes visited, which
  /// Hyaline-S subtracts from the slot's Ack counter.
  std::size_t traverse(HyalineNode *From, HyalineNode *Handle) {
    std::size_t Visited = 0;
    HyalineNode *Curr = From;
    while (Curr) {
      // Read the link before the decrement: once the counter drops,
      // another thread may free the batch.
      HyalineNode *Next = Curr->next(std::memory_order_acquire);
      HyalineNode *Ref = Curr->refNode();
      ++Visited;
      const uint64_t Old =
          Ref->fetchAddNRef(uint64_t(0) - 1, std::memory_order_acq_rel);
      if (Old == 1)
        freeBatch(Ref);
      if (Curr == Handle)
        break;
      Curr = Next;
    }
    return Visited;
  }

  /// Frees every node of the batch whose NRef node is \p Ref, walking the
  /// cyclic BatchNext chain.
  void freeBatch(HyalineNode *Ref) {
    int64_t Freed = 0;
    HyalineNode *N = Ref->BatchNext; // the first node of the batch
    while (N != Ref) {
      HyalineNode *Next = N->BatchNext;
      Free(N, FreeCtx);
      ++Freed;
      N = Next;
    }
    Free(Ref, FreeCtx);
    Counter.onFree(Freed + 1);
  }

  /// Frees the nodes of a never-published local batch (destructor path;
  /// the BatchNext cycle is not closed yet, the chain ends at RefNode).
  void freeLocalBatch(LocalBatch &B) {
    HyalineNode *N = B.First;
    while (N) {
      HyalineNode *Next = (N == B.RefNode) ? nullptr : N->BatchNext;
      Free(N, FreeCtx);
      Counter.onFree();
      N = Next;
    }
    B.reset();
  }

  const smr::Deleter Free;
  void *const FreeCtx;
  MemCounter Counter;
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_BASE_H
