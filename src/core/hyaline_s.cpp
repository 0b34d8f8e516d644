//===- core/hyaline_s.cpp - Hyaline-S (robust) ----------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "core/hyaline_s.h"

#include "support/trace.h"
#include <cassert>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::smr;

HyalineS::HyalineS(const Config &C, Deleter Free, void *FreeCtx)
    : HyalineBase(Free, FreeCtx), MinBatch(C.MinBatch), EraFreq(C.EraFreq),
      AckThreshold(C.AckThreshold), MaxThreads(C.MaxThreads),
      Dir(slotsFor(C)), Threads(new CachePadded<PerThread>[C.MaxThreads]) {}

HyalineS::~HyalineS() {
  for (unsigned I = 0; I < MaxThreads; ++I)
    freeLocalBatch(Threads[I]->Batch);
#ifndef NDEBUG
  const std::size_t K = Dir.capacity();
  for (std::size_t I = 0; I < K; ++I)
    assert(Dir.slot(I)->H.load() == 0 &&
           "Hyaline-S destroyed while threads are still inside operations");
#endif
}

HyalineS::Guard HyalineS::enter(ThreadId Tid) {
  assert(Tid < MaxThreads && "thread id out of range");
  std::size_t Slot = Tid;
  while (true) {
    const std::size_t K = Dir.capacity();
    Slot &= K - 1;
    // Figure 9, lines 25-27: skip slots whose Ack counter says a stalled
    // thread is pinning them.
    bool Found = false;
    for (std::size_t Scanned = 0; Scanned < K; ++Scanned) {
      if (Dir.slot(Slot)->Ack.load(std::memory_order_relaxed) < AckThreshold) {
        Found = true;
        break;
      }
      Slot = (Slot + 1) & (K - 1);
    }
    if (Found)
      break;
    // Section 4.3: every slot looks stalled — double the slot count.
    Dir.grow(K);
  }
  return Guard{Tid, Slot, Dir.slot(Slot)->H.arrive()};
}

void HyalineS::leave(Guard &G) {
  SlotState &S = *Dir.slot(G.Slot);
  HyalineNode *Next = nullptr;
  const uint64_t Old = S.H.depart(G.Handle, Next);
  HyalineNode *Curr = CountedHead::ptrOf(Old);
  if (CountedHead::refOf(Old) == 1 && Curr) {
    // Per-batch Adjs (Section 4.3): read it from the batch's NRef node.
    adjust(Curr, Curr->refNode()->batchAdjs());
  }
  if (Curr != G.Handle) {
    const std::size_t Visited = traverse(Next, G.Handle);
    // Figure 9, lines 28-31: acknowledge the batches we dereferenced.
    S.Ack.fetch_sub(static_cast<int64_t>(Visited), std::memory_order_relaxed);
  }
  G.Handle = nullptr;
}

void HyalineS::trim(Guard &G) {
  SlotState &S = *Dir.slot(G.Slot);
  HyalineNode *Curr = CountedHead::ptrOf(S.H.load());
  if (Curr == G.Handle)
    return;
  assert(Curr && "head cannot be null while our handle is newer");
  const std::size_t Visited =
      traverse(Curr->next(std::memory_order_acquire), G.Handle);
  S.Ack.fetch_sub(static_cast<int64_t>(Visited), std::memory_order_relaxed);
  G.Handle = Curr;
}

uintptr_t HyalineS::derefLink(Guard &G, const std::atomic<uintptr_t> &Src,
                              unsigned /*Idx*/) {
  SlotState &S = *Dir.slot(G.Slot);
  uint64_t Access = S.Access.load(std::memory_order_seq_cst);
  while (true) {
    // Figure 9, lines 7-11. The pointer must be re-read after every era
    // update: only a load made while the slot era already matched the
    // global era is protected.
    const uintptr_t Value = Src.load(std::memory_order_acquire);
    const uint64_t Alloc = AllocEra.load(std::memory_order_seq_cst);
    if (Access == Alloc)
      return Value;
    Access = touch(S, Alloc);
  }
}

uint64_t HyalineS::touch(SlotState &S, uint64_t Era) {
  // CAS-max (Figure 9, lines 19-24): eras shared by all threads of the
  // slot must only grow.
  uint64_t Access = S.Access.load(std::memory_order_seq_cst);
  while (Access < Era) {
    if (S.Access.compare_exchange_weak(Access, Era, std::memory_order_seq_cst,
                                       std::memory_order_seq_cst))
      return Era;
  }
  return Access;
}

void HyalineS::initNode(Guard &G, NodeHeader *Node) {
  PerThread &T = *Threads[G.Tid];
  if (++T.AllocCounter % EraFreq == 0) {
    [[maybe_unused]] const auto NewEra =
        AllocEra.fetch_add(1, std::memory_order_acq_rel) + 1;
    LFSMR_TRACE_EVENT(telemetry::TraceEvent::EraAdvance, NewEra);
  }
  Node->setBirthEra(AllocEra.load(std::memory_order_acquire));
  Counter.onAlloc();
}

void HyalineS::retire(Guard &G, NodeHeader *Node) {
  assert(G.Tid < MaxThreads && "thread id out of range");
  LocalBatch &B = Threads[G.Tid]->Batch;
  B.append(Node, Node->birthEra());
  Counter.onRetire();
  const std::size_t Threshold =
      std::max<std::size_t>(MinBatch, Dir.capacity() + 1);
  if (B.Size >= Threshold && publishBatch(B))
    B.reset();
}

bool HyalineS::publishBatch(LocalBatch &B) {
  // Re-read k: it may have grown since the threshold check. A concurrent
  // grow right after this read is harmless — threads entering new slots
  // take their handle from an empty head and need not see this batch
  // (Section 4.3).
  const std::size_t K = Dir.capacity();
  if (B.Size < K + 1)
    return false; // not enough carrier nodes yet; keep accumulating
  const uint64_t Adjs = adjsForSlots(K);

  B.seal();
  B.RefNode->setBatchAdjs(Adjs); // Section 4.3: per-batch Adjs
  B.RefNode->setNRef(0, std::memory_order_relaxed);

  bool DoAdj = false;
  uint64_t Empty = 0;
  HyalineNode *CurrNode = B.First;

  for (std::size_t Slot = 0; Slot < K; ++Slot) {
    SlotState &S = *Dir.slot(Slot);
    uint64_t Old;
    // Figure 9, line 14: skip inactive slots and slots whose access era
    // proves none of their threads ever dereferenced a batch node.
    if (!S.H.insert(CurrNode, Old, [&](uint64_t W) {
          return CountedHead::refOf(W) == 0 ||
                 S.Access.load(std::memory_order_seq_cst) < B.MinBirth;
        })) {
      DoAdj = true;
      Empty += Adjs;
      continue;
    }
    CurrNode = CurrNode->BatchNext;
    assert(CurrNode != B.First && "batch ran out of slot-carrier nodes");
    const uint64_t Ref = CountedHead::refOf(Old);
    if (HyalineNode *Pred = CountedHead::ptrOf(Old))
      adjust(Pred, Pred->refNode()->batchAdjs() + Ref);
    // Figure 9, line 15: account the threads that will dereference this
    // batch in this slot.
    S.Ack.fetch_add(static_cast<int64_t>(Ref), std::memory_order_relaxed);
  }
  if (DoAdj)
    adjust(B.First, Empty);
  return true;
}
