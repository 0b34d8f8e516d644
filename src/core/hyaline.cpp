//===- core/hyaline.cpp - Hyaline (multiple lists) ------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::smr;

// CountedHead's two packing limits (core/hyaline_head.h): hard checks in
// every build, reported the way SnapshotRegistry::clockOverflow is.
void CountedHead::refSaturated() {
  std::fprintf(stderr, "lfsmr: fatal: Hyaline slot reference count "
                       "saturated (65535 guards inside one slot)\n");
  std::abort();
}

void CountedHead::pointerTooWide(uint64_t Raw) {
  std::fprintf(stderr,
               "lfsmr: fatal: node address 0x%llx exceeds 48 bits; the "
               "Hyaline head cannot encode it\n",
               static_cast<unsigned long long>(Raw));
  std::abort();
}

Hyaline::Hyaline(const Config &C, Deleter Free, void *FreeCtx)
    : HyalineBase(Free, FreeCtx), K(static_cast<unsigned>(slotsFor(C))),
      Adjs(adjsForSlots(K)),
      Threshold(std::max<std::size_t>(C.MinBatch, K + 1)),
      MaxThreads(C.MaxThreads), Heads(new CachePadded<CountedHead>[K]),
      Threads(new CachePadded<PerThread>[C.MaxThreads]) {}

Hyaline::~Hyaline() {
  // Published batches have all been reclaimed at quiescence; only the
  // thread-local accumulators can still hold nodes.
  for (unsigned I = 0; I < MaxThreads; ++I)
    freeLocalBatch(Threads[I]->Batch);
#ifndef NDEBUG
  for (unsigned I = 0; I < K; ++I)
    assert(Heads[I]->load() == 0 &&
           "Hyaline destroyed while threads are still inside operations");
#endif
}

Hyaline::Guard Hyaline::enter(ThreadId Tid) {
  assert(Tid < MaxThreads && "thread id out of range");
  const unsigned Slot = Tid & (K - 1);
  return Guard{Tid, Slot, Heads[Slot]->arrive()};
}

void Hyaline::leave(Guard &G) {
  HyalineNode *Next = nullptr;
  const uint64_t Old = Heads[G.Slot]->depart(G.Handle, Next);
  HyalineNode *Curr = CountedHead::ptrOf(Old);
  // The last thread out empties the list and accounts for the head node,
  // treating it as a predecessor (Figure 7 lines 13, 16-17).
  if (CountedHead::refOf(Old) == 1 && Curr)
    adjust(Curr, Adjs);
  if (Curr != G.Handle)
    traverse(Next, G.Handle);
  G.Handle = nullptr;
}

void Hyaline::trim(Guard &G) {
  // Appendix B, Figure 15: dereference batches retired since enter (or the
  // previous trim) without touching Head. The current head node stays: its
  // references are tracked through HRef until it is displaced.
  HyalineNode *Curr = CountedHead::ptrOf(Heads[G.Slot]->load());
  if (Curr != G.Handle) {
    assert(Curr && "head cannot be null while our handle is newer");
    traverse(Curr->next(std::memory_order_acquire), G.Handle);
    G.Handle = Curr;
  }
}

void Hyaline::retire(Guard &G, NodeHeader *Node) {
  assert(G.Tid < MaxThreads && "thread id out of range");
  LocalBatch &B = Threads[G.Tid]->Batch;
  B.append(Node, /*Birth=*/0);
  Counter.onRetire();
  if (B.Size >= Threshold) {
    publishBatch(B);
    B.reset();
  }
}

void Hyaline::publishBatch(LocalBatch &B) {
  B.seal();
  B.RefNode->setNRef(0, std::memory_order_relaxed);

  bool DoAdj = false;
  uint64_t Empty = 0;
  HyalineNode *CurrNode = B.First;

  for (unsigned Slot = 0; Slot < K; ++Slot) {
    uint64_t Old;
    // A slot with no active threads is accounted for directly (Figure 7
    // lines 30-32).
    if (!Heads[Slot]->insert(CurrNode, Old, [](uint64_t W) {
          return CountedHead::refOf(W) == 0;
        })) {
      DoAdj = true;
      Empty += Adjs;
      continue;
    }
    CurrNode = CurrNode->BatchNext;
    assert(CurrNode != B.First && "batch ran out of slot-carrier nodes");
    // Displace the predecessor: transfer the HRef snapshot into its NRef
    // and mark this slot's insertion with Adjs (Figure 7 line 38; see
    // Figure 3 for the counter-propagation picture). An empty list has no
    // predecessor; our node's own insertion is accounted for when it is
    // displaced in turn, or by the last leaver.
    if (HyalineNode *Pred = CountedHead::ptrOf(Old))
      adjust(Pred, Adjs + CountedHead::refOf(Old));
  }
  if (DoAdj)
    adjust(B.First, Empty);
}
