//===- tests/test_hyaline_core.cpp - Hyaline algorithm internals ----------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// White-box tests of the Hyaline machinery: Adjs arithmetic, batch
/// construction, head packing, and deterministic multi-guard reclamation
/// handshakes that pin down exactly when batches become free (Figures 3,
/// 4, 7, 8 of the paper).
///
//===----------------------------------------------------------------------===//

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline_head.h"
#include "core/hyaline_node.h"
#include "core/hyaline_s.h"
#include "scheme_fixtures.h"

#include <thread>
#include <vector>

using namespace lfsmr;
using namespace lfsmr::core;
using namespace lfsmr::testing;

namespace {

//===----------------------------------------------------------------------===
// Adjs arithmetic (paper Section 3.2)

TEST(Adjs, CancelsAfterKAdditions) {
  for (uint64_t K : {1, 2, 4, 8, 64, 128, 1024}) {
    const uint64_t A = adjsForSlots(K);
    uint64_t Sum = 0;
    for (uint64_t I = 0; I < K; ++I)
      Sum += A;
    EXPECT_EQ(Sum, 0u) << "k=" << K;
  }
}

TEST(Adjs, PartialSumsNeverCancel) {
  for (uint64_t K : {2, 8, 128}) {
    const uint64_t A = adjsForSlots(K);
    uint64_t Sum = 0;
    for (uint64_t I = 1; I < K; ++I) {
      Sum += A;
      EXPECT_NE(Sum, 0u) << "k=" << K << " i=" << I
                         << ": a batch must not free before all slots are "
                            "accounted for";
    }
  }
}

TEST(Adjs, PaperExampleK8) {
  EXPECT_EQ(adjsForSlots(8), uint64_t{1} << 61); // paper: Adjs = 2^61
}

//===----------------------------------------------------------------------===
// Single-word heads: Hyaline-1's PackedHead and Hyaline's CountedHead

TEST(PackedHead, RoundTrip) {
  auto *N = new HyalineNode();
  const uint64_t W = PackedHead::pack(true, N);
  EXPECT_TRUE(PackedHead::isActive(W));
  EXPECT_EQ(PackedHead::pointer(W), N);
  const uint64_t W2 = PackedHead::pack(false, N);
  EXPECT_FALSE(PackedHead::isActive(W2));
  EXPECT_EQ(PackedHead::pointer(W2), N);

  // [HRef:16 | HPtr:48]: every count up to the limit, and the highest
  // encodable address (fabricated, never dereferenced).
  auto *Top = reinterpret_cast<HyalineNode *>(CountedHead::PtrMask & ~7ull);
  for (HyalineNode *P : {N, Top})
    for (uint64_t Ref : {uint64_t{0}, uint64_t{1}, CountedHead::RefMax}) {
      const uint64_t C = CountedHead::pack(Ref, P);
      EXPECT_EQ(CountedHead::refOf(C), Ref);
      EXPECT_EQ(CountedHead::ptrOf(C), P);
      if (Ref < CountedHead::RefMax) {
        EXPECT_EQ(C + CountedHead::RefOne, CountedHead::pack(Ref + 1, P))
            << "enter's FAA must touch only the HRef bits";
      }
    }
  delete N;
}

TEST(PackedHead, NullStates) {
  EXPECT_FALSE(PackedHead::isActive(PackedHead::pack(false, nullptr)));
  EXPECT_TRUE(PackedHead::isActive(PackedHead::pack(true, nullptr)));
  EXPECT_EQ(PackedHead::pointer(PackedHead::pack(true, nullptr)), nullptr);

  EXPECT_EQ(CountedHead::pack(0, nullptr), 0u) << "empty slot is word 0";
  EXPECT_EQ(CountedHead::ptrOf(CountedHead::pack(3, nullptr)), nullptr);
  EXPECT_EQ(CountedHead::refOf(CountedHead::pack(3, nullptr)), 3u);
  CountedHead H;
  EXPECT_EQ(H.arrive(), nullptr);
  EXPECT_EQ(H.load(), CountedHead::RefOne);
  HyalineNode *Next = nullptr;
  EXPECT_EQ(H.depart(nullptr, Next), CountedHead::RefOne);
  EXPECT_EQ(H.load(), 0u) << "the last leaver empties the head";
}

// The two limits of the packed head abort even under NDEBUG. Both run
// on the calling thread only.
template <typename S> void saturateOneSlot() {
  std::atomic<int64_t> Freed{0};
  smr::Config C;
  C.Slots = 1;
  C.MaxThreads = 1;
  S Scheme(C, countingDeleter<S>, &Freed);
  const typename S::Guard G = Scheme.enter(0);
  for (uint64_t I = 1; I < CountedHead::RefMax; ++I)
    Scheme.enter(0); // up to the last legal count
  EXPECT_DEATH(Scheme.enter(0), "reference count saturated");
  for (uint64_t I = 0; I < CountedHead::RefMax; ++I) {
    typename S::Guard Copy = G;
    Scheme.leave(Copy);
  }
}

TEST(CountedHeadDeathTest, RefSaturationAbortsAtEnter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  saturateOneSlot<Hyaline>();
  saturateOneSlot<HyalineS>();
}

TEST(CountedHeadDeathTest, PointerAbove48BitsAbortsAtPack) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto *Wide = reinterpret_cast<HyalineNode *>(uint64_t{1} << 48);
  EXPECT_DEATH(CountedHead::pack(1, Wide), "exceeds 48 bits");
}

//===----------------------------------------------------------------------===
// LocalBatch construction (paper Figure 6)

TEST(LocalBatch, ChainAndSeal) {
  LocalBatch B;
  std::vector<HyalineNode *> Nodes;
  for (int I = 0; I < 5; ++I) {
    auto *N = new HyalineNode();
    Nodes.push_back(N);
    B.append(N, /*Birth=*/uint64_t(10 - I));
  }
  EXPECT_EQ(B.Size, 5u);
  EXPECT_EQ(B.RefNode, Nodes[0]) << "first appended node carries NRef";
  EXPECT_EQ(B.First, Nodes[4]);
  EXPECT_EQ(B.MinBirth, 6u);

  B.seal();
  // The cycle: First -> ... -> RefNode -> First.
  EXPECT_EQ(B.RefNode->BatchNext, B.First);
  std::size_t Len = 0;
  for (HyalineNode *N = B.First; N != B.RefNode; N = N->BatchNext) {
    EXPECT_EQ(N->refNode(), B.RefNode);
    ++Len;
  }
  EXPECT_EQ(Len, 4u);
  for (auto *N : Nodes)
    delete N;
}

TEST(LocalBatch, MinBirthTracksMinimum) {
  LocalBatch B;
  HyalineNode N1, N2, N3;
  B.append(&N1, 5);
  EXPECT_EQ(B.MinBirth, 5u);
  B.append(&N2, 9);
  EXPECT_EQ(B.MinBirth, 5u);
  B.append(&N3, 2);
  EXPECT_EQ(B.MinBirth, 2u);
}

//===----------------------------------------------------------------------===
// Scheme-level deterministic handshakes

smr::Config tinyConfig(unsigned Slots, unsigned MaxThreads) {
  smr::Config C;
  C.Slots = Slots;
  C.MaxThreads = MaxThreads;
  C.MinBatch = 2; // threshold becomes max(2, k+1)
  return C;
}

TEST(HyalineCore, SlotResolution) {
  std::atomic<int64_t> Freed{0};
  {
    smr::Config C = tinyConfig(5, 4); // 5 rounds up to 8
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    EXPECT_EQ(S.slots(), 8u);
    EXPECT_EQ(S.batchThreshold(), 9u);
  }
  {
    smr::Config C = tinyConfig(1, 4);
    C.MinBatch = 64;
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    EXPECT_EQ(S.slots(), 1u);
    EXPECT_EQ(S.batchThreshold(), 64u);
  }
}

/// Helper: retire exactly one publishable batch (threshold nodes) through
/// guard \p G.
template <typename S>
void retireBatch(S &Scheme, typename S::Guard &G, std::size_t N) {
  for (std::size_t I = 0; I < N; ++I) {
    auto *Node = new TestNode<S>();
    Node->Payload = I;
    Scheme.initNode(G, &Node->Hdr);
    Scheme.retire(G, &Node->Hdr);
  }
}

TEST(HyalineCore, TwoSlotHandshake) {
  // Three guards across two slots; a batch retired while all are active
  // is freed exactly when the last participant leaves (Figure 4's style
  // of step-by-step accounting).
  std::atomic<int64_t> Freed{0};
  Hyaline S(tinyConfig(2, 4), countingDeleter<Hyaline>, &Freed);
  ASSERT_EQ(S.batchThreshold(), 3u);

  auto G0 = S.enter(0); // slot 0
  auto G1 = S.enter(1); // slot 1
  auto G2 = S.enter(2); // slot 0 again

  retireBatch(S, G0, 3);
  EXPECT_EQ(Freed.load(), 0);

  S.leave(G2);
  EXPECT_EQ(Freed.load(), 0) << "slot 0 still has an active thread";
  S.leave(G0);
  EXPECT_EQ(Freed.load(), 0) << "slot 1 still holds the batch";
  S.leave(G1);
  EXPECT_EQ(Freed.load(), 3) << "last leaver must free the batch";
}

TEST(HyalineCore, ReaderEnteringAfterRetireDoesNotPin) {
  std::atomic<int64_t> Freed{0};
  Hyaline S(tinyConfig(2, 4), countingDeleter<Hyaline>, &Freed);

  auto G0 = S.enter(0);
  retireBatch(S, G0, 3);
  S.leave(G0);
  EXPECT_EQ(Freed.load(), 3)
      << "no other thread was active; leave must reclaim immediately";

  // A reader entering now must see an empty retirement list.
  auto G1 = S.enter(1);
  retireBatch(S, G1, 3);
  S.leave(G1);
  EXPECT_EQ(Freed.load(), 6);
}

TEST(HyalineCore, StackedBatchesFreedInOrder) {
  std::atomic<int64_t> Freed{0};
  Hyaline S(tinyConfig(2, 4), countingDeleter<Hyaline>, &Freed);
  auto G0 = S.enter(0);
  retireBatch(S, G0, 3); // batch 1
  retireBatch(S, G0, 3); // batch 2 displaces batch 1 in both slots
  EXPECT_EQ(Freed.load(), 0);
  S.leave(G0);
  EXPECT_EQ(Freed.load(), 6);
}

TEST(HyalineCore, TrimReclaimsWithoutLeaving) {
  // Appendix B: trim frees batches retired since enter while the guard
  // stays active. The head batch remains pinned (its count lives in
  // HRef) — exactly one batch's worth stays until leave.
  std::atomic<int64_t> Freed{0};
  Hyaline S(tinyConfig(2, 4), countingDeleter<Hyaline>, &Freed);

  auto Reader = S.enter(0); // slot 0
  auto Writer = S.enter(1); // slot 1
  retireBatch(S, Writer, 3); // batch 1
  retireBatch(S, Writer, 3); // batch 2
  S.leave(Writer);
  EXPECT_EQ(Freed.load(), 0) << "reader pins both batches";

  S.trim(Reader);
  EXPECT_EQ(Freed.load(), 3)
      << "trim must free the displaced batch but keep the head batch";

  S.trim(Reader);
  EXPECT_EQ(Freed.load(), 3) << "repeated trim with no new batches: no-op";

  S.leave(Reader);
  EXPECT_EQ(Freed.load(), 6);
}

TEST(Hyaline1Core, HandshakeAndInsertCounting) {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2); // Hyaline-1: slots == MaxThreads == 2
  Hyaline1 S(C, countingDeleter<Hyaline1>, &Freed);
  ASSERT_EQ(S.slots(), 2u);
  ASSERT_EQ(S.batchThreshold(), 3u);

  auto G0 = S.enter(0);
  auto G1 = S.enter(1);
  retireBatch(S, G0, 3); // inserted into both active slots
  EXPECT_EQ(Freed.load(), 0);
  S.leave(G0);
  EXPECT_EQ(Freed.load(), 0) << "slot 1's owner has not dereferenced yet";
  S.leave(G1);
  EXPECT_EQ(Freed.load(), 3);
}

TEST(Hyaline1Core, RetireWithNoActiveSlotsFreesImmediately) {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2);
  Hyaline1 S(C, countingDeleter<Hyaline1>, &Freed);
  auto G0 = S.enter(0);
  S.leave(G0);
  // Retire through a guard that already left its slot... not allowed by
  // the API; instead: the only active slot is the retirer's own, which is
  // dereferenced on its leave.
  auto G = S.enter(0);
  retireBatch(S, G, 3);
  S.leave(G);
  EXPECT_EQ(Freed.load(), 3);
}

TEST(Hyaline1Core, TrimAdvancesHandle) {
  std::atomic<int64_t> Freed{0};
  smr::Config C = tinyConfig(0, 2);
  Hyaline1 S(C, countingDeleter<Hyaline1>, &Freed);

  auto Reader = S.enter(0);
  auto Writer = S.enter(1);
  retireBatch(S, Writer, 3);
  retireBatch(S, Writer, 3);
  S.leave(Writer);
  EXPECT_EQ(Freed.load(), 0);

  S.trim(Reader);
  EXPECT_EQ(Freed.load(), 3);
  S.leave(Reader);
  EXPECT_EQ(Freed.load(), 6);
}

TEST(HyalineCore, ConcurrentTrimmers) {
  // Long-lived readers that only ever trim() must not break reclamation
  // accounting, and everything must free at quiescence (Appendix B's
  // quiescent-state usage).
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    smr::Config C = tinyConfig(2, 8);
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    std::atomic<bool> Stop{false};
    std::vector<std::thread> Ts;
    // 4 writers churn batches; 4 trimming readers never leave until the
    // end.
    for (unsigned W = 0; W < 4; ++W)
      Ts.emplace_back([&, W] {
        for (int R = 0; R < 500; ++R) {
          auto G = S.enter(W);
          retireBatch(S, G, 3);
          S.leave(G);
        }
      });
    for (unsigned T = 4; T < 8; ++T)
      Ts.emplace_back([&, T] {
        auto G = S.enter(T);
        while (!Stop.load(std::memory_order_relaxed))
          S.trim(G);
        S.leave(G);
      });
    for (unsigned W = 0; W < 4; ++W)
      Ts[W].join();
    Stop.store(true);
    for (unsigned T = 4; T < 8; ++T)
      Ts[T].join();
    Allocated = S.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, 4 * 500 * 3);
}

TEST(HyalineCore, RegionRaiiWrapsEnterLeave) {
  std::atomic<int64_t> Freed{0};
  Hyaline S(tinyConfig(2, 4), countingDeleter<Hyaline>, &Freed);
  {
    smr::Region<Hyaline> R(S, 0);
    retireBatch(S, R.guard(), 3);
  } // leave() runs here
  EXPECT_EQ(Freed.load(), 3);
}

TEST(HyalineCore, ManyThreadsManySlotsEventualReclamation) {
  std::atomic<int64_t> Freed{0};
  int64_t Allocated = 0;
  {
    smr::Config C = tinyConfig(8, 16);
    C.MinBatch = 16;
    Hyaline S(C, countingDeleter<Hyaline>, &Freed);
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T < 16; ++T)
      Ts.emplace_back([&, T] {
        for (int R = 0; R < 200; ++R) {
          auto G = S.enter(T);
          retireBatch(S, G, 5);
          S.leave(G);
        }
      });
    for (auto &T : Ts)
      T.join();
    Allocated = S.memCounter().allocated();
  }
  EXPECT_EQ(Freed.load(), Allocated);
  EXPECT_EQ(Allocated, 16 * 200 * 5);
}

} // namespace
