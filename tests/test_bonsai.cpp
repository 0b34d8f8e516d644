//===- tests/test_bonsai.cpp - Bonsai tree tests --------------------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "ds/bonsai_tree.h"
#include "ds_common.h"

#include <cmath>

using namespace lfsmr;
using namespace lfsmr::ds;
using namespace lfsmr::testing;

namespace {

/// Schemes that can run the Bonsai tree (all but HP/HE; paper Section 6).
using BonsaiSchemes =
    ::testing::Types<smr::EBR, smr::IBR, core::Hyaline, core::Hyaline1,
                     core::HyalineS, core::Hyaline1S>;

template <typename S> class BonsaiTest : public ::testing::Test {
protected:
  using Tree = BonsaiTree<S>;
  using Node = typename Tree::Node;

  /// BST key ordering, size-field consistency, and the weight-balance
  /// invariant (with slack: Adams' W=4 keeps subtrees within a constant
  /// factor; we assert a loose factor to avoid over-fitting).
  static void validate(const Node *N, uint64_t Lo, uint64_t Hi,
                       unsigned Depth) {
    if (!N)
      return;
    ASSERT_LT(Depth, 64u) << "tree degenerated to a list";
    ASSERT_GE(N->K, Lo);
    ASSERT_LE(N->K, Hi);
    const uint64_t Ls = N->L ? N->L->Size : 0;
    const uint64_t Rs = N->R ? N->R->Size : 0;
    ASSERT_EQ(N->Size, 1 + Ls + Rs) << "size field inconsistent";
    if (Ls + Rs > 4) {
      EXPECT_LE(Rs, 6 * Ls + 2) << "right subtree badly unbalanced";
      EXPECT_LE(Ls, 6 * Rs + 2) << "left subtree badly unbalanced";
    }
    if (N->K > 0)
      validate(N->L, Lo, N->K - 1, Depth + 1);
    validate(N->R, N->K + 1, Hi, Depth + 1);
  }

  static void validateTree(const Tree &T) {
    validate(T.rootForValidation(), 0, UINT64_MAX, 0);
  }
};

TYPED_TEST_SUITE(BonsaiTest, BonsaiSchemes, SchemeNames);

TYPED_TEST(BonsaiTest, SequentialSemantics) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkSequentialSemantics(T);
}

TYPED_TEST(BonsaiTest, BulkLifecycle) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkBulkLifecycle(T, 2000);
}

TYPED_TEST(BonsaiTest, BalancedUnderSortedInsertion) {
  // Sorted insertion is the worst case for an unbalanced tree; the
  // weight-balanced rotations must keep depth logarithmic.
  BonsaiTree<TypeParam> T(dsTestConfig());
  constexpr uint64_t N = 4096;
  for (uint64_t K = 1; K <= N; ++K)
    ASSERT_TRUE(T.insert(0, K, K));
  EXPECT_EQ(T.size(), N);
  this->validateTree(T);
}

TYPED_TEST(BonsaiTest, BalancedUnderRandomChurn) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  Xoshiro256 Rng(streamSeed(5));
  for (int I = 0; I < 20000; ++I) {
    const uint64_t K = 1 + Rng.nextBounded(2000);
    if (Rng.nextPercent(50))
      T.insert(0, K, K);
    else
      T.remove(0, K);
  }
  this->validateTree(T);
}

TYPED_TEST(BonsaiTest, SizeTracksMembership) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  EXPECT_EQ(T.size(), 0u);
  for (uint64_t K = 1; K <= 100; ++K)
    ASSERT_TRUE(T.insert(0, K * 7, K));
  EXPECT_EQ(T.size(), 100u);
  for (uint64_t K = 1; K <= 50; ++K)
    ASSERT_TRUE(T.remove(0, K * 7));
  EXPECT_EQ(T.size(), 50u);
}

TYPED_TEST(BonsaiTest, UpdatesRetirePathNodes) {
  // Path copying must retire the replaced path: after a burst of updates
  // the retired count is a multiple of the path length, far exceeding the
  // update count (the paper's retire-heavy stress).
  BonsaiTree<TypeParam> T(dsTestConfig());
  for (uint64_t K = 1; K <= 1024; ++K)
    ASSERT_TRUE(T.insert(0, K, K));
  const int64_t Before = T.smr().memCounter().retired();
  for (uint64_t K = 1; K <= 100; ++K)
    ASSERT_TRUE(T.remove(0, K));
  const int64_t PerOp =
      (T.smr().memCounter().retired() - Before) / 100;
  EXPECT_GE(PerOp, 3) << "removal should retire a whole path copy";
}

TYPED_TEST(BonsaiTest, PutSemantics) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkPutSemantics(T);
}

TYPED_TEST(BonsaiTest, ConcurrentPuts) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkConcurrentPuts(T, 8, 2000, 64);
}

TYPED_TEST(BonsaiTest, DisjointKeyThreads) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkDisjointKeyThreads(T, 8, 300);
}

TYPED_TEST(BonsaiTest, ContendedLedger) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkContendedLedger(T, 8, 3000, 64);
}

TYPED_TEST(BonsaiTest, ReadersVsWriters) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  checkReadersVsWriters(T, 4, 4, 4000, 256);
}

TYPED_TEST(BonsaiTest, ValidAfterConcurrentChurn) {
  BonsaiTree<TypeParam> T(dsTestConfig());
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W < 8; ++W)
    Ts.emplace_back([&, W] {
      Xoshiro256 Rng(streamSeed(W + 77));
      for (int I = 0; I < 3000; ++I) {
        const uint64_t K = 1 + Rng.nextBounded(512);
        if (Rng.nextPercent(50))
          T.insert(W, K, K);
        else
          T.remove(W, K);
      }
    });
  for (auto &W : Ts)
    W.join();
  this->validateTree(T);
}

} // namespace
