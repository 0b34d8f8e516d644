//===- tests/test_reclaimer_traits.cpp - Table 1 metadata -----------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the Table 1 metadata (smr/reclaimer_traits.h) at compile time and
/// cross-checks it against the harness registry, so registry.cpp's
/// HP/HE-vs-Bonsai exclusions can never drift from the traits they encode.
///
//===----------------------------------------------------------------------===//

#include "harness/registry.h"
#include "smr/reclaimer_traits.h"

#include "gtest/gtest.h"

#include <cstring>
#include <string>
#include <type_traits>

using namespace lfsmr;
using smr::ReclaimerTraits;
using smr::SchemeTraits;

namespace {

constexpr bool streq(const char *A, const char *B) {
  for (; *A && *A == *B; ++A, ++B)
    ;
  return *A == *B;
}

// --- Measured header sizes -----------------------------------------------
// HeaderBytes must be the real sizeof(NodeHeader) so the Table 1 benchmark
// reports what this implementation actually costs per node.
template <typename S> constexpr bool headerMeasured() {
  constexpr std::size_t Bytes = ReclaimerTraits<S>::Row.HeaderBytes;
  // NoMM's header is empty (sizeof 1); every real header is word-granular.
  constexpr bool Empty = std::is_empty_v<typename S::NodeHeader>;
  return Bytes == sizeof(typename S::NodeHeader) &&
         (Empty || Bytes % alignof(void *) == 0);
}
static_assert(headerMeasured<smr::NoMM>());
static_assert(headerMeasured<smr::EBR>());
static_assert(headerMeasured<smr::HP>());
static_assert(headerMeasured<smr::HE>());
static_assert(headerMeasured<smr::IBR>());
static_assert(headerMeasured<core::Hyaline>());
static_assert(headerMeasured<core::Hyaline1>());
static_assert(headerMeasured<core::HyalineS>());
static_assert(headerMeasured<core::Hyaline1S>());

// --- API columns (Table 1) -----------------------------------------------
// deref is required by exactly the robust schemes (paper Section 2); the
// HP-style per-pointer indices only by HP and HE.
template <typename S>
constexpr bool apiShape(bool Deref, bool Indices, bool Bonsai) {
  constexpr const SchemeTraits &R = ReclaimerTraits<S>::Row;
  return R.NeedsDeref == Deref && R.NeedsIndices == Indices &&
         R.SupportsBonsai == Bonsai;
}
static_assert(apiShape<smr::NoMM>(false, false, true));
static_assert(apiShape<smr::EBR>(false, false, true));
static_assert(apiShape<smr::HP>(true, true, false));
static_assert(apiShape<smr::HE>(true, true, false));
static_assert(apiShape<smr::IBR>(true, false, true));
static_assert(apiShape<core::Hyaline>(false, false, true));
static_assert(apiShape<core::Hyaline1>(false, false, true));
static_assert(apiShape<core::HyalineS>(true, false, true));
static_assert(apiShape<core::Hyaline1S>(true, false, true));

// --- Cross-column invariants ---------------------------------------------
template <typename S> constexpr bool rowInvariants() {
  constexpr const SchemeTraits &R = ReclaimerTraits<S>::Row;
  // Per-pointer indices imply the deref discipline, and rule out data
  // structures with unbounded per-operation protections (Bonsai).
  if (R.NeedsIndices && !R.NeedsDeref)
    return false;
  if (R.SupportsBonsai != !R.NeedsIndices)
    return false;
  // Robustness (bounded memory under stall) requires tracking reads, i.e.
  // the deref discipline; plain enter/leave schemes cannot be robust.
  return streq(R.Robust, "Yes") == R.NeedsDeref;
}
static_assert(rowInvariants<smr::NoMM>());
static_assert(rowInvariants<smr::EBR>());
static_assert(rowInvariants<smr::HP>());
static_assert(rowInvariants<smr::HE>());
static_assert(rowInvariants<smr::IBR>());
static_assert(rowInvariants<core::Hyaline>());
static_assert(rowInvariants<core::Hyaline1>());
static_assert(rowInvariants<core::HyalineS>());
static_assert(rowInvariants<core::Hyaline1S>());

// --- Registry cross-check ------------------------------------------------

const SchemeTraits &rowFor(const std::string &Name) {
  if (Name == "nomm")
    return ReclaimerTraits<smr::NoMM>::Row;
  if (Name == "epoch")
    return ReclaimerTraits<smr::EBR>::Row;
  if (Name == "hp")
    return ReclaimerTraits<smr::HP>::Row;
  if (Name == "he")
    return ReclaimerTraits<smr::HE>::Row;
  if (Name == "ibr")
    return ReclaimerTraits<smr::IBR>::Row;
  if (Name == "hyaline")
    return ReclaimerTraits<core::Hyaline>::Row;
  if (Name == "hyaline1")
    return ReclaimerTraits<core::Hyaline1>::Row;
  if (Name == "hyalines")
    return ReclaimerTraits<core::HyalineS>::Row;
  if (Name == "hyaline1s")
    return ReclaimerTraits<core::Hyaline1S>::Row;
  ADD_FAILURE() << "registry names a scheme with no traits row: " << Name;
  return ReclaimerTraits<smr::NoMM>::Row;
}

TEST(ReclaimerTraits, RegistryListsAllNineSchemes) {
  EXPECT_EQ(harness::allSchemes().size(), 9u);
  EXPECT_EQ(harness::allStructures().size(), 4u);
}

TEST(ReclaimerTraits, BonsaiExclusionMatchesTraits) {
  for (const std::string &Scheme : harness::allSchemes()) {
    const SchemeTraits &Row = rowFor(Scheme);
    EXPECT_EQ(harness::isSupported(Scheme, "bonsai"), Row.SupportsBonsai)
        << Scheme << ": registry and traits disagree on Bonsai support";
  }
}

TEST(ReclaimerTraits, NonBonsaiStructuresRunEverywhere) {
  for (const std::string &Scheme : harness::allSchemes())
    for (const std::string &Ds : harness::allStructures()) {
      if (Ds != "bonsai") {
        EXPECT_TRUE(harness::isSupported(Scheme, Ds)) << Scheme << "/" << Ds;
      }
    }
}

TEST(ReclaimerTraits, RobustColumnNamesExactlyTheRobustSchemes) {
  // The paper's robust set: HP, HE, IBR, Hyaline-S, Hyaline-1S.
  for (const std::string &Scheme : harness::allSchemes()) {
    const bool Robust = Scheme == "hp" || Scheme == "he" || Scheme == "ibr" ||
                        Scheme == "hyalines" || Scheme == "hyaline1s";
    EXPECT_STREQ(rowFor(Scheme).Robust, Robust ? "Yes" : "No") << Scheme;
  }
}

TEST(ReclaimerTraits, HyalineHeadersStayWithinTwoWordsOfBaselines) {
  // Table 1's point: Hyaline headers are comparable to EBR/IBR headers,
  // not proportional to thread count. Guard the relation, not exact sizes.
  EXPECT_LE(ReclaimerTraits<core::Hyaline>::Row.HeaderBytes,
            ReclaimerTraits<smr::EBR>::Row.HeaderBytes + 2 * sizeof(void *));
  EXPECT_LE(ReclaimerTraits<core::HyalineS>::Row.HeaderBytes,
            ReclaimerTraits<core::Hyaline>::Row.HeaderBytes + sizeof(void *));
}

} // namespace
