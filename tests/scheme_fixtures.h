//===- tests/scheme_fixtures.h - Shared typed-test scaffolding ---*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Typed-test scaffolding shared by the test suite: the list of every
/// scheme, a counting test node, and a deleter that tracks destruction.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_TESTS_SCHEME_FIXTURES_H
#define LFSMR_TESTS_SCHEME_FIXTURES_H

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline1s.h"
#include "core/hyaline_s.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"

#include "gtest/gtest.h"

#include <atomic>

namespace lfsmr::testing {

/// Every scheme in the library. NoMM is excluded from reclamation tests
/// (it never frees) but included in API-shape tests.
using AllSchemes =
    ::testing::Types<smr::EBR, smr::HP, smr::HE, smr::IBR, core::Hyaline,
                     core::Hyaline1, core::HyalineS, core::Hyaline1S>;

/// Schemes with robust (bounded under stall) reclamation.
using RobustSchemes =
    ::testing::Types<smr::HP, smr::HE, smr::IBR, core::HyalineS,
                     core::Hyaline1S>;

/// A test node with the scheme header first, like real DS nodes.
template <typename S> struct TestNode {
  typename S::NodeHeader Hdr;
  uint64_t Payload;
};

/// Deleter that counts destructions through the shared counter passed as
/// the context pointer.
template <typename S> void countingDeleter(void *Hdr, void *Ctx) {
  static_cast<std::atomic<int64_t> *>(Ctx)->fetch_add(1,
                                                      std::memory_order_relaxed);
  delete static_cast<TestNode<S> *>(Hdr);
}

/// Human-readable names in gtest output.
class SchemeNames {
public:
  template <typename T> static std::string GetName(int) {
    if constexpr (std::is_same_v<T, smr::NoMM>)
      return "NoMM";
    if constexpr (std::is_same_v<T, smr::EBR>)
      return "Epoch";
    if constexpr (std::is_same_v<T, smr::HP>)
      return "HP";
    if constexpr (std::is_same_v<T, smr::HE>)
      return "HE";
    if constexpr (std::is_same_v<T, smr::IBR>)
      return "IBR";
    if constexpr (std::is_same_v<T, core::Hyaline>)
      return "Hyaline";
    if constexpr (std::is_same_v<T, core::Hyaline1>)
      return "Hyaline1";
    if constexpr (std::is_same_v<T, core::HyalineS>)
      return "HyalineS";
    if constexpr (std::is_same_v<T, core::Hyaline1S>)
      return "Hyaline1S";
    return "Unknown";
  }
};

} // namespace lfsmr::testing

#endif // LFSMR_TESTS_SCHEME_FIXTURES_H
