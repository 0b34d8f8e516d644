//===- smr/reclaimer_traits.h - Table 1 metadata ------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compile-time qualitative metadata about each scheme, mirroring the
/// rows of the paper's Table 1. The header size is *measured* from the
/// real NodeHeader type rather than restated, so the Table 1 benchmark
/// reports what this implementation actually costs per node.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_RECLAIMER_TRAITS_H
#define LFSMR_SMR_RECLAIMER_TRAITS_H

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline1s.h"
#include "core/hyaline_s.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"

#include <cstddef>

namespace lfsmr::smr {

/// One row of the qualitative comparison (paper Table 1).
struct SchemeTraits {
  const char *Name;
  const char *BasedOn;
  const char *Performance;
  const char *Robust;
  const char *Transparent;
  std::size_t HeaderBytes; ///< measured sizeof(NodeHeader)
  const char *Api;
  bool NeedsDeref;      ///< requires deref-wrapped pointer reads
  bool NeedsIndices;    ///< requires HP-style per-pointer indices
  bool SupportsBonsai;  ///< usable with unbounded per-op protections
};

/// Primary template; specialized for every scheme below.
template <typename S> struct ReclaimerTraits;

template <> struct ReclaimerTraits<NoMM> {
  static constexpr SchemeTraits Row = {
      "NoMM",    "-", "Baseline", "No", "Yes", sizeof(NoMM::NodeHeader),
      "Trivial", false, false, true};
};

template <> struct ReclaimerTraits<EBR> {
  static constexpr SchemeTraits Row = {
      "Epoch",     "RCU", "Fast", "No", "No (retire)", sizeof(EBR::NodeHeader),
      "Very easy", false, false, true};
};

template <> struct ReclaimerTraits<HP> {
  static constexpr SchemeTraits Row = {
      "HP",     "-",  "Slow", "Yes", "No (retire)", sizeof(HP::NodeHeader),
      "Harder", true, true,   false};
};

template <> struct ReclaimerTraits<HE> {
  static constexpr SchemeTraits Row = {
      "HE",     "EBR, HP", "Medium", "Yes", "No (retire)",
      sizeof(HE::NodeHeader),
      "Harder", true,      true,     false};
};

template <> struct ReclaimerTraits<IBR> {
  static constexpr SchemeTraits Row = {
      "IBR (2GE)", "EBR, HP", "Fast", "Yes", "No (retire)",
      sizeof(IBR::NodeHeader),
      "Medium",    true,      false,  true};
};

template <> struct ReclaimerTraits<core::Hyaline> {
  static constexpr SchemeTraits Row = {
      "Hyaline",   "-", "Fast", "No", "Yes",
      sizeof(core::Hyaline::NodeHeader),
      "Very easy", false, false, true};
};

template <> struct ReclaimerTraits<core::Hyaline1> {
  static constexpr SchemeTraits Row = {
      "Hyaline-1", "-", "Fast", "No", "Partially",
      sizeof(core::Hyaline1::NodeHeader),
      "Very easy", false, false, true};
};

template <> struct ReclaimerTraits<core::HyalineS> {
  static constexpr SchemeTraits Row = {
      "Hyaline-S", "Hyaline, part. HE/IBR", "Fast", "Yes", "Yes",
      sizeof(core::HyalineS::NodeHeader),
      "Medium",    true,                    false,  true};
};

template <> struct ReclaimerTraits<core::Hyaline1S> {
  static constexpr SchemeTraits Row = {
      "Hyaline-1S", "Hyaline-1, part. HE/IBR", "Fast", "Yes", "Partially",
      sizeof(core::Hyaline1S::NodeHeader),
      "Medium",     true,                      false,  true};
};

} // namespace lfsmr::smr

#endif // LFSMR_SMR_RECLAIMER_TRAITS_H
