//===- harness/registry.h - Scheme x structure dispatch ----------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String-keyed dispatch over every (SMR scheme x data structure)
/// combination the benchmarks need, so one bench binary can sweep all
/// schemes the way the paper's figures do. Scheme names follow the paper:
/// "nomm", "epoch", "hp", "he", "ibr", "hyaline", "hyaline1", "hyalines",
/// "hyaline1s". Structures: "list", "hashmap", "nmtree", "bonsai".
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_HARNESS_REGISTRY_H
#define LFSMR_HARNESS_REGISTRY_H

#include "harness/runner.h"
#include "harness/workload.h"
#include "smr/smr.h"

#include <string>
#include <vector>

namespace lfsmr::harness {

/// Everything needed to produce one data point.
struct RunSpec {
  std::string Scheme;
  std::string Ds;
  WorkloadMix Mix = WriteMix;
  WorkloadParams Params;
  unsigned Threads = 1;
  smr::Config Cfg; ///< MaxThreads is overridden to fit Threads
};

/// All scheme names, in the paper's presentation order. One list,
/// generated from smr/scheme_list.h.
const std::vector<std::string> &allSchemes();

/// All data-structure names.
const std::vector<std::string> &allStructures();

/// True when \p Scheme can run \p Ds (HP/HE cannot run the Bonsai tree;
/// paper Section 6).
bool isSupported(const std::string &Scheme, const std::string &Ds);

/// Runs one prefilled, timed data point. Aborts with a message on an
/// unknown scheme/structure name.
RunResult runOne(const RunSpec &Spec);

} // namespace lfsmr::harness

#endif // LFSMR_HARNESS_REGISTRY_H
