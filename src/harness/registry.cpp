//===- harness/registry.cpp - Scheme x structure dispatch -----------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//

#include "harness/registry.h"

#include "ds/bonsai_tree.h"
#include "ds/hm_list.h"
#include "ds/michael_hashmap.h"
#include "ds/nm_tree.h"
#include "smr/reclaimer_traits.h"
#include "smr/scheme_list.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace lfsmr;
using namespace lfsmr::ds;
using namespace lfsmr::harness;

const std::vector<std::string> &lfsmr::harness::allSchemes() {
  static const std::vector<std::string> Names = {
#define LFSMR_SCHEME_NAME(NAME, TYPE) NAME,
      LFSMR_FOREACH_SCHEME(LFSMR_SCHEME_NAME)
#undef LFSMR_SCHEME_NAME
  };
  return Names;
}

const std::vector<std::string> &lfsmr::harness::allStructures() {
  static const std::vector<std::string> Names = {"list", "hashmap", "nmtree",
                                                 "bonsai"};
  return Names;
}

namespace {

/// Prefill keys: a deterministic shuffled Count-subset of [0, KeyRange).
std::vector<uint64_t> prefillKeys(const WorkloadParams &P) {
  std::vector<uint64_t> Keys(P.KeyRange);
  for (uint64_t I = 0; I < P.KeyRange; ++I)
    Keys[I] = I;
  Xoshiro256 Rng(P.Seed);
  for (uint64_t I = P.KeyRange - 1; I > 0; --I)
    std::swap(Keys[I], Keys[Rng.nextBounded(I + 1)]);
  Keys.resize(P.Prefill);
  return Keys;
}

/// Configuration for one run: per-thread state must cover worker ids
/// 0..Threads-1 (the prefill also uses id 0). Keeping MaxThreads tight
/// matters for Hyaline-1(-S), whose slot count and batch size scale with
/// it (paper: k = n for the -1 variants).
smr::Config runConfig(const RunSpec &Spec) {
  smr::Config Cfg = Spec.Cfg;
  Cfg.MaxThreads = std::max(Spec.Threads, 1u);
  return Cfg;
}

template <typename S> RunResult runList(const RunSpec &Spec) {
  HMList<S> L(runConfig(Spec));
  std::vector<uint64_t> Keys = prefillKeys(Spec.Params);
  std::sort(Keys.begin(), Keys.end());
  L.prefillSorted(Keys);
  return runMeasured(L, Spec.Mix, Spec.Params, Spec.Threads);
}

template <typename S> RunResult runHashMap(const RunSpec &Spec) {
  MichaelHashMap<S> M(runConfig(Spec));
  prefillGeneric(M, Spec.Params.Prefill, Spec.Params.KeyRange,
                 Spec.Params.Seed);
  return runMeasured(M, Spec.Mix, Spec.Params, Spec.Threads);
}

template <typename S> RunResult runNMTree(const RunSpec &Spec) {
  NMTree<S> T(runConfig(Spec));
  prefillGeneric(T, Spec.Params.Prefill, Spec.Params.KeyRange,
                 Spec.Params.Seed);
  return runMeasured(T, Spec.Mix, Spec.Params, Spec.Threads);
}

template <typename S> RunResult runBonsai(const RunSpec &Spec) {
  if constexpr (smr::ReclaimerTraits<S>::Row.SupportsBonsai) {
    BonsaiTree<S> T(runConfig(Spec));
    prefillGeneric(T, Spec.Params.Prefill, Spec.Params.KeyRange,
                   Spec.Params.Seed);
    return runMeasured(T, Spec.Mix, Spec.Params, Spec.Threads);
  } else {
    std::fprintf(stderr,
                 "error: scheme cannot run the Bonsai tree (unbounded "
                 "per-operation protections)\n");
    std::exit(2);
  }
}

template <typename S> RunResult runScheme(const RunSpec &Spec) {
  if (Spec.Ds == "list")
    return runList<S>(Spec);
  if (Spec.Ds == "hashmap")
    return runHashMap<S>(Spec);
  if (Spec.Ds == "nmtree")
    return runNMTree<S>(Spec);
  if (Spec.Ds == "bonsai")
    return runBonsai<S>(Spec);
  std::fprintf(stderr, "error: unknown data structure '%s'\n",
               Spec.Ds.c_str());
  std::exit(2);
}

} // namespace

bool lfsmr::harness::isSupported(const std::string &Scheme,
                                 const std::string &Ds) {
  if (Ds == "bonsai")
    return Scheme != "hp" && Scheme != "he";
  return true;
}

RunResult lfsmr::harness::runOne(const RunSpec &Spec) {
#define LFSMR_RUN_SCHEME(NAME, TYPE)                                         \
  if (Spec.Scheme == NAME)                                                   \
    return runScheme<TYPE>(Spec);
  LFSMR_FOREACH_SCHEME(LFSMR_RUN_SCHEME)
#undef LFSMR_RUN_SCHEME
  std::fprintf(stderr, "error: unknown scheme '%s'\n", Spec.Scheme.c_str());
  std::exit(2);
}
