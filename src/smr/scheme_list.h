//===- smr/scheme_list.h - The single scheme name/type list -----*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An X-macro list pairing every runnable scheme name with its concrete
/// type, so the string-keyed dispatchers (harness registry, bench suite
/// dispatch, scheme-name validation) share ONE list instead of drifting
/// copies. Adding a scheme means adding one line here; every dispatcher
/// and name list picks it up.
///
/// This header defines macros only — the expansion site must include the
/// scheme headers it instantiates.
///
/// \code
///   #define HANDLE(NAME, TYPE) if (Name == NAME) return run<TYPE>(Spec);
///   LFSMR_FOREACH_SCHEME(HANDLE)
///   #undef HANDLE
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SMR_SCHEME_LIST_H
#define LFSMR_SMR_SCHEME_LIST_H

/// The paper's nine-scheme lineup, in its presentation order.
#define LFSMR_FOREACH_SCHEME(X)                                              \
  X("nomm", lfsmr::smr::NoMM)                                                \
  X("epoch", lfsmr::smr::EBR)                                                \
  X("hyaline", lfsmr::core::Hyaline)                                         \
  X("hyaline1", lfsmr::core::Hyaline1)                                       \
  X("hyalines", lfsmr::core::HyalineS)                                       \
  X("hyaline1s", lfsmr::core::Hyaline1S)                                     \
  X("ibr", lfsmr::smr::IBR)                                                  \
  X("he", lfsmr::smr::HE)                                                    \
  X("hp", lfsmr::smr::HP)

#endif // LFSMR_SMR_SCHEME_LIST_H
