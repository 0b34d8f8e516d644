//===- lfsmr/lfsmr.h - Umbrella header ---------------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole public lfsmr API in one include:
///
///  - `lfsmr/config.h` — `config`, `thread_id`, `deleter`, `memory_stats`;
///  - `lfsmr/schemes.h` — the nine reclamation schemes;
///  - `lfsmr/domain.h` / `lfsmr/guard.h` / `lfsmr/protected_ptr.h` — the
///    typed facade: `domain<Scheme>`, RAII `guard`, protected reads,
///    transparent `create`/`retire`;
///  - `lfsmr/any_domain.h` — the same facade with the scheme chosen by
///    runtime name;
///  - `lfsmr/containers.h` — the lock-free container lineup;
///  - `lfsmr/kv.h` — the sharded, versioned key-value store with
///    snapshot reads;
///  - `lfsmr/telemetry.h` — runtime reclamation metrics: typed stats
///    snapshots (`telemetry::domain_stats`, `telemetry::store_stats`),
///    JSON / Prometheus exposition, and the optional binary trace ring;
///  - `lfsmr/version.h` — version macros (generated).
///
/// Consumers installed via `find_package(lfsmr)` include only
/// `<lfsmr/...>` headers; everything under `lfsmr/impl/` (the scheme
/// implementations this facade wraps) is reachable transitively but is
/// not a stable interface.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_LFSMR_H
#define LFSMR_LFSMR_H

/// Snapshot-free, transparent, and robust memory reclamation for
/// lock-free data structures (Nikolaev & Ravindran, PLDI 2021). The
/// public surface lives directly in this namespace: `domain`, `guard`,
/// `protected_ptr`, `any_domain`, `config`, and the container aliases.
namespace lfsmr {
/// Public aliases for the nine reclamation schemes; each is a valid
/// `Scheme` parameter for `lfsmr::domain`.
namespace schemes {}
/// Implementation details of the public facade; not a stable interface.
namespace detail {}
/// Internal scheme implementations (Hyaline family); reachable through
/// the public headers but not a stable interface.
namespace core {}
/// Internal baseline scheme implementations and the shared scheme
/// contract; not a stable interface.
namespace smr {}
/// Internal lock-free container implementations behind the
/// `lfsmr::hm_list`-style aliases; not a stable interface.
namespace ds {}
/// The sharded, versioned key-value store with snapshot reads
/// (`kv::store`, `kv::snapshot`, `kv::options`).
namespace kv {}
/// Runtime reclamation metrics: typed stats snapshots, JSON and
/// Prometheus exposition, and the optional binary trace ring.
namespace telemetry {}
} // namespace lfsmr

#include "lfsmr/any_domain.h"
#include "lfsmr/config.h"
#include "lfsmr/containers.h"
#include "lfsmr/domain.h"
#include "lfsmr/guard.h"
#include "lfsmr/kv.h"
#include "lfsmr/protected_ptr.h"
#include "lfsmr/schemes.h"
#include "lfsmr/telemetry.h"
#include "lfsmr/version.h"

#endif // LFSMR_LFSMR_H
