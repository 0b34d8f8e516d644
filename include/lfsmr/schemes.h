//===- lfsmr/schemes.h - The nine-scheme lineup ------------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public aliases for every reclamation scheme the library implements, in
/// the paper's presentation order (Table 1). Each alias is a complete
/// class type usable as the `Scheme` parameter of `lfsmr::domain`.
///
/// | alias                      | runtime name  | robust | transparent |
/// | -------------------------- | ------------- | ------ | ----------- |
/// | `schemes::nomm`            | `"nomm"`      | —      | yes (leaks) |
/// | `schemes::epoch`           | `"epoch"`     | no     | no          |
/// | `schemes::hyaline`         | `"hyaline"`   | no     | yes         |
/// | `schemes::hyaline1`        | `"hyaline1"`  | no     | partially   |
/// | `schemes::hyaline_s`       | `"hyalines"`  | yes    | yes         |
/// | `schemes::hyaline1_s`      | `"hyaline1s"` | yes    | partially   |
/// | `schemes::ibr`             | `"ibr"`       | yes    | no          |
/// | `schemes::hazard_eras`     | `"he"`        | yes    | no          |
/// | `schemes::hazard_pointers` | `"hp"`        | yes    | no          |
///
/// The runtime names (second column) select the same schemes through
/// `lfsmr::any_domain` and the benchmark harness. See `docs/schemes.md`
/// for the full per-scheme map into the paper and the source.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_SCHEMES_H
#define LFSMR_SCHEMES_H

#include "core/hyaline.h"
#include "core/hyaline1.h"
#include "core/hyaline1s.h"
#include "core/hyaline_s.h"
#include "smr/ebr.h"
#include "smr/he.h"
#include "smr/hp.h"
#include "smr/ibr.h"
#include "smr/nomm.h"

namespace lfsmr::schemes {

/// The leaking baseline: retire is a no-op (paper Section 6 floor).
using nomm = smr::NoMM;

/// Epoch-based reclamation (the paper's "Epoch" baseline). Fast, not
/// robust, not transparent.
using epoch = smr::EBR;

/// \copydoc epoch
using ebr = smr::EBR;

/// Hazard pointers [Michael, TPDS'04]. Robust, slow reads (one fence per
/// pointer), per-pointer protection indices required. Intrusive mode
/// only: HP protects published *addresses*, so the header must sit at
/// the published pointer — `domain<hp>` in transparent mode is
/// ill-formed and `any_domain("hp")` refuses to construct.
using hazard_pointers = smr::HP;

/// \copydoc hazard_pointers
using hp = smr::HP;

/// Hazard eras [Ramalhete & Correia]. Robust, era-stamped nodes with
/// HP-style indices.
using hazard_eras = smr::HE;

/// \copydoc hazard_eras
using he = smr::HE;

/// Interval-based reclamation (2GE variant) [Wen et al., PPoPP'18].
/// Robust via birth/retire era intervals; no indices.
using ibr = smr::IBR;

/// Hyaline (Sections 3.2/4.1, Figure 7): the paper's primary scheme.
/// Fully transparent, balanced reclamation, not robust.
using hyaline = core::Hyaline;

/// Hyaline-1 (Section 4.1): single-list variant, one slot per thread with
/// a one-bit HRef; requires thread registration (partial transparency).
using hyaline1 = core::Hyaline1;

/// Hyaline-S (Sections 4.2-4.3, Figures 9-10): robust Hyaline with birth
/// eras, per-slot access eras/acks, and adaptive slot resizing.
using hyaline_s = core::HyalineS;

/// Hyaline-1S (Section 4.2): robust single-list variant.
using hyaline1_s = core::Hyaline1S;

} // namespace lfsmr::schemes

#endif // LFSMR_SCHEMES_H
