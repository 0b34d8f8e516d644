//===- core/hyaline_head.h - Retirement-list heads ---------------*- C++ -*-===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-slot head of a retirement list, in its two single-word forms.
///
/// Hyaline and Hyaline-S keep the head tuple `[HRef, HPtr]` (paper
/// Figure 6) in ONE 64-bit word, `[HRef:16 | HPtr:48]`, as the paper's
/// Section 2 suggests: "48-bit ... pointers ... can be squeezed with
/// 16-bit counters". x86-64 user-space pointers fit in 48 bits, so the
/// schemes need neither double-width CAS nor LL/SC, and `enter` becomes
/// one wait-free FAA on the counter bits (the paper's dFAA, single
/// width). Packing has two limits, both hard checks that survive NDEBUG:
/// at most 65,535 guards inside one slot at once, and node addresses
/// below 2^48.
///
/// Hyaline-1 and Hyaline-1S squeeze `HRef` into one bit of a single word
/// (Section 3.2, "Hyaline-1 for Single-width CAS"): with one thread per
/// slot the reference count is only ever 0 or 1, and node pointers are at
/// least 8-byte aligned so bit 0 is free.
///
//===----------------------------------------------------------------------===//

#ifndef LFSMR_CORE_HYALINE_HEAD_H
#define LFSMR_CORE_HYALINE_HEAD_H

#include "core/hyaline_node.h"

#include <atomic>
#include <cstdint>

namespace lfsmr::core {

/// Hyaline/Hyaline-S head: the number of active threads in the slot
/// (HRef, top 16 bits) and the most recently inserted retired node (HPtr,
/// low 48 bits), updated with single-width atomics.
class CountedHead {
public:
  static constexpr unsigned RefShift = 48;
  static constexpr uint64_t PtrMask = (uint64_t{1} << RefShift) - 1;
  static constexpr uint64_t RefOne = uint64_t{1} << RefShift;
  static constexpr uint64_t RefMax = 0xFFFF;

  static uint64_t pack(uint64_t Ref, HyalineNode *Ptr) {
    const uint64_t Raw = reinterpret_cast<uint64_t>(Ptr);
    if (Raw & ~PtrMask) [[unlikely]]
      pointerTooWide(Raw);
    return (Ref << RefShift) | Raw;
  }
  static uint64_t refOf(uint64_t Word) { return Word >> RefShift; }
  static HyalineNode *ptrOf(uint64_t Word) {
    return reinterpret_cast<HyalineNode *>(Word & PtrMask);
  }

  uint64_t load() const { return Word.load(std::memory_order_acquire); }

  /// enter (Figure 7, lines 3-5): one FAA on HRef. Returns HPtr, the
  /// guard's handle.
  HyalineNode *arrive() {
    const uint64_t Old = Word.fetch_add(RefOne, std::memory_order_acq_rel);
    if (refOf(Old) == RefMax) [[unlikely]]
      refSaturated();
    return ptrOf(Old);
  }

  /// leave's CAS (Figure 7, lines 7-13): drops HRef; the last thread out
  /// empties the list. When HPtr is newer than \p Handle, \p Next gets its
  /// list link, read before the CAS publishes our departure. Returns the
  /// replaced word.
  uint64_t depart(HyalineNode *Handle, HyalineNode *&Next) {
    uint64_t Old = load();
    do {
      assert(refOf(Old) >= 1 && "leave without a matching enter");
      HyalineNode *Curr = ptrOf(Old);
      if (Curr != Handle) {
        assert(Curr && "head cannot be null while our handle is newer");
        Next = Curr->next(std::memory_order_acquire);
      }
    } while (!Word.compare_exchange_weak(Old,
                                         refOf(Old) == 1 ? 0 : Old - RefOne,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire));
    return Old;
  }

  /// publishBatch's insertion (Figure 7, lines 27-37): pushes \p Node
  /// unless `Skip(Old)` says the slot need not see the batch. \p Old gets
  /// the displaced word. Returns whether \p Node was inserted.
  template <typename SkipFn>
  bool insert(HyalineNode *Node, uint64_t &Old, SkipFn Skip) {
    Old = load();
    do {
      if (Skip(Old))
        return false;
      Node->setNext(ptrOf(Old), std::memory_order_relaxed);
    } while (!Word.compare_exchange_weak(Old, pack(refOf(Old), Node),
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire));
    return true;
  }

private:
  [[noreturn, gnu::cold]] static void refSaturated();
  [[noreturn, gnu::cold]] static void pointerTooWide(uint64_t Raw);

  std::atomic<uint64_t> Word{0};
};

/// Single-word head for Hyaline-1(-S): bit 0 is the active flag, the
/// remaining bits hold the node pointer.
class PackedHead {
public:
  static constexpr uint64_t ActiveBit = 1;

  static uint64_t pack(bool Active, HyalineNode *Ptr) {
    const uint64_t Raw = reinterpret_cast<uint64_t>(Ptr);
    assert((Raw & ActiveBit) == 0 && "node pointers must be 8-byte aligned");
    return Raw | (Active ? ActiveBit : 0);
  }

  static bool isActive(uint64_t Word) { return Word & ActiveBit; }

  static HyalineNode *pointer(uint64_t Word) {
    return reinterpret_cast<HyalineNode *>(Word & ~ActiveBit);
  }
};

} // namespace lfsmr::core

#endif // LFSMR_CORE_HYALINE_HEAD_H
