//===- jvm/Handle.h - Opaque JNI reference handle encoding ---------------===//
//
// Part of the Jinn reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JNI hands native code *opaque references* (jobject) rather than raw
/// pointers so the collector can move objects (paper §3). This reproduction
/// encodes a reference handle into a single pointer-sized word:
///
///   bits 60..63  magic 0xA — distinguishes genuine handles from wild
///                pointers (jmethodID values, stack addresses, ...), which is
///                how pitfall 6 "confusing IDs with references" is detected
///   bits 37..59  generation of the table slot (23 bits)
///   bits 17..36  slot index within the owning table (20 bits)
///   bits  2..16  owning thread id for local refs, 0 for globals (15 bits)
///   bits  0..1   RefKind
///
/// The 15-bit thread field sizes the VM's thread-id space: a server
/// workload that attaches a short-lived thread per request can burn
/// through ~32k ids in one run (ids are never reused).
///
/// The generation bits make recycled slots produce *different* bit patterns,
/// so both the VM and the Jinn shadow bookkeeping can tell a dangling handle
/// from a live one without dereferencing anything.
///
//===----------------------------------------------------------------------===//

#ifndef JINN_JVM_HANDLE_H
#define JINN_JVM_HANDLE_H

#include <cstdint>
#include <optional>

namespace jinn::jvm {

/// Which reference table a handle points into.
enum class RefKind : uint8_t {
  Null = 0,
  Local = 1,
  Global = 2,
  WeakGlobal = 3,
};

/// Decoded handle fields.
struct HandleBits {
  RefKind Kind = RefKind::Null;
  uint32_t Thread = 0; ///< owning thread id (locals only)
  uint32_t Slot = 0;
  uint32_t Gen = 0;
};

namespace handle_detail {
constexpr uint64_t MagicShift = 60;
constexpr uint64_t Magic = 0xAULL;
constexpr uint64_t GenShift = 37;
constexpr uint64_t GenMask = (1ULL << 23) - 1;
constexpr uint64_t SlotShift = 17;
constexpr uint64_t SlotMask = (1ULL << 20) - 1;
constexpr uint64_t ThreadShift = 2;
constexpr uint64_t ThreadMask = (1ULL << 15) - 1;
constexpr uint64_t KindMask = 0x3;
} // namespace handle_detail

/// One past the largest encodable thread id (sizes Vm::ThreadTable).
constexpr uint32_t MaxThreadIds =
    static_cast<uint32_t>(handle_detail::ThreadMask) + 1;

/// Encodes \p Bits into a pointer-sized word. Null kind encodes to 0.
inline uint64_t encodeHandle(const HandleBits &Bits) {
  namespace D = handle_detail;
  if (Bits.Kind == RefKind::Null)
    return 0;
  return (D::Magic << D::MagicShift) |
         ((static_cast<uint64_t>(Bits.Gen) & D::GenMask) << D::GenShift) |
         ((static_cast<uint64_t>(Bits.Slot) & D::SlotMask) << D::SlotShift) |
         ((static_cast<uint64_t>(Bits.Thread) & D::ThreadMask)
          << D::ThreadShift) |
         static_cast<uint64_t>(Bits.Kind);
}

/// A table slot counts its generations in a wider counter than a handle
/// carries, so a handle names its slot's generation modulo 2^23. The two
/// helpers below compare a handle's generation \p HandleGen with slot
/// generation \p SlotGen on that basis: a slot recycled past 2^23 times
/// still recognises its newest handle.
inline bool sameGeneration(uint64_t SlotGen, uint32_t HandleGen) {
  return (SlotGen & handle_detail::GenMask) == HandleGen;
}
/// True when the slot has issued a handle of generation \p HandleGen: one
/// at most its current generation before the counter first wraps, any
/// after it.
inline bool generationIssued(uint64_t SlotGen, uint32_t HandleGen) {
  return SlotGen > handle_detail::GenMask || HandleGen <= SlotGen;
}

/// Decodes \p Word. Returns std::nullopt when the word is not a plausible
/// handle (wrong magic or kind) — the signature of an ID/reference mixup or
/// a stray pointer. Zero decodes to the null handle.
inline std::optional<HandleBits> decodeHandle(uint64_t Word) {
  namespace D = handle_detail;
  if (Word == 0)
    return HandleBits{};
  if ((Word >> D::MagicShift) != D::Magic)
    return std::nullopt;
  HandleBits Bits;
  uint64_t Kind = Word & D::KindMask;
  if (Kind == 0)
    return std::nullopt;
  Bits.Kind = static_cast<RefKind>(Kind);
  Bits.Thread = static_cast<uint32_t>((Word >> D::ThreadShift) & D::ThreadMask);
  Bits.Slot = static_cast<uint32_t>((Word >> D::SlotShift) & D::SlotMask);
  Bits.Gen = static_cast<uint32_t>((Word >> D::GenShift) & D::GenMask);
  return Bits;
}

} // namespace jinn::jvm

#endif // JINN_JVM_HANDLE_H
