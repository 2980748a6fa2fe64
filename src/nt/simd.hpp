// SIMD kernel dispatch for the host-side 64-bit tower hot paths.
//
// HEAAN Demystified's analysis (PAPERS.md) shows the host kernels of an FHE
// stack are memory-bandwidth-bound: the win is not only wider multiplies but
// fewer passes over coefficient memory.  This layer provides both halves of
// that bargain for the u64 RNS towers:
//
//  * ISA lanes.  Each kernel exists as a scalar reference, an AVX2 lane
//    (x86-64, 64x64 products assembled from four 32x32 partials, HEXL-style)
//    and a NEON lane (aarch64, vmull_u32 partials).  Lanes are selected at
//    run time -- `active_isa()` picks the best lane the CPU supports -- and
//    at configure time: building with -DCOFHEE_SIMD=OFF compiles every
//    vector lane out, leaving only the scalar reference.  `force_isa()` lets
//    the differential battery pin a specific lane.
//
//  * Lazy (redundant) representation.  The butterfly kernels keep values in
//    a redundant range -- [0, 4q) through the forward (CT) stages, [0, 2q)
//    through the inverse (GS) stages -- postponing canonicalization to one
//    final pass per transform (Harvey, "Faster arithmetic for number-
//    theoretic transforms").  This removes two conditional subtractions per
//    butterfly.  Valid for q < 2^62, which Barrett64 already enforces.
//
// Every kernel is bit-exact against its scalar reference: the vector lanes
// execute the identical integer recurrence (same shifts, same estimate, same
// fixed number of conditional subtractions), so even the *lazy* outputs --
// not just the canonical residues -- match the scalar lane word for word.
// tests/nt/test_simd_kernels.cpp holds that contract.
#pragma once

#include <cstddef>

#include "nt/wide_int.hpp"

namespace cofhee::nt::simd {

/// Instruction-set lanes a kernel can dispatch to.
enum class Isa : unsigned {
  kScalar = 0,  ///< portable reference lane, always compiled
  kAvx2 = 1,    ///< x86-64 AVX2 lane (four 64-bit values per vector)
  kNeon = 2,    ///< aarch64 NEON lane (two 64-bit values per vector)
};

/// Human-readable lane name ("scalar", "avx2", "neon").
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

/// True when `isa` was compiled in AND the running CPU supports it.
/// kScalar is always available; vector lanes are compiled out entirely
/// under -DCOFHEE_SIMD=OFF.
[[nodiscard]] bool available(Isa isa) noexcept;

/// The lane kernels dispatch to: the forced lane if one is set, else the
/// best available lane for this CPU.
[[nodiscard]] Isa active_isa() noexcept;

/// Pin dispatch to a specific lane (test hook; also how the runtime-dispatch
/// fallback is exercised).  Returns false -- and changes nothing -- when the
/// lane is unavailable.
bool force_isa(Isa isa) noexcept;

/// Drop any force_isa() pin and return to automatic detection.
void clear_forced_isa() noexcept;

/// One resolved set of kernel entry points (a single lane).  Fetch once per
/// transform via kernels() so the per-block dispatch cost is a plain
/// indirect call, not a re-detection.
struct KernelTable {
  /// Forward (Cooley-Tukey) butterfly block over `len` pairs (x[i], y[i])
  /// sharing the twiddle w (wshoup = floor(w * 2^64 / q)).  Lazy: inputs in
  /// [0, 4q), outputs in [0, 4q):
  ///   u = x[i] - (x[i] >= 2q ? 2q : 0)        // [0, 2q)
  ///   v = w * y[i] - mulhi(wshoup, y[i]) * q  // Shoup product in [0, 2q)
  ///   x[i] = u + v;  y[i] = u - v + 2q
  void (*ct_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                       u64 q);
  /// Inverse (Gentleman-Sande) butterfly block.  Lazy: inputs in [0, 2q),
  /// outputs in [0, 2q):
  ///   s = u + v - (u + v >= 2q ? 2q : 0)
  ///   x[i] = s;  y[i] = shoup_lazy(w, u - v + 2q)
  void (*gs_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 wshoup,
                       u64 q);
  /// One canonicalization pass: maps the lazy range [0, 4q) to [0, q) with
  /// two fixed conditional subtractions (2q then q).
  void (*canonicalize)(u64* x, std::size_t len, u64 q);
  /// dst[i] = a[i] * b[i] mod q by Barrett reduction -- the identical
  /// recurrence as Barrett64::reduce (mu = floor(2^2k / q), k = bits(q)).
  /// Canonical inputs (< q), canonical output.
  void (*pointwise_mul)(u64* dst, const u64* a, const u64* b, std::size_t len,
                        u64 q, u64 mu, unsigned k);
  /// dst[i] = (dst[i] + a[i] * b[i] mod q) mod q -- the fused
  /// multiply-accumulate used by the middle tensor component.
  void (*pointwise_mul_acc)(u64* dst, const u64* a, const u64* b,
                            std::size_t len, u64 q, u64 mu, unsigned k);
  /// x[i] = w * x[i] mod q by canonical Shoup multiplication (ShoupMul::mul
  /// semantics); accepts *any* u64 input, so it doubles as the inverse
  /// transform's canonicalization + n^-1 scaling pass.
  void (*scalar_mul_shoup)(u64* x, std::size_t len, u64 w, u64 wshoup, u64 q);
};

/// Kernel table of the active lane.
[[nodiscard]] const KernelTable& kernels() noexcept;

/// Kernel table of a specific lane; throws std::invalid_argument when the
/// lane is unavailable (compiled out or unsupported by this CPU).
[[nodiscard]] const KernelTable& kernels_for(Isa isa);

}  // namespace cofhee::nt::simd
