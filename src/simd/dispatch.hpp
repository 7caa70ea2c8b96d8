#pragma once

#include <cstddef>

#include "simd/simd.hpp"

namespace vpar::simd {

/// Runtime choice of the width kernels run at. Auto follows the
/// VPAR_SIMD_DISPATCH environment variable (`scalar`, `simd`, or `auto`;
/// unset means auto = the widest width the build and the CPU support). The
/// force modes exist for the equivalence tests and the wallclock simd probe,
/// which time/compare the W=1 and the vector instantiations in one process.
enum class DispatchMode { Auto, ForceScalar, ForceSimd };

[[nodiscard]] DispatchMode dispatch_mode() noexcept;
void set_dispatch_mode(DispatchMode mode) noexcept;

/// Widest double-lane count the build compiled *and* this CPU executes:
/// 8 with AVX-512F clones, 4 with AVX clones, 2 for baseline vector code,
/// 1 for scalar-only builds/compilers. Independent of the dispatch mode.
[[nodiscard]] std::size_t preferred_width() noexcept;

/// Width kernels should use right now: preferred_width(), or 1 when the
/// dispatch mode forces scalar.
[[nodiscard]] std::size_t active_width() noexcept;

/// Compile-time width cap of this build (the effective VPAR_SIMD setting).
[[nodiscard]] std::size_t compiled_width_cap() noexcept;

/// Human-readable ISA name for a width ("scalar", "sse2", "avx", "avx512f";
/// "vec128" for generic 2-lane vector code off x86-64).
[[nodiscard]] const char* width_isa_name(std::size_t width) noexcept;

/// Record `spans` equally-shaped vectorized spans with the simtrace metrics
/// registry — the real VOR/AVL analogues of the paper's hardware counters.
/// Each span ran `vector_iters_per_span` full-width iterations plus one
/// partial iteration of `remainder` active lanes (0 = none):
///   simd.vector_iters    += spans * vector_iters_per_span
///   simd.remainder_iters += spans * remainder
///   simd.lanes_active    histogram: `width` observed once per full-width
///                        iteration, `remainder` once per span,
/// so sum/count of the histogram is the achieved average vector length.
/// Kernels call this once per public call with totals computed from the
/// call's shape. Width 1 (the scalar instantiation) records nothing.
void record_spans(std::size_t width, std::size_t spans,
                  std::size_t vector_iters_per_span,
                  std::size_t remainder) noexcept;

namespace detail {

// The wide instantiations run inside target-attributed clones: the body is
// force-inlined into the clone, so it compiles at the clone's ISA while the
// rest of the build keeps the baseline one.
#if VPAR_SIMD_CLONE_AVX
template <typename Body>
__attribute__((noinline, target("avx"))) void run_avx(Body& body) {
  body.template operator()<4>();
}
#endif
#if VPAR_SIMD_CLONE_AVX512
template <typename Body>
__attribute__((noinline, target("avx512f"))) void run_avx512(Body& body) {
  body.template operator()<8>();
}
#endif

}  // namespace detail

/// Run one width-templated kernel body at `width` (default active_width())
/// and return the width it ran at:
///
///   simd::dispatch([&]<std::size_t W>() VPAR_SIMD_BODY { kernel_w<W>(...); });
///
/// `width` must not exceed preferred_width(); widths the build did not
/// compile fall back to W=1, the scalar instantiation of the same body. The body must be force-inlined (the
/// VPAR_SIMD_BODY on the lambda) so that it compiles inside the clone.
template <typename Body>
VPAR_SIMD_INLINE std::size_t dispatch(Body&& body,
                                      std::size_t width = active_width()) {
  switch (width) {
#if VPAR_SIMD_CLONE_AVX512
    case 8: detail::run_avx512(body); return 8;
#endif
#if VPAR_SIMD_CLONE_AVX
    case 4: detail::run_avx(body); return 4;
#endif
#if VPAR_SIMD_HAVE_VEC
    case 2: body.template operator()<2>(); return 2;
#endif
    default: body.template operator()<1>(); return 1;
  }
}

}  // namespace vpar::simd
