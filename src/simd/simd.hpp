#pragma once

#include <cstddef>

/// Portable width-agnostic SIMD primitives over GCC/Clang vector extensions,
/// with a scalar (width 1) fallback that compiles everywhere.
///
/// Design rules, learned the hard way on GCC 12:
///  - Vector values are *raw* vector-extension typedefs, not structs wrapping
///    them. A struct-of-vector forces element-wise SRA through the baseline
///    ABI and GCC lowers broadcasts into per-lane masked vbroadcastsd chains
///    (~4x slower than scalar). Raw vector types carry +,-,*,/ natively.
///  - Every primitive is force-inlined. Kernel bodies are templates over the
///    width, instantiated inside the `__attribute__((target(...)))` clones of
///    simd::dispatch (simd/dispatch.hpp); if a body is not inlined into the
///    clone it compiles at the baseline ISA and wide vectors are emulated
///    through the stack.
///  - Loads and stores go through __builtin_memcpy, so unaligned pointers are
///    always fine and the tail of an array is never touched by a lane that
///    was not asked for.
///  - Everything that links vpar_simd compiles with -ffp-contract=off (a
///    PUBLIC option in src/simd/CMakeLists.txt): inside an AVX-512 clone, or
///    anywhere under -march=native, GCC would otherwise contract a*b+c into
///    an FMA and break bitwise equivalence across widths.
///
/// Width configuration: VPAR_SIMD_WIDTH_CAP (1, 2, 4 or 8 doubles) is set by
/// the VPAR_SIMD CMake option. The *effective* cap additionally requires
/// vector-extension support; on other compilers everything degrades to the
/// scalar path. x86-64 builds keep the baseline ISA (no -m flags — only
/// VPAR_NATIVE changes that) and reach AVX/AVX-512 through per-function
/// target attributes plus runtime dispatch (simd/dispatch.hpp).

#ifndef VPAR_SIMD_WIDTH_CAP
#define VPAR_SIMD_WIDTH_CAP 1
#endif

#if defined(__GNUC__) && VPAR_SIMD_WIDTH_CAP > 1
#define VPAR_SIMD_HAVE_VEC 1
#define VPAR_SIMD_WIDTH_MAX VPAR_SIMD_WIDTH_CAP
#else
#define VPAR_SIMD_HAVE_VEC 0
#define VPAR_SIMD_WIDTH_MAX 1
#endif

// Function-multiversioning clones are an x86-64 mechanism (target("avx") /
// target("avx512f") + __builtin_cpu_supports). Elsewhere the generic W=2
// vector code compiles for whatever SIMD the baseline ISA has.
#if VPAR_SIMD_HAVE_VEC && defined(__x86_64__)
#define VPAR_SIMD_CLONE_AVX (VPAR_SIMD_WIDTH_MAX >= 4)
#define VPAR_SIMD_CLONE_AVX512 (VPAR_SIMD_WIDTH_MAX >= 8)
#else
#define VPAR_SIMD_CLONE_AVX 0
#define VPAR_SIMD_CLONE_AVX512 0
#endif

// Force-inline markers for width-templated kernel code: VPAR_SIMD_INLINE on
// functions, VPAR_SIMD_BODY on the generic lambdas handed to simd::dispatch
// (`[&]<std::size_t W>() VPAR_SIMD_BODY { ... }`; a lambda declarator takes
// no `inline`).
#if defined(__GNUC__)
#define VPAR_SIMD_INLINE __attribute__((always_inline)) inline
#define VPAR_SIMD_BODY __attribute__((always_inline))
#else
#define VPAR_SIMD_INLINE inline
#define VPAR_SIMD_BODY
#endif

namespace vpar::simd {

template <std::size_t W>
struct native_vec;  // specialized for every supported width

/// Width 1: plain double, so width-templated kernel bodies double as their
/// own scalar tail (instantiate with W=1) with the exact scalar semantics.
template <>
struct native_vec<1> {
  using type = double;
};

#if VPAR_SIMD_HAVE_VEC
// The vector_size must be a literal per specialization: a dependent
// `vector_size(W * sizeof(double))` inside a template silently degenerates
// to plain double on GCC 12.
template <>
struct native_vec<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct native_vec<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct native_vec<8> {
  typedef double type __attribute__((vector_size(64)));
};
#endif

template <std::size_t W>
using vec = typename native_vec<W>::type;

/// Unaligned load of W consecutive doubles.
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> load(const double* p) {
  if constexpr (W == 1) {
    return *p;
  } else {
    vec<W> r;
    __builtin_memcpy(&r, p, sizeof(r));
    return r;
  }
}

/// Unaligned store of W consecutive doubles.
template <std::size_t W>
VPAR_SIMD_INLINE void store(double* p, vec<W> v) {
  if constexpr (W == 1) {
    *p = v;
  } else {
    __builtin_memcpy(p, &v, sizeof(v));
  }
}

/// All lanes = x. The shufflevector-of-one-element form is the only idiom
/// GCC 12 reliably lowers to a single vbroadcastsd inside target clones.
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> splat(double x) {
  if constexpr (W == 1) {
    return x;
  }
#if VPAR_SIMD_HAVE_VEC
  else {
    vec<W> o{x};
    if constexpr (W == 2) {
      return __builtin_shufflevector(o, o, 0, 0);
    } else if constexpr (W == 4) {
      return __builtin_shufflevector(o, o, 0, 0, 0, 0);
    } else {
      static_assert(W == 8);
      return __builtin_shufflevector(o, o, 0, 0, 0, 0, 0, 0, 0, 0);
    }
  }
#endif
}

/// a*b + c without FMA contraction (vpar_simd users build with
/// -ffp-contract=off), so each lane rounds exactly like the scalar `a*b + c`.
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> mul_add(vec<W> a, vec<W> b, vec<W> c) {
  return a * b + c;
}

/// Lane sum in ascending lane order (left-to-right), so the result is
/// reproducible across widths of the *same* W; across different widths the
/// reassociation changes rounding — callers get <= a few ULP, not bitwise.
template <std::size_t W>
VPAR_SIMD_INLINE double reduce_add(vec<W> v) {
  if constexpr (W == 1) {
    return v;
  } else {
    double s = v[0];
    for (std::size_t i = 1; i < W; ++i) s += v[i];
    return s;
  }
}

/// Lane l takes base[idx[l]]: the portable gather (unrolled scalar loads).
template <std::size_t W, typename Index>
VPAR_SIMD_INLINE vec<W> gather(const double* base, const Index* idx) {
  if constexpr (W == 1) {
    return base[idx[0]];
  } else {
    vec<W> r;
    for (std::size_t l = 0; l < W; ++l) r[l] = base[idx[l]];
    return r;
  }
}

// --- complex helpers --------------------------------------------------------
// Interleaved re,im layout, W/2 complex numbers per vector (W >= 2).

/// [re0,im0,re1,im1,...] -> [im0,re0,im1,re1,...]
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> swap_pairs(vec<W> v) {
#if VPAR_SIMD_HAVE_VEC
  static_assert(W >= 2);
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 1, 0);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 1, 0, 3, 2);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 1, 0, 3, 2, 5, 4, 7, 6);
  }
#else
  return v;
#endif
}

/// [re0,im0,re1,im1,...] -> [re0,re0,re1,re1,...]
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> dup_even(vec<W> v) {
#if VPAR_SIMD_HAVE_VEC
  static_assert(W >= 2);
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 0, 0);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 0, 0, 2, 2);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6);
  }
#else
  return v;
#endif
}

/// [re0,im0,re1,im1,...] -> [im0,im0,im1,im1,...]
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> dup_odd(vec<W> v) {
#if VPAR_SIMD_HAVE_VEC
  static_assert(W >= 2);
  if constexpr (W == 2) {
    return __builtin_shufflevector(v, v, 1, 1);
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(v, v, 1, 1, 3, 3);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(v, v, 1, 1, 3, 3, 5, 5, 7, 7);
  }
#else
  return v;
#endif
}

/// [-1,+1,-1,+1,...]: with `t = wre*b + alt * (wim*swap_pairs(b))` this forms
/// the complex product (b * w) whose lanes round exactly like the scalar
/// `re*w.re - im*w.im` / `re*w.im + im*w.re` (IEEE: x + (-y) == x - y and
/// (-1)*y == -y are exact).
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> alt_sign() {
  static_assert(W >= 2);
#if VPAR_SIMD_HAVE_VEC
  if constexpr (W == 2) {
    return vec<W>{-1.0, 1.0};
  } else if constexpr (W == 4) {
    return vec<W>{-1.0, 1.0, -1.0, 1.0};
  } else {
    static_assert(W == 8);
    return vec<W>{-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0};
  }
#else
  return -1.0;
#endif
}

/// [e,o,e,o,...]: broadcast an interleaved (even,odd) pair — the complex
/// analogue of splat (e.g. a scalar complex coefficient against a row of
/// interleaved complexes).
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> splat_pair(double e, double o) {
  static_assert(W >= 2);
#if VPAR_SIMD_HAVE_VEC
  vec<2> p{e, o};
  if constexpr (W == 2) {
    return p;
  } else if constexpr (W == 4) {
    return __builtin_shufflevector(p, p, 0, 1, 0, 1);
  } else {
    static_assert(W == 8);
    return __builtin_shufflevector(p, p, 0, 1, 0, 1, 0, 1, 0, 1);
  }
#else
  return e;
#endif
}

/// [+1,-1,+1,-1,...]: multiplying an interleaved complex vector by this
/// conjugates every pair exactly ((+1)*re and (-1)*im are exact in IEEE).
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> conj_mask() {
  static_assert(W >= 2);
#if VPAR_SIMD_HAVE_VEC
  if constexpr (W == 2) {
    return vec<W>{1.0, -1.0};
  } else if constexpr (W == 4) {
    return vec<W>{1.0, -1.0, 1.0, -1.0};
  } else {
    static_assert(W == 8);
    return vec<W>{1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0};
  }
#else
  return 1.0;
#endif
}

/// Complex multiply of interleaved pairs by interleaved pairs, scalar
/// rounding order per lane pair (see alt_sign).
template <std::size_t W>
VPAR_SIMD_INLINE vec<W> complex_mul(vec<W> a, vec<W> b) {
  return dup_even<W>(b) * a + alt_sign<W>() * (dup_odd<W>(b) * swap_pairs<W>(a));
}

}  // namespace vpar::simd
