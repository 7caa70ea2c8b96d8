#include "blas/blas.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"
#include "simrt/parallel.hpp"
#include "trace/trace.hpp"

namespace vpar::blas {

namespace {

void record_level1(double n, double flops_per_elem, double bytes_per_elem) {
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = 1.0;
  rec.trips = n;
  rec.flops_per_trip = flops_per_elem;
  rec.bytes_per_trip = bytes_per_elem;
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("blas1", rec);
}

void record_gemm(double m, double n, double k, double flops_per_madd, double elem_bytes) {
  // Blocked GEMM: the inner (vector) loop runs over a row of C; each element
  // of the block is reused k times, so DRAM traffic per flop is tiny — we
  // charge the streaming traffic of reading A, B and writing C once.
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = m * k;
  rec.trips = n;
  rec.flops_per_trip = flops_per_madd;
  rec.bytes_per_trip = (m * k + k * n + 2 * m * n) * elem_bytes / (m * k * n);
  rec.access = perf::AccessPattern::Cached;
  rec.working_set_bytes = (m * k + k * n + m * n) * elem_bytes;
  perf::record_loop("blas3", rec);
}

template <typename T>
T fetch(Trans t, const T* a, std::size_t lda, std::size_t i, std::size_t j) {
  switch (t) {
    case Trans::None: return a[i * lda + j];
    case Trans::Transpose: return a[j * lda + i];
    case Trans::ConjTranspose:
      if constexpr (std::is_same_v<T, Complex>) {
        return std::conj(a[j * lda + i]);
      } else {
        return a[j * lda + i];
      }
  }
  return T{};
}

constexpr std::size_t kBlock = 64;  // gemm tile edge (packed-buffer stride)

/// Update of one packed tile (double or interleaved re,im Complex): for i in
/// [0, mi), p in [0, kp), aip = alpha * a_block[i * kBlock + p], then
/// c[i * ldc + j] += aip * b_block[p * kBlock + j] for j in [0, jw) — the
/// reference (i, p, j) order with the j loop in W-wide strips and a W=1
/// tail, so every C element accumulates its products in the identical
/// sequence at every W. A complex coefficient is broadcast as a pair, and
/// complex_mul reproduces the scalar product's rounding lane for lane.
template <std::size_t W, typename T>
VPAR_SIMD_INLINE void tile_w(T* c, std::size_t ldc, const T* a_block,
                             const T* b_block, T alpha, std::size_t mi,
                             std::size_t kp, std::size_t jw) {
  constexpr std::size_t kLanes = sizeof(T) / sizeof(double);  // doubles per T
  constexpr std::size_t kPer = W > 1 ? W / kLanes : 1;         // T per vector
  const std::size_t jv = W > 1 ? jw / kPer * kPer : 0;
  for (std::size_t i = 0; i < mi; ++i) {
    T* __restrict crow = c + i * ldc;
    for (std::size_t p = 0; p < kp; ++p) {
      const T aip = alpha * a_block[i * kBlock + p];
      const T* __restrict brow = b_block + p * kBlock;
      if constexpr (W > 1) {
        double* crd = reinterpret_cast<double*>(crow);
        const double* brd = reinterpret_cast<const double*>(brow);
        for (std::size_t j = 0; j < jv; j += kPer) {
          const simd::vec<W> vb = simd::load<W>(brd + kLanes * j);
          simd::vec<W> prod;
          if constexpr (std::is_same_v<T, double>) {
            prod = simd::splat<W>(aip) * vb;
          } else {
            prod = simd::complex_mul<W>(vb, simd::splat_pair<W>(aip.real(), aip.imag()));
          }
          simd::store<W>(crd + kLanes * j, simd::load<W>(crd + kLanes * j) + prod);
        }
      }
      for (std::size_t j = jv; j < jw; ++j) crow[j] += aip * brow[j];
    }
  }
}

/// The simd spans of one gemm call: each (i, p) pair of every j tile is one
/// span of that tile's width.
template <typename T>
void record_tiles(std::size_t w, std::size_t m, std::size_t n, std::size_t k) {
  constexpr std::size_t kLanes = sizeof(T) / sizeof(double);
  if (w <= 1) return;
  const std::size_t per = w / kLanes;
  const std::size_t tail = n % kBlock;
  simd::record_spans(w, m * k * (n / kBlock), kBlock / per, kLanes * (kBlock % per));
  if (tail != 0) simd::record_spans(w, m * k, tail / per, kLanes * (tail % per));
}

/// Blocked kernel shared by the real and complex instantiations.
template <typename T>
void gemm_impl(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
               T alpha, const T* a, std::size_t lda, const T* b, std::size_t ldb,
               T beta, T* c, std::size_t ldc) {
  // Distinct i0 row blocks write disjoint rows of C, so the outer block loop
  // splits across idle pool workers. Each serving thread packs into its own
  // buffers, and each C element still sees beta-scale followed by its k
  // products in the reference (i, p, j) order — bitwise identical to the
  // serial blocked form.
  const std::size_t row_blocks = (m + kBlock - 1) / kBlock;
  const std::size_t w = simd::active_width();
  simrt::parallel_for(0, row_blocks, 1, [&](std::size_t b0, std::size_t b1) {
    // Pack buffers are per serving thread and reused across calls — the
    // steady-state gemm stream must not touch the allocator.
    static thread_local std::vector<T> a_block;
    static thread_local std::vector<T> b_block;
    if (a_block.size() < kBlock * kBlock) {
      a_block.resize(kBlock * kBlock);
      b_block.resize(kBlock * kBlock);
    }
    for (std::size_t blk = b0; blk < b1; ++blk) {
      const std::size_t i0 = blk * kBlock;
      const std::size_t i1 = std::min(i0 + kBlock, m);
      // Scale this block's rows of C by beta.
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          c[i * ldc + j] = beta == T{} ? T{} : c[i * ldc + j] * beta;
        }
      }
      for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
        const std::size_t p1 = std::min(p0 + kBlock, k);
        // Pack op(A) block once; it is reused across the whole j sweep.
        for (std::size_t i = i0; i < i1; ++i) {
          for (std::size_t p = p0; p < p1; ++p) {
            a_block[(i - i0) * kBlock + (p - p0)] = fetch(ta, a, lda, i, p);
          }
        }
        for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
          const std::size_t j1 = std::min(j0 + kBlock, n);
          const std::size_t jw = j1 - j0;
          // Pack op(B) into contiguous rows: the transpose layouts otherwise
          // stride the inner loop by ldb, and even the plain layout goes
          // through the per-element fetch switch. Packing resolves the
          // orientation once per tile and leaves an unaliased unit-stride row.
          for (std::size_t p = p0; p < p1; ++p) {
            T* dst = b_block.data() + (p - p0) * kBlock;
            for (std::size_t j = j0; j < j1; ++j) {
              dst[j - j0] = fetch(tb, b, ldb, p, j);
            }
          }
          // Same (i, p, j) update order as the unpacked form, so each C element
          // accumulates its k products in an identical sequence.
          T* const tile = c + i0 * ldc + j0;
          const T* const ab = a_block.data();
          const T* const bb = b_block.data();
          simd::dispatch(
              [&]<std::size_t W>() VPAR_SIMD_BODY {
                tile_w<W>(tile, ldc, ab, bb, alpha, i1 - i0, p1 - p0, jw);
              },
              w);
        }
      }
    }
  });
  record_tiles<T>(w, m, n, k);
}

}  // namespace

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::runtime_error("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  record_level1(static_cast<double>(x.size()), 2.0, 24.0);
}

void axpy(Complex alpha, std::span<const Complex> x, std::span<Complex> y) {
  if (x.size() != y.size()) throw std::runtime_error("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  record_level1(static_cast<double>(x.size()), 8.0, 48.0);
}

double dot(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::runtime_error("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  record_level1(static_cast<double>(x.size()), 2.0, 16.0);
  return s;
}

Complex dotc(std::span<const Complex> x, std::span<const Complex> y) {
  if (x.size() != y.size()) throw std::runtime_error("dotc: size mismatch");
  Complex s{};
  for (std::size_t i = 0; i < x.size(); ++i) s += std::conj(x[i]) * y[i];
  record_level1(static_cast<double>(x.size()), 8.0, 32.0);
  return s;
}

double nrm2(std::span<const double> x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  record_level1(static_cast<double>(x.size()), 2.0, 8.0);
  return std::sqrt(s);
}

double nrm2(std::span<const Complex> x) {
  double s = 0.0;
  for (const auto& v : x) s += std::norm(v);
  record_level1(static_cast<double>(x.size()), 4.0, 16.0);
  return std::sqrt(s);
}

void scal(double alpha, std::span<double> x) {
  for (auto& v : x) v *= alpha;
  record_level1(static_cast<double>(x.size()), 1.0, 16.0);
}

void scal(Complex alpha, std::span<Complex> x) {
  for (auto& v : x) v *= alpha;
  record_level1(static_cast<double>(x.size()), 6.0, 32.0);
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          double alpha, const double* a, std::size_t lda, const double* b,
          std::size_t ldb, double beta, double* c, std::size_t ldc) {
  trace::TraceSpan span("blas.gemm", static_cast<std::int64_t>(m * n),
                        static_cast<std::int64_t>(k));
  gemm_impl(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  record_gemm(static_cast<double>(m), static_cast<double>(n), static_cast<double>(k),
              2.0, sizeof(double));
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          Complex alpha, const Complex* a, std::size_t lda, const Complex* b,
          std::size_t ldb, Complex beta, Complex* c, std::size_t ldc) {
  trace::TraceSpan span("blas.gemm", static_cast<std::int64_t>(m * n),
                        static_cast<std::int64_t>(k));
  gemm_impl(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  record_gemm(static_cast<double>(m), static_cast<double>(n), static_cast<double>(k),
              8.0, sizeof(Complex));
}

double gemm_flops_real(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

double gemm_flops_complex(std::size_t m, std::size_t n, std::size_t k) {
  return 8.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

}  // namespace vpar::blas
