#include "fft/fft1d.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"

namespace vpar::fft {

namespace {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

unsigned log2_exact(std::size_t n) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}

/// Butterflies j in [j0, j1) of one block, one complex at a time: the W=1
/// step of every stage, and the short-`half` tail of the wide ones.
template <bool kInvert>
VPAR_SIMD_INLINE void butterflies(Complex* a, Complex* b, const Complex* w,
                                  std::size_t j0, std::size_t j1) {
  for (std::size_t j = j0; j < j1; ++j) {
    Complex wj = w[j];
    if constexpr (kInvert) wj = std::conj(wj);
    const Complex u = a[j];
    const Complex t = b[j] * wj;
    a[j] = u + t;
    b[j] = u - t;
  }
}

/// One sequence at width W. The vector covers W/2 adjacent butterflies of
/// one block; `complex_mul` and the conj mask keep each pair's rounding
/// identical to the W=1 `b[j] * wj` (products commute, x + (-1)*y == x - y,
/// IEEE addition is commutative). The scaling is element-wise over the
/// interleaved doubles, so it matches the complex `v *= scale`. The
/// direction is a template parameter so no butterfly loop tests it.
template <std::size_t W, bool kInvert>
VPAR_SIMD_INLINE void radix2_w(Complex* seq, std::size_t n,
                               const TwiddleTables& tables) {
  using simd::load;
  using simd::store;
  const std::size_t* bitrev = tables.bitrev.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bitrev[i];
    if (i < j) std::swap(seq[i], seq[j]);
  }

  const Complex* twiddle = tables.twiddle.data();
  constexpr std::size_t kC = W > 1 ? W / 2 : 1;  // complexes per vector
  std::size_t tw_base = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t jv = W > 1 ? half / kC * kC : 0;
    for (std::size_t start = 0; start < n; start += len) {
      if constexpr (W > 1) {
        const double* twd = reinterpret_cast<const double*>(twiddle + tw_base);
        double* da = reinterpret_cast<double*>(seq + start);
        double* db = da + 2 * half;
        for (std::size_t j = 0; j < jv; j += kC) {
          simd::vec<W> vw = load<W>(twd + 2 * j);
          if constexpr (kInvert) vw = vw * simd::conj_mask<W>();
          const simd::vec<W> va = load<W>(da + 2 * j);
          const simd::vec<W> t = simd::complex_mul<W>(load<W>(db + 2 * j), vw);
          store<W>(da + 2 * j, va + t);
          store<W>(db + 2 * j, va - t);
        }
      }
      butterflies<kInvert>(seq + start, seq + start + half, twiddle + tw_base,
                           jv, half);
    }
    tw_base += half;
  }

  if constexpr (kInvert) {
    const double scale = 1.0 / static_cast<double>(n);
    double* d = reinterpret_cast<double*>(seq);
    const std::size_t nv = 2 * n / W * W;
    for (std::size_t i = 0; i < nv; i += W) {
      store<W>(d + i, load<W>(d + i) * simd::splat<W>(scale));
    }
    for (std::size_t i = nv; i < 2 * n; ++i) d[i] *= scale;
  }
}

}  // namespace

namespace detail {

void radix2(Complex* data, std::size_t n, std::size_t count,
            const TwiddleTables& tables, bool invert, std::size_t width) {
  simd::dispatch(
      [&]<std::size_t W>() VPAR_SIMD_BODY {
        for (std::size_t t = 0; t < count; ++t) {
          if (invert) {
            radix2_w<W, true>(data + t * n, n, tables);
          } else {
            radix2_w<W, false>(data + t * n, n, tables);
          }
        }
      },
      width);
}

void record_radix2(std::size_t width, std::size_t n, std::size_t count) {
  if (width <= 1) return;
  const std::size_t kc = width / 2;
  // Stages with half >= kc have no tail (both are powers of two): their
  // full vectors go into one record; each shorter stage records its blocks'
  // 2*half-lane partial iterations.
  std::size_t full = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t blocks = count * (n / len);
    if (half >= kc) {
      full += blocks * (half / kc);
    } else {
      simd::record_spans(width, blocks, 0, 2 * half);
    }
  }
  simd::record_spans(width, 1, full, 0);
}

}  // namespace detail

/// Bluestein chirp-z machinery for arbitrary lengths: x_k * chirp convolved
/// with the conjugate chirp via a power-of-two cyclic convolution.
struct Fft1d::Bluestein {
  explicit Bluestein(std::size_t n)
      : n(n), m(next_power_of_two(2 * n - 1)), inner(m), chirp(n), b_fft(m) {
    for (std::size_t k = 0; k < n; ++k) {
      // w_k = exp(-i pi k^2 / n); compute k^2 mod 2n to avoid precision loss.
      const std::size_t k2 = (k * k) % (2 * n);
      const double angle = -std::numbers::pi * static_cast<double>(k2) /
                           static_cast<double>(n);
      chirp[k] = Complex(std::cos(angle), std::sin(angle));
    }
    // b_j = conj(chirp_j) extended cyclically; transform once.
    for (std::size_t k = 0; k < n; ++k) {
      b_fft[k] = std::conj(chirp[k]);
      if (k != 0) b_fft[m - k] = std::conj(chirp[k]);
    }
    inner.forward(b_fft);
  }

  std::size_t n;
  std::size_t m;
  Fft1d inner;
  std::vector<Complex> chirp;
  std::vector<Complex> b_fft;
};

Fft1d::Fft1d(std::size_t n) : n_(n) {
  if (n == 0) throw std::runtime_error("Fft1d: zero length");
  if (is_power_of_two(n)) {
    tables_ = twiddle_tables(n);
  } else {
    bluestein_ = std::make_unique<Bluestein>(n);
  }
}

Fft1d::~Fft1d() = default;
Fft1d::Fft1d(Fft1d&&) noexcept = default;
Fft1d& Fft1d::operator=(Fft1d&&) noexcept = default;

void Fft1d::radix2(std::span<Complex> data, bool invert) const {
  const std::size_t w = simd::active_width();
  detail::radix2(data.data(), n_, 1, *tables_, invert, w);
  detail::record_radix2(w, n_, 1);
  const std::size_t n = n_;
  // One radix-2 transform: log2(n) stages of n/2 butterflies, 10 flops each.
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(log2_exact(n));
  rec.trips = static_cast<double>(n / 2);
  rec.flops_per_trip = 10.0;
  rec.bytes_per_trip = 64.0;  // 2 complex loads + 2 complex stores
  rec.access = perf::AccessPattern::Strided;
  rec.working_set_bytes = static_cast<double>(n) * sizeof(Complex);
  perf::record_loop("fft1d", rec);
}

void Fft1d::forward(std::span<Complex> data) const {
  if (data.size() != n_) throw std::runtime_error("Fft1d::forward: size mismatch");
  if (bluestein_ == nullptr) {
    radix2(data, false);
    return;
  }
  auto& bs = *bluestein_;
  // Convolution scratch, reused across calls on this thread. The inner plan
  // is a power of two, so its transforms never re-enter this path.
  static thread_local std::vector<Complex> a;
  a.assign(bs.m, Complex{});
  for (std::size_t k = 0; k < n_; ++k) a[k] = data[k] * bs.chirp[k];
  bs.inner.forward(a);
  for (std::size_t k = 0; k < bs.m; ++k) a[k] *= bs.b_fft[k];
  bs.inner.inverse(a);
  for (std::size_t k = 0; k < n_; ++k) data[k] = a[k] * bs.chirp[k];
}

void Fft1d::inverse(std::span<Complex> data) const {
  if (data.size() != n_) throw std::runtime_error("Fft1d::inverse: size mismatch");
  if (bluestein_ == nullptr) {
    radix2(data, true);
    return;
  }
  // inverse(x) = conj(forward(conj(x))) / n
  for (auto& v : data) v = std::conj(v);
  forward(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v = std::conj(v) * scale;
}

double Fft1d::flop_count() const {
  if (bluestein_ == nullptr) {
    return 5.0 * static_cast<double>(n_) * static_cast<double>(log2_exact(n_));
  }
  const auto& bs = *bluestein_;
  const double inner_flops = bs.inner.flop_count();
  // Three inner transforms plus three pointwise complex multiplies.
  return 3.0 * inner_flops + 6.0 * static_cast<double>(2 * n_ + bs.m);
}

}  // namespace vpar::fft
