#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fft/twiddle.hpp"

namespace vpar::fft {

using Complex = std::complex<double>;

/// Plan-based 1D complex-to-complex FFT.
///
/// Power-of-two lengths use an iterative radix-2 decimation-in-time
/// transform; other lengths fall back to Bluestein's chirp-z algorithm built
/// on an internal power-of-two plan. Forward is unnormalized; inverse applies
/// the 1/n factor, so inverse(forward(x)) == x.
class Fft1d {
 public:
  explicit Fft1d(std::size_t n);
  ~Fft1d();
  Fft1d(Fft1d&&) noexcept;
  Fft1d& operator=(Fft1d&&) noexcept;
  Fft1d(const Fft1d&) = delete;
  Fft1d& operator=(const Fft1d&) = delete;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place transforms; data.size() must equal size().
  void forward(std::span<Complex> data) const;
  void inverse(std::span<Complex> data) const;

  /// Flops of one transform of this length (the standard 5 n log2 n count
  /// for powers of two; Bluestein counts its three internal transforms).
  [[nodiscard]] double flop_count() const;

  [[nodiscard]] static bool is_power_of_two(std::size_t n) {
    return n != 0 && (n & (n - 1)) == 0;
  }

 private:
  struct Bluestein;

  void radix2(std::span<Complex> data, bool invert) const;

  std::size_t n_;
  std::shared_ptr<const TwiddleTables> tables_;  // radix-2 only, shared cache
  std::unique_ptr<Bluestein> bluestein_;         // non-power-of-two only
};

namespace detail {

/// In-place radix-2 DIT transforms of `count` back-to-back length-`n`
/// sequences (`n` a power of two) at SIMD width `width`, one dispatch for
/// the batch. Each sequence runs the bit-reversal permutation, every
/// butterfly stage with the j loop over W/2 interleaved complexes (data and
/// twiddles are both j-contiguous), and the 1/n scaling when inverting.
/// Stages whose `half` is shorter than a vector run the W=1 butterfly — the
/// short-vector-length regime of single-transform FFTs the paper measures
/// (§5.4). Every width rounds identically, so results are bitwise equal.
void radix2(Complex* data, std::size_t n, std::size_t count,
            const TwiddleTables& tables, bool invert, std::size_t width);

/// Record the simd spans of `count` radix-2 transforms of length `n` at
/// `width`: per stage, every block runs half/(width/2) full vectors plus
/// half%(width/2) W=1 butterflies of 2 doubles each.
void record_radix2(std::size_t width, std::size_t n, std::size_t count);

}  // namespace detail

}  // namespace vpar::fft
