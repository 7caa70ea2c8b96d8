#pragma once

#include <span>
#include <vector>

#include "fft/fft1d.hpp"

namespace vpar::fft {

/// Batched 1D FFTs over `count` sequences of length n stored back to back
/// (sequence t occupies data[t*n .. t*n + n)).
///
/// Two code paths implement the transformation the paper describes for
/// PARATEC (§4.1):
///
///  - looped():        calls the 1D transform once per sequence. On a vector
///                     machine the vector loop is the n/2-butterfly loop, so
///                     short transforms mean short vectors and poor
///                     efficiency — this is the "standard vendor 1D FFT"
///                     behaviour.
///  - simultaneous():  the paper's restructuring, where the innermost loop
///                     runs across the batch, so the vector length becomes
///                     the batch size, independent of n. That is the loop
///                     this call records for the machine models. On the host
///                     the whole batch runs through the width-templated
///                     per-sequence body in one SIMD dispatch (a short
///                     host vector fills from the j loop; the batch-inner
///                     walk would stride n complexes).
///
/// Both paths produce identical results (tests enforce bit-equality of the
/// algorithmic ordering); only the recorded instrumentation and the
/// dispatch count differ. Power-of-two n only.
class MultiFft1d {
 public:
  explicit MultiFft1d(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  void looped(std::span<Complex> data, std::size_t count, bool invert = false) const;
  void simultaneous(std::span<Complex> data, std::size_t count,
                    bool invert = false) const;

  /// Flops for transforming `count` sequences.
  [[nodiscard]] double flop_count(std::size_t count) const {
    return plan_.flop_count() * static_cast<double>(count);
  }

 private:
  std::size_t n_;
  Fft1d plan_;
  std::shared_ptr<const TwiddleTables> tables_;  // shared with plan_'s cache entry
};

}  // namespace vpar::fft
