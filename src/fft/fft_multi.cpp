#include "fft/fft_multi.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simrt/parallel.hpp"

namespace vpar::fft {

namespace {
unsigned log2_exact(std::size_t n) {
  unsigned l = 0;
  while ((std::size_t{1} << l) < n) ++l;
  return l;
}
}  // namespace

MultiFft1d::MultiFft1d(std::size_t n) : n_(n), plan_(n) {
  if (!Fft1d::is_power_of_two(n)) {
    throw std::runtime_error("MultiFft1d: power-of-two length required");
  }
  tables_ = twiddle_tables(n);
}

void MultiFft1d::looped(std::span<Complex> data, std::size_t count, bool invert) const {
  if (data.size() != n_ * count) throw std::runtime_error("MultiFft1d: size mismatch");
  for (std::size_t t = 0; t < count; ++t) {
    auto seq = data.subspan(t * n_, n_);
    if (invert) {
      plan_.inverse(seq);
    } else {
      plan_.forward(seq);
    }
  }
}

void MultiFft1d::simultaneous(std::span<Complex> data, std::size_t count,
                              bool invert) const {
  if (data.size() != n_ * count) throw std::runtime_error("MultiFft1d: size mismatch");
  const std::size_t n = n_;
  const TwiddleTables& tables = *tables_;

  // The `count` sequences are fully independent, so the batch splits across
  // idle pool workers into sub-batches (bitwise-identical per sequence: a
  // sequence's operation order does not depend on its sub-batch). With no
  // helpers available, transform the batch directly, keeping the hot serial
  // path free of the std::function indirection.
  const std::size_t w = simd::active_width();
  if (simrt::parallel_width() == 1) {
    detail::radix2(data.data(), n, count, tables, invert, w);
  } else {
    simrt::parallel_for(0, count, 0, [&](std::size_t t0, std::size_t t1) {
      detail::radix2(data.data() + t0 * n, n, t1 - t0, tables, invert, w);
    });
  }
  detail::record_radix2(w, n, count);

  // The vector loop is the batch loop: trips == count, independent of n.
  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(log2_exact(n)) * static_cast<double>(n / 2);
  rec.trips = static_cast<double>(count);
  rec.flops_per_trip = 10.0;
  rec.bytes_per_trip = 64.0;
  // The batch loop walks lanes at a constant stride; with the usual bank
  // padding this streams at full rate (unlike a single transform's
  // butterfly loop, whose stride halves every stage).
  rec.access = perf::AccessPattern::Stream;
  rec.working_set_bytes =
      static_cast<double>(n) * static_cast<double>(count) * sizeof(Complex);
  perf::record_loop("fft_multi", rec);
}

}  // namespace vpar::fft
