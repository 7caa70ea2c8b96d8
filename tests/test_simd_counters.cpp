#include <gtest/gtest.h>

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "blas/blas.hpp"
#include "cactus/adm.hpp"
#include "cactus/grid.hpp"
#include "fft/fft_multi.hpp"
#include "gtc/deposition.hpp"
#include "gtc/push.hpp"
#include "lbmhd/collision.hpp"
#include "lbmhd/field_set.hpp"
#include "qcd/dslash.hpp"
#include "qcd/simulation.hpp"
#include "simd/dispatch.hpp"
#include "simrt/runtime.hpp"
#include "trace/metrics.hpp"

// Every public SIMD kernel records the VOR/AVL counters (simd.vector_iters,
// simd.remainder_iters, the simd.lanes_active histogram) once per call, from
// the call's shape. Each test runs one kernel under ForceSimd at an odd shape
// and checks the exact closed-form deltas for active_width(), so the hoisted
// records cannot drift from the strips the kernel actually runs. Scalar
// builds (width 1) record nothing.

namespace vpar {
namespace {

class DispatchGuard {
 public:
  explicit DispatchGuard(simd::DispatchMode m) : prev_(simd::dispatch_mode()) {
    simd::set_dispatch_mode(m);
  }
  ~DispatchGuard() { simd::set_dispatch_mode(prev_); }

 private:
  simd::DispatchMode prev_;
};

struct Counts {
  std::uint64_t vector_iters = 0;
  std::uint64_t remainder_iters = 0;
  std::uint64_t lanes_count = 0;
  std::uint64_t lanes_sum = 0;

  static Counts now() {
    auto& m = trace::Metrics::instance();
    return {m.counter("simd.vector_iters").value(),
            m.counter("simd.remainder_iters").value(),
            m.histogram("simd.lanes_active").count(),
            m.histogram("simd.lanes_active").sum()};
  }

  /// Add `spans` spans of `vec` full-width iterations plus a `rem`-lane
  /// partial iteration at width `w` (nothing at w == 1).
  void add(std::size_t w, std::size_t spans, std::size_t vec, std::size_t rem) {
    if (w <= 1) return;
    vector_iters += spans * vec;
    remainder_iters += spans * rem;
    lanes_count += spans * vec + (rem != 0 ? spans : 0);
    lanes_sum += w * spans * vec + rem * spans;
  }
};

/// Run `call` under ForceSimd and compare its counter deltas with `expected`.
template <typename Call>
void ExpectCounts(const Counts& expected, Call&& call) {
  DispatchGuard g(simd::DispatchMode::ForceSimd);
  const Counts before = Counts::now();
  call();
  const Counts after = Counts::now();
  EXPECT_EQ(after.vector_iters - before.vector_iters, expected.vector_iters);
  EXPECT_EQ(after.remainder_iters - before.remainder_iters, expected.remainder_iters);
  EXPECT_EQ(after.lanes_count - before.lanes_count, expected.lanes_count);
  EXPECT_EQ(after.lanes_sum - before.lanes_sum, expected.lanes_sum);
}

std::size_t width() { return simd::preferred_width(); }

TEST(SimdCounters, LbmhdCollideFlat) {
  const std::size_t w = width();
  lbmhd::FieldSet fs(33, 3);
  for (std::size_t i = 0; i < fs.raw().size(); ++i) {
    fs.raw()[i] = i < 9 * fs.plane_size() ? 0.1 : 0.001;
  }
  Counts want;
  want.add(w, 3, 33 / w, 33 % w);  // 3 rows of 33 points
  ExpectCounts(want, [&] { lbmhd::collide_flat(fs, lbmhd::CollisionParams{}); });
}

TEST(SimdCounters, LbmhdCollideBlocked) {
  const std::size_t w = width();
  lbmhd::FieldSet fs(33, 3);
  for (std::size_t i = 0; i < fs.raw().size(); ++i) {
    fs.raw()[i] = i < 9 * fs.plane_size() ? 0.1 : 0.001;
  }
  Counts want;
  want.add(w, 3 * 2, 13 / w, 13 % w);  // two 13-point blocks per row
  want.add(w, 3, 7 / w, 7 % w);         // and the 7-point tail block
  ExpectCounts(want, [&] { lbmhd::collide_blocked(fs, lbmhd::CollisionParams{}, 13); });
}

TEST(SimdCounters, CactusComputeRhs) {
  const std::size_t w = width();
  // 131 points per row crosses the 128-point chunk seam; 3 x 2 rows.
  cactus::GridFunctions state(cactus::kNumFields, 131, 3, 2);
  for (auto& v : state.raw()) v = 0.001;
  cactus::GridFunctions rhs(cactus::kNumFields, 131, 3, 2);
  Counts vector_want;
  vector_want.add(w, 6, 131 / w, 131 % w);
  ExpectCounts(vector_want, [&] {
    cactus::compute_rhs(state, rhs, 0.25, 0, 131, 0, 3, 0, 2, cactus::RhsVariant::Vector);
  });
  Counts blocked_want;
  blocked_want.add(w, 6 * 2, 50 / w, 50 % w);  // two 50-point tiles per row
  blocked_want.add(w, 6, 31 / w, 31 % w);      // and the 31-point tail tile
  ExpectCounts(blocked_want, [&] {
    cactus::compute_rhs(state, rhs, 0.25, 0, 131, 0, 3, 0, 2, cactus::RhsVariant::Blocked,
                        50);
  });
}

gtc::ParticleSet spread_particles(const gtc::TorusGrid& grid, std::size_t n) {
  gtc::ParticleSet p;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    p.push_back(f * static_cast<double>(grid.ngx()), f * static_cast<double>(grid.ngy()),
                grid.zeta_min() + f * (grid.zeta_max() - grid.zeta_min()), 0.1, 1.0, 1.0);
  }
  return p;
}

TEST(SimdCounters, GtcGatherPushAndDepositFold) {
  const std::size_t w = width();
  simrt::run(1, [&](simrt::Communicator& comm) {
    gtc::TorusGrid grid(16, 12, 4, comm.size(), comm.rank());
    gtc::ParticleSet p = spread_particles(grid, 37);
    const std::vector<double> ghost(grid.plane_size(), 0.0);
    // The push is scalar at every dispatch mode: it records nothing.
    ExpectCounts(Counts{}, [&] { gtc::gather_push(p, grid, ghost, ghost, 0.01, 1.0); });

    // The work-vector fold sweeps vlen private copies of the charge grid.
    const std::size_t copy = static_cast<std::size_t>(grid.planes_local() + 1) * grid.plane_size();
    Counts fold_want;
    fold_want.add(w, 5, copy / w, copy % w);
    ExpectCounts(fold_want, [&] { gtc::deposit(p, grid, gtc::DepositVariant::WorkVector, 5); });
  });
}

TEST(SimdCounters, FftMultiSimultaneous) {
  const std::size_t w = width();
  const std::size_t n = 16, count = 5;
  std::vector<std::complex<double>> data(n * count, {1.0, 0.5});
  const fft::MultiFft1d plan(n);
  // Per stage, each of the n/len blocks of every sequence runs half/(w/2)
  // full vectors of w/2 butterflies and half%(w/2) single butterflies of 2
  // doubles each.
  Counts want;
  const std::size_t kc = w / 2;
  for (std::size_t len = 2; len <= n && w > 1; len <<= 1) {
    const std::size_t half = len / 2;
    want.add(w, count * (n / len), half / kc, 2 * (half % kc));
  }
  ExpectCounts(want, [&] { plan.simultaneous(data, count); });
}

TEST(SimdCounters, GemmRealAndComplex) {
  const std::size_t w = width();
  const std::size_t m = 7, n = 9, k = 5;
  // Every (i, p) pair is one span over the 9 columns of C.
  std::vector<double> a(m * k, 0.5), b(k * n, 0.25), c(m * n, 0.0);
  Counts real_want;
  real_want.add(w, m * k, n / w, n % w);
  ExpectCounts(real_want, [&] {
    blas::gemm(blas::Trans::None, blas::Trans::None, m, n, k, 1.0, a.data(), k, b.data(), n,
               0.0, c.data(), n);
  });

  using Complex = std::complex<double>;
  std::vector<Complex> ac(m * k, {0.5, 0.1}), bc(k * n, {0.25, -0.2}), cc(m * n);
  Counts cplx_want;
  if (w > 1) cplx_want.add(w, m * k, n / (w / 2), 2 * (n % (w / 2)));
  ExpectCounts(cplx_want, [&] {
    blas::gemm(blas::Trans::None, blas::Trans::None, m, n, k, Complex(1.0, 0.0), ac.data(), k,
               bc.data(), n, Complex(0.0, 0.0), cc.data(), n);
  });
}

TEST(SimdCounters, QcdApplyDslash) {
  const std::size_t w = width();
  simrt::run(1, [&](simrt::Communicator& comm) {
    qcd::Options opt;
    opt.nx = 14;  // 7 half-lattice sites per row
    opt.ny = 2;
    opt.nz = 2;
    opt.nt = 2;
    qcd::Simulation sim(comm, opt);
    const qcd::HalfGeom& geom = sim.geom();
    std::vector<double> in(qcd::kPlanes * geom.layout.total(), 0.5);
    std::vector<double> out(in.size(), 0.0);
    std::array<double*, qcd::kPlanes> op{};
    std::array<const double*, qcd::kPlanes> ip{};
    for (std::size_t i = 0; i < qcd::kPlanes; ++i) {
      op[i] = out.data() + i * geom.layout.total();
      ip[i] = in.data() + i * geom.layout.total();
    }
    const std::size_t nxh = geom.n[0], rows = geom.n[1] * geom.n[2] * geom.n[3];
    ASSERT_EQ(nxh, 7u);
    Counts want;
    want.add(w, rows, nxh / w, nxh % w);
    ExpectCounts(want, [&] { qcd::apply_dslash(op, ip, geom, 0); });
  });
}

}  // namespace
}  // namespace vpar
