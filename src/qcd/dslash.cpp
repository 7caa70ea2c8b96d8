#include "qcd/dslash.hpp"

#include <array>

#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"
#include "simrt/parallel.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace vpar::qcd {

namespace {

/// Per-row kernel arguments: output rows of the target parity and, per
/// direction, the source-parity neighbor rows (x offsets already applied),
/// plus the row-constant staggered phases.
struct RowPointers {
  std::array<double*, kPlanes> out{};
  std::array<std::array<const double*, kPlanes>, 4> fwd{};
  std::array<std::array<const double*, kPlanes>, 4> bwd{};
  std::array<double, 4> eta{};
};

/// Width-templated staggered-Dslash row body: W=1 is the scalar path and the
/// tail of the wider instantiations, which all execute the identical
/// expression tree, so every width produces bitwise-identical rows.
///
/// out(x) = sum_mu eta_mu [ U_mu psi(x+mu) - U_mu^dagger psi(x-mu) ]
/// over sites i0..i1 of one (y,z,t) row of the target parity. All neighbor
/// rows are stride-1 in the half-lattice x index (the even/odd split makes
/// the x offsets row constants), so every load is a contiguous vector load.
template <std::size_t W>
VPAR_SIMD_INLINE void dslash_row_w(const RowPointers& p, std::size_t i0,
                                   std::size_t i1) {
  using V = simd::vec<W>;
  using simd::load;
  using simd::splat;
  using simd::store;
  const LinkMatrices& u = links();

  for (std::size_t i = i0; i < i1; i += W) {
    V acc_re[kColors], acc_im[kColors];
    for (std::size_t c = 0; c < kColors; ++c) {
      acc_re[c] = splat<W>(0.0);
      acc_im[c] = splat<W>(0.0);
    }
    for (std::size_t mu = 0; mu < 4; ++mu) {
      const V eta = splat<W>(p.eta[mu]);
      V fr[kColors], fi[kColors], br[kColors], bi[kColors];
      for (std::size_t d = 0; d < kColors; ++d) {
        fr[d] = load<W>(p.fwd[mu][2 * d] + i);
        fi[d] = load<W>(p.fwd[mu][2 * d + 1] + i);
        br[d] = load<W>(p.bwd[mu][2 * d] + i);
        bi[d] = load<W>(p.bwd[mu][2 * d + 1] + i);
      }
      for (std::size_t c = 0; c < kColors; ++c) {
        V tre = splat<W>(0.0), tim = splat<W>(0.0);
        V sre = splat<W>(0.0), sim = splat<W>(0.0);
        for (std::size_t d = 0; d < kColors; ++d) {
          const V ur = splat<W>(u.re[mu][c][d]);
          const V ui = splat<W>(u.im[mu][c][d]);
          tre = tre + (ur * fr[d] - ui * fi[d]);
          tim = tim + (ur * fi[d] + ui * fr[d]);
          // Backward hop applies U^dagger: conj(U[d][c]).
          const V vr = splat<W>(u.re[mu][d][c]);
          const V vi = splat<W>(u.im[mu][d][c]);
          sre = sre + (vr * br[d] + vi * bi[d]);
          sim = sim + (vr * bi[d] - vi * br[d]);
        }
        acc_re[c] = acc_re[c] + eta * (tre - sre);
        acc_im[c] = acc_im[c] + eta * (tim - sim);
      }
    }
    for (std::size_t c = 0; c < kColors; ++c) {
      store<W>(p.out[2 * c] + i, acc_re[c]);
      store<W>(p.out[2 * c + 1] + i, acc_im[c]);
    }
  }
}

/// Row r = y + nyl * (z + nzl * t) of the target parity.
RowPointers row_pointers(const std::array<double*, kPlanes>& out,
                         const std::array<const double*, kPlanes>& src,
                         const HalfGeom& geom, int target_parity,
                         std::size_t r) {
  const std::size_t nyl = geom.n[1], nzl = geom.n[2];
  const auto y = static_cast<std::ptrdiff_t>(r % nyl);
  const auto z = static_cast<std::ptrdiff_t>((r / nyl) % nzl);
  const auto t = static_cast<std::ptrdiff_t>(r / (nyl * nzl));
  const std::ptrdiff_t gy = geom.origin[1] + y;
  const std::ptrdiff_t gz = geom.origin[2] + z;
  const std::ptrdiff_t gt = geom.origin[3] + t;
  // Full-x parity of this row's target-parity sites. Block x origins are
  // even (enforced by the decomposition), so global and local x parity
  // agree; x+1 neighbors sit at half index xh+q, x-1 at xh+q-1.
  const std::ptrdiff_t q = (target_parity + gy + gz + gt) & 1;

  RowPointers p;
  for (std::size_t mu = 0; mu < 4; ++mu) {
    p.eta[mu] = staggered_eta(mu, q, gy, gz);
  }
  const part::Index<4> row_idx{{0, y, z, t}};
  const std::size_t base = geom.layout.offset(row_idx);
  const auto sy = static_cast<std::ptrdiff_t>(geom.layout.stride[1]);
  const auto sz = static_cast<std::ptrdiff_t>(geom.layout.stride[2]);
  const auto st = static_cast<std::ptrdiff_t>(geom.layout.stride[3]);
  for (std::size_t pl = 0; pl < kPlanes; ++pl) {
    p.out[pl] = out[pl] + base;
    const double* s = src[pl] + base;
    p.fwd[0][pl] = s + q;
    p.bwd[0][pl] = s + q - 1;
    p.fwd[1][pl] = s + sy;
    p.bwd[1][pl] = s - sy;
    p.fwd[2][pl] = s + sz;
    p.bwd[2][pl] = s - sz;
    p.fwd[3][pl] = s + st;
    p.bwd[3][pl] = s - st;
  }
  return p;
}

}  // namespace

void apply_dslash(std::array<double*, kPlanes> out,
                  std::array<const double*, kPlanes> src, const HalfGeom& geom,
                  int target_parity) {
  const std::size_t nxh = geom.n[0];
  const std::size_t nyl = geom.n[1], nzl = geom.n[2], ntl = geom.n[3];
  const std::size_t rows = nyl * nzl * ntl;
  trace::TraceSpan span("qcd.dslash", static_cast<std::int64_t>(nxh),
                        static_cast<std::int64_t>(rows));
  const std::size_t w = simd::active_width();

  // Rows write disjoint x spans of every output plane, so splitting the row
  // sweep across idle pool workers is bitwise-safe (see simrt/parallel.hpp).
  simrt::parallel_for(0, rows, 0, [&](std::size_t r0, std::size_t r1) {
    simd::dispatch(
        [&]<std::size_t W>() VPAR_SIMD_BODY {
          const std::size_t nv = nxh / W * W;
          for (std::size_t r = r0; r < r1; ++r) {
            const RowPointers p = row_pointers(out, src, geom, target_parity, r);
            dslash_row_w<W>(p, 0, nv);
            dslash_row_w<1>(p, nv, nxh);
          }
        },
        w);
  });
  simd::record_spans(w, rows, nxh / w, nxh % w);

  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.instances = static_cast<double>(rows);
  rec.trips = static_cast<double>(nxh);
  rec.flops_per_trip = dslash_flops_per_site();
  rec.bytes_per_trip = dslash_bytes_per_site();
  rec.access = perf::AccessPattern::Stream;
  perf::record_loop("dslash", rec);

  static trace::Counter& sites =
      trace::Metrics::instance().counter("qcd.dslash_sites");
  sites.add(rows * nxh);
}

}  // namespace vpar::qcd
