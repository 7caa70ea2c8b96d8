#include "cactus/adm.hpp"

#include <algorithm>
#include <cmath>

#include "cactus/deriv.hpp"
#include "perf/recorder.hpp"
#include "simd/dispatch.hpp"
#include "simd/simd.hpp"
#include "simrt/parallel.hpp"
#include "trace/trace.hpp"

namespace vpar::cactus {

namespace {

/// Second-derivative table of all six h components for all six (a<=b)
/// derivative pairs at one point. dd[pair][component].
struct DerivTable {
  double dd[6][6];
};

inline void second_derivatives(const GridFunctions& state, std::size_t o,
                               double inv_12h2, double inv_144h2, DerivTable& t) {
  const std::ptrdiff_t s[3] = {state.sx(), state.sy(), state.sz()};
  for (int m = 0; m < 6; ++m) {
    const double* p = state.field(HXX + m) + o;
    // Pure derivatives: pairs (0,0), (1,1), (2,2) = sym indices 0, 3, 5.
    t.dd[sym(0, 0)][m] = d2(p, s[0], inv_12h2);
    t.dd[sym(1, 1)][m] = d2(p, s[1], inv_12h2);
    t.dd[sym(2, 2)][m] = d2(p, s[2], inv_12h2);
    // Mixed derivatives: (0,1), (0,2), (1,2) = sym indices 1, 2, 4.
    t.dd[sym(0, 1)][m] = d11(p, s[0], s[1], inv_144h2);
    t.dd[sym(0, 2)][m] = d11(p, s[0], s[2], inv_144h2);
    t.dd[sym(1, 2)][m] = d11(p, s[1], s[2], inv_144h2);
  }
}

/// Pencil chunk width of the RHS row kernel: long enough for full vector
/// lanes, small enough that the chunk's derivative slices (36 pencils) stay
/// L1/L2-resident. A multiple of every vector width.
constexpr std::size_t kRowChunk = 128;

/// All 26 grid-function base pointers, hoisted out of the sweep once.
struct FieldPointers {
  const double* h[6];
  const double* k[6];
  double* rhs_h[6];
  double* rhs_k[6];
  double* rhs_lapse;
};

FieldPointers field_pointers(const GridFunctions& state, GridFunctions& rhs) {
  FieldPointers p{};
  for (int m = 0; m < 6; ++m) {
    p.h[m] = state.field(HXX + m);
    p.k[m] = state.field(KXX + m);
    p.rhs_h[m] = rhs.field(HXX + m);
    p.rhs_k[m] = rhs.field(KXX + m);
  }
  p.rhs_lapse = rhs.field(LAPSE);
  return p;
}

using simd::load;
using simd::splat;
using simd::store;

/// Lane i = d2(p + i, s): the cactus/deriv.hpp stencil, same association.
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vd2(const double* p, std::ptrdiff_t s,
                                  double inv_12h2) {
  return (-load<W>(p + 2 * s) + splat<W>(16.0) * load<W>(p + s) -
          splat<W>(30.0) * load<W>(p) + splat<W>(16.0) * load<W>(p - s) -
          load<W>(p - 2 * s)) *
         splat<W>(inv_12h2);
}

template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vrow4(const double* p, std::ptrdiff_t off,
                                    std::ptrdiff_t sb) {
  return -load<W>(p + off + 2 * sb) + splat<W>(8.0) * load<W>(p + off + sb) -
         splat<W>(8.0) * load<W>(p + off - sb) + load<W>(p + off - 2 * sb);
}

/// Lane i = d11(p + i, sa, sb).
template <std::size_t W>
VPAR_SIMD_INLINE simd::vec<W> vd11(const double* p, std::ptrdiff_t sa,
                                   std::ptrdiff_t sb, double inv_144h2) {
  return (-vrow4<W>(p, 2 * sa, sb) + splat<W>(8.0) * vrow4<W>(p, sa, sb) -
          splat<W>(8.0) * vrow4<W>(p, -sa, sb) + vrow4<W>(p, -2 * sa, sb)) *
         splat<W>(inv_144h2);
}

/// Chunk kernel: linearized ADM right-hand sides for points [i0, i1) of the
/// pencil chunk at flat offset `base` ((i1 - i0) % W == 0, i1 <= kRowChunk).
/// Instead of filling a per-point derivative table (which spills registers
/// and reloads the field pointer table at every point), each of the 36
/// second-derivative stencils is applied to the whole pencil into a chunk
/// slice buffer, and the Ricci assembly then runs over flat unit-stride
/// pencils. Every stage indexes the slices by the absolute point index, so
/// the W-wide strip and the W=1 tail can split one chunk. The arithmetic per
/// point is the reference point kernel's, in the same order, at every W.
template <std::size_t W>
VPAR_SIMD_INLINE void rhs_chunk_w(const FieldPointers& f, std::ptrdiff_t s0,
                                  std::ptrdiff_t s1, std::ptrdiff_t s2,
                                  std::size_t base, std::size_t i0,
                                  std::size_t i1, double inv_12h2,
                                  double inv_144h2) {
  using V = simd::vec<W>;
  double dd[6][6][kRowChunk];  // [derivative pair][component][point]
  double ddtr[6][kRowChunk];   // d_i d_j (tr h) per pair

  for (int m = 0; m < 6; ++m) {
    const double* __restrict p = f.h[m] + base;
    // Pure derivatives: pairs (0,0), (1,1), (2,2) = sym indices 0, 3, 5.
    double* __restrict q00 = dd[sym(0, 0)][m];
    double* __restrict q11 = dd[sym(1, 1)][m];
    double* __restrict q22 = dd[sym(2, 2)][m];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q00 + i, vd2<W>(p + i, s0, inv_12h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q11 + i, vd2<W>(p + i, s1, inv_12h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q22 + i, vd2<W>(p + i, s2, inv_12h2));
    // Mixed derivatives: (0,1), (0,2), (1,2) = sym indices 1, 2, 4.
    double* __restrict q01 = dd[sym(0, 1)][m];
    double* __restrict q02 = dd[sym(0, 2)][m];
    double* __restrict q12 = dd[sym(1, 2)][m];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q01 + i, vd11<W>(p + i, s0, s1, inv_144h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q02 + i, vd11<W>(p + i, s0, s2, inv_144h2));
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q12 + i, vd11<W>(p + i, s1, s2, inv_144h2));
  }

  for (int pr = 0; pr < 6; ++pr) {
    const double* __restrict a = dd[pr][sym(0, 0)];
    const double* __restrict b = dd[pr][sym(1, 1)];
    const double* __restrict c = dd[pr][sym(2, 2)];
    double* __restrict q = ddtr[pr];
    for (std::size_t i = i0; i < i1; i += W)
      store<W>(q + i, load<W>(a + i) + load<W>(b + i) + load<W>(c + i));
  }

  {
    const double* __restrict k0 = f.k[sym(0, 0)] + base;
    const double* __restrict k1 = f.k[sym(1, 1)] + base;
    const double* __restrict k2 = f.k[sym(2, 2)] + base;
    double* __restrict out = f.rhs_lapse + base;
    for (std::size_t i = i0; i < i1; i += W) {
      V trk = splat<W>(0.0) + load<W>(k0 + i);
      trk = trk + load<W>(k1 + i);
      trk = trk + load<W>(k2 + i);
      store<W>(out + i, splat<W>(-2.0) * trk);
    }
  }

  for (int a = 0; a < 3; ++a) {
    for (int b = a; b < 3; ++b) {
      const int m = sym(a, b);
      // Sum_k dk da h_bk and Sum_k dk db h_ak, one pencil per addend.
      const double* __restrict t1x = dd[sym(0, a)][sym(b, 0)];
      const double* __restrict t1y = dd[sym(1, a)][sym(b, 1)];
      const double* __restrict t1z = dd[sym(2, a)][sym(b, 2)];
      const double* __restrict t2x = dd[sym(0, b)][sym(a, 0)];
      const double* __restrict t2y = dd[sym(1, b)][sym(a, 1)];
      const double* __restrict t2z = dd[sym(2, b)][sym(a, 2)];
      const double* __restrict l0 = dd[sym(0, 0)][m];
      const double* __restrict l1 = dd[sym(1, 1)][m];
      const double* __restrict l2 = dd[sym(2, 2)][m];
      const double* __restrict dt = ddtr[m];
      const double* __restrict km = f.k[m] + base;
      double* __restrict out_h = f.rhs_h[m] + base;
      double* __restrict out_k = f.rhs_k[m] + base;
      for (std::size_t i = i0; i < i1; i += W) {
        V term1 = splat<W>(0.0) + load<W>(t1x + i);
        term1 = term1 + load<W>(t1y + i);
        term1 = term1 + load<W>(t1z + i);
        V term2 = splat<W>(0.0) + load<W>(t2x + i);
        term2 = term2 + load<W>(t2y + i);
        term2 = term2 + load<W>(t2z + i);
        const V lap = load<W>(l0 + i) + load<W>(l1 + i) + load<W>(l2 + i);
        const V ricci =
            splat<W>(0.5) * (term1 + term2 - lap - load<W>(dt + i));
        store<W>(out_h + i, splat<W>(-2.0) * load<W>(km + i));
        store<W>(out_k + i, ricci);
      }
    }
  }
}

/// Interior box [ib, ie) x [j0, j1) x [k0, k1) at width `w`, one dispatch:
/// each row span is cut into kRowChunk chunks, each run as a W-wide strip
/// plus the W=1 tail.
void rhs_box(const GridFunctions& state, const FieldPointers& f,
             std::size_t ib, std::size_t ie, std::size_t j0, std::size_t j1,
             std::size_t k0, std::size_t k1, double inv_12h2, double inv_144h2,
             std::size_t w) {
  const std::ptrdiff_t s0 = state.sx(), s1 = state.sy(), s2 = state.sz();
  simd::dispatch(
      [&]<std::size_t W>() VPAR_SIMD_BODY {
        for (std::size_t k = k0; k < k1; ++k) {
          for (std::size_t j = j0; j < j1; ++j) {
            const std::size_t row = state.at(static_cast<std::ptrdiff_t>(k),
                                             static_cast<std::ptrdiff_t>(j),
                                             static_cast<std::ptrdiff_t>(ib));
            for (std::size_t c = 0; c < ie - ib; c += kRowChunk) {
              const std::size_t n = std::min(kRowChunk, ie - ib - c);
              const std::size_t nv = n / W * W;
              rhs_chunk_w<W>(f, s0, s1, s2, row + c, 0, nv, inv_12h2, inv_144h2);
              rhs_chunk_w<1>(f, s0, s1, s2, row + c, nv, n, inv_12h2, inv_144h2);
            }
          }
        }
      },
      w);
}

}  // namespace

double rhs_flops_per_point() {
  // 18 pure stencils (9 flops) + 18 mixed stencils (26 flops) + tr-h second
  // derivatives (12) + trK (3) + 6 Ricci assemblies (10) + 6 h updates (6)
  // + lapse (1).
  return 18.0 * 9.0 + 18.0 * 26.0 + 12.0 + 3.0 + 6.0 * 10.0 + 6.0 + 1.0;
}

double rhs_bytes_per_point() {
  // 13 fields read (stencil neighbours largely cache-resident), 13 written,
  // plus ~6 fields' worth of plane-jump stencil misses.
  return (13.0 + 13.0 + 6.0) * sizeof(double);
}

void compute_rhs(const GridFunctions& state, GridFunctions& rhs, double h,
                 std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                 std::size_t k0, std::size_t k1, RhsVariant variant,
                 std::size_t block) {
  trace::TraceSpan span("cactus.adm_rhs", static_cast<std::int64_t>(i1 - i0),
                        static_cast<std::int64_t>(k1 - k0));
  const double inv_12h2 = 1.0 / (12.0 * h * h);
  const double inv_144h2 = 1.0 / (144.0 * h * h);

  const FieldPointers f = field_pointers(state, rhs);
  const std::size_t w = simd::active_width();

  const std::size_t iw = i1 - i0;
  const std::size_t bw = variant == RhsVariant::Vector ? iw : std::min(block, iw);
  // The stencil only *reads* state and *writes* rhs, and distinct k planes
  // write disjoint rhs points, so the k sweep splits across idle pool
  // workers bitwise-safely (the chunk slice buffers live on each serving
  // thread's stack).
  for (std::size_t ib = i0; ib < i1; ib += bw) {
    const std::size_t ie = std::min(ib + bw, i1);
    simrt::parallel_for(k0, k1, 1, [&](std::size_t ka, std::size_t kb) {
      rhs_box(state, f, ib, ie, j0, j1, ka, kb, inv_12h2, inv_144h2, w);
    });
  }
  // Every chunk splits into n / w vector iterations and an n % w tail, and
  // kRowChunk is a multiple of w, so each row span of width s contributes
  // s / w vector iterations and one s % w tail.
  const std::size_t rows = (j1 - j0) * (k1 - k0);
  if (bw != 0) {
    simd::record_spans(w, rows * (iw / bw), bw / w, bw % w);
    if (iw % bw != 0) simd::record_spans(w, rows, iw % bw / w, iw % bw % w);
  }

  perf::LoopRecord rec;
  rec.vectorizable = true;
  rec.flops_per_trip = rhs_flops_per_point();
  rec.bytes_per_trip = rhs_bytes_per_point();
  // Multi-layer ghost zones break unit-stride regularity and keep hardware
  // prefetch streams disengaged (paper 5.2); the per-point derivative table
  // spills registers on every studied CPU.
  rec.access = perf::AccessPattern::Strided;
  rec.compute_derate = 0.45;
  const double jk = static_cast<double>((j1 - j0) * (k1 - k0));
  if (variant == RhsVariant::Vector || block >= iw) {
    rec.instances = jk;
    rec.trips = static_cast<double>(iw);
  } else {
    const double tiles = std::ceil(static_cast<double>(iw) / static_cast<double>(block));
    rec.instances = jk * tiles;
    rec.trips = static_cast<double>(std::min(block, iw));
    // Slice buffers: 13 fields x 5 pencils x block doubles stay resident.
    rec.working_set_bytes = 13.0 * 5.0 * rec.trips * sizeof(double) * 5.0;
  }
  perf::record_loop("ADM_BSSN_Sources", rec);
}

Constraints constraints_at(const GridFunctions& state, double h, std::size_t i,
                           std::size_t j, std::size_t k) {
  const double inv_12h = 1.0 / (12.0 * h);
  const double inv_12h2 = 1.0 / (12.0 * h * h);
  const double inv_144h2 = 1.0 / (144.0 * h * h);
  const std::size_t o = state.at(static_cast<std::ptrdiff_t>(k),
                                 static_cast<std::ptrdiff_t>(j),
                                 static_cast<std::ptrdiff_t>(i));
  const std::ptrdiff_t s[3] = {state.sx(), state.sy(), state.sz()};

  DerivTable t;
  second_derivatives(state, o, inv_12h2, inv_144h2, t);

  Constraints c;
  // H = di dj h_ij - Lap tr h.
  double didj_h = 0.0, lap_tr = 0.0;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      didj_h += t.dd[sym(a, b)][sym(a, b)];
    }
    lap_tr += t.dd[sym(a, a)][sym(0, 0)] + t.dd[sym(a, a)][sym(1, 1)] +
              t.dd[sym(a, a)][sym(2, 2)];
  }
  c.hamiltonian = didj_h - lap_tr;

  // M_i = dj K_ij - di tr K.
  for (int i_dir = 0; i_dir < 3; ++i_dir) {
    double div = 0.0;
    for (int j_dir = 0; j_dir < 3; ++j_dir) {
      div += d1(state.field(KXX + sym(i_dir, j_dir)) + o, s[j_dir], inv_12h);
    }
    double dtr = 0.0;
    for (int a = 0; a < 3; ++a) {
      dtr += d1(state.field(KXX + sym(a, a)) + o, s[i_dir], inv_12h);
    }
    c.momentum[static_cast<std::size_t>(i_dir)] = div - dtr;
  }
  return c;
}

}  // namespace vpar::cactus
