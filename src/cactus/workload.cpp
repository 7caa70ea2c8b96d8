#include "cactus/workload.hpp"

#include <cmath>

#include "cactus/grid.hpp"

namespace vpar::cactus {

namespace {
constexpr int G = GridFunctions::kGhost;

/// Near-cubic processor grid factorization of P.
void factor3(int procs, int out[3]) {
  out[0] = out[1] = out[2] = 1;
  int rest = procs;
  for (int axis = 0; rest > 1;) {
    // Peel the smallest prime factor onto the currently smallest dimension.
    int f = 2;
    while (rest % f != 0) ++f;
    rest /= f;
    int smallest = 0;
    for (int a = 1; a < 3; ++a) {
      if (out[a] < out[smallest]) smallest = a;
    }
    out[smallest] *= f;
    (void)axis;
  }
}

}  // namespace

double baseline_flops(const Table5Config& c) {
  const double points = static_cast<double>(c.nxl * c.nyl * c.nzl) *
                        static_cast<double>(c.procs);
  // RHS + ICN update.
  const double per_step =
      static_cast<double>(c.icn_iterations) *
      (rhs_flops_per_point() + 2.0 * static_cast<double>(kNumFields));
  return points * per_step * static_cast<double>(c.steps);
}

arch::AppProfile make_profile(const Table5Config& c) {
  arch::AppProfile app;
  app.procs = c.procs;
  app.baseline_flops = baseline_flops(c);

  int pgrid[3];
  factor3(c.procs, pgrid);
  const double evals = static_cast<double>(c.steps) *
                       static_cast<double>(c.icn_iterations);
  const double nxl = static_cast<double>(c.nxl);
  const double nyl = static_cast<double>(c.nyl);
  const double nzl = static_cast<double>(c.nzl);

  // --- interior RHS (shape mirrors compute_rhs) -----------------------------
  {
    perf::LoopRecord rec;
    rec.vectorizable = true;
    rec.flops_per_trip = rhs_flops_per_point();
    rec.bytes_per_trip = rhs_bytes_per_point();
    rec.access = perf::AccessPattern::Strided;
    rec.compute_derate = 0.45 * c.production_derate;
    if (c.rhs_variant == RhsVariant::Vector || c.block >= c.nxl) {
      rec.instances = nyl * nzl * evals;
      rec.trips = nxl;
    } else {
      const double tiles = std::ceil(nxl / static_cast<double>(c.block));
      rec.instances = nyl * nzl * tiles * evals;
      rec.trips = static_cast<double>(std::min(c.block, c.nxl));
      rec.working_set_bytes = 13.0 * 5.0 * rec.trips * sizeof(double) * 5.0;
    }
    app.kernels.record("ADM_BSSN_Sources", rec);
  }

  // --- ICN update ------------------------------------------------------------
  {
    perf::LoopRecord rec;
    rec.vectorizable = true;
    rec.instances = static_cast<double>(kNumFields) * nyl * nzl * evals;
    rec.trips = nxl;
    rec.flops_per_trip = 2.0;
    rec.bytes_per_trip = 3.0 * sizeof(double);
    rec.access = perf::AccessPattern::Stream;
    app.kernels.record("icn_update", rec);
  }

  // --- radiation boundary on the critical-path (corner) rank ----------------
  // A corner rank owns a share of three global faces; with face priority the
  // point count is G * (nyl nzl + (nxl - G) nzl + (nxl - G)(nyl - G)).
  {
    const double points = static_cast<double>(G) *
                          (nyl * nzl + (nxl - G) * nzl + (nxl - G) * (nyl - G));
    perf::LoopRecord rec;
    rec.flops_per_trip = boundary_flops_per_point() * static_cast<double>(kNumFields);
    rec.bytes_per_trip = 2.0 * static_cast<double>(kNumFields) * sizeof(double);
    rec.access = perf::AccessPattern::Strided;
    if (c.bc_variant == BoundaryVariant::Scalar) {
      rec.vectorizable = false;
      rec.instances = evals;
      rec.trips = points;
    } else {
      rec.vectorizable = true;
      // Dominant face sweep: inner loop across x rows of the yz face slabs.
      rec.instances = evals * points / nxl;
      rec.trips = nxl;
    }
    app.kernels.record("boundary", rec);
  }

  // --- ghost exchange --------------------------------------------------------
  // Six faces, two layers deep, 13 fields; corner rank exchanges three faces
  // (its other three are global boundaries).
  {
    const double face_x = nyl * nzl, face_y = nxl * nzl, face_z = nxl * nyl;
    const double bytes = static_cast<double>(G) * 13.0 * sizeof(double) *
                         (face_x + face_y + face_z);
    // exchange_ghosts posts both face receives before packing each axis
    // sweep: three overlap windows per evaluation.
    app.comm.record_overlapped(perf::CommKind::PointToPoint, 3.0 * 2.0 * evals,
                               bytes * evals);
    app.comm.record_overlap_window(3.0 * evals);
  }

  return app;
}

}  // namespace vpar::cactus
