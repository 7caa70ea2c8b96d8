#include "gtc/push.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "gtc/deposition.hpp"
#include "perf/recorder.hpp"
#include "simrt/parallel.hpp"

namespace vpar::gtc {

double push_flops_per_particle() {
  // Stencil rebuild (~70) + 32 gathers x 2 fields x 2 flops + drift update.
  return 70.0 + 128.0 + 12.0;
}

void gather_push(ParticleSet& particles, const TorusGrid& grid,
                 const std::vector<double>& ex_ghost,
                 const std::vector<double>& ey_ghost, double dt, double b0) {
  const std::size_t n = particles.size();
  const std::size_t ps = grid.plane_size();
  if (ex_ghost.size() != ps || ey_ghost.size() != ps) {
    throw std::runtime_error("gather_push: ghost plane size mismatch");
  }
  const double two_pi = 2.0 * std::numbers::pi;
  const double nx = static_cast<double>(grid.ngx());
  const double ny = static_cast<double>(grid.ngy());

  // Each marker only reads the field planes and writes its own slots, so the
  // particle loop splits across idle pool workers bitwise-safely; the stencil
  // scratch is per-chunk so serving threads never share it.
  //
  // The loop stays scalar: lanes over particles need a per-lane transpose of
  // the stencils and lane-by-lane field gathers, and an 8-wide version did
  // not beat this one beyond run-to-run spread (docs/performance.md).
  simrt::parallel_for(0, n, 0, [&](std::size_t lo, std::size_t hi) {
    DepositStencil st;
    for (std::size_t i = lo; i < hi; ++i) {
      compute_stencil(grid, particles.x[i], particles.y[i], particles.zeta[i],
                      particles.rho[i], st);
      double ex = 0.0, ey = 0.0;
      for (int b = 0; b < 2; ++b) {
        const bool ghost = st.plane[b] == grid.planes_local();
        const double* exp_ = ghost ? ex_ghost.data() : grid.ex_plane(st.plane[b]);
        const double* eyp = ghost ? ey_ghost.data() : grid.ey_plane(st.plane[b]);
        const double w = st.wplane[b];
        for (int c = 0; c < 16; ++c) {
          // One shared weight product per cell; left-to-right evaluation makes
          // this the same rounding as the w * wcell * field form.
          const double wc = w * st.wcell[c];
          ex += wc * exp_[st.cell[c]];
          ey += wc * eyp[st.cell[c]];
        }
      }
      // ExB drift with B = b0 z-hat (the gyro-average is the 4-point ring).
      // One drift step moves a marker at most one period, so the wrap fast
      // path applies almost always; it is bitwise identical to fmod-then-fixup.
      particles.x[i] = wrap_periodic(particles.x[i] + dt * ey / b0, nx);
      particles.y[i] = wrap_periodic(particles.y[i] - dt * ex / b0, ny);
      particles.zeta[i] =
          wrap_periodic(particles.zeta[i] + dt * particles.vpar[i], two_pi);
    }
  });

  perf::LoopRecord rec;
  rec.vectorizable = true;  // after the paper's modulo -> mod fix (§6.1)
  rec.instances = 1.0;
  rec.trips = static_cast<double>(n);
  rec.flops_per_trip = push_flops_per_particle();
  rec.bytes_per_trip = 32.0 * 2.0 * sizeof(double) + 12.0 * sizeof(double);
  rec.access = perf::AccessPattern::Gather;
  rec.working_set_bytes = 2.0 * static_cast<double>(grid.planes_local() + 1) *
                          static_cast<double>(ps) * sizeof(double);
  perf::record_loop("gather_push", rec);
}

}  // namespace vpar::gtc
