#pragma once

#include <array>
#include <cstddef>

#include "part/halo.hpp"
#include "qcd/lattice.hpp"

namespace vpar::qcd {

/// Even/odd half-lattice geometry of one rank: the local half extents
/// (nxh = nxl/2, nyl, nzl, ntl) with a one-site ghost shell, plus the
/// global origin needed for the staggered phases and parity offsets.
struct HalfGeom {
  part::Extent<4> n{};       ///< local half extents
  part::TileLayout<4> layout{};
  part::Index<4> origin{};   ///< global (x, y, z, t) of local site 0 (full x!)
};

/// Apply the staggered Dslash: out (parity `target_parity`) from src (the
/// opposite parity), whose ghosts must be current. Rows are served through
/// simrt::parallel_for (rows write disjoint output rows, so hybrid helpers
/// are bitwise-safe); each chunk of rows runs the width-templated row body
/// in one SIMD dispatch, and the call records its simd spans once.
/// Records the "dslash" kernel loop with perf and bumps qcd.* meters.
void apply_dslash(std::array<double*, kPlanes> out,
                  std::array<const double*, kPlanes> src, const HalfGeom& geom,
                  int target_parity);

}  // namespace vpar::qcd
