// Plain single-thread loops the benchmark owns: the "best serial code" each
// speedup is measured against, and the references parallel results are
// checked against. They use only the apps' public input definitions
// (sw_symbol_a/b, make_quadrature, the documented initial conditions), so
// a change under src/ cannot move a speedup's denominator.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// Smith-Waterman with the SmithWatermanConfig defaults (match 2, mismatch
/// -1, linear gap 1, alphabet 4): sequences from sw_symbol_a/b, then a
/// two-row DP. The best score is an exact small integer, so it must match
/// the parallel fill bit for bit.
double sw_best_score(std::uint64_t seed, std::int64_t la, std::int64_t lb);

/// SWEEP3D: 8-octant upwind sweeps over an n^3 grid with vacuum inflow,
/// `angles` ordinates per octant from make_quadrature, flux accumulated in
/// (iteration, octant, angle) order; returns the total scalar flux. Cell
/// values follow the app's expression order; only the final sum's order
/// differs, hence kSweep3dRtol.
double sweep3d_total_flux(std::int64_t n, int angles, int iterations);
inline constexpr double kSweep3dRtol = 1e-10;

/// Natural-ordering SOR on the unit square (SorConfig defaults, omega 1.5);
/// returns the residual inf-norm after `iters` sweeps.
double sor_residual(std::int64_t n, int iters);

/// Tomcatv line relaxation (TomcatvConfig defaults, omega 0.8); returns
/// max(|rx|, |ry|) of the last iteration, before its update.
double tomcatv_residual(std::int64_t n, int iters);

/// Relative tolerance for cross-checking the SOR and Tomcatv loops against
/// the engine's values: they evaluate the same expressions in the same
/// order, so any difference beyond rounding means the loop is wrong.
inline constexpr double kLoopRtol = 1e-12;

}  // namespace perfbench
