// The wavefront benchmark suite (the paper's §6 future work: "We will also
// develop a benchmark suite of wavefront computations in order to evaluate
// our design and implementation").
//
// Six entries, one uniform adapter each, so benches can sweep machines,
// processor counts and block sizes across all of them: Tomcatv, SIMPLE,
// SWEEP3D, Smith-Waterman on a 1D chain and on a 2D mesh, and SOR.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/machine.hh"
#include "exec/pipelined.hh"
#include "index/index.hh"
#include "lang/access.hh"

namespace wavepipe {

struct SuiteApp {
  std::string name;
  /// A short note on the app's wavefront structure (printed by benches).
  std::string wavefront_note;
  /// Default problem size for suite benches.
  Coord default_n;
  /// Runs the app SPMD on p ranks (distributed along its wavefront
  /// dimension) under `costs`, with pipeline block `block` (0 = naive),
  /// `iters` outer iterations at size n. Returns the machine result
  /// (virtual times, traffic).
  std::function<RunResult(int p, const CostModel& costs, Coord n, int iters,
                          Coord block)>
      run;
  /// Runs the app's SPMD body on an existing communicator — the grid is
  /// built from comm.size(), so the same body runs on a whole machine or
  /// on a job view of a shared one (the sweep service's seam). Returns the
  /// app's result value on rank 0 (other ranks' return value is
  /// app-defined). run() above is a thin wrapper: fresh Machine + run_on.
  std::function<Real(Communicator& comm, Coord n, int iters,
                     const WaveOptions& opts)>
      run_on;
  /// The processor-grid shape [pr, pc] the app uses at p ranks (1D chain
  /// apps report [p, 1]; 2D-frontier apps a factored mesh). Reported in
  /// BENCH_suite.json so results name the mesh they measured.
  std::function<std::array<int, 2>(int p)> grid_shape;
  /// The app's result value from the last run (checksum/score/flux),
  /// written by run(); lets benches assert naive == pipelined.
  std::shared_ptr<double> last_value;
};

/// The six-entry registry.
std::vector<SuiteApp> wavefront_suite();

/// Sets app.run to the wrapper every registry entry uses: a fresh p-rank
/// machine runs app.run_on with pipeline block `block`, and rank 0's value
/// lands in app.last_value (for the naive == pipelined assertions).
void wire_run(SuiteApp& app);

}  // namespace wavepipe
