// The harness both solve workloads (sw-dp, sweep3d-tasks) share: one
// reused parallel-engine Machine, solves timed on the calling thread around
// Machine::run, the benchmark's own plain loop interleaved with them, and
// every solve's value checked before its time counts.
#pragma once

#include <functional>
#include <string>

#include "bench.hh"
#include "comm/communicator.hh"
#include "spans.hh"

namespace perfbench {

/// One rank's wall seconds per phase in one traced solve, plus the
/// scheduler counts its run_graph calls reported.
struct RankPhases {
  double body = 0.0;
  double construct = 0.0;  // app constructor + destructor
  double fill = 0.0;       // run_wavefront
  double build = 0.0;      // build_sweep_graph
  double run = 0.0;        // run_graph
  double reduce = 0.0;     // best_score / mirror + total_flux
  double wait = 0.0;       // the traced run's barriers
  double owned_cells = 0.0;
  double tasks = 0.0, steals = 0.0, blocked_waits = 0.0;

  double spans() const { return construct + fill + build + run + reduce + wait; }
};

/// What a traced rank body uses to record spans.
struct TraceCtx {
  SpanRecorder& rec;
  SpanId parent;
  int solve;
  int rank;
  RankPhases& ph;

  template <typename Fn>
  double span(const char* name, Fn&& fn) {
    return rec.timed(rank, name, parent, solve, std::forward<Fn>(fn));
  }
  /// The barrier the traced run places after each phase.
  void barrier(wavepipe::Communicator& comm) {
    ph.wait += span("comm.wait", [&] { comm.barrier(); });
  }
};

struct SolveSpec {
  int ranks = 4;
  /// Check tolerance against the plain loop (0 = identical bits).
  double rtol = 0.0;
  /// The plain loop's seconds on the reference host. End-to-end times are
  /// reported in reference-host seconds: each chunk's solve times are scaled
  /// by this over the chunk's plain-loop median.
  double reference_serial_s = 1.0;
  /// The benchmark's plain single-thread loop; returns the reference value.
  std::function<double()> serial;
  /// One untraced solve's rank body; rank 0's return value is checked.
  std::function<double(wavepipe::Communicator&)> solve;
  /// The same computation through the modules' public functions, with a
  /// span around each call and a barrier after each phase.
  std::function<double(wavepipe::Communicator&, TraceCtx&)> traced;
};

Outcome run_solve_workload(const Args& args, const SolveSpec& spec);

}  // namespace perfbench
