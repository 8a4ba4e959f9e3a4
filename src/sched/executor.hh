// Dependence-counting execution of a TaskGraph on one rank.
//
// The executor keeps a dependence count per task. When a task's count hits
// zero it is *released*. The main loop repeatedly picks a released task and
// runs it; outflow sends issued by task bodies are nonblocking, and the
// executor settles those no task settled itself (TaskContext::settle) in
// posting order after the graph drains.
//
// Two modes, and only two:
//
//   * adaptive (default, the runtime): a released task's inflow irecvs are
//     posted at release — posting is free under the virtual-time rules, and
//     release order preserves per-tag FIFO because same-tag tasks are
//     chained by edges. Pending tasks whose inflows have arrived (test())
//     join the ready set, and the rank runs whichever runnable task has the
//     longest remaining cost-weighted path (critical path first); only when
//     nothing is runnable does it block in wait_any over every posted
//     inflow. The rank never stalls while any tile can run. It is
//     probe-class: *results* are byte-identical under any schedule or fault
//     plan (payloads and reduction order are fixed by the graph), but
//     virtual times may legitimately differ under chaos because the pick
//     order observes physical arrival.
//
//   * static FIFO (the oracle): released tasks run in task-id order,
//     ignoring physical arrival, and the rank blocks (wait) on the chosen
//     task's inflows one by one. The entire RunResult — vtimes, phases,
//     stats, traces — is then a pure function of the graph: byte-identical
//     under every fiber schedule and fault plan; run_wavefront runs on
//     it (sched/lower.hh). Tasks built in sequential-program order (as the lowering
//     helpers build them) make every rank's pick order embed into the one
//     global sequential schedule, so static FIFO cannot deadlock on them.
//     It runs on the SPMD backend only: SchedBackend::kTasks with
//     adaptive = false is a ConfigError.
//
// Either way the computed data is bit-identical to sequential execution,
// because payload bytes are FIFO per (src, tag) and every
// order-sensitive reduction is serialized by explicit edges.
//
// Recovery: there is one SPMD executor, with or without a coordinator.
// run_graph runs it without one; run_recoverable's kSpmd backend runs it
// with one (see run_spmd), and then it also logs every consumed inflow and
// every completion, polls the rank's kill flag and adoption driver at the
// loop top, lets adoption work wake it when it blocks, and on its own
// death harvests before unwinding (sched/recovery.hh). Promotion and the
// pick order are the same either way, so a fault-free recoverable run is
// byte-identical to run_graph.
//
// Deadlock reporting: before every blocking wait the executor publishes
// the stuck task's label as the rank's wait context, so the fiber engine's
// all-blocked report reads "rank 1 [irecv(src=0, tag=804)] in task
// 'v[i0][5]'"; if instead the poison reaches this rank's wait first, the
// unwind rethrows SchedError naming the same task(s). A graph whose ranks
// genuinely wait on each other (a cross-rank cycle) deadlocks in either
// mode and is reported this way.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sched/graph.hh"

namespace wavepipe {

class Communicator;
class Machine;
class RecoveryCoordinator;
namespace recovery_internal {
struct AdoptionDriver;
}

/// Which executor runs the graph.
enum class SchedBackend {
  /// One rank, one thread: the rank's own thread walks its graph (works
  /// under every engine; the fiber engine is the determinism oracle).
  kSpmd,
  /// Work-stealing task pool (sched/parallel_executor): ready tasks — not
  /// ranks — map onto the parallel engine's worker threads, so an idle
  /// worker whose rank's wavefront stalled steals another rank's runnable
  /// tile. Requires WAVEPIPE_ENGINE=parallel and adaptive mode; produces
  /// byte-identical values to the SPMD backend — wall_seconds is where the
  /// difference shows.
  kTasks,
};

const char* to_string(SchedBackend b);

struct SchedOptions {
  /// true: adaptive critical-path (the runtime). false: static FIFO (the
  /// oracle; SPMD backend only). See the header comment.
  bool adaptive = true;
  /// Executor backend (see SchedBackend). kTasks needs the parallel
  /// engine and adaptive mode: run_graph throws a typed ConfigError —
  /// never a silent SPMD fallback — otherwise.
  SchedBackend backend = SchedBackend::kSpmd;

  /// WAVEPIPE_SCHED_ADAPTIVE=0|1 selects the mode;
  /// WAVEPIPE_SCHED_BACKEND=spmd|tasks selects the executor backend (tasks
  /// additionally cross-validates against the mode and against an explicit
  /// non-parallel WAVEPIPE_ENGINE — either conflict is a ConfigError here,
  /// before any machine exists). (Distinct from WAVEPIPE_SCHED, which seeds
  /// the *fiber* scheduler.) Unparseable values throw ConfigError, and so
  /// does any knob of the retired policy settings, naming its replacement.
  static SchedOptions from_env();
};

struct SchedReport {
  std::size_t tasks = 0;
  std::size_t edges = 0;
  bool adaptive = true;
  /// Times the scheduler ran an arrived task while an earlier-priority task
  /// was still pending — the overlap the dataflow scheduler recovered.
  std::size_t overtakes = 0;
  /// Blocking waits (ready set empty, or static-mode inflow waits).
  std::size_t blocked_waits = 0;
  /// High-water mark of simultaneously posted inflow irecvs.
  std::size_t max_posted = 0;
  /// The backend that actually executed the graph.
  SchedBackend backend = SchedBackend::kSpmd;
  /// Tasks backend only: how many of this rank's tasks ran on another
  /// rank's worker thread — the cross-rank overlap SPMD cannot express.
  std::size_t steals = 0;
};

/// Runs the graph to completion on this rank. Collective only through the
/// tasks' own sends/receives: ranks whose graphs exchange messages must all
/// call run_graph with matching endpoints. Throws ConfigError for an
/// invalid backend (see check_backend), SchedError on a dependence cycle,
/// and converts an engine-detected communication deadlock into a SchedError
/// naming the task(s) that were stuck.
SchedReport run_graph(const TaskGraph& graph, Communicator& comm,
                      const SchedOptions& opts = SchedOptions::from_env());

namespace sched_internal {

/// Shared pre-execution analysis, used by every executor so they agree on
/// cycle rejection and priorities to the bit.
struct GraphAnalysis {
  /// Initial dependence (incoming-edge) count per task.
  std::vector<int> deps;
  /// Critical-path priorities (cost-weighted longest path to a sink).
  std::vector<double> prio;
};

/// Kahn topological pass: throws SchedError on a cycle (naming a task on
/// it) and fills the critical-path priorities.
GraphAnalysis analyze_graph(const TaskGraph& graph);

/// The pick order: smaller key runs first. Adaptive keys are {-prio, t}
/// (critical path first), static keys {0, t} (FIFO); ties break toward the
/// smaller (earlier) task id, so both are total orders.
std::pair<double, TaskId> task_key(const GraphAnalysis& analysis,
                                   bool adaptive, TaskId t);

/// One run's inflow storage, shared by every executor: all inflow payloads
/// of every task in one flat slab, allocated once per run, with each task's
/// offset precomputed from the graph. Receives land in buffer(t, k) and the
/// body sees payloads(t), so running a task allocates nothing. The slab
/// holds the whole run's inflow bytes at once — one graph's share of the
/// messages this rank consumes.
class InflowSlab {
 public:
  explicit InflowSlab(const TaskGraph& graph);

  /// Receive buffer of task t's k-th inflow.
  std::span<double> buffer(TaskId t, std::size_t k) {
    const std::span<const double> v = views_[first_[index(t)] + k];
    return {data_.get() + (v.data() - data_.get()), v.size()};
  }

  /// Task t's payloads in declaration order (TaskContext::inflows).
  std::span<const std::span<const double>> payloads(TaskId t) const {
    const std::size_t i = index(t);
    return std::span<const std::span<const double>>(views_).subspan(
        first_[i], first_[i + 1] - first_[i]);
  }

 private:
  static std::size_t index(TaskId t) { return static_cast<std::size_t>(t); }

  std::unique_ptr<double[]> data_;
  std::vector<std::size_t> first_;  // [task] first inflow's index; n + 1
  std::vector<std::span<const double>> views_;  // [inflow]
};

/// The SPMD backend: this rank's own thread walks its graph. run_graph
/// passes no coordinator; run_recoverable passes its coordinator and this
/// rank's adoption driver (both or neither), which arms inflow and
/// completion logging, kill points and adoption polling — adaptive mode
/// only. On this rank's own death with a coordinator, the RankDeath
/// escapes after the harvest/mark-dead protocol ran.
SchedReport run_spmd(const TaskGraph& graph, Communicator& comm,
                     const SchedOptions& opts,
                     RecoveryCoordinator* rc = nullptr,
                     recovery_internal::AdoptionDriver* drv = nullptr);

/// The backend gate shared by run_graph and run_recoverable: kTasks needs
/// the parallel engine that `m` actually runs, and adaptive mode. Throws
/// ConfigError naming the valid combinations.
void check_backend(const SchedOptions& opts, const Machine& m);

}  // namespace sched_internal

}  // namespace wavepipe
