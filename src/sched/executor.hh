// Dependence-counting execution of a TaskGraph on one rank.
//
// The executor keeps a dependence count per task. When a task's count hits
// zero it is *released*: its inflow irecv (if any) is posted — posting is
// free under the virtual-time rules and release order preserves per-tag
// FIFO because same-tag tasks are chained by edges — and the task joins
// either the ready set (no inflow) or the pending set (inflow posted).
// The main loop repeatedly picks a task by the configured priority policy
// and runs it; outflow sends issued by task bodies are nonblocking and
// settled in posting order after the graph drains, so the send engine
// overlaps under later tiles exactly as WaveOptions::overlap does.
//
// Two arrival modes:
//
//   * adaptive (default): pending tasks whose inflow has arrived (test())
//     are promoted into the ready set, and the policy picks among
//     everything runnable; only when nothing is runnable does the rank
//     block in wait_any over every posted inflow. This is the dataflow
//     behaviour — the rank never stalls while any tile can run. It is
//     probe-class: *results* are byte-identical under any schedule or
//     fault plan (payloads and reduction order are fixed by the graph),
//     but virtual times may legitimately differ under chaos because the
//     pick order observes physical arrival.
//
//   * static: the policy picks over released tasks ignoring physical
//     arrival, and blocks (wait) on the chosen task's inflow. The entire
//     RunResult — vtimes, phases, stats, traces — is then a pure function
//     of the graph and the policy: byte-identical under every fiber
//     schedule and fault plan, like the blocking executors.
//
//     Caveat: static blocking is only deadlock-free when every rank's pick
//     order embeds into one global schedule. kFifo is safe whenever tasks
//     are constructed in sequential-program order (as the lowering helpers
//     do); priority policies may rank a receive above the send its peer is
//     waiting on and deadlock even though the graph is acyclic. Adaptive
//     mode has no such failure (it blocks only when *nothing* can run),
//     which is one more reason it is the default.
//
//     Because that failure depends on the *other* ranks' graphs — which
//     this rank cannot see — the executor fails fast: a static non-FIFO
//     run over a graph with any cross-rank inflow throws a typed
//     SchedError before executing a single task, instead of gambling on a
//     runtime deadlock. Callers who know their global schedule is
//     consistent (e.g. every rank releases sends before priority-inverted
//     receives, as the wavefront lowerings do) opt back in with
//     SchedOptions::allow_unsafe_static, and a deadlock that does occur is
//     then still reported, not hung: see below.
//
// Either way the computed data is bit-identical to sequential execution,
// because payload bytes are FIFO per (src, tag) and every
// order-sensitive reduction is serialized by explicit edges.
//
// Deadlock reporting: before every blocking wait the executor publishes
// the stuck task's label as the rank's wait context, so the fiber engine's
// all-blocked report reads "rank 1 [irecv(src=0, tag=804)] in task
// 'v[i0][5]'"; if instead the poison reaches this rank's wait first, the
// unwind rethrows SchedError naming the same task(s).
#pragma once

#include <utility>
#include <vector>

#include "sched/graph.hh"

namespace wavepipe {

class Communicator;

/// How the ready set is ordered.
enum class SchedPolicy {
  kFifo,          // insertion order (task id): mirrors sequential execution
  kDiagonal,      // smallest wavefront-diagonal key first
  kCriticalPath,  // longest remaining cost-weighted path first (default)
};

const char* to_string(SchedPolicy p);

/// Which executor runs the graph.
enum class SchedBackend {
  /// One rank, one thread: the rank's own thread walks its graph (works
  /// under every engine; the fiber engine is the determinism oracle).
  kSpmd,
  /// Work-stealing task pool (sched/parallel_executor): ready tasks — not
  /// ranks — map onto the parallel engine's worker threads, so an idle
  /// worker whose rank's wavefront stalled steals another rank's runnable
  /// tile. Requires WAVEPIPE_ENGINE=parallel; produces byte-identical
  /// values (and, for static-FIFO graphs, byte-identical vtimes) to the
  /// SPMD backend — wall_seconds is where the difference shows.
  kTasks,
};

const char* to_string(SchedBackend b);

struct SchedOptions {
  SchedPolicy policy = SchedPolicy::kCriticalPath;
  /// Arrival-aware task pickup (see header comment). Probe-class when
  /// true; fully schedule/fault-invariant when false.
  bool adaptive = true;
  /// Static non-FIFO schedules can deadlock across ranks (header caveat),
  /// so by default run_graph refuses such a schedule over any graph with a
  /// cross-rank inflow — a SchedError *before* execution. Set true (or
  /// WAVEPIPE_SCHED_UNSAFE_STATIC=1) to assert the global pick order is
  /// consistent and run anyway.
  bool allow_unsafe_static = false;
  /// Executor backend (see SchedBackend). kTasks needs the parallel
  /// engine: run_graph throws a typed ConfigError — never a silent SPMD
  /// fallback — when the machine runs fibers.
  SchedBackend backend = SchedBackend::kSpmd;

  /// WAVEPIPE_SCHED_POLICY=fifo|diagonal|critical selects the policy;
  /// WAVEPIPE_SCHED_ADAPTIVE=0|1 selects the arrival mode;
  /// WAVEPIPE_SCHED_UNSAFE_STATIC=0|1 opts into static non-FIFO over
  /// cross-rank graphs; WAVEPIPE_SCHED_BACKEND=spmd|tasks selects the
  /// executor backend (tasks additionally cross-validates against an
  /// explicit non-parallel WAVEPIPE_ENGINE — the combination is a
  /// ConfigError here, before any machine exists). (Distinct from
  /// WAVEPIPE_SCHED, which seeds the *fiber* scheduler.) Unparseable
  /// values throw ConfigError.
  static SchedOptions from_env();
};

struct SchedReport {
  std::size_t tasks = 0;
  std::size_t edges = 0;
  SchedPolicy policy = SchedPolicy::kCriticalPath;
  bool adaptive = true;
  /// Times the policy ran an arrived task while an earlier-priority task
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
/// call run_graph with matching endpoints. Throws SchedError on a
/// dependence cycle, and converts an engine-detected communication deadlock
/// into a SchedError naming the task(s) that were stuck.
SchedReport run_graph(const TaskGraph& graph, Communicator& comm,
                      const SchedOptions& opts = SchedOptions::from_env());

namespace sched_internal {

/// Shared pre-execution analysis, used by both backends so they agree on
/// cycle rejection and priorities to the bit.
struct GraphAnalysis {
  /// Initial dependence (incoming-edge) count per task.
  std::vector<int> deps;
  /// Critical-path priorities (cost-weighted longest path to a sink);
  /// empty unless the policy is kCriticalPath.
  std::vector<double> prio;
};

/// Kahn topological pass: throws SchedError on a cycle (naming a task on
/// it) and fills priorities when the policy needs them.
GraphAnalysis analyze_graph(const TaskGraph& graph, SchedPolicy policy);

/// The fail-fast guard for static non-FIFO schedules over cross-rank
/// graphs (see the header comment's caveat): throws SchedError unless the
/// combination is safe or explicitly allowed.
void check_static_safe(const TaskGraph& graph, const SchedOptions& opts);

/// The policy's total order: smaller key runs first, ties break toward the
/// smaller (earlier) task id.
std::pair<double, TaskId> task_key(const TaskGraph& graph,
                                   const GraphAnalysis& analysis,
                                   SchedPolicy policy, TaskId t);

}  // namespace sched_internal

}  // namespace wavepipe
