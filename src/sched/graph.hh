// The tile-task dataflow graph.
//
// A node is one unit of rank-local work — a pipeline tile of a wavefront
// instance, a chunk of a parallel statement, a ghost pack/send, a reduction
// step. Edges are execute-before constraints: the intra-plan ones fall out
// of a plan's UDV/WSV analysis (tile j depends on tile j-1 whenever the
// tiling legality condition c[t]*s >= 0 forces an order), and inter-plan
// ones are declared explicitly by the program that lowers several plans
// into one graph (SWEEP3D's in-order flux accumulation, ALT's V -> G2 -> H
// chunk chains). A task may additionally consume a small fixed set of
// messages (its "inflows" — e.g. a 2D-frontier tile's north and west
// faces) — the executor posts one irecv per inflow, promotes the task only
// when *all* of them have arrived, and hands the payloads to the task body
// in declaration order when it runs.
//
// The graph is rank-local and pure data: building it performs no
// communication, and running it (sched/executor.hh) is an SPMD collective
// only because the tasks themselves send and receive.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "support/error.hh"

namespace wavepipe {

class Communicator;
class SchedExecutor;
class TaskArena;
class RecoveryExecutor;
class AdoptedProgram;

/// A scheduler failure: a dependence cycle, a starved graph (tasks remain
/// but none can ever run), or a communication deadlock attributed to the
/// task that was waiting — so reports name the stuck *task*, not just the
/// stuck recv.
class SchedError : public Error {
 public:
  explicit SchedError(const std::string& what) : Error(what) {}
};

using TaskId = std::int32_t;
inline constexpr TaskId kNoTask = -1;

/// Backend seam behind TaskContext::send: whichever executor runs the task
/// owns the outflow-request bookkeeping (the SPMD executor keeps a plain
/// vector; the work-stealing tasks backend keeps a per-rank slot its
/// workers reach under the rank's operation lock). Task bodies never see
/// the difference.
class TaskSink {
 public:
  virtual ~TaskSink() = default;
  /// Issues the nonblocking send and records its request for the
  /// end-of-graph settlement pass.
  virtual void task_send(int dst, std::span<const double> payload,
                         int tag) = 0;
};

/// One message a task consumes before it may run.
struct TaskInflow {
  int src = -1;
  int tag = 0;
  std::size_t elements = 0;
};

/// What a running task sees. `inflows` holds the received payloads in the
/// task's declaration order; `inflow` aliases the first of them (empty when
/// the task declared none) — the overwhelmingly common single-inflow case.
/// send() issues a nonblocking send whose completion the executor settles
/// in posting order after the graph drains — the payload is copied out
/// immediately, so temporaries are fine.
class TaskContext {
 public:
  Communicator& comm;
  std::span<const double> inflow;
  std::span<const std::span<const double>> inflows;

  void send(int dst, std::span<const double> payload, int tag) {
    sink_.task_send(dst, payload, tag);
  }

 private:
  friend class SchedExecutor;
  friend class TaskArena;
  friend class RecoveryExecutor;
  friend class AdoptedProgram;
  TaskContext(Communicator& c, TaskSink& s) : comm(c), sink_(s) {}
  TaskSink& sink_;
};

class TaskGraph {
 public:
  struct Task {
    /// Shown in traces and deadlock reports.
    std::string label;
    /// Estimated work (elements), the critical-path policy's edge weight.
    double cost = 1.0;
    /// Wavefront-diagonal priority key (smaller runs first under the
    /// diagonal policy); typically fill level / hyperplane index.
    std::int64_t diagonal = 0;
    /// The messages this task consumes before it may run (empty for none).
    /// Order is the payload order the body sees via TaskContext::inflows;
    /// per-(src, tag) FIFO matching is the caller's responsibility, via
    /// edges chaining same-tag consumers in posting order (the lowering
    /// helpers do this).
    std::vector<TaskInflow> inflows{};
    /// The body; may be empty for pure receive/join tasks (the inflow, if
    /// any, is still received — into the buffer run() would have seen).
    std::function<void(TaskContext&)> run{};
  };

  /// Adds a task and returns its id (ids are dense, in insertion order —
  /// the FIFO policy's key).
  TaskId add(Task t);

  /// Declares that `before` must complete before `after` may start.
  void add_edge(TaskId before, TaskId after);

  /// Convenience: add_edge(before, after) unless before == kNoTask.
  void add_edge_if(TaskId before, TaskId after) {
    if (before != kNoTask) add_edge(before, after);
  }

  std::size_t size() const { return tasks_.size(); }
  std::size_t edges() const { return edge_count_; }
  const Task& task(TaskId id) const { return tasks_[check(id)]; }

  const std::vector<TaskId>& successors(TaskId id) const {
    return succs_[check(id)];
  }
  int predecessors(TaskId id) const { return preds_[check(id)]; }

 private:
  std::size_t check(TaskId id) const {
    require(id >= 0 && static_cast<std::size_t>(id) < tasks_.size(),
            "task id out of range");
    return static_cast<std::size_t>(id);
  }

  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> succs_;
  std::vector<int> preds_;  // incoming-edge counts
  std::size_t edge_count_ = 0;
};

}  // namespace wavepipe
