// Work-stealing task-parallel backend for run_graph (SchedBackend::kTasks).
//
// The SPMD backend binds each rank to one thread: when a rank's wavefront
// stalls on an inflow, its core idles even if a neighbouring rank has a
// pile of runnable tiles. This backend breaks the binding: the parallel
// engine's rank threads become a *worker pool*, each owning a Chase–Lev
// deque of ready tasks, and an idle worker steals another rank's runnable
// tile — the overlap SPMD cannot express. Inflow messages keep flowing
// through the per-source SPSC mailbox seam; the consumer-side exclusivity
// drain_channels() requires is provided by the owning rank's Communicator
// operation lock (Communicator::enable_concurrent_ops), which any worker
// takes before touching that rank's matching state, clock, or requests.
//
// Determinism contract (DESIGN.md §14): computed values are byte-identical
// to the SPMD/fiber oracle under every steal schedule — conflicting task
// pairs are edge-ordered by construction (any-topological-order
// determinism already requires it), and per-(src, tag) message FIFO is
// preserved because same-key tasks are edge-chained. The backend runs
// adaptive critical-path only, which is probe-class: virtual times may
// differ from the SPMD backend because the pick order observes physical
// arrival. Static FIFO — the fully invariant oracle mode — stays on the
// SPMD backend (run_graph rejects the combination with a ConfigError).
// wall_seconds is where the win shows.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "sched/executor.hh"

namespace wavepipe {

class Communicator;

/// Chase–Lev work-stealing deque of packed (rank, task) items. The owner
/// thread pushes and pops at the bottom (LIFO — the freshest, cache-hot
/// task first); any number of thieves steal from the top (FIFO — the
/// oldest task, which under priority-ordered pushes is the one the owner
/// valued least). Unbounded: push grows the backing array by doubling and
/// retires the old array until destruction, since a concurrent thief may
/// still be reading it.
///
/// Memory ordering: every shared access (top, bottom, array pointer, and
/// the slots themselves) is seq_cst. The classic formulation saves a few
/// fences with acquire/release plus standalone fences, but standalone
/// fences are exactly what TSan cannot model — this deque is TSan-clean by
/// construction, and on x86 the difference is one lock-prefixed op on the
/// pop/steal race path that the CAS needs anyway.
class WorkStealingDeque {
 public:
  WorkStealingDeque();
  ~WorkStealingDeque();

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only: pushes at the bottom.
  void push(std::int64_t v);

  /// Owner only: pops the most recently pushed item; false when empty.
  /// The single-item race against thieves is resolved by a CAS on top.
  bool pop(std::int64_t& out);

  /// Any thread: steals the oldest item; false when empty or when the
  /// CAS lost a race (callers treat both as "try elsewhere").
  bool steal(std::int64_t& out);

  /// Any thread: a racy emptiness peek for idle/termination scans. A
  /// concurrent push can invalidate it immediately; parking callers
  /// re-check after PoolSignal registration, exactly like the SPSC queue.
  bool empty() const;

 private:
  struct Array {
    explicit Array(std::int64_t cap)
        : capacity(cap), mask(cap - 1),
          slots(new std::atomic<std::int64_t>[static_cast<std::size_t>(cap)]) {
    }
    std::int64_t get(std::int64_t i) const {
      return slots[static_cast<std::size_t>(i & mask)].load(
          std::memory_order_seq_cst);
    }
    void put(std::int64_t i, std::int64_t v) {
      slots[static_cast<std::size_t>(i & mask)].store(
          v, std::memory_order_seq_cst);
    }
    const std::int64_t capacity;
    const std::int64_t mask;  // capacity is a power of two
    std::unique_ptr<std::atomic<std::int64_t>[]> slots;
  };

  Array* grow(Array* a, std::int64_t bottom, std::int64_t top);

  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Array*> array_;
  // Arrays replaced by grow(): a thief loaded the old pointer and may still
  // be reading a slot, so retirement is deferred to the destructor (the
  // deque's lifetime is one graph round — bounded garbage).
  std::vector<Array*> retired_;
};

/// Runs the graph on the work-stealing task pool. Collective over all
/// ranks of a parallel-engine machine with size >= 2, in adaptive mode
/// (run_graph dispatches here after validating all three); each rank's
/// thread enters as one worker and returns its own rank's report.
SchedReport run_graph_tasks(const TaskGraph& graph, Communicator& comm,
                            const SchedOptions& opts);

class RecoveryCoordinator;
namespace recovery_internal {
struct AdoptionDriver;
}

/// run_graph_tasks with rank-kill recovery armed (run_recoverable's tasks
/// backend): inflows and completions are logged to the coordinator, every
/// worker polls its rank's kill flag, a killed rank departs the arena
/// without failing the round (its remaining items are dropped and its
/// corpse adopted via `drv`), and the deadlock detector stands down while
/// a death is being recovered. Requires opts.adaptive (the caller,
/// run_recoverable, already enforces it).
SchedReport run_graph_tasks_recoverable(const TaskGraph& graph,
                                        Communicator& comm,
                                        const SchedOptions& opts,
                                        RecoveryCoordinator& rc,
                                        recovery_internal::AdoptionDriver& drv);

}  // namespace wavepipe
