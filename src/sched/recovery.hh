// Rank-kill recovery: scheduler-level replay of a dead rank's task graph.
//
// The fault model is fail-stop with a cooperative kill point: a kill is
// *requested* (Machine::request_kill — from the chaos injector's seeded
// plan, the WAVEPIPE_KILL knob, or the coordinator's completion-count
// switch) and the victim dies at its next kill point — the executor's
// loop-top poll or any blocking mailbox operation, whichever comes first.
// Dying is not vanishing: the victim unwinds through a harvest (it cancels
// its posted receives, banking any already-arrived payloads into the
// coordinator's inflow log), disarms the kill, marks itself dead on the
// machine's death board, and lets its RankDeath reach the machine frame,
// which swallows a recovered self-death instead of poisoning the world.
//
// There is one SPMD executor, SchedExecutor, with or without a
// coordinator: run_graph runs it without one, and run_recoverable hands the
// same loop its coordinator and adoption driver (logging, kill points,
// adoption polling, the harvest) — exactly as the tasks backend's arena
// takes an optional coordinator. A fault-free recoverable run is therefore
// byte-identical to run_graph. The heir's replay runs on it too.
//
// Recovery is replay from the inflow log. Every task records the message
// payloads it consumed and its completion, so a dead rank's execution is
// reconstructible without checkpoints: the surviving heir (the next live
// rank after the victim, cyclically — a deterministic choice every rank
// computes identically from the death board) rebuilds the victim's program
// from the coordinator's factory (graph building is comm-free and
// deterministic by construction) and hands it, with the victim's log, to a
// SchedExecutor on a proxy Communicator bound to the victim's rank. That
// executor re-runs completed tasks with their logged inflows and
// *suppressed* sends (the originals were buffered sends, already deposited
// at the destination), then runs the incomplete remainder live in
// non-blocking steps — so re-emitted outflow faces carry the victim's
// (src, tag) and downstream ranks match them FIFO exactly as if the victim
// had lived. The log is bounded: one payload copy per consumed inflow of a
// not-yet-collected rank, O(faces) per rank, freed with the coordinator.
//
// Only adaptive mode is recoverable. Static FIFO issues *blocking*
// receives at pick time — at a kill point mid-task there is no posted-set
// to harvest and no record of which same-key message the next blocking recv
// would have matched. Static FIFO is the fault-free oracle, not a runtime
// mode, so recovery fails fast (typed SchedError) on !opts.adaptive rather
// than pretend. DESIGN.md §16 has the full contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/communicator.hh"
#include "sched/executor.hh"

namespace wavepipe {

class Machine;

/// One rank's schedulable program, as the recovery factory rebuilds it:
/// the task graph, the state its task bodies capture (kept alive by the
/// shared_ptr — the graph's closures point into it), and a comm-free
/// epilogue that publishes the state's final values (e.g. copying the
/// rank's block into a host-side result buffer). The epilogue runs exactly
/// once per rank per run: by the rank itself after its graph drains, or by
/// the heir after the adopted replay finishes.
struct RankProgram {
  TaskGraph graph;
  std::shared_ptr<void> state;
  std::function<void()> epilogue;
};

/// The inflow log of one rank, as RecoveryCoordinator::snapshot hands it
/// to the rank's heir (SchedExecutor replays from it).
struct VictimLog {
  /// Completed task ids in completion order (a topological order of the
  /// victim's executed prefix).
  std::vector<TaskId> completed;
  /// completed-membership by task id (sized to the graph lazily).
  std::vector<char> is_complete;
  /// Logged inflow payloads: [task id][inflow index], nullopt when the
  /// victim had not consumed that inflow (the heir receives it live).
  std::vector<std::vector<std::optional<std::vector<double>>>> inflows;

  bool completed_task(TaskId t) const {
    const auto i = static_cast<std::size_t>(t);
    return i < is_complete.size() && is_complete[i];
  }
  const std::optional<std::vector<double>>* logged(TaskId t,
                                                   std::size_t k) const {
    const auto i = static_cast<std::size_t>(t);
    if (i >= inflows.size() || k >= inflows[i].size()) return nullptr;
    return &inflows[i][k];
  }
};

/// Rebuilds any rank's program deterministically, without communicating.
/// Called once per rank at run start and once more per adopted corpse.
using ProgramFactory = std::function<RankProgram(int rank)>;

/// The shared recovery state of one machine run: the program factory, the
/// per-(rank, task) inflow log, death/adoption bookkeeping, and the
/// completion-count kill switch. One coordinator serves one run_recoverable
/// collective; every rank holds a reference to the same instance. All
/// mutating entry points lock the coordinator mutex — logging is off the
/// per-message fast path (one lock per *task* promotion, not per deposit),
/// and recovery runs are about surviving kills, not peak throughput.
class RecoveryCoordinator {
 public:
  explicit RecoveryCoordinator(ProgramFactory factory)
      : factory_(std::move(factory)) {}

  /// Binds the coordinator to `m` and arms death-recovery semantics on it
  /// (messages to dead ranks queue for the heir; a recovered self-death is
  /// swallowed by the machine frame). Call once, before Machine::run —
  /// ChaosOptions::configure is the seam for chaos runs.
  void attach(Machine& m);

  Machine& machine() const {
    require(machine_ != nullptr, "RecoveryCoordinator is not attached");
    return *machine_;
  }
  bool attached() const { return machine_ != nullptr; }

  /// Completion-count kill switch: request_kill(rank) fires when the
  /// machine-wide count of completed tasks (across all ranks) reaches
  /// `completions`. The deterministic kill trigger for engines the chaos
  /// injector cannot drive (the parallel engine has no scheduler-step
  /// seam); 0 fires on the first completion. Disarmed by default.
  void arm_kill_after(int rank, std::uint64_t completions);

  /// Builds rank r's program via the factory. Comm-free.
  RankProgram build(int rank) const { return factory_(rank); }

  // ---- inflow log (executors call these as tasks consume and complete) --

  /// Records the payload task `t` of rank `rank` consumed for its inflow
  /// index `k` (declaration order). Idempotent per (rank, t, k): replays
  /// keep the first copy.
  void log_inflow(int rank, TaskId t, std::size_t k,
                  std::span<const double> payload);

  /// Records that task `t` of rank `rank` completed (body ran, successors
  /// released). Also advances the completion-count kill switch.
  void log_complete(int rank, TaskId t);

  /// Snapshots rank `victim`'s log (call after the victim marked itself
  /// dead — its last harvest entries are published by the death-board
  /// release/acquire pair).
  VictimLog snapshot(int victim) const;

  // ---- adoption / exit bookkeeping -------------------------------------

  /// Claims the adoption of `victim` for the calling heir; true exactly
  /// once per victim (belt-and-braces — the cyclic heir rule is already
  /// unique).
  bool claim(int victim);

  /// Marks rank `rank`'s program (own or adopted) fully finished —
  /// epilogue included — and nudges every live rank so exit-barrier
  /// predicates re-evaluate.
  void mark_finished(int rank);
  bool finished(int rank) const;
  /// True once every rank's program has finished (the exit-barrier
  /// predicate). A rank that died *after* finishing needs no adoption.
  bool all_finished() const;

 private:
  ProgramFactory factory_;
  Machine* machine_ = nullptr;
  mutable std::mutex mu_;
  // Per-rank log (indexed by rank; inner vectors sized lazily by task id).
  std::vector<VictimLog> logs_;
  std::vector<char> finished_;
  std::vector<char> claimed_;
  // Kill switch.
  int kill_rank_ = -1;
  std::uint64_t kill_after_ = 0;
  bool kill_sent_ = false;
  std::uint64_t completions_ = 0;
};

namespace recovery_internal {

/// The per-rank adoption engine shared by the SPMD executor (when run with
/// a coordinator), the tasks-backend arena, and the exit barrier: scans the
/// death board on epoch changes, claims corpses whose heir this rank is,
/// and steps the adopted programs. Driven only by its own rank's thread;
/// on the parallel engine the victim's mark_dead / death-epoch acquire
/// pair hands the victim's mailbox over to it.
struct AdoptionDriver {
  AdoptionDriver(RecoveryCoordinator& rc_in, Communicator& comm);

  AdoptionDriver(const AdoptionDriver&) = delete;
  AdoptionDriver& operator=(const AdoptionDriver&) = delete;

  /// One adopted corpse: its rebuilt program and log, a proxy
  /// Communicator bound to the *victim's* rank — so live receives match
  /// the messages queued in the victim's mailbox and re-emitted sends
  /// carry the victim's (src, tag), tag-transparent to downstream ranks —
  /// and the SchedExecutor that replays and finishes it on the proxy.
  struct Adopted {
    Adopted(RecoveryCoordinator& rc, int victim);

    int victim;
    RankProgram prog;
    VictimLog log;
    Communicator proxy;
    SchedExecutor exec;
    bool finished = false;
  };

  /// The heir of `victim`: the next surviving rank, cyclically.
  static int heir_of(Machine& m, int victim);

  /// Adopts newly dead ranks and makes adopted progress; true if any
  /// program was claimed, ran a task, or finished.
  bool poll();

  /// Idle-wake predicate: the death board changed since the last poll(),
  /// or an adopted program's pending inflow physically arrived.
  bool wake();

  RecoveryCoordinator& rc;
  Machine& m;
  int rank;
  std::vector<std::unique_ptr<Adopted>> adopted;
  std::uint64_t epoch_seen = 0;
};

}  // namespace recovery_internal

/// Runs rank `comm.rank()`'s share of a recoverable collective: builds the
/// rank's program from the coordinator's factory, executes the graph with
/// inflow logging and kill points, runs the epilogue, then holds the rank
/// in the exit barrier until every rank's program (adopted ones included)
/// has finished — so a late kill always still has live ranks to adopt the
/// corpse. Dispatches on opts.backend exactly like run_graph: kSpmd runs
/// the one SPMD executor, SchedExecutor, with this coordinator (any
/// engine), kTasks the work-stealing arena (parallel engine only).
/// Requires opts.adaptive (typed SchedError otherwise — see the header
/// comment) and an attached coordinator.
///
/// On this rank's own death the RankDeath escapes this call after the
/// harvest/mark-dead protocol ran; the caller must let it unwind into the
/// machine frame (which swallows it when recovery is armed).
SchedReport run_recoverable(Communicator& comm, RecoveryCoordinator& rc,
                            const SchedOptions& opts);

}  // namespace wavepipe
