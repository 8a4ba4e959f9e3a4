#include "sched/parallel_executor.hh"

#include <algorithm>
#include <map>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "comm/communicator.hh"
#include "comm/machine.hh"
#include "comm/spsc.hh"
#include "sched/recovery.hh"
#include "support/error.hh"

namespace wavepipe {

// ---- WorkStealingDeque ----------------------------------------------------

WorkStealingDeque::WorkStealingDeque() : array_(new Array(64)) {}

WorkStealingDeque::~WorkStealingDeque() {
  delete array_.load(std::memory_order_relaxed);
  for (Array* a : retired_) delete a;
}

void WorkStealingDeque::push(std::int64_t v) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  Array* a = array_.load(std::memory_order_seq_cst);
  if (b - t >= a->capacity - 1) a = grow(a, b, t);
  a->put(b, v);
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

WorkStealingDeque::Array* WorkStealingDeque::grow(Array* a, std::int64_t b,
                                                  std::int64_t t) {
  // Owner-only (called from push). Thieves may still be reading the old
  // array through their loaded pointer, so it is retired, not freed.
  Array* bigger = new Array(a->capacity * 2);
  for (std::int64_t i = t; i < b; ++i) bigger->put(i, a->get(i));
  retired_.push_back(a);
  array_.store(bigger, std::memory_order_seq_cst);
  return bigger;
}

bool WorkStealingDeque::pop(std::int64_t& out) {
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst) - 1;
  Array* a = array_.load(std::memory_order_seq_cst);
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Empty: restore bottom.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return false;
  }
  out = a->get(b);
  if (t == b) {
    // Last item: race the thieves for it with the CAS they use. Win or
    // lose, the deque is empty, so bottom resets past the contested slot.
    const bool won = top_.compare_exchange_strong(t, t + 1,
                                                  std::memory_order_seq_cst);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return won;
  }
  return true;
}

bool WorkStealingDeque::steal(std::int64_t& out) {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return false;
  Array* a = array_.load(std::memory_order_seq_cst);
  out = a->get(t);
  // The CAS claims the slot; losing means another thief (or the owner's
  // last-item pop) got there first.
  return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst);
}

bool WorkStealingDeque::empty() const {
  const std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  return t >= b;
}

// ---- task arena -----------------------------------------------------------

namespace {

// Deque items pack (rank, task) into one int64: rank in the high half, the
// task id (non-negative) in the low half.
constexpr std::int64_t pack_item(int rank, TaskId t) {
  return (static_cast<std::int64_t>(rank) << 32) |
         static_cast<std::int64_t>(static_cast<std::uint32_t>(t));
}
constexpr int item_rank(std::int64_t v) { return static_cast<int>(v >> 32); }
constexpr TaskId item_task(std::int64_t v) {
  return static_cast<TaskId>(static_cast<std::uint32_t>(v));
}

}  // namespace

/// The shared state of one collective run_graph_tasks round: every rank of
/// the machine enters, installs a slot, and its thread becomes a worker of
/// the pool until its own rank's graph is fully executed. Named (not in an
/// anonymous namespace) because TaskContext befriends it.
class TaskArena {
 public:
  TaskArena(int nranks, PoolSignal& signal)
      : nranks_(nranks), signal_(signal),
        storage_(static_cast<std::size_t>(nranks)),
        live_(static_cast<std::size_t>(nranks)) {
    for (auto& p : live_) p.store(nullptr, std::memory_order_relaxed);
  }

  SchedReport run(const TaskGraph& graph, Communicator& comm,
                  RecoveryCoordinator* rc = nullptr,
                  recovery_internal::AdoptionDriver* drv = nullptr);

  bool all_departed() const {
    return departed_n_.load(std::memory_order_acquire) == nranks_;
  }

 private:
  using Key = std::pair<double, TaskId>;
  using KeyedTask = std::pair<Key, TaskId>;

  /// Per-rank slot. Split into lock-free fields (deque, dependence counts,
  /// remaining, steals, departed) and consumer-side fields guarded by the
  /// rank's Communicator operation lock (pending inflow requests, buffers,
  /// outflow sends, the report).
  struct RankSlot final : TaskSink {
    RankSlot(TaskArena& a, const TaskGraph& g, Communicator& c)
        : arena(a), graph(g), comm(c), slab(g) {}

    TaskArena& arena;
    const TaskGraph& graph;
    Communicator& comm;
    sched_internal::GraphAnalysis analysis;
    int rank = -1;

    // Lock-free.
    WorkStealingDeque deque;  // this worker's ready items (any rank's tasks)
    std::unique_ptr<std::atomic<int>[]> deps;
    std::atomic<std::size_t> remaining{0};
    std::atomic<std::size_t> steals{0};
    std::atomic<bool> departed{false};
    // Set (before `departed`) by a recovered own-rank death: the items of
    // this rank still in deques are stale, and its heir runs them.
    std::atomic<bool> dying{false};
    // Workers currently inside run_item on one of this rank's tasks — the
    // departure quiesce gate (see run_item / quiesce for the protocol).
    std::atomic<int> inflight{0};

    // This rank's adoption driver when the round runs with recovery armed
    // (run_graph_tasks_recoverable). Touched only by this rank's own
    // thread — adoption work never migrates to thieves.
    recovery_internal::AdoptionDriver* drv = nullptr;

    // Worker-owned: touched only by this slot's own thread, whichever
    // rank's task it is running, and reused so the per-task path
    // (run_item, finish_task, promotion) allocates nothing.
    std::vector<double> scratch;   // TaskContext::scratch
    std::vector<TaskId> zeros;     // successors whose count hit zero
    std::vector<KeyedTask> ready;  // released or promoted, to push

    // Guarded by comm's operation lock. A task pends once per inflow (the
    // entries are consecutive, in declaration order); `missing` counts the
    // in-flight inflows per task and the task is promoted at zero.
    std::vector<TaskId> pending;        // inflow posted, in flight
    std::vector<std::size_t> pending_k;  // its inflow index (for the log)
    std::vector<Request> pending_req;   // parallel to `pending`
    std::vector<int> missing;
    // Receives write it under the lock; a task's payloads are read by the
    // one worker that runs it, after the promotion that handed it over.
    sched_internal::InflowSlab slab;
    std::vector<Request> sends;
    SchedReport report;

    Key key(TaskId t) const {
      return sched_internal::task_key(analysis, /*adaptive=*/true, t);
    }

    void task_send(int dst, std::span<const double> payload,
                   int tag) override {
      // Reached from a task body on any worker: the op lock serializes the
      // isend and the request-vector append with every other consumer-side
      // operation on this rank.
      auto l = comm.lock_ops();
      sends.push_back(comm.isend(dst, payload, tag));
    }
  };

  void worker_loop(RankSlot& my);
  void run_item(RankSlot& my, std::int64_t v);
  void finish_task(RankSlot& my, RankSlot& q, TaskId t);
  bool promote(RankSlot& my, RankSlot& q);
  bool assist(RankSlot& my, int r);
  void drain_arrived(RankSlot& q, std::vector<KeyedTask>& got);
  bool find_work(RankSlot& my);
  bool work_visible();
  void idle_wait(RankSlot& my);
  bool maybe_declare_deadlock(RankSlot& my);
  void depart(RankSlot& my);
  void abandon(RankSlot& my);
  void die_in_arena(RankSlot& my, const RankDeath& rd);
  void quiesce(RankSlot& my);
  void push_ready_items(RankSlot& my, int rank, std::vector<KeyedTask>& items);
  void release_locked(RankSlot& q, TaskId t, std::vector<KeyedTask>& ready);

  void bump() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    signal_.notify();
  }

  void set_failed(const std::string& why) {
    {
      std::lock_guard<std::mutex> l(fail_mu_);
      if (fail_reason_.empty()) fail_reason_ = why;
    }
    failed_.store(true, std::memory_order_seq_cst);
    // Unconditional wake: every parked worker must observe the failure.
    signal_.parker.unpark();
  }

  [[noreturn]] void throw_failed() {
    std::lock_guard<std::mutex> l(fail_mu_);
    throw SchedError(fail_reason_.empty() ? "tasks backend aborted"
                                          : fail_reason_);
  }

  void check_aborted(RankSlot& my) {
    if (failed_.load(std::memory_order_acquire)) throw_failed();
    if (my.comm.machine().mailbox(my.rank).failed()) {
      set_failed("tasks backend aborted on rank " + std::to_string(my.rank) +
                 ": machine poisoned (a peer rank failed)");
      throw_failed();
    }
  }

  bool aborted(RankSlot& my) const {
    return failed_.load(std::memory_order_acquire) ||
           my.comm.machine().mailbox(my.rank).failed();
  }

  RecoveryCoordinator* recovery() const {
    return rc_.load(std::memory_order_acquire);
  }

  const int nranks_;
  PoolSignal& signal_;
  // Set (identically, by every rank) when the round runs with recovery
  // armed; null on plain run_graph_tasks rounds.
  std::atomic<RecoveryCoordinator*> rc_{nullptr};
  std::atomic<int> registered_{0};
  std::atomic<int> departed_n_{0};
  // Bumped on registration, every task completion, every promotion batch,
  // and departure: the idle/deadlock protocol's "something changed" clock.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> failed_{false};
  std::mutex fail_mu_;
  std::string fail_reason_;
  // Serializes slot installation and departure against foreign-rank scans:
  // a scanner acquires a foreign rank's comm lock only inside scan_mu_
  // after checking `departed`, and departure flips `departed` inside
  // scan_mu_ *while holding its own comm lock*, so no scanner can still be
  // inside a departing rank's communicator when its thread returns (and
  // later destroys it).
  std::mutex scan_mu_;
  std::vector<std::unique_ptr<RankSlot>> storage_;
  std::vector<std::atomic<RankSlot*>> live_;
};

void TaskArena::push_ready_items(RankSlot& my, int rank,
                                 std::vector<KeyedTask>& items) {
  if (items.empty()) return;
  // Priority as a steal-order hint: sort descending so the best (smallest)
  // key is pushed last — the owner LIFO-pops it next (depth-first along
  // the critical path) while thieves FIFO-steal from the other end, taking
  // the work the owner valued least.
  std::sort(items.begin(), items.end(), std::greater<>());
  for (const auto& [k, t] : items) my.deque.push(pack_item(rank, t));
  items.clear();
}

/// Releases task `t` of rank q (its dependence count just hit zero).
/// Caller holds q's comm lock. Inflow tasks post their irecvs and go to the
/// pending set; other tasks are appended to `ready` for the caller to push
/// into its own deque (outside the lock).
void TaskArena::release_locked(RankSlot& q, TaskId t,
                               std::vector<KeyedTask>& ready) {
  const TaskGraph::Task& task = q.graph.task(t);
  if (!task.inflows.empty()) {
    for (std::size_t k = 0; k < task.inflows.size(); ++k) {
      q.pending_req.push_back(q.comm.irecv(task.inflows[k].src,
                                           q.slab.buffer(t, k),
                                           task.inflows[k].tag));
      q.pending.push_back(t);
      q.pending_k.push_back(k);
    }
    q.missing[static_cast<std::size_t>(t)] =
        static_cast<int>(task.inflows.size());
    q.report.max_posted = std::max(q.report.max_posted, q.pending.size());
  } else {
    ready.push_back({q.key(t), t});
  }
}

SchedReport TaskArena::run(const TaskGraph& graph, Communicator& comm,
                           RecoveryCoordinator* rc,
                           recovery_internal::AdoptionDriver* drv) {
  comm.enable_concurrent_ops();
  const int rank = comm.rank();
  if (rc) {
    RecoveryCoordinator* expected = nullptr;
    if (!rc_.compare_exchange_strong(expected, rc,
                                     std::memory_order_acq_rel))
      internal_check(expected == rc,
                     "ranks of one tasks round passed different recovery "
                     "coordinators");
  }
  std::unique_ptr<RankSlot> owned;
  try {
    owned = std::make_unique<RankSlot>(*this, graph, comm);
    RankSlot& my = *owned;
    my.rank = rank;
    my.drv = drv;
    my.analysis = sched_internal::analyze_graph(graph);
    const std::size_t n = graph.size();
    my.report.tasks = n;
    my.report.edges = graph.edges();
    my.report.adaptive = true;
    my.report.backend = SchedBackend::kTasks;
    my.deps.reset(new std::atomic<int>[n]);
    for (std::size_t i = 0; i < n; ++i)
      my.deps[i].store(my.analysis.deps[i], std::memory_order_relaxed);
    my.missing.assign(n, 0);
    my.remaining.store(n, std::memory_order_seq_cst);

    // Initial releases, before the slot is visible to anyone else.
    auto l = comm.lock_ops();
    for (std::size_t i = 0; i < n; ++i)
      if (my.analysis.deps[i] == 0)
        release_locked(my, static_cast<TaskId>(i), my.ready);
  } catch (const std::exception& e) {
    // Peers are already (or about to be) pooled on this round: make them
    // abort with this reason instead of idling until the poison cascade.
    set_failed(e.what());
    // The slot was never installed, so no departure handshake is needed —
    // but the departure must still be counted, or all_departed() would
    // stay false and the failed round would pin its arena in PoolHost.
    departed_n_.fetch_add(1, std::memory_order_seq_cst);
    bump();
    throw;
  }
  RankSlot& my = *owned;
  {
    std::lock_guard<std::mutex> sl(scan_mu_);
    storage_[static_cast<std::size_t>(rank)] = std::move(owned);
    live_[static_cast<std::size_t>(rank)].store(&my,
                                                std::memory_order_release);
  }
  push_ready_items(my, rank, my.ready);
  registered_.fetch_add(1, std::memory_order_seq_cst);
  bump();

  try {
    worker_loop(my);
    depart(my);
  } catch (const SchedError&) {
    // Every SchedError path above already set the failure flag.
    abandon(my);
    throw;
  } catch (const RankDeath& rd) {
    if (recovery() != nullptr && rd.rank() == my.rank) {
      // This rank's own kill with recovery armed: depart the arena without
      // failing the round, harvest, and let the death unwind to the
      // machine frame (which swallows a recovered self-death).
      die_in_arena(my, rd);
      throw;
    }
    set_failed(std::string("tasks backend aborted: ") + rd.what());
    abandon(my);
    throw;
  } catch (const Error& e) {
    set_failed(std::string("tasks backend aborted: ") + e.what());
    abandon(my);
    throw;
  } catch (const std::exception& e) {
    set_failed(std::string("tasks backend aborted: ") + e.what());
    abandon(my);
    throw;
  } catch (...) {
    set_failed("tasks backend aborted: unknown exception from a task body");
    abandon(my);
    throw;
  }
  my.report.steals = my.steals.load(std::memory_order_relaxed);
  return my.report;
}

void TaskArena::worker_loop(RankSlot& my) {
  std::int64_t item = 0;
  for (;;) {
    check_aborted(my);
    // Recovery kill point: the cooperative death seam for a worker that
    // never blocks (steals keep it busy). Foreign mailbox waits can also
    // surface the kill as RankDeath; both land in run()'s handler.
    if (recovery() != nullptr &&
        my.comm.machine().kill_requested(my.rank))
      throw RankDeath(my.rank,
                      "rank " + std::to_string(my.rank) +
                          " killed (tasks backend kill point)");
    // Own deque first: freshest task, hottest cache.
    if (my.deque.pop(item)) {
      run_item(my, item);
      continue;
    }
    if (my.remaining.load(std::memory_order_seq_cst) == 0) break;
    if (find_work(my)) continue;
    idle_wait(my);
  }
}

bool TaskArena::find_work(RankSlot& my) {
  // Own promotions first (task affinity), then steals, then assisting
  // another rank's promotions.
  RankSlot* mine = live_[static_cast<std::size_t>(my.rank)].load(
      std::memory_order_acquire);
  if (mine && promote(my, *mine)) return true;
  std::int64_t item = 0;
  for (int off = 1; off < nranks_; ++off) {
    const auto r = static_cast<std::size_t>((my.rank + off) % nranks_);
    RankSlot* s = live_[r].load(std::memory_order_acquire);
    if (s && s->deque.steal(item)) {
      run_item(my, item);
      return true;
    }
  }
  for (int off = 1; off < nranks_; ++off)
    if (assist(my, (my.rank + off) % nranks_)) return true;
  // Adoption is work too: claim any corpse whose heir this rank is and
  // step the adopted programs. Interleaved here (not deferred to the exit
  // barrier) because this rank's own graph may be waiting on the victim's
  // re-emitted outflow faces.
  return my.drv && my.drv->poll();
}

bool TaskArena::promote(RankSlot& my, RankSlot& q) {
  // Own rank only (q cannot depart under us — we *are* its thread).
  auto l = q.comm.try_lock_ops();
  if (!l.owns_lock()) return false;
  drain_arrived(q, my.ready);
  l.unlock();
  if (my.ready.empty()) return false;
  push_ready_items(my, q.rank, my.ready);
  bump();
  return true;
}

bool TaskArena::assist(RankSlot& my, int r) {
  RankSlot* q = nullptr;
  std::unique_lock<OpLock> held;
  {
    // The scan_mu_ window guarantees q cannot depart (and its thread
    // destroy the Communicator) between the departed check and our lock
    // acquisition; once we hold q's comm lock, departure waits for us.
    std::lock_guard<std::mutex> sl(scan_mu_);
    q = live_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
    if (!q || q->departed.load(std::memory_order_acquire)) return false;
    // Never drain a rank whose kill is pending: its mailbox throws the
    // victim's RankDeath from any blocking op ("kill beats completion"),
    // and the victim's own harvest will bank the arrived messages anyway.
    if (recovery() != nullptr &&
        q->comm.machine().kill_requested(q->rank))
      return false;
    held = q->comm.try_lock_ops();
    if (!held.owns_lock()) return false;
  }
  try {
    drain_arrived(*q, my.ready);
  } catch (const RankDeath& rd) {
    // The kill armed between the check above and the drain's wait. The
    // death is q's, not ours: back off and let q's thread die properly.
    // Tasks promoted before the throw are dropped: their inflows are
    // logged, so q's heir runs them.
    if (recovery() == nullptr || rd.rank() != q->rank) throw;
    held.unlock();
    my.ready.clear();
    return false;
  }
  held.unlock();
  if (my.ready.empty()) return false;
  // The promoted tasks go into *my* deque (Chase–Lev push is owner-only);
  // q's worker can steal them back, and usually this worker — idle, or it
  // would not be assisting — just runs them.
  push_ready_items(my, q->rank, my.ready);
  bump();
  return true;
}

/// Moves every arrived pending inflow of q into `got` (consuming the
/// requests). Caller holds q's comm lock; `got` is the caller's worker-
/// owned buffer, empty on entry.
void TaskArena::drain_arrived(RankSlot& q, std::vector<KeyedTask>& got) {
  RecoveryCoordinator* rc = recovery();
  for (std::size_t i = 0; i < q.pending.size();) {
    if (q.comm.arrived(q.pending_req[i])) {
      // Non-blocking here (the message physically arrived); unlike test()
      // this accepts a future-stamped message, charging the stall now —
      // adaptive runs are probe-class, values stay exact.
      q.comm.wait(q.pending_req[i]);
      const TaskId t = q.pending[i];
      // Log immediately after the consuming wait: the next iteration's
      // wait is a kill point, and an unlogged consumed message would be
      // unrecoverable (it already left the mailbox).
      if (rc)
        rc->log_inflow(
            q.rank, t, q.pending_k[i],
            q.slab.payloads(t)[q.pending_k[i]]);
      q.pending.erase(q.pending.begin() + static_cast<std::ptrdiff_t>(i));
      q.pending_k.erase(q.pending_k.begin() + static_cast<std::ptrdiff_t>(i));
      q.pending_req.erase(q.pending_req.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (--q.missing[static_cast<std::size_t>(t)] == 0)
        got.push_back({q.key(t), t});
    } else {
      ++i;
    }
  }
}

void TaskArena::run_item(RankSlot& my, std::int64_t v) {
  const int r = item_rank(v);
  RankSlot* qp =
      live_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  internal_check(qp != nullptr, "task item for an uninstalled rank");
  RankSlot& q = *qp;
  // Entry half of the departure handshake (Dekker with quiesce()):
  // advertise this worker inside q's communicator, then re-check
  // `departed` — both seq_cst. Either q's departing thread sees the
  // increment and waits it out, or this worker sees the flag and backs
  // out before touching a Communicator whose frame is being unwound.
  // The guard's decrement must also run when the task body throws.
  q.inflight.fetch_add(1, std::memory_order_seq_cst);
  struct InflightGuard {
    std::atomic<int>& n;
    ~InflightGuard() { n.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{q.inflight};
  if (q.departed.load(std::memory_order_seq_cst)) {
    // A recovered death departs with its unrun items still in deques:
    // they are stale — the heir's adopted program runs them (they were
    // never logged complete), so a worker that drew one just drops it.
    // `dying` is stored before `departed`, so it is visible here. The
    // machine's kill and death flags are no substitute: between the
    // victim's clear_kill and mark_dead neither is set.
    if (q.dying.load(std::memory_order_seq_cst)) return;
    // Otherwise only a failed round departs with items still in deques.
    check_aborted(my);
    internal_check(false, "stolen task raced a non-failed departure");
  }
  const TaskId t = item_task(v);
  const TaskGraph::Task& task = q.graph.task(t);
  // The clock read and the trace record need q's lock; with tracing off
  // (fixed for the Communicator's lifetime) neither happens.
  const bool traced = q.comm.tracer().enabled();
  double t0 = 0.0;
  if (traced) {
    auto l = q.comm.lock_ops();
    t0 = q.comm.vtime();
  }
  {
    // The body runs unlocked — this is the real-parallelism window. Its
    // comm calls (TaskContext::send, compute, ...) self-lock.
    TaskContext ctx(q.comm, q, my.scratch, q.slab.payloads(t));
    if (task.run) task.run(ctx);
  }
  if (traced) {
    auto l = q.comm.lock_ops();
    q.comm.tracer().record(TraceEventType::kTask, t0, q.comm.vtime(),
                           task.inflows.empty() ? -1 : task.inflows.front().src,
                           static_cast<int>(t),
                           static_cast<std::uint64_t>(task.cost));
  }
  finish_task(my, q, t);
}

void TaskArena::finish_task(RankSlot& my, RankSlot& q, TaskId t) {
  if (q.rank != my.rank) q.steals.fetch_add(1, std::memory_order_relaxed);
  // Log the completion before releasing any successor: once released, a
  // successor may be stolen, run and logged by another worker, and the
  // heir replays the log in order, so a successor logged ahead of `t`
  // would replay against state `t` has not written yet. Logging here is
  // also before the `remaining` decrement, so a dying rank's quiesce()
  // (which waits out in-flight finishers) sees every completed task in
  // the log before its heir snapshots it.
  if (RecoveryCoordinator* rc = recovery()) rc->log_complete(q.rank, t);
  // Atomic dependence-count decrements; exactly one decrementer observes
  // the count hit zero and owns the release of that successor.
  my.zeros.clear();
  for (const TaskId s : q.graph.successors(t))
    if (q.deps[static_cast<std::size_t>(s)].fetch_sub(
            1, std::memory_order_seq_cst) == 1)
      my.zeros.push_back(s);
  if (!my.zeros.empty()) {
    {
      auto l = q.comm.lock_ops();
      for (const TaskId s : my.zeros) release_locked(q, s, my.ready);
    }
    push_ready_items(my, q.rank, my.ready);
  }
  // Decrement `remaining` last: it is the departure gate, so every touch of
  // q's communicator on this completion path happens while departure is
  // still excluded.
  q.remaining.fetch_sub(1, std::memory_order_seq_cst);
  bump();
}

bool TaskArena::work_visible() {
  // Deque peeks are lock-free.
  for (int r = 0; r < nranks_; ++r) {
    RankSlot* s =
        live_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
    if (s && !s->deque.empty()) return true;
  }
  std::lock_guard<std::mutex> sl(scan_mu_);
  for (int r = 0; r < nranks_; ++r) {
    RankSlot* s =
        live_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
    if (!s || s->departed.load(std::memory_order_acquire)) continue;
    auto l = s->comm.try_lock_ops();
    if (!l.owns_lock()) continue;  // the holder will bump() when done
    for (const Request& req : s->pending_req)
      if (s->comm.arrived(req)) return true;
  }
  return false;
}

void TaskArena::idle_wait(RankSlot& my) {
  // PoolSignal consumer protocol: register as idler (seq_cst — pairs with
  // the fence in PoolSignal::notify), take the ticket, re-check, park.
  signal_.idlers.fetch_add(1, std::memory_order_seq_cst);
  const std::uint32_t ticket = signal_.parker.prepare();
  bool skip = aborted(my) ||
              my.remaining.load(std::memory_order_seq_cst) == 0 ||
              work_visible();
  // Recovery wake conditions: our own pending kill, a death-board change
  // (a corpse may need adopting), or an adopted program's inflow arrival.
  if (!skip && recovery() != nullptr &&
      (my.comm.machine().kill_requested(my.rank) ||
       (my.drv && my.drv->wake())))
    skip = true;
  if (!skip && maybe_declare_deadlock(my)) skip = true;
  if (!skip) signal_.parker.park(ticket);
  signal_.idlers.fetch_sub(1, std::memory_order_seq_cst);
}

bool TaskArena::maybe_declare_deadlock(RankSlot& my) {
  // Only meaningful once every rank is pooled (a not-yet-registered rank
  // will bump the epoch and notify when it arrives) and every live worker
  // is idle. Called with this worker already registered as an idler.
  if (registered_.load(std::memory_order_seq_cst) != nranks_) return false;
  // Stand down while a death is in flight: a pending kill means the victim
  // is about to wake up dying (which can unblock everyone), and a dead
  // rank whose program has not finished means its heir is still adopting —
  // progress the all-idle scan cannot see.
  if (RecoveryCoordinator* rc = recovery()) {
    Machine& m = my.comm.machine();
    for (int r = 0; r < nranks_; ++r)
      if (m.kill_requested(r) || (m.rank_dead(r) && !rc->finished(r)))
        return false;
  }
  const int live =
      nranks_ - departed_n_.load(std::memory_order_seq_cst);
  if (signal_.idlers.load(std::memory_order_seq_cst) != live) return false;
  const std::uint64_t e0 = epoch_.load(std::memory_order_seq_cst);

  std::ostringstream stuck;
  std::size_t left = 0;
  bool any_stuck = false;
  {
    std::lock_guard<std::mutex> sl(scan_mu_);
    for (int r = 0; r < nranks_; ++r) {
      RankSlot* s =
          live_[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
      if (!s) return false;
      if (s->departed.load(std::memory_order_acquire)) continue;
      if (!s->deque.empty()) return false;
      auto l = s->comm.try_lock_ops();
      if (!l.owns_lock()) return false;  // someone is mid-operation
      TaskId prev = kNoTask;
      for (std::size_t i = 0; i < s->pending.size(); ++i) {
        if (s->comm.arrived(s->pending_req[i])) return false;
        if (s->pending[i] == prev) continue;  // one line per stuck task
        prev = s->pending[i];
        const TaskGraph::Task& task = s->graph.task(s->pending[i]);
        stuck << (any_stuck ? ", " : "") << "task '" << task.label << "' (";
        for (std::size_t k = 0; k < task.inflows.size(); ++k)
          stuck << (k ? ", " : "") << "inflow src=" << task.inflows[k].src
                << " tag=" << task.inflows[k].tag;
        stuck << ") on rank " << r;
        any_stuck = true;
      }
      left += s->remaining.load(std::memory_order_seq_cst);
    }
  }
  if (left == 0) return false;
  // Confirm nothing moved while we scanned: any claim/completion bumps the
  // epoch, and any worker that left idleness changes the idler count.
  if (epoch_.load(std::memory_order_seq_cst) != e0) return false;
  if (signal_.idlers.load(std::memory_order_seq_cst) != live) return false;

  std::ostringstream os;
  os << "scheduler deadlock (tasks backend): all workers idle with " << left
     << " task(s) unfinished";
  if (any_stuck) os << "; stuck on " << stuck.str();
  set_failed(os.str());
  return true;
}

void TaskArena::depart(RankSlot& my) {
  {
    // Settle outflow sends exactly as the SPMD backend's endgame does (in
    // posting order — deterministic phase accounting).
    auto l = my.comm.lock_ops();
    try {
      my.comm.wait_all(std::span<Request>(my.sends));
    } catch (const EngineError& e) {
      const std::string msg = "scheduler deadlock on rank " +
                              std::to_string(my.comm.rank()) +
                              " while draining task sends; " +
                              std::string(e.what());
      set_failed(msg);
      throw SchedError(msg);
    }
  }
  {
    // Flip `departed` while holding both scan_mu_ and the comm lock: any
    // scanner that got past the departed check is out of the communicator
    // before this thread returns and the Communicator dies with its frame.
    // seq_cst: the store orders against quiesce()'s inflight read (the
    // other half of run_item's entry handshake).
    std::lock_guard<std::mutex> sl(scan_mu_);
    auto l = my.comm.lock_ops();
    my.departed.store(true, std::memory_order_seq_cst);
  }
  departed_n_.fetch_add(1, std::memory_order_seq_cst);
  bump();
  quiesce(my);
}

/// Failure-path counterpart of depart(), called before an exception
/// leaves run(): the same handshake — flip `departed` under scan_mu_ plus
/// the comm lock so no scanner (assist / work_visible /
/// maybe_declare_deadlock) is left inside this rank's Communicator, then
/// count the departure so all_departed() can become true and the failed
/// round gets GC'd from PoolHost — minus the send drain, which is
/// meaningless on a failed round whose peers are aborting on failed_ or
/// machine poison. quiesce() then waits out any worker already committed
/// to a stolen task of this rank, so nothing can touch the Communicator
/// this thread is about to destroy.
void TaskArena::abandon(RankSlot& my) {
  {
    std::lock_guard<std::mutex> sl(scan_mu_);
    auto l = my.comm.lock_ops();
    my.departed.store(true, std::memory_order_seq_cst);
  }
  departed_n_.fetch_add(1, std::memory_order_seq_cst);
  bump();
  quiesce(my);
}

/// A recovered own-rank death: depart the arena like abandon() — flip
/// `dying` and `departed` under scan_mu_ plus the comm lock, wait out
/// in-flight thieves — but WITHOUT set_failed (the round survives; the
/// heir completes this rank's program). After the quiesce no other worker
/// can touch this communicator (departed checks turn thieves away and
/// every completion it witnessed is in the log), so the harvest runs
/// single-threaded: bank arrived inflows, unregister the rest, settle
/// sends, then disarm the kill and publish the death. mark_dead's release
/// store against the heir's death-epoch acquire is the mailbox
/// consumer-side hand-off edge. The departure is counted only after
/// that: until the death is on the board the deadlock detector cannot
/// see it (the kill flag is already cleared), so the dying rank must
/// still count as a live, non-idle worker.
void TaskArena::die_in_arena(RankSlot& my, const RankDeath& rd) {
  RecoveryCoordinator* rc = recovery();
  const bool count_departure = !my.departed.load(std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> sl(scan_mu_);
    auto l = my.comm.lock_ops();
    my.dying.store(true, std::memory_order_seq_cst);
    my.departed.store(true, std::memory_order_seq_cst);
  }
  quiesce(my);
  {
    auto l = my.comm.lock_ops();
    for (std::size_t i = 0; i < my.pending.size(); ++i) {
      if (my.comm.cancel(my.pending_req[i])) {
        rc->log_inflow(my.rank, my.pending[i], my.pending_k[i],
                       my.slab.payloads(my.pending[i])[my.pending_k[i]]);
      }
    }
    my.pending.clear();
    my.pending_k.clear();
    my.pending_req.clear();
    for (Request& s : my.sends) my.comm.cancel(s);
    my.sends.clear();
  }
  Machine& m = my.comm.machine();
  m.clear_kill(my.rank);
  m.mark_dead(my.rank, rd.what());
  if (count_departure) {
    departed_n_.fetch_add(1, std::memory_order_seq_cst);
    bump();
  }
}

/// Exit half of the departure handshake (entry half in run_item): after
/// `departed` is flipped, wait until no worker is inside run_item on one
/// of this rank's tasks. seq_cst totality guarantees a worker either
/// observed the flag and backed out, or its inflight increment is visible
/// to this loop. Plain yield-spin: on the success path the window is the
/// few instructions between a finisher's `remaining` decrement and its
/// guard's decrement; on the failure path it is bounded by one task body.
void TaskArena::quiesce(RankSlot& my) {
  while (my.inflight.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
}

// ---- machine-level rendezvous ---------------------------------------------

namespace {

/// Lives in the Machine's extension slot: matches each rank's Nth
/// run_graph_tasks call to round N, so collective rounds line up without
/// sched/ types leaking into comm/. Rounds are GC'd once fully departed
/// (shared_ptr keeps a straggler's arena alive regardless).
struct PoolHost {
  std::vector<std::uint64_t> next_round;  // per rank
  std::map<std::uint64_t, std::shared_ptr<TaskArena>> rounds;
};

std::shared_ptr<TaskArena> join_round(Machine& m, int rank) {
  std::lock_guard<std::mutex> l(m.extension_mutex());
  auto host = std::static_pointer_cast<PoolHost>(m.extension());
  if (!host) {
    host = std::make_shared<PoolHost>();
    m.extension() = host;
  }
  if (host->next_round.size() < static_cast<std::size_t>(m.size()))
    host->next_round.resize(static_cast<std::size_t>(m.size()), 0);
  const std::uint64_t round =
      host->next_round[static_cast<std::size_t>(rank)]++;
  auto& arena = host->rounds[round];
  if (!arena) arena = std::make_shared<TaskArena>(m.size(), m.pool_signal());
  for (auto it = host->rounds.begin(); it != host->rounds.end();)
    it = (it->first != round && it->second->all_departed())
             ? host->rounds.erase(it)
             : std::next(it);
  return arena;
}

}  // namespace

SchedReport run_graph_tasks(const TaskGraph& graph, Communicator& comm,
                            const SchedOptions& opts) {
  internal_check(opts.adaptive, "the tasks backend requires adaptive mode");
  std::shared_ptr<TaskArena> arena =
      join_round(comm.machine(), comm.rank());
  return arena->run(graph, comm);
}

SchedReport run_graph_tasks_recoverable(
    const TaskGraph& graph, Communicator& comm, const SchedOptions& opts,
    RecoveryCoordinator& rc, recovery_internal::AdoptionDriver& drv) {
  internal_check(opts.adaptive, "the tasks backend requires adaptive mode");
  std::shared_ptr<TaskArena> arena =
      join_round(comm.machine(), comm.rank());
  return arena->run(graph, comm, &rc, &drv);
}

}  // namespace wavepipe
