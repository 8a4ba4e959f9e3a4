#include "sched/recovery.hh"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "comm/machine.hh"
#include "sched/parallel_executor.hh"

namespace wavepipe {

// ---- RecoveryCoordinator ---------------------------------------------------

void RecoveryCoordinator::attach(Machine& m) {
  require(machine_ == nullptr || machine_ == &m,
          "RecoveryCoordinator is already attached to another machine");
  machine_ = &m;
  m.enable_death_recovery(true);
  std::lock_guard<std::mutex> l(mu_);
  logs_.assign(static_cast<std::size_t>(m.size()), VictimLog{});
  finished_.assign(static_cast<std::size_t>(m.size()), 0);
  claimed_.assign(static_cast<std::size_t>(m.size()), 0);
  completions_ = 0;
  kill_sent_ = false;
}

void RecoveryCoordinator::arm_kill_after(int rank, std::uint64_t completions) {
  std::lock_guard<std::mutex> l(mu_);
  kill_rank_ = rank;
  kill_after_ = completions;
  kill_sent_ = false;
}

void RecoveryCoordinator::log_inflow(int rank, TaskId t, std::size_t k,
                                     std::span<const double> payload) {
  std::lock_guard<std::mutex> l(mu_);
  auto& log = logs_[static_cast<std::size_t>(rank)];
  const auto i = static_cast<std::size_t>(t);
  if (log.inflows.size() <= i) log.inflows.resize(i + 1);
  auto& per_task = log.inflows[i];
  if (per_task.size() <= k) per_task.resize(k + 1);
  if (per_task[k].has_value()) return;  // replays keep the first copy
  per_task[k].emplace(payload.begin(), payload.end());
}

void RecoveryCoordinator::log_complete(int rank, TaskId t) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto& log = logs_[static_cast<std::size_t>(rank)];
    const auto i = static_cast<std::size_t>(t);
    if (log.is_complete.size() <= i) log.is_complete.resize(i + 1, 0);
    if (!log.is_complete[i]) {
      log.is_complete[i] = 1;
      log.completed.push_back(t);
    }
    ++completions_;
    if (kill_rank_ >= 0 && !kill_sent_ && completions_ > kill_after_) {
      kill_sent_ = true;
      fire = true;
    }
  }
  // request_kill nudges mailboxes; keep it outside the coordinator lock.
  if (fire)
    machine_->request_kill(
        kill_rank_, "recovery kill switch (after " +
                        std::to_string(kill_after_) + " completions)");
}

RecoveryCoordinator::VictimLog RecoveryCoordinator::snapshot(
    int victim) const {
  std::lock_guard<std::mutex> l(mu_);
  return logs_[static_cast<std::size_t>(victim)];
}

bool RecoveryCoordinator::claim(int victim, int heir) {
  (void)heir;
  std::lock_guard<std::mutex> l(mu_);
  if (claimed_[static_cast<std::size_t>(victim)]) return false;
  claimed_[static_cast<std::size_t>(victim)] = 1;
  return true;
}

void RecoveryCoordinator::mark_finished(int rank) {
  {
    std::lock_guard<std::mutex> l(mu_);
    finished_[static_cast<std::size_t>(rank)] = 1;
  }
  // Exit-barrier predicates live in other ranks' mailbox waits: wake them.
  // Outside mu_ so a predicate reading finished() never deadlocks a nudge.
  for (int r = 0; r < machine_->size(); ++r)
    if (!machine_->rank_dead(r)) machine_->mailbox(r).nudge();
}

bool RecoveryCoordinator::finished(int rank) const {
  std::lock_guard<std::mutex> l(mu_);
  return finished_[static_cast<std::size_t>(rank)] != 0;
}

bool RecoveryCoordinator::all_finished() const {
  std::lock_guard<std::mutex> l(mu_);
  for (const char f : finished_)
    if (!f) return false;
  return true;
}

// ---- AdoptedProgram --------------------------------------------------------

void AdoptedProgram::ProxySink::task_send(int dst,
                                          std::span<const double> payload,
                                          int tag) {
  // Replaying a logged-complete task: the victim's original buffered send
  // was deposited downstream at post time, so re-sending would duplicate.
  if (suppress) return;
  owner->sends_.push_back(owner->proxy_->isend(dst, payload, tag));
}

AdoptedProgram::AdoptedProgram(RecoveryCoordinator& rc, int victim)
    : rc_(rc), victim_(victim), prog_(rc.build(victim)),
      log_(rc.snapshot(victim)),
      proxy_(std::make_unique<Communicator>(rc.machine(), victim)),
      slab_(prog_.graph) {
  sink_.owner = this;
  const std::size_t n = prog_.graph.size();
  deps_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    deps_[i] = prog_.graph.predecessors(static_cast<TaskId>(i));
  missing_.assign(n, 0);
  remaining_ = n;

  // Replay the victim's executed prefix: logged completion order is a
  // topological order of it, every consumed inflow is in the log, and the
  // state is fresh — so the replay reconstructs the victim's memory
  // byte-for-byte with sends suppressed.
  sink_.suppress = true;
  for (const TaskId t : log_.completed) {
    internal_check(deps_[static_cast<std::size_t>(t)] == 0,
                   "logged completion order is not a topological order");
    const TaskGraph::Task& task = prog_.graph.task(t);
    for (std::size_t k = 0; k < task.inflows.size(); ++k) {
      const auto* logged = log_.logged(t, k);
      internal_check(logged && logged->has_value(),
                     "completed task replayed without a logged inflow");
      copy_logged(t, k, **logged);
    }
    TaskContext ctx(*proxy_, sink_, scratch_, slab_.payloads(t));
    if (task.run) task.run(ctx);
    --remaining_;
    for (const TaskId s : prog_.graph.successors(t))
      --deps_[static_cast<std::size_t>(s)];
  }
  sink_.suppress = false;

  // Release the live remainder's frontier.
  for (std::size_t i = 0; i < n; ++i) {
    if (log_.completed_task(static_cast<TaskId>(i))) continue;
    if (deps_[i] == 0) release(static_cast<TaskId>(i));
  }
}

AdoptedProgram::~AdoptedProgram() = default;  // proxy dtor cancels slots

void AdoptedProgram::copy_logged(TaskId t, std::size_t k,
                                 const std::vector<double>& logged) {
  const std::span<double> buf = slab_.buffer(t, k);
  internal_check(logged.size() == buf.size(),
                 "logged inflow size does not match the task's");
  std::copy(logged.begin(), logged.end(), buf.begin());
}

void AdoptedProgram::release(TaskId t) {
  const TaskGraph::Task& task = prog_.graph.task(t);
  int miss = 0;
  for (std::size_t k = 0; k < task.inflows.size(); ++k) {
    const auto* logged = log_.logged(t, k);
    if (logged && logged->has_value()) {
      // The victim consumed this message before dying: it left the mailbox
      // then, so per-key FIFO for the heir's live receives starts after it.
      copy_logged(t, k, **logged);
    } else {
      pending_req_.push_back(proxy_->irecv(task.inflows[k].src,
                                           slab_.buffer(t, k),
                                           task.inflows[k].tag));
      pending_.push_back(t);
      pending_k_.push_back(k);
      ++miss;
    }
  }
  if (miss == 0) {
    ready_.push(t);
  } else {
    missing_[static_cast<std::size_t>(t)] = miss;
  }
}

bool AdoptedProgram::inflows_arrived() {
  for (const Request& r : pending_req_)
    if (proxy_->arrived(r)) return true;
  return false;
}

bool AdoptedProgram::step() {
  bool progress = false;
  for (std::size_t i = 0; i < pending_.size();) {
    if (proxy_->arrived(pending_req_[i])) {
      proxy_->wait(pending_req_[i]);
      const TaskId t = pending_[i];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
      pending_k_.erase(pending_k_.begin() + static_cast<std::ptrdiff_t>(i));
      pending_req_.erase(pending_req_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      if (--missing_[static_cast<std::size_t>(t)] == 0) ready_.push(t);
      progress = true;
    } else {
      ++i;
    }
  }
  while (!ready_.empty()) {
    const TaskId t = ready_.front();
    ready_.pop();
    run_adopted_task(t);
    progress = true;
  }
  return progress;
}

void AdoptedProgram::run_adopted_task(TaskId t) {
  const TaskGraph::Task& task = prog_.graph.task(t);
  TaskContext ctx(*proxy_, sink_, scratch_, slab_.payloads(t));
  if (task.run) task.run(ctx);
  --remaining_;
  for (const TaskId s : prog_.graph.successors(t))
    if (--deps_[static_cast<std::size_t>(s)] == 0 &&
        !log_.completed_task(s))
      release(s);
}

void AdoptedProgram::finish() {
  if (finished_) return;
  internal_check(done(), "AdoptedProgram::finish before the graph drained");
  finished_ = true;
  // Settle re-emitted sends without charging the proxy clock (the payloads
  // were deposited at post; cancel is the no-charge harvest).
  for (Request& r : sends_) proxy_->cancel(r);
  sends_.clear();
  if (prog_.epilogue) prog_.epilogue();
  rc_.mark_finished(victim_);
}

// ---- AdoptionDriver --------------------------------------------------------

namespace recovery_internal {

AdoptionDriver::AdoptionDriver(RecoveryCoordinator& rc_in,
                               Communicator& comm)
    : rc(rc_in), m(comm.machine()), rank(comm.rank()) {}

AdoptionDriver::~AdoptionDriver() = default;

int AdoptionDriver::heir_of(Machine& m, int victim) {
  // The next surviving rank after the victim, cyclically: every rank
  // computes the same answer from the same death board, so exactly one
  // rank adopts without any election traffic.
  const int p = m.size();
  int h = (victim + 1) % p;
  while (h != victim && m.rank_dead(h)) h = (h + 1) % p;
  return h;
}

bool AdoptionDriver::poll() {
  bool progress = false;
  const std::uint64_t e = m.death_epoch();
  if (e != epoch_seen) {
    epoch_seen = e;
    for (int v = 0; v < m.size(); ++v) {
      if (v == rank || !m.rank_dead(v)) continue;
      if (rc.finished(v)) continue;  // died after its epilogue: no work left
      if (heir_of(m, v) != rank) continue;
      if (!rc.claim(v, rank)) continue;
      adopted.push_back(std::make_unique<AdoptedProgram>(rc, v));
      progress = true;
    }
  }
  for (auto& ap : adopted) {
    if (!ap->done()) {
      if (ap->step()) progress = true;
    }
    if (ap->done()) ap->finish();
  }
  return progress;
}

bool AdoptionDriver::wake() {
  if (m.death_epoch() != epoch_seen) return true;
  for (auto& ap : adopted)
    if (!ap->done() && ap->inflows_arrived()) return true;
  return false;
}

}  // namespace recovery_internal

// ---- RecoveryExecutor (SPMD backend) ---------------------------------------

/// The sequential recovery executor: SchedExecutor's adaptive loop with
/// four changes — every consumed inflow is logged (and its completion), a
/// kill point is polled at the loop top, blocking goes through
/// block_until so adoption events (death epochs, adopted arrivals) wake
/// the rank, and the rank's own RankDeath runs the harvest/mark-dead
/// protocol before unwinding. Named class (not local) because TaskContext
/// befriends it.
class RecoveryExecutor : public TaskSink {
 public:
  RecoveryExecutor(const TaskGraph& graph, Communicator& comm,
                   RecoveryCoordinator& rc,
                   recovery_internal::AdoptionDriver& drv)
      : graph_(graph), comm_(comm), rc_(rc), drv_(drv), slab_(graph) {}

  SchedReport run();

  void task_send(int dst, std::span<const double> payload, int tag) override {
    sends_.push_back(comm_.isend(dst, payload, tag));
  }

 private:
  using Key = std::pair<double, TaskId>;

  Key key(TaskId t) const {
    return sched_internal::task_key(analysis_, /*adaptive=*/true, t);
  }

  void release(TaskId t);
  void run_task(TaskId t);
  void die(const RankDeath& rd);
  [[noreturn]] void rethrow_stuck(const Error& cause) const;

  const TaskGraph& graph_;
  Communicator& comm_;
  RecoveryCoordinator& rc_;
  recovery_internal::AdoptionDriver& drv_;

  sched_internal::GraphAnalysis analysis_;
  std::vector<int> deps_;
  std::priority_queue<std::pair<Key, TaskId>,
                      std::vector<std::pair<Key, TaskId>>, std::greater<>>
      ready_;
  std::vector<TaskId> pending_;         // task per in-flight inflow
  std::vector<std::size_t> pending_k_;  // its inflow index
  std::vector<Request> pending_req_;
  std::vector<int> missing_;
  sched_internal::InflowSlab slab_;
  std::vector<double> scratch_;  // TaskContext::scratch
  std::vector<Request> sends_;
  SchedReport report_;
};

void RecoveryExecutor::release(TaskId t) {
  const TaskGraph::Task& task = graph_.task(t);
  if (task.inflows.empty()) {
    ready_.push({key(t), t});
    return;
  }
  for (std::size_t k = 0; k < task.inflows.size(); ++k) {
    pending_req_.push_back(comm_.irecv(task.inflows[k].src,
                                       slab_.buffer(t, k),
                                       task.inflows[k].tag));
    pending_.push_back(t);
    pending_k_.push_back(k);
  }
  missing_[static_cast<std::size_t>(t)] =
      static_cast<int>(task.inflows.size());
  report_.max_posted = std::max(report_.max_posted, pending_.size());
}

void RecoveryExecutor::run_task(TaskId t) {
  const TaskGraph::Task& task = graph_.task(t);
  const double t0 = comm_.vtime();
  TaskContext ctx(comm_, *this, scratch_, slab_.payloads(t));
  // No kill point between the body's buffered sends and log_complete:
  // task bodies are receive-free by the recovery contract (inflows carry
  // all incoming data), so a task either completes-and-logs or never ran —
  // the heir never half-replays one.
  if (task.run) task.run(ctx);
  comm_.tracer().record(TraceEventType::kTask, t0, comm_.vtime(),
                        task.inflows.empty() ? -1 : task.inflows.front().src,
                        static_cast<int>(t),
                        static_cast<std::uint64_t>(task.cost));
  rc_.log_complete(comm_.rank(), t);
  for (const TaskId s : graph_.successors(t))
    if (--deps_[static_cast<std::size_t>(s)] == 0) release(s);
}

void RecoveryExecutor::die(const RankDeath& rd) {
  const int rank = comm_.rank();
  // Harvest: bank every already-arrived posted inflow into the log (the
  // message left the mailbox when it matched; without the log entry the
  // heir could never re-receive it), unregister the rest, and settle the
  // outstanding sends (their payloads were deposited at post).
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (comm_.cancel(pending_req_[i]))
      rc_.log_inflow(rank, pending_[i], pending_k_[i],
                     slab_.payloads(pending_[i])[pending_k_[i]]);
  }
  pending_.clear();
  pending_k_.clear();
  pending_req_.clear();
  for (Request& s : sends_) comm_.cancel(s);
  sends_.clear();
  Machine& m = comm_.machine();
  m.clear_kill(rank);
  m.mark_dead(rank, rd.what());
}

void RecoveryExecutor::rethrow_stuck(const Error& cause) const {
  std::ostringstream os;
  os << "scheduler deadlock on rank " << comm_.rank()
     << " (recovery executor): stuck on ";
  TaskId prev = kNoTask;
  bool first = true;
  for (const TaskId id : pending_) {
    if (id == prev) continue;
    prev = id;
    os << (first ? "" : ", ") << "task '" << graph_.task(id).label << "'";
    first = false;
  }
  os << "; " << cause.what();
  throw SchedError(os.str());
}

SchedReport RecoveryExecutor::run() {
  const std::size_t n = graph_.size();
  const int rank = comm_.rank();
  Machine& m = comm_.machine();
  report_.tasks = n;
  report_.edges = graph_.edges();
  report_.adaptive = true;
  report_.backend = SchedBackend::kSpmd;
  analysis_ = sched_internal::analyze_graph(graph_);
  deps_ = analysis_.deps;
  missing_.assign(n, 0);

  try {
    for (std::size_t i = 0; i < n; ++i)
      if (deps_[i] == 0) release(static_cast<TaskId>(i));

    std::size_t done = 0;
    while (done < n) {
      if (m.kill_requested(rank))
        throw RankDeath(rank, "rank " + std::to_string(rank) +
                                  " killed (recovery executor kill point)");
      bool progress = drv_.poll();
      // Promote every pending task all of whose inflows have physically
      // arrived, logging each consumed payload. arrived() (not test())
      // keeps promotion independent of this rank's virtual clock.
      for (std::size_t i = 0; i < pending_.size();) {
        if (comm_.arrived(pending_req_[i])) {
          comm_.wait(pending_req_[i]);
          const TaskId t = pending_[i];
          const std::size_t k = pending_k_[i];
          rc_.log_inflow(rank, t, k, slab_.payloads(t)[k]);
          pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
          pending_k_.erase(pending_k_.begin() +
                           static_cast<std::ptrdiff_t>(i));
          pending_req_.erase(pending_req_.begin() +
                             static_cast<std::ptrdiff_t>(i));
          if (--missing_[static_cast<std::size_t>(t)] == 0)
            ready_.push({key(t), t});
          progress = true;
        } else {
          ++i;
        }
      }
      if (!ready_.empty()) {
        const TaskId t = ready_.top().second;
        ready_.pop();
        run_task(t);
        ++done;
        continue;
      }
      if (progress) continue;
      internal_check(!pending_.empty(),
                     "recovery executor starved: tasks remain but none "
                     "released");
      ++report_.blocked_waits;
      {
        std::string ctx = "recovery scheduler tasks ";
        for (std::size_t i = 0; i < pending_.size() && i < 3; ++i)
          ctx += (i ? ", '" : "'") + graph_.task(pending_[i]).label + "'";
        if (pending_.size() > 3)
          ctx += ", ... (" + std::to_string(pending_.size()) + " pending)";
        comm_.set_wait_context(std::move(ctx));
      }
      try {
        comm_.block_until([&] {
          for (const Request& r : pending_req_)
            if (comm_.arrived(r)) return true;
          return drv_.wake();
        });
      } catch (const RankDeath&) {
        throw;  // the kill: handled by the outer harvest path
      } catch (const EngineError& e) {
        rethrow_stuck(e);
      } catch (const CommError& e) {
        rethrow_stuck(e);
      }
      comm_.set_wait_context("");
    }
    try {
      comm_.wait_all(std::span<Request>(sends_));
    } catch (const RankDeath&) {
      throw;
    } catch (const EngineError& e) {
      throw SchedError("scheduler deadlock on rank " + std::to_string(rank) +
                       " while draining task sends; " + std::string(e.what()));
    }
  } catch (const RankDeath& rd) {
    if (rd.rank() != rank) throw;  // a peer's death poison: not ours to heal
    die(rd);
    throw;
  }
  return report_;
}

// ---- run_recoverable -------------------------------------------------------

namespace {

/// Holds the rank at the end of its program until every rank's program —
/// adopted corpses included — has finished, adopting and stepping as
/// needed. Without the barrier a late kill could strike after all
/// survivors left the recovery scope, leaving the corpse's values
/// unpublished.
void exit_barrier(Communicator& comm, RecoveryCoordinator& rc,
                  recovery_internal::AdoptionDriver& drv) {
  Machine& m = comm.machine();
  const int rank = comm.rank();
  for (;;) {
    if (m.kill_requested(rank))
      throw RankDeath(rank, "rank " + std::to_string(rank) +
                                " killed (recovery exit barrier)");
    const bool progress = drv.poll();
    if (rc.all_finished()) return;
    if (progress) continue;
    comm.set_wait_context("recovery exit barrier");
    comm.block_until([&] { return rc.all_finished() || drv.wake(); });
    comm.set_wait_context("");
  }
}

}  // namespace

SchedReport run_recoverable(Communicator& comm, RecoveryCoordinator& rc,
                            const SchedOptions& opts) {
  require(rc.attached() && &rc.machine() == &comm.machine(),
          "run_recoverable needs the coordinator attached to this machine");
  if (!opts.adaptive)
    throw SchedError(
        "static scheduling is unrecoverable: the pick order issues blocking "
        "receives with no posted-set to harvest at a kill point and no "
        "record of which same-key message the next pick would have matched. "
        "Recovery requires SchedOptions::adaptive (see DESIGN.md §16)");
  Machine& m = comm.machine();
  const int rank = comm.rank();
  recovery_internal::AdoptionDriver drv(rc, comm);
  SchedReport report;
  try {
    sched_internal::check_backend(opts, m);
    RankProgram prog = rc.build(rank);
    if (opts.backend == SchedBackend::kTasks && comm.size() > 1) {
      report = run_graph_tasks_recoverable(prog.graph, comm, opts, rc, drv);
    } else {
      RecoveryExecutor exec(prog.graph, comm, rc, drv);
      report = exec.run();
    }
    if (prog.epilogue) prog.epilogue();
    rc.mark_finished(rank);
    exit_barrier(comm, rc, drv);
  } catch (const RankDeath& rd) {
    if (rd.rank() == rank && !m.rank_dead(rank)) {
      // Died past the executor's harvest path (exit barrier, send drain
      // with nothing pending): no posted receives to bank, but the death
      // must reach the board so the heir rule and machine frame see it.
      m.clear_kill(rank);
      m.mark_dead(rank, rd.what());
    }
    throw;
  }
  return report;
}

}  // namespace wavepipe
