#include "sched/recovery.hh"

#include <algorithm>
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

VictimLog RecoveryCoordinator::snapshot(int victim) const {
  std::lock_guard<std::mutex> l(mu_);
  return logs_[static_cast<std::size_t>(victim)];
}

bool RecoveryCoordinator::claim(int victim) {
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

// ---- AdoptionDriver --------------------------------------------------------

namespace recovery_internal {

AdoptionDriver::AdoptionDriver(RecoveryCoordinator& rc_in,
                               Communicator& comm)
    : rc(rc_in), m(comm.machine()), rank(comm.rank()) {}

AdoptionDriver::Adopted::Adopted(RecoveryCoordinator& rc, int v)
    : victim(v), prog(rc.build(v)), log(rc.snapshot(v)),
      proxy(rc.machine(), v),
      exec(prog.graph, proxy, SchedOptions{}, nullptr, nullptr, &log) {
  exec.start();
}

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
      if (!rc.claim(v)) continue;
      adopted.push_back(std::make_unique<Adopted>(rc, v));
      progress = true;
    }
  }
  for (auto& a : adopted) {
    if (a->finished) continue;
    if (a->exec.step()) progress = true;
    if (!a->exec.done()) continue;
    a->exec.drop_sends();
    if (a->prog.epilogue) a->prog.epilogue();
    rc.mark_finished(a->victim);
    a->finished = true;
  }
  return progress;
}

bool AdoptionDriver::wake() {
  if (m.death_epoch() != epoch_seen) return true;
  for (auto& a : adopted)
    if (!a->finished && a->exec.inflows_arrived()) return true;
  return false;
}

}  // namespace recovery_internal

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
    report = opts.backend == SchedBackend::kTasks && comm.size() > 1
                 ? run_graph_tasks_recoverable(prog.graph, comm, opts, rc, drv)
                 : SchedExecutor(prog.graph, comm, opts, &rc, &drv).run();
    if (prog.epilogue) prog.epilogue();
    rc.mark_finished(rank);
    exit_barrier(comm, rc, drv);
  } catch (const RankDeath& rd) {
    if (rd.rank() == rank && !m.rank_dead(rank)) {
      // Died outside the executor's harvest path (the exit barrier): no
      // posted receives to bank, but the death must reach the board so the
      // heir rule and machine frame see it.
      m.clear_kill(rank);
      m.mark_dead(rank, rd.what());
    }
    throw;
  }
  return report;
}

}  // namespace wavepipe
