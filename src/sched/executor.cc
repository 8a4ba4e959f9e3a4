#include "sched/executor.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "comm/communicator.hh"
#include "comm/machine.hh"
#include "sched/parallel_executor.hh"
#include "sched/recovery.hh"

namespace wavepipe {

const char* to_string(SchedBackend b) {
  switch (b) {
    case SchedBackend::kSpmd:
      return "spmd";
    case SchedBackend::kTasks:
      return "tasks";
  }
  return "?";
}

namespace {

[[noreturn]] void throw_backend_error(std::string msg) {
  msg +=
      ". Valid combinations: backend 'spmd' in either mode with any engine, "
      "or backend 'tasks' in adaptive mode with WAVEPIPE_ENGINE=parallel";
  throw ConfigError(msg);
}

}  // namespace

SchedOptions SchedOptions::from_env() {
  // Knobs of the retired policy/escape-hatch settings: a stale environment
  // must fail loudly, not be ignored into a different schedule.
  if (std::getenv("WAVEPIPE_SCHED_POLICY"))
    throw ConfigError(
        "WAVEPIPE_SCHED_POLICY was removed: the scheduler has two modes, "
        "adaptive critical-path (WAVEPIPE_SCHED_ADAPTIVE=1, the default) and "
        "static FIFO (WAVEPIPE_SCHED_ADAPTIVE=0); unset it");
  if (std::getenv("WAVEPIPE_SCHED_UNSAFE_STATIC"))
    throw ConfigError(
        "WAVEPIPE_SCHED_UNSAFE_STATIC was removed: static mode is always "
        "FIFO (WAVEPIPE_SCHED_ADAPTIVE=0), which needs no opt-in; unset it");
  SchedOptions opts;
  if (const char* v = std::getenv("WAVEPIPE_SCHED_ADAPTIVE")) {
    const std::string s(v);
    if (s == "0") {
      opts.adaptive = false;
    } else if (s == "1" || s.empty()) {
      opts.adaptive = true;
    } else {
      throw ConfigError("WAVEPIPE_SCHED_ADAPTIVE expects '0' or '1', got '" +
                        s + "'");
    }
  }
  if (const char* v = std::getenv("WAVEPIPE_SCHED_BACKEND")) {
    const std::string s(v);
    if (s == "spmd" || s.empty()) {
      opts.backend = SchedBackend::kSpmd;
    } else if (s == "tasks") {
      opts.backend = SchedBackend::kTasks;
    } else {
      throw ConfigError("WAVEPIPE_SCHED_BACKEND expects 'spmd' or 'tasks', "
                        "got '" + s + "'");
    }
  }
  // Cross-validate the tasks backend against the mode and an explicit
  // engine selection: it only exists adaptive, on the parallel engine's
  // threads, and a silent SPMD fallback would quietly discard the
  // configuration the user asked for. run_graph re-checks against the
  // machine that actually runs (the authoritative gate); this early check
  // catches the env-vs-env conflict at configuration time, before any
  // machine exists.
  if (opts.backend == SchedBackend::kTasks) {
    if (!opts.adaptive)
      throw_backend_error(
          "WAVEPIPE_SCHED_BACKEND=tasks requires adaptive mode, but "
          "WAVEPIPE_SCHED_ADAPTIVE=0 selects static FIFO, which runs on the "
          "spmd backend only");
    if (const char* e = std::getenv("WAVEPIPE_ENGINE")) {
      const std::string s(e);
      if (!s.empty() && s != "parallel")
        throw_backend_error(
            "WAVEPIPE_SCHED_BACKEND=tasks requires the parallel engine, but "
            "WAVEPIPE_ENGINE='" + s + "'");
    }
  }
  return opts;
}

namespace sched_internal {

GraphAnalysis analyze_graph(const TaskGraph& graph) {
  GraphAnalysis a;
  const std::size_t n = graph.size();
  a.deps.resize(n);
  std::vector<TaskId> topo;
  topo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    a.deps[i] = graph.predecessors(static_cast<TaskId>(i));
    if (a.deps[i] == 0) topo.push_back(static_cast<TaskId>(i));
  }
  std::vector<int> indeg = a.deps;
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (const TaskId s : graph.successors(topo[head]))
      if (--indeg[static_cast<std::size_t>(s)] == 0) topo.push_back(s);
  }
  if (topo.size() != n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (indeg[i] > 0)
        throw SchedError("task graph has a dependence cycle through task '" +
                         graph.task(static_cast<TaskId>(i)).label + "'");
    }
  }
  a.prio.assign(n, 0.0);
  for (std::size_t i = topo.size(); i-- > 0;) {
    const TaskId t = topo[i];
    double tail = 0.0;
    for (const TaskId s : graph.successors(t))
      tail = std::max(tail, a.prio[static_cast<std::size_t>(s)]);
    a.prio[static_cast<std::size_t>(t)] = graph.task(t).cost + tail;
  }
  return a;
}

std::pair<double, TaskId> task_key(const GraphAnalysis& analysis,
                                   bool adaptive, TaskId t) {
  if (!adaptive) return {0.0, t};
  return {-analysis.prio[static_cast<std::size_t>(t)], t};
}

InflowSlab::InflowSlab(const TaskGraph& graph) {
  const std::size_t n = graph.size();
  first_.resize(n + 1);
  std::size_t inflows = 0, elements = 0;
  for (std::size_t i = 0; i < n; ++i) {
    first_[i] = inflows;
    for (const TaskInflow& in : graph.task(static_cast<TaskId>(i)).inflows) {
      ++inflows;
      elements += in.elements;
    }
  }
  first_[n] = inflows;
  // Uninitialized: every element is written by its receive before any
  // task reads it.
  data_ = std::make_unique_for_overwrite<double[]>(elements);
  views_.reserve(inflows);
  const double* at = data_.get();
  for (std::size_t i = 0; i < n; ++i)
    for (const TaskInflow& in : graph.task(static_cast<TaskId>(i)).inflows) {
      views_.emplace_back(at, in.elements);
      at += in.elements;
    }
}

void check_backend(const SchedOptions& opts, const Machine& m) {
  if (opts.backend != SchedBackend::kTasks) return;
  // Authoritative gate: whatever the env said, the options and the machine
  // that is actually running decide. Never a silent SPMD fallback.
  if (!opts.adaptive)
    throw_backend_error(
        "SchedOptions::backend=tasks requires adaptive mode: static FIFO "
        "runs on the spmd backend only");
  if (m.engine() != EngineKind::kParallel) {
    std::string msg =
        "SchedOptions::backend=tasks requires the parallel engine, but this "
        "machine runs '";
    msg += to_string(m.engine());
    throw_backend_error(msg + "'");
  }
}

}  // namespace sched_internal

SchedExecutor::SchedExecutor(const TaskGraph& graph, Communicator& comm,
                             const SchedOptions& opts, RecoveryCoordinator* rc,
                             recovery_internal::AdoptionDriver* drv,
                             const VictimLog* log)
    : graph_(graph), comm_(comm), opts_(opts), rc_(rc), drv_(drv), log_(log),
      analysis_(sched_internal::analyze_graph(graph)), deps_(analysis_.deps),
      missing_(graph.size(), 0), slab_(graph), remaining_(graph.size()) {
  internal_check((rc == nullptr) == (drv == nullptr),
                 "SchedExecutor takes a coordinator and its driver together");
  internal_check((rc == nullptr && log == nullptr) || opts.adaptive,
                 "recovery requires adaptive mode");
  report_.tasks = graph.size();
  report_.edges = graph.edges();
  report_.adaptive = opts.adaptive;
  report_.backend = SchedBackend::kSpmd;
}

SendTicket SchedExecutor::task_send(int dst, std::span<const double> payload,
                                    int tag) {
  // Replaying a logged-complete task: the dead rank's original buffered
  // send was deposited downstream at post time, so re-sending would
  // duplicate it.
  if (replaying_) return kNoSend;
  sends_.push_back(comm_.isend(dst, payload, tag));
  return sends_.size() - 1;
}

void SchedExecutor::task_settle(SendTicket ticket) {
  if (!log_) comm_.wait(sends_[ticket]);
}

void SchedExecutor::release(TaskId t) {
  // A logged-complete task is the replay's to run, its inflows long gone.
  if (log_ && log_->completed_task(t)) return;
  const TaskGraph::Task& task = graph_.task(t);
  if (!opts_.adaptive || task.inflows.empty()) {
    // Static mode posts the irecv lazily, when the task is picked —
    // a blocking wait at that point charges the identical virtual time and
    // keeps the pick order independent of physical arrival.
    ready_.push({key(t), t});
    return;
  }
  int missing = 0;
  for (std::size_t k = 0; k < task.inflows.size(); ++k) {
    // An inflow the dead rank consumed left the mailbox then, so per-key
    // FIFO for the heir's live receives starts after it.
    if (copy_logged(t, k)) continue;
    pending_req_.push_back(comm_.irecv(task.inflows[k].src,
                                       slab_.buffer(t, k),
                                       task.inflows[k].tag));
    pending_.push_back(t);
    pending_k_.push_back(k);
    ++missing;
  }
  report_.max_posted = std::max(report_.max_posted, pending_.size());
  if (missing == 0) {
    ready_.push({key(t), t});
  } else {
    missing_[static_cast<std::size_t>(t)] = missing;
  }
}

// Copies task t's k-th inflow from the dead rank's log into its slab
// buffer; false when there is no log or the inflow is not in it.
bool SchedExecutor::copy_logged(TaskId t, std::size_t k) {
  const auto* logged = log_ ? log_->logged(t, k) : nullptr;
  if (!logged || !logged->has_value()) return false;
  const std::span<double> buf = slab_.buffer(t, k);
  internal_check((*logged)->size() == buf.size(),
                 "logged inflow size does not match the task's");
  std::copy((*logged)->begin(), (*logged)->end(), buf.begin());
  return true;
}

void SchedExecutor::run_task(TaskId t) {
  const TaskGraph::Task& task = graph_.task(t);
  const double t0 = comm_.vtime();
  if (!opts_.adaptive && !task.inflows.empty()) {
    // Static mode receives the inflows blocking, one by one in declaration
    // order — the deterministic schedule every rank can replay.
    for (std::size_t k = 0; k < task.inflows.size(); ++k) {
      Request r = comm_.irecv(task.inflows[k].src, slab_.buffer(t, k),
                              task.inflows[k].tag);
      ++report_.blocked_waits;
      comm_.set_wait_context("task '" + task.label + "'");
      try {
        comm_.wait(r);
      } catch (const EngineError& e) {
        rethrow_deadlock({t}, e);
      } catch (const CommError& e) {
        // Machine poisoned (the fiber engine unwinding a deadlock): name
        // the task this rank was stuck on as the stack unwinds.
        rethrow_deadlock({t}, e);
      }
      comm_.set_wait_context("");
    }
  }
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
  --remaining_;
  // Logged before any successor is released, so the log's completion order
  // stays a topological order for the heir's replay.
  if (rc_) rc_->log_complete(comm_.rank(), t);
  for (const TaskId s : graph_.successors(t))
    if (--deps_[static_cast<std::size_t>(s)] == 0) release(s);
}

// One turn of the adaptive loop: promotes every pending task all of whose
// inflows have physically arrived (test() consumes a request without
// advancing the clock), then runs the ready task with the smallest key.
// With none ready it settles an inflow instead: with `park` it blocks for
// one; without, it settles one that has physically arrived or returns
// false. The heir cannot promote on test() alone: test() refuses a message
// whose arrival stamp is ahead of the proxy's clock, and wait_any is what
// moves that clock.
bool SchedExecutor::turn(bool park) {
  for (std::size_t i = 0; i < pending_.size();) {
    if (comm_.test(pending_req_[i])) {
      settle_pending(i);
    } else {
      ++i;
    }
  }
  if (ready_.empty()) {
    if (park) {
      block_on_inflows();
      return true;
    }
    internal_check(!pending_.empty(),
                   "scheduler starved: tasks remain but none released");
    if (!inflows_arrived()) return false;
    settle_pending(comm_.wait_any(std::span<Request>(pending_req_)));
    return true;
  }
  const auto [k, t] = ready_.top();
  ready_.pop();
  for (const TaskId p : pending_)
    if (key(p) < k) {
      ++report_.overtakes;
      break;
    }
  run_task(t);
  return true;
}

// Consumes pending slot `i` (its request completed), logging the payload
// when recovering, and promotes its task once no inflow of it remains in
// flight.
void SchedExecutor::settle_pending(std::size_t i) {
  const TaskId t = pending_[i];
  if (rc_) {
    const std::size_t k = pending_k_[i];
    rc_->log_inflow(comm_.rank(), t, k, slab_.payloads(t)[k]);
  }
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  pending_k_.erase(pending_k_.begin() + static_cast<std::ptrdiff_t>(i));
  pending_req_.erase(pending_req_.begin() + static_cast<std::ptrdiff_t>(i));
  if (--missing_[static_cast<std::size_t>(t)] == 0) ready_.push({key(t), t});
}

bool SchedExecutor::inflows_arrived() {
  for (const Request& r : pending_req_)
    if (comm_.arrived(r)) return true;
  return false;
}

// Nothing is runnable: blocks until a posted inflow physically arrived and
// settles the earliest (wait_any). When recovering, the rank first waits in
// block_until, so adoption work (a death-board change, an adopted
// program's arrival) wakes it too; if only adoption work did, it returns
// without settling and the loop top polls the driver.
void SchedExecutor::block_on_inflows() {
  internal_check(!pending_.empty(),
                 "scheduler starved: tasks remain but none released");
  ++report_.blocked_waits;
  {
    std::string ctx = "scheduler tasks ";
    for (std::size_t i = 0; i < pending_.size() && i < 3; ++i)
      ctx += (i ? ", '" : "'") + graph_.task(pending_[i]).label + "'";
    if (pending_.size() > 3)
      ctx += ", ... (" + std::to_string(pending_.size()) + " pending)";
    comm_.set_wait_context(std::move(ctx));
  }
  std::size_t idx = 0;
  try {
    if (rc_) {
      comm_.block_until([&] { return inflows_arrived() || drv_->wake(); });
      if (!inflows_arrived()) {
        comm_.set_wait_context("");
        return;
      }
    }
    idx = comm_.wait_any(std::span<Request>(pending_req_));
  } catch (const RankDeath& e) {
    if (rc_) throw;  // a kill with recovery armed: run() harvests
    rethrow_deadlock(pending_, e);
  } catch (const EngineError& e) {
    rethrow_deadlock(pending_, e);
  } catch (const CommError& e) {
    rethrow_deadlock(pending_, e);
  }
  comm_.set_wait_context("");
  settle_pending(idx);
}

void SchedExecutor::drop_sends() {
  for (Request& s : sends_) comm_.cancel(s);
  sends_.clear();
}

// This rank's own death with recovery armed. Harvest: bank every
// already-arrived posted inflow into the log (the message left the mailbox
// when it matched; without the log entry the heir could never re-receive
// it), unregister the rest, and settle the outstanding sends (their
// payloads were deposited at post). Then publish the death.
void SchedExecutor::die(const RankDeath& rd) {
  const int rank = comm_.rank();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (comm_.cancel(pending_req_[i]))
      rc_->log_inflow(rank, pending_[i], pending_k_[i],
                      slab_.payloads(pending_[i])[pending_k_[i]]);
  }
  pending_.clear();
  pending_k_.clear();
  pending_req_.clear();
  drop_sends();
  Machine& m = comm_.machine();
  m.clear_kill(rank);
  m.mark_dead(rank, rd.what());
}

void SchedExecutor::rethrow_deadlock(const std::vector<TaskId>& stuck,
                                     const Error& cause) const {
  std::ostringstream os;
  os << "scheduler deadlock on rank " << comm_.rank() << ": stuck on ";
  bool first = true;
  TaskId prev = kNoTask;
  for (const TaskId id : stuck) {
    if (id == prev) continue;  // a task pends once per inflow; name it once
    prev = id;
    const TaskGraph::Task& task = graph_.task(id);
    os << (first ? "" : ", ") << "task '" << task.label << "' (";
    for (std::size_t k = 0; k < task.inflows.size(); ++k)
      os << (k ? ", " : "") << "inflow src=" << task.inflows[k].src
         << " tag=" << task.inflows[k].tag;
    os << ")";
    first = false;
  }
  os << "; " << cause.what();
  throw SchedError(os.str());
}

void SchedExecutor::start() {
  for (std::size_t i = 0; i < graph_.size(); ++i)
    if (deps_[i] == 0) release(static_cast<TaskId>(i));
  if (!log_) return;
  // The dead rank's executed prefix: logged completion order is a
  // topological order of it, every inflow it consumed is in the log, and
  // the state is fresh — so the replay rebuilds its memory byte for byte.
  replaying_ = true;
  for (const TaskId t : log_->completed) {
    internal_check(deps_[static_cast<std::size_t>(t)] == 0,
                   "logged completion order is not a topological order");
    for (std::size_t k = 0; k < graph_.task(t).inflows.size(); ++k)
      internal_check(copy_logged(t, k),
                     "completed task replayed without a logged inflow");
    run_task(t);
  }
  replaying_ = false;
}

bool SchedExecutor::step() {
  bool progress = false;
  while (!done() && turn(/*park=*/false)) progress = true;
  return progress;
}

SchedReport SchedExecutor::run() {
  const int rank = comm_.rank();
  try {
    start();
    while (!done()) {
      if (rc_) {
        // Kill point, then adoption progress (a no-op until a peer dies).
        if (comm_.machine().kill_requested(rank))
          throw RankDeath(rank, "rank " + std::to_string(rank) +
                                    " killed (scheduler kill point)");
        drv_->poll();
      }
      if (opts_.adaptive) {
        turn(/*park=*/true);
      } else {
        internal_check(!ready_.empty(),
                       "scheduler starved: tasks remain but none released");
        const TaskId t = ready_.top().second;
        ready_.pop();
        run_task(t);
      }
    }
    try {
      comm_.wait_all(std::span<Request>(sends_));
    } catch (const EngineError& e) {
      throw SchedError("scheduler deadlock on rank " + std::to_string(rank) +
                       " while draining task sends; " + std::string(e.what()));
    }
  } catch (const RankDeath& rd) {
    if (rc_ && rd.rank() == rank) die(rd);
    throw;
  }
  return report_;
}

SchedReport run_graph(const TaskGraph& graph, Communicator& comm,
                      const SchedOptions& opts) {
  sched_internal::check_backend(opts, comm.machine());
  // A one-rank machine runs inline on the calling thread (no worker pool
  // exists), so the tasks backend degenerates to the SPMD walk — same
  // single thread, same order, same result. The report's backend field then
  // stays kSpmd: it names the executor that actually ran, so callers can
  // see the degeneration rather than infer it.
  if (opts.backend == SchedBackend::kTasks && comm.size() > 1)
    return run_graph_tasks(graph, comm, opts);
  return SchedExecutor(graph, comm, opts).run();
}

}  // namespace wavepipe
