#include "sched/executor.hh"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <sstream>
#include <utility>
#include <vector>

#include "comm/communicator.hh"
#include "comm/machine.hh"
#include "sched/parallel_executor.hh"

namespace wavepipe {

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kDiagonal:
      return "diagonal";
    case SchedPolicy::kCriticalPath:
      return "critical";
  }
  return "?";
}

const char* to_string(SchedBackend b) {
  switch (b) {
    case SchedBackend::kSpmd:
      return "spmd";
    case SchedBackend::kTasks:
      return "tasks";
  }
  return "?";
}

SchedOptions SchedOptions::from_env() {
  SchedOptions opts;
  if (const char* v = std::getenv("WAVEPIPE_SCHED_POLICY")) {
    const std::string s(v);
    if (s == "fifo") {
      opts.policy = SchedPolicy::kFifo;
    } else if (s == "diagonal") {
      opts.policy = SchedPolicy::kDiagonal;
    } else if (s == "critical" || s.empty()) {
      opts.policy = SchedPolicy::kCriticalPath;
    } else {
      throw ConfigError(
          "WAVEPIPE_SCHED_POLICY expects 'fifo', 'diagonal' or 'critical', "
          "got '" +
          s + "'");
    }
  }
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
  if (const char* v = std::getenv("WAVEPIPE_SCHED_UNSAFE_STATIC")) {
    const std::string s(v);
    if (s == "0") {
      opts.allow_unsafe_static = false;
    } else if (s == "1" || s.empty()) {
      opts.allow_unsafe_static = true;
    } else {
      throw ConfigError(
          "WAVEPIPE_SCHED_UNSAFE_STATIC expects '0' or '1', got '" + s + "'");
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
  // Cross-validate against an explicit engine selection: the tasks backend
  // only exists on the parallel engine's threads, and a silent SPMD
  // fallback would quietly discard the configuration the user asked for.
  // run_graph re-checks against the machine that actually runs (the
  // authoritative gate); this early check catches the env-vs-env conflict
  // at configuration time, before any machine exists.
  if (opts.backend == SchedBackend::kTasks) {
    if (const char* e = std::getenv("WAVEPIPE_ENGINE")) {
      const std::string s(e);
      if (!s.empty() && s != "parallel") {
        throw ConfigError(
            "WAVEPIPE_SCHED_BACKEND=tasks requires the parallel engine, but "
            "WAVEPIPE_ENGINE='" + s +
            "'. Valid combinations: backend 'spmd' with any engine, or "
            "backend 'tasks' with WAVEPIPE_ENGINE=parallel");
      }
    }
  }
  return opts;
}

namespace sched_internal {

GraphAnalysis analyze_graph(const TaskGraph& graph, SchedPolicy policy) {
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
  if (policy == SchedPolicy::kCriticalPath) {
    a.prio.assign(n, 0.0);
    for (std::size_t i = topo.size(); i-- > 0;) {
      const TaskId t = topo[i];
      double tail = 0.0;
      for (const TaskId s : graph.successors(t))
        tail = std::max(tail, a.prio[static_cast<std::size_t>(s)]);
      a.prio[static_cast<std::size_t>(t)] = graph.task(t).cost + tail;
    }
  }
  return a;
}

void check_static_safe(const TaskGraph& graph, const SchedOptions& opts) {
  // Fail fast on the cross-rank deadlock caveat (executor.hh header): a
  // static non-FIFO pick order over a graph that blocks on another rank's
  // sends can deadlock in ways this rank cannot detect from its own graph,
  // so refuse before running anything rather than hang (parallel engine)
  // or unwind mid-graph (fiber engine's detector).
  if (opts.adaptive || opts.policy == SchedPolicy::kFifo ||
      opts.allow_unsafe_static)
    return;
  const std::size_t n = graph.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TaskGraph::Task& task = graph.task(static_cast<TaskId>(i));
    if (task.inflows.empty()) continue;
    throw SchedError(
        "static " + std::string(to_string(opts.policy)) +
        " scheduling over a cross-rank graph (task '" + task.label +
        "' has inflow from rank " + std::to_string(task.inflows.front().src) +
        ") can deadlock: the pick order may block a receive ahead of the "
        "send its peer needs. Use adaptive mode, the fifo policy, or set "
        "SchedOptions::allow_unsafe_static / WAVEPIPE_SCHED_UNSAFE_STATIC=1 "
        "after verifying the global schedule is consistent");
  }
}

std::pair<double, TaskId> task_key(const TaskGraph& graph,
                                   const GraphAnalysis& analysis,
                                   SchedPolicy policy, TaskId t) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return {0.0, t};
    case SchedPolicy::kDiagonal:
      return {static_cast<double>(graph.task(t).diagonal), t};
    case SchedPolicy::kCriticalPath:
      return {-analysis.prio[static_cast<std::size_t>(t)], t};
  }
  return {0.0, t};
}

}  // namespace sched_internal

class SchedExecutor : public TaskSink {
 public:
  SchedExecutor(const TaskGraph& graph, Communicator& comm,
                const SchedOptions& opts)
      : graph_(graph), comm_(comm), opts_(opts) {}

  SchedReport run();

  void task_send(int dst, std::span<const double> payload, int tag) override {
    sends_.push_back(comm_.isend(dst, payload, tag));
  }

 private:
  // Smaller key runs first; ties break toward the smaller (earlier) id, so
  // every policy is a total order and the schedule is reproducible.
  using Key = std::pair<double, TaskId>;

  Key key(TaskId t) const {
    return sched_internal::task_key(graph_, analysis_, opts_.policy, t);
  }

  void release(TaskId t);
  void run_task(TaskId t);
  [[noreturn]] void rethrow_deadlock(const std::vector<TaskId>& stuck,
                                     const Error& cause) const;

  const TaskGraph& graph_;
  Communicator& comm_;
  const SchedOptions opts_;

  sched_internal::GraphAnalysis analysis_;
  std::vector<int> deps_;
  std::priority_queue<std::pair<Key, TaskId>,
                      std::vector<std::pair<Key, TaskId>>, std::greater<>>
      ready_;
  // Posted-but-unarrived inflow irecvs of released tasks, in posting order
  // (wait_any and the promotion scan must see requests in that order). One
  // entry per *inflow*, so a two-inflow task appears twice; missing_ counts
  // how many of a task's inflows are still in flight, and the task is
  // promoted when its count hits zero.
  std::vector<TaskId> pending_;
  std::vector<Request> pending_req_;
  std::vector<int> missing_;
  std::vector<std::vector<std::vector<double>>> inflow_buf_;  // [task][inflow]
  std::vector<Request> sends_;
  SchedReport report_;
};

void SchedExecutor::release(TaskId t) {
  const TaskGraph::Task& task = graph_.task(t);
  if (opts_.adaptive && !task.inflows.empty()) {
    auto& bufs = inflow_buf_[static_cast<std::size_t>(t)];
    bufs.resize(task.inflows.size());
    for (std::size_t k = 0; k < task.inflows.size(); ++k) {
      bufs[k].resize(task.inflows[k].elements);
      pending_req_.push_back(comm_.irecv(task.inflows[k].src,
                                         std::span<double>(bufs[k]),
                                         task.inflows[k].tag));
      pending_.push_back(t);
    }
    missing_[static_cast<std::size_t>(t)] =
        static_cast<int>(task.inflows.size());
    report_.max_posted = std::max(report_.max_posted, pending_.size());
  } else {
    // Static mode posts the irecv lazily, when the policy picks the task —
    // a blocking wait at that point charges the identical virtual time and
    // keeps the pick order independent of physical arrival.
    ready_.push({key(t), t});
  }
}

void SchedExecutor::run_task(TaskId t) {
  const TaskGraph::Task& task = graph_.task(t);
  auto& bufs = inflow_buf_[static_cast<std::size_t>(t)];
  const double t0 = comm_.vtime();
  if (!opts_.adaptive && !task.inflows.empty()) {
    // Static mode receives the inflows blocking, one by one in declaration
    // order — the deterministic schedule every rank can replay.
    bufs.resize(task.inflows.size());
    for (std::size_t k = 0; k < task.inflows.size(); ++k) {
      bufs[k].resize(task.inflows[k].elements);
      Request r = comm_.irecv(task.inflows[k].src, std::span<double>(bufs[k]),
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
  std::vector<std::span<const double>> payloads(bufs.size());
  for (std::size_t k = 0; k < bufs.size(); ++k)
    payloads[k] = std::span<const double>(bufs[k]);
  TaskContext ctx(comm_, *this);
  ctx.inflows = std::span<const std::span<const double>>(payloads);
  if (!payloads.empty()) ctx.inflow = payloads.front();
  if (task.run) task.run(ctx);
  comm_.tracer().record(TraceEventType::kTask, t0, comm_.vtime(),
                        task.inflows.empty() ? -1 : task.inflows.front().src,
                        static_cast<int>(t),
                        static_cast<std::uint64_t>(task.cost));
  std::vector<std::vector<double>>().swap(bufs);
  for (const TaskId s : graph_.successors(t))
    if (--deps_[static_cast<std::size_t>(s)] == 0) release(s);
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

SchedReport SchedExecutor::run() {
  const std::size_t n = graph_.size();
  report_.tasks = n;
  report_.edges = graph_.edges();
  report_.policy = opts_.policy;
  report_.adaptive = opts_.adaptive;
  report_.backend = SchedBackend::kSpmd;
  analysis_ = sched_internal::analyze_graph(graph_, opts_.policy);
  deps_ = analysis_.deps;
  sched_internal::check_static_safe(graph_, opts_);
  inflow_buf_.resize(n);
  missing_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (deps_[i] == 0) release(static_cast<TaskId>(i));

  // Consumes pending slot `i` (its request completed) and promotes its task
  // once no inflow of it remains in flight.
  auto settle_pending = [&](std::size_t i) {
    const TaskId t = pending_[i];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
    pending_req_.erase(pending_req_.begin() + static_cast<std::ptrdiff_t>(i));
    if (--missing_[static_cast<std::size_t>(t)] == 0)
      ready_.push({key(t), t});
  };

  std::size_t done = 0;
  while (done < n) {
    if (opts_.adaptive) {
      // Promote every pending task all of whose inflows have physically
      // arrived; test() consumes a request without advancing the clock.
      for (std::size_t i = 0; i < pending_.size();) {
        if (comm_.test(pending_req_[i])) {
          settle_pending(i);
        } else {
          ++i;
        }
      }
      if (ready_.empty()) {
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
          idx = comm_.wait_any(std::span<Request>(pending_req_));
        } catch (const EngineError& e) {
          rethrow_deadlock(pending_, e);
        } catch (const CommError& e) {
          rethrow_deadlock(pending_, e);
        }
        comm_.set_wait_context("");
        settle_pending(idx);
        continue;
      }
      const auto [k, t] = ready_.top();
      ready_.pop();
      for (const TaskId p : pending_)
        if (key(p) < k) {
          ++report_.overtakes;
          break;
        }
      run_task(t);
    } else {
      internal_check(!ready_.empty(),
                     "scheduler starved: tasks remain but none released");
      const TaskId t = ready_.top().second;
      ready_.pop();
      run_task(t);
    }
    ++done;
  }
  try {
    comm_.wait_all(std::span<Request>(sends_));
  } catch (const EngineError& e) {
    throw SchedError("scheduler deadlock on rank " +
                     std::to_string(comm_.rank()) +
                     " while draining task sends; " + std::string(e.what()));
  }
  return report_;
}

SchedReport run_graph(const TaskGraph& graph, Communicator& comm,
                      const SchedOptions& opts) {
  if (opts.backend == SchedBackend::kTasks) {
    // Authoritative engine gate: whatever the env said, the machine that is
    // actually running decides. Never a silent SPMD fallback.
    if (comm.machine().engine() != EngineKind::kParallel)
      throw ConfigError(
          "SchedOptions::backend=tasks requires the parallel engine, but "
          "this machine runs '" +
          std::string(to_string(comm.machine().engine())) +
          "'. Valid combinations: backend 'spmd' with any engine, or "
          "backend 'tasks' with WAVEPIPE_ENGINE=parallel");
    if (comm.size() > 1) return run_graph_tasks(graph, comm, opts);
    // A one-rank machine runs inline on the calling thread (no worker
    // pool exists), so the tasks backend degenerates to the SPMD walk —
    // same single thread, same order, same result.
  }
  SchedExecutor exec(graph, comm, opts);
  // The report's backend field stays kSpmd here even when kTasks was
  // requested on a one-rank machine: it names the executor that actually
  // ran, and callers can see the degeneration rather than infer it.
  return exec.run();
}

}  // namespace wavepipe
