#include "service/service.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>
#include <sstream>

#include "apps/alt_sweep.hh"
#include "support/timer.hh"

namespace wavepipe {

std::string JobBill::describe() const {
  std::ostringstream os;
  os << "job#" << id << " " << app << " n=" << n << " p=" << p << " b="
     << block << (block_auto ? "(auto)" : "") << " policy="
     << to_string(policy) << " cache=" << (cache_hit ? "hit" : "miss")
     << " ranks=[" << base_rank << "," << base_rank + p << ") tags=["
     << tag_base << "," << tag_base + tag_count << ") session=" << round
     << " T=" << vtime_max << " comp=" << phases_total.t_comp
     << " comm=" << phases_total.t_comm << " wait=" << phases_total.t_wait
     << " msgs=" << comm_total.messages_sent << " wall=" << wall_seconds
     << "s value=" << value;
  return os.str();
}

namespace {

int env_int(const char* name, int lo) {
  const char* v = std::getenv(name);
  if (!v) return -1;
  char* end = nullptr;
  const long n = std::strtol(v, &end, 10);
  constexpr int hi = std::numeric_limits<int>::max();
  if (end == v || *end != '\0' || n < lo || n > hi)
    throw ConfigError(std::string(name) + "='" + v +
                      "' is not an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
  return static_cast<int>(n);
}

/// The service registry: the wavefront suite plus the alternating-sweep
/// app (kept out of wavefront_suite() so suite benches keep their six
/// fixed rows).
std::vector<SuiteApp> service_registry() {
  std::vector<SuiteApp> apps = wavefront_suite();
  SuiteApp alt;
  alt.name = "alt-sweep";
  alt.wavefront_note = "2 waves/iter: N-S line sweep (pipelined) + local W-E";
  alt.default_n = 64;
  alt.last_value = std::make_shared<double>(0.0);
  alt.run_on = [](Communicator& comm, Coord n, int iters,
                  const WaveOptions& opts) {
    AltSweepConfig cfg;
    cfg.n = n;
    cfg.iterations = iters;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(comm.size(), 0);
    return alt_sweep_spmd(comm, cfg, grid, VerticalStrategy::kPipelined,
                          opts);
  };
  alt.grid_shape = [](int p) { return std::array<int, 2>{p, 1}; };
  wire_run(alt);
  apps.push_back(std::move(alt));
  return apps;
}

WaveOptions job_options(const JobPlan& plan, WavePolicy policy) {
  WaveOptions o;
  o.block = plan.block;
  o.overlap = policy == WavePolicy::kOverlap;
  return o;
}

}  // namespace

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  if (const int v = env_int("WAVEPIPE_SERVICE_RANKS", 1); v > 0)
    cfg.ranks = v;
  if (const int v = env_int("WAVEPIPE_SERVICE_TAG_SPAN", 1); v > 0)
    cfg.job_tag_span = v;
  return cfg;
}

SweepService::SweepService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      machine_(std::make_unique<Machine>(cfg_.ranks, cfg_.costs,
                                         TraceConfig::from_env(),
                                         cfg_.engine)),
      apps_(service_registry()),
      tags_(0),
      cache_(cfg_.cache_capacity) {
  require(cfg_.ranks >= 1, "a service needs at least one rank");
  require(cfg_.job_tag_span >= 1, "a job tag lease must be non-empty");
}

const SuiteApp& SweepService::find_app(const std::string& name) const {
  for (const SuiteApp& app : apps_)
    if (app.name == name) return app;
  std::string known;
  for (const SuiteApp& app : apps_)
    known += (known.empty() ? "" : ", ") + app.name;
  throw ServiceError("unknown app '" + name + "' (known: " + known + ")");
}

JobId SweepService::submit(const JobParams& params) {
  Timer t;
  const SuiteApp& app = find_app(params.app);
  if (params.p < 1 || params.p > cfg_.ranks)
    throw ServiceError("job '" + params.app + "' asks for p=" +
                       std::to_string(params.p) + " ranks; the pool has " +
                       std::to_string(cfg_.ranks));
  if (params.iters < 1)
    throw ServiceError("a job needs at least one iteration");
  if (params.b < 0)
    throw ServiceError("block size must be >= 0 (0 = pick b* from the model)");
  if (queue_.size() >= cfg_.max_queue)
    throw ServiceError("service queue is full (" +
                       std::to_string(cfg_.max_queue) +
                       " jobs); wait() or drain() first");

  JobParams resolved = params;
  if (resolved.n <= 0) resolved.n = app.default_n;

  const PlanKey key{resolved.app, resolved.n,     resolved.p,
                    resolved.b,   resolved.iters, resolved.policy};
  std::shared_ptr<const JobPlan> plan = cache_.find(key);
  const bool hit = plan != nullptr;
  if (!hit) {
    plan = lower_job_plan(key, cfg_.costs);
    cache_.insert(key, plan);
  }

  Pending pj;
  pj.id = next_id_++;
  pj.params = std::move(resolved);
  pj.plan = std::move(plan);
  pj.cache_hit = hit;
  pj.submit_seconds = t.seconds();
  queue_.push_back(std::move(pj));
  return queue_.back().id;
}

struct SweepService::Running {
  Pending job;
  const SuiteApp* app = nullptr;
  std::string label;  // "job#<id> <app>": the view's and the lease's name
  int base = 0;
  TagRange tags;
  int entered = 0;       // ranks that took the job
  int left = 0;          // ranks that finished it
  double start_s = 0.0;  // session clock when its first rank took it
  // The bill (placement filled at admission) and the per-rank slots each
  // rank fills before it leaves the view.
  JobResult result;
};

struct SweepService::Session {
  std::mutex mu;
  std::vector<std::unique_ptr<Running>> jobs;  // in admission order
  // Per rank: the job it is to run or is running, or null when free.
  std::vector<Running*> assigned;
  int busy = 0;          // ranks with a job
  bool closing = false;  // set once nothing is queued and no rank is busy
  bool failed = false;   // a rank threw: admit nothing more
  Timer clock;
};

void SweepService::admit(Session& s, std::vector<int>& woken) {
  if (s.failed) return;
  auto find_base = [&](int p) {
    for (int b0 = 0; b0 + p <= cfg_.ranks; ++b0) {
      bool free = true;
      for (int r = b0; r < b0 + p && free; ++r)
        free = s.assigned[static_cast<std::size_t>(r)] == nullptr;
      if (free) return b0;
    }
    return -1;
  };
  for (auto it = queue_.begin(); it != queue_.end() && s.busy < cfg_.ranks;) {
    const int p = it->params.p;
    const int base = find_base(p);
    if (base < 0) {
      ++it;
      continue;
    }
    auto job = std::make_unique<Running>();
    job->label = "job#" + std::to_string(it->id) + " " + it->params.app;
    job->tags = tags_.alloc(cfg_.job_tag_span, job->label);
    job->app = &find_app(it->params.app);
    job->base = base;
    JobBill& bill = job->result.bill;
    bill.id = it->id;
    bill.app = it->params.app;
    bill.n = it->params.n;
    bill.p = p;
    bill.block = it->plan->block;
    bill.block_auto = it->plan->block_auto;
    bill.policy = it->params.policy;
    bill.cache_hit = it->cache_hit;
    bill.submit_seconds = it->submit_seconds;
    bill.base_rank = base;
    bill.tag_base = job->tags.base;
    bill.tag_count = job->tags.count;
    bill.round = sessions_;
    job->result.vtime.resize(static_cast<std::size_t>(p));
    job->result.phases.resize(static_cast<std::size_t>(p));
    job->result.stats.resize(static_cast<std::size_t>(p));
    job->job = std::move(*it);
    for (int r = base; r < base + p; ++r) {
      s.assigned[static_cast<std::size_t>(r)] = job.get();
      woken.push_back(r);
    }
    s.busy += p;
    s.jobs.push_back(std::move(job));
    it = queue_.erase(it);
  }
}

void SweepService::finish(Session& s, Running& job) {
  JobResult& jr = job.result;
  jr.bill.wall_seconds = s.clock.seconds() - job.start_s;
  jr.bill.vtime_max = *std::max_element(jr.vtime.begin(), jr.vtime.end());
  for (std::size_t r = 0; r < jr.vtime.size(); ++r) {
    jr.bill.phases_total += jr.phases[r];
    jr.bill.comm_total += jr.stats[r];
  }
  results_.emplace(jr.bill.id, std::move(jr));
  tags_.release(job.tags);
}

void SweepService::run_session() {
  if (queue_.empty()) return;
  ++sessions_;
  Session s;
  s.assigned.assign(static_cast<std::size_t>(cfg_.ranks), nullptr);
  std::vector<int> ignored;
  admit(s, ignored);
  internal_check(!s.jobs.empty(), "a session admitted nothing from a "
                                  "non-empty queue (p <= ranks is checked "
                                  "at submit)");

  std::vector<int> everyone(static_cast<std::size_t>(cfg_.ranks));
  std::iota(everyone.begin(), everyone.end(), 0);
  auto nudge_others = [&](int self, const std::vector<int>& ranks) {
    for (const int r : ranks)
      if (r != self) machine_->mailbox(r).nudge();
  };
  auto body = [&](Communicator& comm) {
    const int self = comm.rank();
    const auto slot = static_cast<std::size_t>(self);
    std::vector<int> woken;
    try {
      for (;;) {
        comm.block_until([&] {
          std::lock_guard<std::mutex> l(s.mu);
          return s.assigned[slot] != nullptr || s.closing;
        });
        Running* job = nullptr;
        {
          std::lock_guard<std::mutex> l(s.mu);
          if (s.closing) return;
          job = s.assigned[slot];
          if (job->entered++ == 0) job->start_s = s.clock.seconds();
        }
        const JobParams& jp = job->job.params;
        comm.enter_view(job->base, jp.p, job->tags.base, job->tags.count,
                        job->label);
        const Real v = job->app->run_on(comm, jp.n, jp.iters,
                                        job_options(*job->job.plan, jp.policy));
        const auto k = static_cast<std::size_t>(comm.rank());
        if (k == 0) job->result.bill.value = v;
        job->result.vtime[k] = comm.vtime();
        job->result.phases[k] = comm.phases();
        job->result.stats[k] = comm.stats();
        comm.exit_view();
        {
          std::lock_guard<std::mutex> l(s.mu);
          if (++job->left == jp.p) finish(s, *job);
          s.assigned[slot] = nullptr;
          --s.busy;
          admit(s, woken);
          if (queue_.empty() && s.busy == 0) {
            s.closing = true;
            woken = everyone;
          }
        }
        nudge_others(self, woken);
        woken.clear();
      }
    } catch (...) {
      // Stop admitting and send the idle ranks home; the machine poisons
      // the mailboxes of ranks still inside a job.
      {
        std::lock_guard<std::mutex> l(s.mu);
        s.failed = s.closing = true;
      }
      nudge_others(self, everyone);
      throw;
    }
  };

  bool failed = false;
  std::string error;
  try {
    machine_->run(body);
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  if (!failed) {
    internal_check(machine_->pending_messages() == 0,
                   "a clean session left messages queued: a job sent "
                   "traffic it never received");
    return;
  }
  // Jobs a rank took fail with the session's error; jobs admitted but not
  // yet taken by any rank go back to the queue in submission order.
  std::deque<Pending> requeue;
  for (const auto& job : s.jobs) {
    if (job->left == job->job.params.p) continue;  // finished: filed
    tags_.release(job->tags);
    if (job->entered == 0) {
      requeue.push_back(std::move(job->job));
      continue;
    }
    JobResult& jr = job->result;
    jr.failed = true;
    jr.error = error;
    results_.emplace(jr.bill.id, std::move(jr));
  }
  if (!requeue.empty()) {
    for (Pending& pj : queue_) requeue.push_back(std::move(pj));
    std::sort(requeue.begin(), requeue.end(),
              [](const Pending& a, const Pending& b) { return a.id < b.id; });
    queue_ = std::move(requeue);
  }
  // The machine may hold poisoned mailboxes / dead ranks; rebuild it so
  // the next session starts clean.
  machine_ = std::make_unique<Machine>(cfg_.ranks, cfg_.costs,
                                       TraceConfig::from_env(), cfg_.engine);
}

bool SweepService::is_queued(JobId id) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [id](const Pending& pj) { return pj.id == id; });
}

bool SweepService::done(JobId id) const {
  return id >= 1 && id < next_id_ && !is_queued(id);
}

JobResult SweepService::wait(JobId id) {
  while (results_.count(id) == 0) {
    if (!is_queued(id))
      throw ServiceError("unknown job id " + std::to_string(id) +
                         " (never submitted, or already waited on)");
    run_session();
  }
  auto node = results_.extract(id);
  result_or_throw(node.mapped());
  return std::move(node.mapped());
}

std::vector<JobId> SweepService::drain() {
  std::vector<JobId> ids;
  for (const Pending& pj : queue_) ids.push_back(pj.id);
  while (!queue_.empty()) run_session();
  return ids;
}

const JobResult& SweepService::result(JobId id) const {
  auto it = results_.find(id);
  if (it == results_.end())
    throw ServiceError("job " + std::to_string(id) +
                       " has not completed, was waited on, or is unknown");
  return result_or_throw(it->second);
}

const JobResult& SweepService::result_or_throw(const JobResult& jr) {
  if (jr.failed)
    throw ServiceError("job#" + std::to_string(jr.bill.id) + " (" +
                       jr.bill.app + ") failed: " + jr.error);
  return jr;
}

}  // namespace wavepipe
