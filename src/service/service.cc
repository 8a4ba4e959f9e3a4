#include "service/service.hh"

#include <algorithm>
#include <cstdlib>
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
     << tag_base << "," << tag_base + tag_count << ") round=" << round
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
  if (end == v || *end != '\0' || n < lo)
    throw ConfigError(std::string(name) + "='" + v +
                      "' is not an integer >= " + std::to_string(lo));
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
  auto body = alt.run_on;
  auto value = alt.last_value;
  alt.run = [body, value](int p, const CostModel& costs, Coord n, int iters,
                          Coord block) {
    WaveOptions o;
    o.block = block;
    return Machine::run(p, costs, [&](Communicator& comm) {
      const Real v = body(comm, n, iters, o);
      if (comm.rank() == 0) *value = v;
    });
  };
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

void SweepService::run_round() {
  if (queue_.empty()) return;
  ++rounds_;

  // Admission: FIFO with backfill onto the lowest-base contiguous free
  // window. Jobs that do not fit stay queued in order for the next round.
  std::vector<char> used(static_cast<std::size_t>(cfg_.ranks), 0);
  auto find_base = [&](int p) {
    for (int b0 = 0; b0 + p <= cfg_.ranks; ++b0) {
      bool free = true;
      for (int r = b0; r < b0 + p; ++r)
        if (used[static_cast<std::size_t>(r)]) {
          free = false;
          break;
        }
      if (free) return b0;
    }
    return -1;
  };

  std::vector<Placement> round;
  std::deque<Pending> rest;
  for (Pending& pj : queue_) {
    const int base = find_base(pj.params.p);
    if (base < 0) {
      rest.push_back(std::move(pj));
      continue;
    }
    for (int r = base; r < base + pj.params.p; ++r)
      used[static_cast<std::size_t>(r)] = 1;
    Placement pl;
    pl.base = base;
    pl.tags = tags_.alloc(cfg_.job_tag_span, "job#" + std::to_string(pj.id) +
                                                 " " + pj.params.app);
    pl.job = std::move(pj);
    round.push_back(std::move(pl));
  }
  queue_ = std::move(rest);
  internal_check(!round.empty(), "a round admitted nothing from a non-empty "
                                 "queue (p <= ranks is checked at submit)");

  // Per-world-rank dispatch tables, read-only during the run; values is
  // written once per job by its view-local rank 0 (disjoint slots).
  std::vector<int> owner(static_cast<std::size_t>(cfg_.ranks), -1);
  std::vector<const SuiteApp*> body(round.size());
  std::vector<Real> values(round.size(), 0.0);
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Placement& pl = round[i];
    for (int r = pl.base; r < pl.base + pl.job.params.p; ++r)
      owner[static_cast<std::size_t>(r)] = static_cast<int>(i);
    body[i] = &find_app(pl.job.params.app);
  }

  RunResult res;
  bool failed = false;
  std::string error;
  try {
    res = machine_->run([&](Communicator& comm) {
      const int idx = owner[static_cast<std::size_t>(comm.rank())];
      if (idx < 0) return;  // idle rank this round
      const Placement& pl = round[static_cast<std::size_t>(idx)];
      comm.enter_view(pl.base, pl.job.params.p, pl.tags.base, pl.tags.count,
                      "job#" + std::to_string(pl.job.id) + " " +
                          pl.job.params.app);
      try {
        const Real v =
            body[static_cast<std::size_t>(idx)]->run_on(
                comm, pl.job.params.n, pl.job.params.iters,
                job_options(*pl.job.plan, pl.job.params.policy));
        if (comm.rank() == 0) values[static_cast<std::size_t>(idx)] = v;
      } catch (...) {
        comm.exit_view();
        throw;
      }
      comm.exit_view();
    });
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  for (std::size_t i = 0; i < round.size(); ++i) {
    const Placement& pl = round[i];
    const int p = pl.job.params.p;
    JobResult jr;
    jr.bill.id = pl.job.id;
    jr.bill.app = pl.job.params.app;
    jr.bill.n = pl.job.params.n;
    jr.bill.p = p;
    jr.bill.block = pl.job.plan->block;
    jr.bill.block_auto = pl.job.plan->block_auto;
    jr.bill.policy = pl.job.params.policy;
    jr.bill.cache_hit = pl.job.cache_hit;
    jr.bill.submit_seconds = pl.job.submit_seconds;
    jr.bill.base_rank = pl.base;
    jr.bill.tag_base = pl.tags.base;
    jr.bill.tag_count = pl.tags.count;
    jr.bill.round = rounds_;
    if (failed) {
      jr.failed = true;
      jr.error = error;
    } else {
      jr.bill.value = values[i];
      jr.bill.wall_seconds = res.wall_seconds;
      const auto b = static_cast<std::size_t>(pl.base);
      jr.vtime.assign(res.vtime.begin() + b, res.vtime.begin() + b + p);
      jr.phases.assign(res.phases.begin() + b, res.phases.begin() + b + p);
      jr.stats.assign(res.stats.begin() + b, res.stats.begin() + b + p);
      jr.bill.vtime_max = *std::max_element(jr.vtime.begin(), jr.vtime.end());
      for (int r = 0; r < p; ++r) {
        jr.bill.phases_total += jr.phases[static_cast<std::size_t>(r)];
        jr.bill.comm_total += jr.stats[static_cast<std::size_t>(r)];
      }
    }
    results_.emplace(pl.job.id, std::move(jr));
    tags_.release(pl.tags);
  }

  if (failed) {
    // The machine may hold poisoned mailboxes / dead ranks; rebuild it so
    // the next round starts clean. Queued (unadmitted) jobs survive.
    machine_ = std::make_unique<Machine>(cfg_.ranks, cfg_.costs,
                                         TraceConfig::from_env(),
                                         cfg_.engine);
  }
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
    run_round();
  }
  auto node = results_.extract(id);
  result_or_throw(node.mapped());
  return std::move(node.mapped());
}

std::vector<JobId> SweepService::drain() {
  std::vector<JobId> ids;
  for (const Pending& pj : queue_) ids.push_back(pj.id);
  while (!queue_.empty()) run_round();
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
