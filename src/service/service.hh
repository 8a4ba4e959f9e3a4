// SweepService: the Machine as a shared, multi-tenant resource.
//
// Clients submit() jobs (any suite app at (n, p, b, policy); b optional —
// unset means the model's b*) and wait() on ids. The service owns one
// Machine whose rank pool every job shares. A wait() or drain() that finds
// work runs one session: one Machine::run in which every rank loops —
// block until assigned a job, run its part of the job inside a job view
// (comm/communicator.hh), then free its rank and admit more queued jobs
// onto the free ranks (FIFO with backfill onto the lowest-base contiguous
// window) — until the queue is empty and every rank is idle. So a rank
// takes the next queued job that fits as soon as it is done with its last
// one, whatever other jobs are still running. Each admitted job leases a
// private user-tag window from a recycling TagAllocator, returned when its
// last rank finishes. A view starts the rank's clock, phases and stats
// from zero, and disjoint windows and leases make cross-job (src, tag)
// collisions impossible; because virtual time depends only on program
// order and message sizes — never on machine rank ids or tag values — a
// job's per-rank results are byte-identical to the same job run standalone
// on its own p-rank machine (a tested invariant). Plans are cached by
// (app, n, p, b, iters, policy), so repeat submissions skip lowering;
// every completed job carries a bill. See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/suite.hh"
#include "comm/machine.hh"
#include "sched/tags.hh"
#include "service/job.hh"
#include "service/plan_cache.hh"

namespace wavepipe {

struct ServiceConfig {
  /// Size of the shared rank pool.
  int ranks = 8;
  /// Cost model every job runs under (jobs share the machine, so they
  /// share its costs; b* resolution reads alpha/beta from here).
  CostModel costs{};
  EngineConfig engine = EngineConfig::from_env();
  /// User tags leased to each job. Must cover the highest tag any app
  /// uses (suite apps stay below 1024; the default leaves headroom).
  int job_tag_span = 1 << 14;
  /// submit() beyond this many queued jobs is refused (open-loop arrival
  /// protection).
  std::size_t max_queue = 1024;
  /// Plan-cache entries kept (LRU).
  std::size_t cache_capacity = 64;

  /// Environment overrides: WAVEPIPE_SERVICE_RANKS (pool size) and
  /// WAVEPIPE_SERVICE_TAG_SPAN (per-job tag lease). Unparseable values
  /// throw ConfigError.
  static ServiceConfig from_env();
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig cfg = {});

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Validates and plans the job (from the cache when possible) and
  /// enqueues it. Throws ServiceError for unknown apps, p outside
  /// [1, ranks], or a full queue. Does not run anything.
  JobId submit(const JobParams& params);

  /// Runs sessions until `id` completes, then hands its result over: the
  /// service keeps no copy, so a second wait() or result() on `id` is an
  /// unknown id. Results of the session's other jobs stay held. Throws
  /// ServiceError for unknown ids and for jobs that were running when
  /// their session failed (dropping the failed result too).
  JobResult wait(JobId id);

  /// Runs sessions until the queue is empty; returns the ids completed.
  /// Their results stay held until wait() takes them.
  std::vector<JobId> drain();

  /// True once `id` was submitted and has left the queue: completed,
  /// possibly failed, and possibly already waited on.
  bool done(JobId id) const;

  /// A completed job's result not yet taken by wait(), for example after
  /// drain(); same errors as wait().
  const JobResult& result(JobId id) const;

  std::size_t queued() const { return queue_.size(); }
  /// Results of completed jobs not yet taken by wait().
  std::size_t held() const { return results_.size(); }
  /// Sessions run so far (each one Machine::run).
  int rounds() const { return sessions_; }
  std::uint64_t cache_hits() const { return cache_.hits(); }
  std::uint64_t cache_misses() const { return cache_.misses(); }
  const ServiceConfig& config() const { return cfg_; }

  /// The shared machine (tests reach through it).
  Machine& machine() { return *machine_; }

  /// The tag allocator's live/free map — the billing log's view of tag
  /// space (deterministic; see TagAllocator::describe).
  std::string describe_tags() const { return tags_.describe(); }

  /// Apps this service can run: the wavefront suite plus "alt-sweep".
  const std::vector<SuiteApp>& registry() const { return apps_; }

 private:
  struct Pending {
    JobId id = 0;
    JobParams params;  // n/iters resolved to concrete values
    std::shared_ptr<const JobPlan> plan;
    bool cache_hit = false;
    double submit_seconds = 0.0;
  };

  struct Running;  // a job admitted to the running session
  struct Session;  // what one session's ranks share

  const SuiteApp& find_app(const std::string& name) const;
  bool is_queued(JobId id) const;

  /// `jr`, or the ServiceError of its failed session.
  static const JobResult& result_or_throw(const JobResult& jr);

  /// Admits queued jobs onto the session's free ranks: the queue in
  /// order, each job onto the lowest-base contiguous free window that
  /// fits (FIFO with backfill), with a fresh tag lease. Appends the ranks
  /// it assigned to `woken`. Caller holds the session mutex.
  void admit(Session& s, std::vector<int>& woken);

  /// Files the result of a job whose last rank just finished and returns
  /// its tag lease. Caller holds the session mutex.
  void finish(Session& s, Running& job);

  /// One Machine::run that keeps every rank fed from the queue until the
  /// queue is empty and every rank is idle. Fills results_ (wait()
  /// empties it again). If a rank throws, jobs already finished keep
  /// their results, jobs running fail with the error, jobs admitted but
  /// not yet started go back to the queue, and the machine is rebuilt.
  void run_session();

  ServiceConfig cfg_;
  std::unique_ptr<Machine> machine_;
  std::vector<SuiteApp> apps_;
  TagAllocator tags_;
  PlanCache cache_;
  std::deque<Pending> queue_;
  std::unordered_map<JobId, JobResult> results_;
  JobId next_id_ = 1;
  int sessions_ = 0;
};

}  // namespace wavepipe
