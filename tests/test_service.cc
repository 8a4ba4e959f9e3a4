// The multi-tenant sweep service (service/): admission packing onto
// disjoint rank windows, per-job tag leases, plan caching, billing, failure
// inside a session — and the subsystem's central invariant: a job run on a
// window of the shared machine is byte-identical (values, vtimes, phases,
// stats) to the same job run standalone, cold or from the plan cache, alone,
// packed with seven neighbours, or run on ranks that ran other jobs earlier
// in the same session.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/block_select.hh"
#include "service/service.hh"

namespace wavepipe {
namespace {

CostModel test_costs() {
  CostModel cm;
  cm.alpha = 40.0;
  cm.beta = 0.5;
  return cm;
}

const SuiteApp& app_named(const SweepService& svc, const std::string& name) {
  for (const SuiteApp& app : svc.registry())
    if (app.name == name) return app;
  throw std::runtime_error("no app " + name);
}

// Small-but-representative sizes per app so the whole file stays fast.
struct Case {
  const char* app;
  Coord n;
  int iters;
};
const Case kCases[] = {
    {"tomcatv", 32, 2},       {"simple", 32, 2},
    {"sweep3d", 8, 1},        {"smith-waterman", 48, 1},
    {"smith-waterman-2d", 48, 1}, {"sor", 32, 2},
    {"alt-sweep", 16, 2},
};

struct Standalone {
  RunResult rr;
  Real value = 0.0;
};

Standalone run_standalone(const SuiteApp& app, Coord n, int p, int iters,
                          const WaveOptions& opts, const CostModel& costs) {
  Standalone s;
  std::vector<Real> v(1, 0.0);
  s.rr = Machine::run(p, costs, EngineConfig::from_env(),
                      [&](Communicator& comm) {
                        const Real r = app.run_on(comm, n, iters, opts);
                        if (comm.rank() == 0) v[0] = r;
                      });
  s.value = v[0];
  return s;
}

WaveOptions options_for(const JobBill& bill) {
  WaveOptions o;
  o.block = bill.block;
  o.overlap = bill.policy == WavePolicy::kOverlap;
  return o;
}

void expect_matches_standalone(const SweepService& svc, const JobResult& jr,
                               const CostModel& costs) {
  // iters is not billed; every test takes it from the case table.
  int iters = 1;
  for (const Case& c : kCases)
    if (jr.bill.app == c.app) iters = c.iters;
  const Standalone ref =
      run_standalone(app_named(svc, jr.bill.app), jr.bill.n, jr.bill.p,
                     iters, options_for(jr.bill), costs);
  EXPECT_EQ(jr.vtime, ref.rr.vtime) << jr.bill.describe();
  EXPECT_EQ(jr.phases, ref.rr.phases) << jr.bill.describe();
  EXPECT_EQ(jr.stats, ref.rr.stats) << jr.bill.describe();
  EXPECT_EQ(jr.bill.value, ref.value) << jr.bill.describe();
  EXPECT_EQ(jr.bill.vtime_max, ref.rr.vtime_max) << jr.bill.describe();
}

TEST(SweepService, BillCoversOneJob) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = test_costs();
  SweepService svc(cfg);

  JobParams params;
  params.app = "tomcatv";
  params.n = 32;
  params.p = 4;
  params.iters = 2;
  const JobId id = svc.submit(params);
  const JobResult& jr = svc.wait(id);

  EXPECT_EQ(jr.bill.id, id);
  EXPECT_EQ(jr.bill.app, "tomcatv");
  EXPECT_EQ(jr.bill.p, 4);
  EXPECT_TRUE(jr.bill.block_auto);
  EXPECT_EQ(jr.bill.block, select_block_static(cfg.costs, 32, 4));
  EXPECT_FALSE(jr.bill.cache_hit);
  EXPECT_GT(jr.bill.vtime_max, 0.0);
  EXPECT_EQ(jr.vtime.size(), 4u);
  // The bill's breakdown partitions the job's virtual time exactly.
  double vsum = 0.0;
  for (double v : jr.vtime) vsum += v;
  EXPECT_NEAR(jr.bill.phases_total.total(), vsum, 1e-9 * (1.0 + vsum));
  EXPECT_GT(jr.bill.comm_total.messages_sent, 0u);
  EXPECT_EQ(jr.bill.base_rank, 0);
  EXPECT_GE(jr.bill.tag_base, 0);
  EXPECT_EQ(jr.bill.tag_count, cfg.job_tag_span);
  EXPECT_EQ(jr.bill.round, 1);  // the session that ran it
  EXPECT_EQ(svc.rounds(), 1);
  EXPECT_GT(jr.bill.wall_seconds, 0.0);
  EXPECT_NE(jr.bill.describe().find("tomcatv"), std::string::npos);
  EXPECT_EQ(svc.held(), 0u);  // wait() handed the result over
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_TRUE(svc.done(id));
  EXPECT_THROW(svc.wait(id), ServiceError);    // already taken
  EXPECT_THROW(svc.result(id), ServiceError);
}

// A long-lived service must not grow with the jobs it has served: wait()
// hands each result over, drain() leaves them held until taken.
TEST(SweepService, WaitedResultsAreNotHeld) {
  ServiceConfig cfg;
  cfg.ranks = 2;
  cfg.costs = test_costs();
  SweepService svc(cfg);
  JobParams params;
  params.app = "sor";
  params.n = 8;
  params.p = 2;
  params.iters = 1;
  for (int k = 0; k < 200; ++k) {
    const JobResult jr = svc.wait(svc.submit(params));
    ASSERT_EQ(svc.held(), 0u) << "cycle " << k;
    ASSERT_EQ(jr.bill.id, static_cast<JobId>(k + 1));
  }
  EXPECT_EQ(svc.queued(), 0u);

  const JobId a = svc.submit(params);
  const JobId b = svc.submit(params);
  svc.drain();
  EXPECT_EQ(svc.held(), 2u);
  EXPECT_EQ(svc.result(a).bill.id, a);  // result() only looks
  EXPECT_EQ(svc.wait(a).bill.id, a);
  EXPECT_EQ(svc.wait(b).bill.id, b);
  EXPECT_EQ(svc.held(), 0u);
  EXPECT_FALSE(svc.done(b + 1));  // never submitted
}

TEST(SweepService, EveryAppMatchesStandalone) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = costs;
  SweepService svc(cfg);
  for (const Case& c : kCases) {
    JobParams params;
    params.app = c.app;
    params.n = c.n;
    params.p = 4;
    params.iters = c.iters;
    const JobId id = svc.submit(params);
    expect_matches_standalone(svc, svc.wait(id), costs);
  }
}

TEST(SweepService, ConcurrentJobsMatchStandalone) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 8;
  cfg.costs = costs;
  SweepService svc(cfg);

  // Two four-rank jobs share one session (windows [0,4) and [4,8)).
  JobParams a;
  a.app = "sweep3d";
  a.n = 8;
  a.p = 4;
  JobParams b;
  b.app = "smith-waterman";
  b.n = 48;
  b.p = 4;
  const JobId ia = svc.submit(a);
  const JobId ib = svc.submit(b);
  svc.drain();
  const JobResult& ra = svc.result(ia);
  const JobResult& rb = svc.result(ib);
  EXPECT_EQ(svc.rounds(), 1);
  EXPECT_EQ(ra.bill.round, 1);
  EXPECT_EQ(rb.bill.round, 1);
  EXPECT_EQ(ra.bill.base_rank, 0);
  EXPECT_EQ(rb.bill.base_rank, 4);
  EXPECT_NE(ra.bill.tag_base, rb.bill.tag_base);
  expect_matches_standalone(svc, ra, costs);
  expect_matches_standalone(svc, rb, costs);
}

// The acceptance bar: eight concurrent jobs on one machine, all
// byte-identical to standalone runs, mixed apps and policies.
TEST(SweepService, EightConcurrentJobsMatchStandalone) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 16;
  cfg.costs = costs;
  SweepService svc(cfg);

  const WavePolicy policies[] = {WavePolicy::kNaive, WavePolicy::kBlocking,
                                 WavePolicy::kOverlap};
  std::vector<JobId> ids;
  for (int j = 0; j < 8; ++j) {
    const Case& c = kCases[static_cast<std::size_t>(j) % std::size(kCases)];
    JobParams params;
    params.app = c.app;
    params.n = c.n;
    params.p = 2;
    params.iters = c.iters;
    params.policy = policies[static_cast<std::size_t>(j) % 3];
    ids.push_back(svc.submit(params));
  }
  svc.drain();
  // 8 x p=2 fits the 16-rank pool: one session, each job on its own
  // window from the first admission.
  EXPECT_EQ(svc.rounds(), 1);
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const JobResult& jr = svc.result(ids[j]);
    EXPECT_EQ(jr.bill.round, 1);
    EXPECT_EQ(jr.bill.base_rank, 2 * static_cast<int>(j));
    expect_matches_standalone(svc, jr, costs);
  }
  // Every lease was returned: the tag map is empty again.
  EXPECT_EQ(svc.describe_tags(), "");
}

TEST(SweepService, CacheHitIsByteIdenticalAcrossPolicies) {
  const CostModel costs = test_costs();
  for (const WavePolicy policy :
       {WavePolicy::kNaive, WavePolicy::kBlocking, WavePolicy::kOverlap}) {
    ServiceConfig cfg;
    cfg.ranks = 4;
    cfg.costs = costs;
    SweepService svc(cfg);
    for (const Case& c : kCases) {
      JobParams params;
      params.app = c.app;
      params.n = c.n;
      params.p = 4;
      params.iters = c.iters;
      params.policy = policy;
      const JobResult jc = svc.wait(svc.submit(params));
      const JobResult jh = svc.wait(svc.submit(params));
      EXPECT_FALSE(jc.bill.cache_hit);
      EXPECT_TRUE(jh.bill.cache_hit) << jh.bill.describe();
      EXPECT_EQ(jc.bill.block, jh.bill.block);
      EXPECT_EQ(jc.vtime, jh.vtime) << jh.bill.describe();
      EXPECT_EQ(jc.phases, jh.phases) << jh.bill.describe();
      EXPECT_EQ(jc.stats, jh.stats) << jh.bill.describe();
      EXPECT_EQ(jc.bill.value, jh.bill.value) << jh.bill.describe();
    }
    EXPECT_EQ(svc.cache_hits(), std::size(kCases));
  }
}

TEST(SweepService, CacheHitMatchesColdOnEveryEngine) {
  const CostModel costs = test_costs();
  for (const EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    ServiceConfig cfg;
    cfg.ranks = 4;
    cfg.costs = costs;
    cfg.engine.kind = kind;
    SweepService svc(cfg);
    JobParams params;
    params.app = "tomcatv";
    params.n = 32;
    params.p = 4;
    params.iters = 2;
    const JobId cold = svc.submit(params);
    const JobId hot = svc.submit(params);
    svc.drain();
    const JobResult& jc = svc.result(cold);
    const JobResult& jh = svc.result(hot);
    EXPECT_FALSE(jc.bill.cache_hit);
    EXPECT_TRUE(jh.bill.cache_hit);
    EXPECT_EQ(jc.vtime, jh.vtime);
    EXPECT_EQ(jc.phases, jh.phases);
    EXPECT_EQ(jc.stats, jh.stats);
    EXPECT_EQ(jc.bill.value, jh.bill.value);
  }
}

TEST(SweepService, ExplicitBlockOverridesModel) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = test_costs();
  SweepService svc(cfg);
  JobParams params;
  params.app = "sor";
  params.n = 32;
  params.p = 4;
  params.b = 5;
  const JobResult& jr = svc.wait(svc.submit(params));
  EXPECT_EQ(jr.bill.block, 5);
  EXPECT_FALSE(jr.bill.block_auto);
}

TEST(SweepService, PacksFifoWithBackfill) {
  ServiceConfig cfg;
  cfg.ranks = 8;
  cfg.costs = test_costs();
  SweepService svc(cfg);
  JobParams big;
  big.app = "sor";
  big.n = 16;
  big.p = 6;
  JobParams mid = big;
  mid.p = 4;
  JobParams small = big;
  small.p = 2;
  const JobId i1 = svc.submit(big);    // [0,6) at the first admission
  const JobId i2 = svc.submit(mid);    // does not fit beside it
  const JobId i3 = svc.submit(small);  // backfills [6,8) at once
  svc.drain();
  EXPECT_EQ(svc.result(i1).bill.base_rank, 0);
  EXPECT_EQ(svc.result(i3).bill.base_rank, 6);
  // The mid job takes the first four contiguous ranks that free up; which
  // ones depends on the order the others' ranks finish.
  const int mid_base = svc.result(i2).bill.base_rank;
  EXPECT_GE(mid_base, 0);
  EXPECT_LE(mid_base + mid.p, cfg.ranks);
  // All three ran in the drain's one session.
  for (const JobId id : {i1, i2, i3}) EXPECT_EQ(svc.result(id).bill.round, 1);
  EXPECT_EQ(svc.rounds(), 1);
}

TEST(SweepService, AdmissionErrorsAreTyped) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.max_queue = 2;
  SweepService svc(cfg);
  JobParams params;
  params.app = "no-such-app";
  EXPECT_THROW(svc.submit(params), ServiceError);
  params.app = "tomcatv";
  params.p = 0;
  EXPECT_THROW(svc.submit(params), ServiceError);
  params.p = 5;  // pool has 4
  EXPECT_THROW(svc.submit(params), ServiceError);
  params.p = 2;
  params.iters = 0;
  EXPECT_THROW(svc.submit(params), ServiceError);
  params.iters = 1;
  params.n = 8;
  svc.submit(params);
  svc.submit(params);
  EXPECT_THROW(svc.submit(params), ServiceError);  // queue full
  EXPECT_THROW(svc.wait(999), ServiceError);       // unknown id
  EXPECT_THROW(svc.result(999), ServiceError);
}

TEST(SweepService, TagLeaseOverflowFailsTheJobTyped) {
  ServiceConfig cfg;
  cfg.ranks = 2;
  cfg.costs = test_costs();
  // Far below the tag bases the apps use (tomcatv: 300+), so the job's
  // first send trips the lease check inside the view.
  cfg.job_tag_span = 4;
  SweepService svc(cfg);
  JobParams params;
  params.app = "tomcatv";
  params.n = 8;
  params.p = 2;
  const JobId id = svc.submit(params);
  EXPECT_THROW(svc.wait(id), ServiceError);
  EXPECT_TRUE(svc.done(id));
  // The failed session rebuilt the machine; the service keeps serving.
  ServiceConfig ok = cfg;
  JobParams next = params;
  next.app = "sor";
  const JobId id2 = svc.submit(next);
  EXPECT_THROW(svc.wait(id2), ServiceError);  // same tiny lease
}

TEST(SweepService, LeasesRecycleAcrossRounds) {
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = test_costs();
  SweepService svc(cfg);
  JobParams params;
  params.app = "sor";
  params.n = 16;
  params.p = 4;
  const JobResult& a = svc.wait(svc.submit(params));
  const JobResult& b = svc.wait(svc.submit(params));
  // Session 2's lease reuses session 1's released window: no tag-space
  // growth.
  EXPECT_EQ(a.bill.tag_base, b.bill.tag_base);
  EXPECT_EQ(svc.describe_tags(), "");
}

void expect_fails_typed(SweepService& svc, JobId id) {
  try {
    svc.wait(id);
    ADD_FAILURE() << "job " << id << " did not fail";
  } catch (const ServiceError& e) {
    EXPECT_NE(std::string(e.what()).find("(tomcatv) failed: contract"),
              std::string::npos)
        << e.what();
  }
}

JobParams job(const char* app, Coord n, int p, int iters = 1) {
  JobParams params;
  params.app = app;
  params.n = n;
  params.p = p;
  params.iters = iters;
  return params;
}

// Ranks take the next queued job as soon as their window frees: every
// registry app at p = 1..4, all submitted before one drain(), so ranks run
// several jobs back to back inside one Machine::run. Each job still sees a
// fresh p-rank machine (its view starts the clocks and counters at zero).
TEST(SweepService, SessionJobsMatchStandalone) {
  const CostModel costs = test_costs();
  for (const EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    ServiceConfig cfg;
    cfg.ranks = 4;
    cfg.costs = costs;
    cfg.engine.kind = kind;
    SweepService svc(cfg);
    std::vector<JobId> ids;
    for (int j = 0; j < 14; ++j) {
      const Case& c = kCases[static_cast<std::size_t>(j) % std::size(kCases)];
      ids.push_back(svc.submit(job(c.app, c.n, 1 + j % 4, c.iters)));
    }
    svc.drain();
    EXPECT_EQ(svc.rounds(), 1);
    std::vector<int> jobs_on_rank(static_cast<std::size_t>(cfg.ranks), 0);
    for (const JobId id : ids) {
      const JobResult& jr = svc.result(id);
      EXPECT_EQ(jr.bill.round, 1);
      for (int r = jr.bill.base_rank; r < jr.bill.base_rank + jr.bill.p; ++r)
        ++jobs_on_rank[static_cast<std::size_t>(r)];
      expect_matches_standalone(svc, jr, costs);
    }
    EXPECT_GE(*std::max_element(jobs_on_rank.begin(), jobs_on_rank.end()), 2);
    EXPECT_EQ(svc.describe_tags(), "");
  }
}

// A tomcatv job at n = 3 throws inside its ranks (its constructor, or at
// p = 4 the Layout before it, refuses the size) and fails its session.
// With whole-pool jobs every outcome is fixed under any fiber schedule:
// the job before the bad one finished (the bad job needs the whole pool,
// so it starts only after that job's last rank left) and keeps its
// result; the jobs queued behind it never started and run in the next
// session.
TEST(SweepService, FailureInsideSessionKeepsFinishedAndQueuedJobs) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = costs;
  cfg.engine.kind = EngineKind::kFibers;
  SweepService svc(cfg);
  const JobId before = svc.submit(job("sor", 32, 4, 2));
  const JobId bad = svc.submit(job("tomcatv", 3, 4));
  const JobId after1 = svc.submit(job("smith-waterman", 48, 4));
  const JobId after2 = svc.submit(job("sor", 32, 4, 2));
  svc.drain();
  EXPECT_EQ(svc.rounds(), 2);
  EXPECT_EQ(svc.result(before).bill.round, 1);
  expect_matches_standalone(svc, svc.result(before), costs);
  expect_fails_typed(svc, bad);
  for (const JobId id : {after1, after2}) {
    const JobResult& jr = svc.result(id);
    EXPECT_EQ(jr.bill.round, 2) << jr.bill.describe();
    expect_matches_standalone(svc, jr, costs);
  }
  EXPECT_EQ(svc.describe_tags(), "");
}

// A job admitted beside the bad one but not yet taken by any rank goes
// back to the queue. On the deterministic fiber schedule rank 0 runs
// first and throws before the neighbour's ranks take their job, so the
// neighbour runs, and matches, in the next session.
TEST(SweepService, FailureInsideSessionRequeuesUntakenJobs) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = costs;
  cfg.engine = EngineConfig{};  // the deterministic schedule, not the env's
  cfg.engine.kind = EngineKind::kFibers;
  SweepService svc(cfg);
  const JobId bad = svc.submit(job("tomcatv", 3, 2));
  const JobId neighbour = svc.submit(job("sor", 32, 2, 2));
  svc.drain();
  EXPECT_EQ(svc.rounds(), 2);
  expect_fails_typed(svc, bad);
  const JobResult& jr = svc.result(neighbour);
  EXPECT_EQ(jr.bill.round, 2) << jr.bill.describe();
  EXPECT_EQ(jr.bill.base_rank, 0);  // admitted afresh, onto a free pool
  expect_matches_standalone(svc, jr, costs);
  EXPECT_EQ(svc.describe_tags(), "");
}

// The same on the parallel engine, where timing decides which neighbours
// were running when the bad job threw: the bad job fails typed, and every
// other job either matches its standalone run or carries the session's
// error.
TEST(SweepService, FailureInsideSessionParallel) {
  const CostModel costs = test_costs();
  ServiceConfig cfg;
  cfg.ranks = 4;
  cfg.costs = costs;
  cfg.engine.kind = EngineKind::kParallel;
  SweepService svc(cfg);
  const std::vector<JobId> good1 = {svc.submit(job("sor", 32, 2, 2)),
                                    svc.submit(job("smith-waterman", 48, 2))};
  const JobId bad = svc.submit(job("tomcatv", 3, 2));
  const std::vector<JobId> good2 = {svc.submit(job("sweep3d", 8, 1)),
                                    svc.submit(job("sor", 32, 3, 2)),
                                    svc.submit(job("simple", 32, 2, 2))};
  svc.drain();
  EXPECT_THROW(svc.wait(bad), ServiceError);
  std::string session_error;
  for (const auto* ids : {&good1, &good2})
    for (const JobId id : *ids) {
      try {
        expect_matches_standalone(svc, svc.wait(id), costs);
      } catch (const ServiceError& e) {
        EXPECT_NE(std::string(e.what()).find("Tomcatv needs n >= 4"),
                  std::string::npos)
            << e.what();
      }
    }
  EXPECT_EQ(svc.describe_tags(), "");
}

// A job that leaves a receive posted must not hand it to the next tenant
// of its ranks: leaving the view raises a typed error naming the job.
TEST(JobView, ExitWithPostedIrecvThrowsTyped) {
  for (const EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    EngineConfig engine;
    engine.kind = kind;
    std::vector<std::string> errors(2);
    Machine machine(2, test_costs(), TraceConfig{}, engine);
    machine.run([&](Communicator& comm) {
      comm.enter_view(0, 2, 100, 16, "job#7 leaky");
      std::vector<double> in(4);
      Request r;
      if (comm.rank() == 1) r = comm.irecv(0, std::span<double>(in), 3);
      try {
        comm.exit_view();
      } catch (const CommError& e) {
        errors[static_cast<std::size_t>(comm.world_rank())] = e.what();
      }
      EXPECT_FALSE(comm.view_active());
    });
    EXPECT_EQ(errors[0], "");
    EXPECT_NE(errors[1].find("job#7 leaky"), std::string::npos) << errors[1];
    EXPECT_NE(errors[1].find("live request"), std::string::npos) << errors[1];
  }
}

// A view starts the rank's clock and counters from zero.
TEST(JobView, EnterStartsFromZero) {
  Machine machine(1, test_costs(), TraceConfig{}, EngineConfig{});
  machine.run([&](Communicator& comm) {
    comm.compute(100.0);
    comm.enter_view(0, 1, 0, 8, "job#1 fresh");
    EXPECT_EQ(comm.vtime(), 0.0);
    EXPECT_EQ(comm.phases().total(), 0.0);
    EXPECT_EQ(comm.stats().messages_sent, 0u);
    comm.exit_view();
  });
}

TEST(ServiceConfig, FromEnvParsesAndRejects) {
  ::setenv("WAVEPIPE_SERVICE_RANKS", "12", 1);
  ::setenv("WAVEPIPE_SERVICE_TAG_SPAN", "2048", 1);
  ServiceConfig cfg = ServiceConfig::from_env();
  EXPECT_EQ(cfg.ranks, 12);
  EXPECT_EQ(cfg.job_tag_span, 2048);
  // Values above INT_MAX are rejected, not wrapped (4294967297 would wrap
  // to a 1-rank pool, 3000000000 to a negative count).
  for (const char* bad : {"banana", "4294967297", "3000000000"}) {
    ::setenv("WAVEPIPE_SERVICE_RANKS", bad, 1);
    EXPECT_THROW(ServiceConfig::from_env(), ConfigError) << bad;
  }
  ::setenv("WAVEPIPE_SERVICE_RANKS", "12", 1);
  ::setenv("WAVEPIPE_SERVICE_TAG_SPAN", "4294967297", 1);
  EXPECT_THROW(ServiceConfig::from_env(), ConfigError);
  ::unsetenv("WAVEPIPE_SERVICE_RANKS");
  ::unsetenv("WAVEPIPE_SERVICE_TAG_SPAN");
}

TEST(PlanCache, LruEvictsAndCounts) {
  PlanCache cache(2);
  const CostModel costs = test_costs();
  PlanKey a{"tomcatv", 32, 4, 0, 1, WavePolicy::kBlocking};
  PlanKey b = a;
  b.n = 64;
  PlanKey c = a;
  c.n = 128;
  EXPECT_EQ(cache.find(a), nullptr);
  cache.insert(a, lower_job_plan(a, costs));
  cache.insert(b, lower_job_plan(b, costs));
  EXPECT_NE(cache.find(a), nullptr);  // bumps a most-recent
  cache.insert(c, lower_job_plan(c, costs));  // evicts b
  EXPECT_EQ(cache.find(b), nullptr);
  EXPECT_NE(cache.find(a), nullptr);
  EXPECT_NE(cache.find(c), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(PlanCache, LoweringResolvesModelBlock) {
  const CostModel costs = test_costs();
  const PlanKey key{"tomcatv", 64, 4, 0, 1, WavePolicy::kBlocking};
  const auto plan = lower_job_plan(key, costs);
  EXPECT_TRUE(plan->block_auto);
  EXPECT_EQ(plan->block, select_block_static(costs, 64, 4));

  const PlanKey naive{"tomcatv", 64, 4, 0, 1, WavePolicy::kNaive};
  const auto nplan = lower_job_plan(naive, costs);
  EXPECT_EQ(nplan->block, 0);
  EXPECT_FALSE(nplan->block_auto);
}

}  // namespace
}  // namespace wavepipe
