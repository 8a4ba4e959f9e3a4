// The chaos layer itself: seeded random scheduling replays from its seed,
// fault plans perturb physical delivery without changing any result, the
// wavefront executors are byte-identical under every schedule and fault
// plan (the paper's schedule-independence claim, machine-checked), and an
// injected all-blocked state still produces a typed EngineError.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "apps/alt_sweep.hh"
#include "apps/simple_hydro.hh"
#include "apps/smith_waterman.hh"
#include "apps/sweep3d.hh"
#include "apps/tomcatv.hh"
#include "array/io.hh"
#include "comm/machine.hh"
#include "exec/pipelined.hh"
#include "model/machines.hh"
#include "testing/chaos.hh"

namespace wavepipe {
namespace {

struct EnvGuard {
  std::string name;
  std::string saved;
  bool had = false;
  explicit EnvGuard(const char* n) : name(n) {
    if (const char* v = std::getenv(n)) {
      had = true;
      saved = v;
    }
  }
  ~EnvGuard() {
    if (had)
      ::setenv(name.c_str(), saved.c_str(), 1);
    else
      ::unsetenv(name.c_str());
  }
};

struct ChaosRun {
  RunResult result;
  std::vector<double> extracted;
};

template <typename Fn>
ChaosRun run_deterministic(int p, CostModel cm, Fn&& fn) {
  ChaosRun out;
  ChaosOptions opts;
  opts.random_sched = false;
  opts.trace.enabled = true;
  out.result = run_chaotic(
      p, cm, opts, [&](Communicator& comm) { fn(comm, out.extracted); });
  return out;
}

template <typename Fn>
ChaosRun run_under(int p, CostModel cm, const ChaosOptions& opts, Fn&& fn) {
  ChaosRun out;
  out.result = run_chaotic(
      p, cm, opts, [&](Communicator& comm) { fn(comm, out.extracted); });
  return out;
}

void expect_identical(const ChaosRun& a, const ChaosRun& b) {
  EXPECT_EQ(a.result.vtime, b.result.vtime);
  EXPECT_EQ(a.result.vtime_max, b.result.vtime_max);
  for (std::size_t r = 0; r < a.result.stats.size(); ++r)
    EXPECT_EQ(a.result.stats[r], b.result.stats[r]) << "stats rank " << r;
  EXPECT_EQ(a.result.total, b.result.total);
  for (std::size_t r = 0; r < a.result.phases.size(); ++r)
    EXPECT_EQ(a.result.phases[r], b.result.phases[r]) << "phases rank " << r;
  EXPECT_EQ(a.extracted, b.extracted);
  ASSERT_EQ(a.result.traces.size(), b.result.traces.size());
  for (std::size_t r = 0; r < a.result.traces.size(); ++r)
    EXPECT_EQ(a.result.traces[r].events, b.result.traces[r].events)
        << "trace rank " << r;
  std::ostringstream ja, jb;
  write_chrome_trace(ja, a.result);
  write_chrome_trace(jb, b.result);
  EXPECT_EQ(ja.str(), jb.str());
}

// Ring + collective traffic: enough cross-rank coupling that a scheduling
// difference anywhere shows up in the trace.
void storm_body(Communicator& comm, std::vector<double>& extracted) {
  const int p = comm.size();
  const int me = comm.rank();
  const int next = (me + 1) % p;
  const int prev = (me + p - 1) % p;
  std::int64_t acc = me;
  for (int round = 0; round < 10; ++round) {
    comm.compute(static_cast<double>((me + round) % 3 + 1));
    comm.send_value(next, acc, round % 3);
    acc = comm.recv_value<std::int64_t>(prev, round % 3);
    acc += comm.allreduce_sum(std::int64_t{1});
  }
  auto all =
      comm.gather(std::span<const double>{std::array{double(acc)}.data(), 1});
  if (me == 0)
    extracted.insert(extracted.end(), all.begin(), all.end());
}

TEST(SchedEnv, ParsesWavepipeSched) {
  EnvGuard guard("WAVEPIPE_SCHED");

  ::unsetenv("WAVEPIPE_SCHED");
  EXPECT_EQ(EngineConfig::from_env().sched.kind, SchedKind::kEarliestVtime);

  ::setenv("WAVEPIPE_SCHED", "deterministic", 1);
  EXPECT_EQ(EngineConfig::from_env().sched.kind, SchedKind::kEarliestVtime);

  ::setenv("WAVEPIPE_SCHED", "random", 1);
  EXPECT_EQ(EngineConfig::from_env().sched.kind, SchedKind::kRandom);
  EXPECT_EQ(EngineConfig::from_env().sched.seed, 0u);

  ::setenv("WAVEPIPE_SCHED", "random:12345", 1);
  {
    const auto cfg = EngineConfig::from_env();
    EXPECT_EQ(cfg.sched.kind, SchedKind::kRandom);
    EXPECT_EQ(cfg.sched.seed, 12345u);
  }

  ::setenv("WAVEPIPE_SCHED", "random:notanumber", 1);
  EXPECT_THROW(EngineConfig::from_env(), ConfigError);
  ::setenv("WAVEPIPE_SCHED", "chaotic", 1);
  EXPECT_THROW(EngineConfig::from_env(), ConfigError);
}

TEST(SchedEnv, ToStringNamesBothKinds) {
  EXPECT_STREQ(to_string(SchedKind::kEarliestVtime), "deterministic");
  EXPECT_STREQ(to_string(SchedKind::kRandom), "random");
}

TEST(RandomSched, ReplaysByteIdenticalFromItsSeed) {
  CostModel cm;
  cm.alpha = 7.0;
  cm.beta = 0.5;
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = 99;
  opts.trace.enabled = true;
  const auto a = run_under(5, cm, opts, storm_body);
  const auto b = run_under(5, cm, opts, storm_body);
  expect_identical(a, b);
}

TEST(RandomSched, ResultsMatchDeterministicScheduleForManySeeds) {
  CostModel cm;
  cm.alpha = 7.0;
  cm.beta = 0.5;
  const auto base = run_deterministic(5, cm, storm_body);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = seed;
    opts.trace.enabled = true;
    SCOPED_TRACE("sched seed " + std::to_string(seed));
    expect_identical(base, run_under(5, cm, opts, storm_body));
  }
}

TEST(Faults, InjectorHoldsAndRedeliversWithoutChangingResults) {
  CostModel cm;
  cm.alpha = 7.0;
  cm.beta = 0.5;
  const auto base = run_deterministic(5, cm, storm_body);
  std::uint64_t held = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const FaultPlan plan = FaultPlan::from_seed(seed, 5);
    ASSERT_TRUE(plan.active());
    // Drive the injector by hand (not through run_chaotic) so the test can
    // observe held_total: the plan must actually be exercising limbo.
    EngineConfig eng;
    eng.kind = EngineKind::kFibers;
    eng.sched.kind = SchedKind::kRandom;
    eng.sched.seed = seed * 77 + 1;
    eng.sched.rank_weights = plan.rank_weights;
    TraceConfig tc;
    tc.enabled = true;
    Machine m(5, cm, tc, eng);
    ASSERT_EQ(m.engine(), EngineKind::kFibers);
    FaultInjector injector(m, plan);
    m.set_delivery_interceptor(&injector);
    ChaosRun out;
    out.result =
        m.run([&](Communicator& comm) { storm_body(comm, out.extracted); });
    m.set_delivery_interceptor(nullptr);
    held += injector.held_total();
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    expect_identical(base, out);
    EXPECT_EQ(m.pending_messages(), 0u);
  }
  EXPECT_GT(held, 0u);  // the plans really delayed messages
}

TEST(Faults, HeavySameKeyTrafficKeepsFifoOrder) {
  // 30 messages over 3 tags on one (src, dst) pair, received in a scrambled
  // (but deterministic) order. Any per-key overtake in the injector would
  // deliver the wrong value to an early recv.
  CostModel cm;
  cm.alpha = 3.0;
  cm.beta = 0.25;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = seed;
    opts.faults.seed = seed;
    opts.faults.delay_prob = 0.9;
    opts.faults.max_delay_steps = 13;
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_chaotic(2, cm, opts, [](Communicator& comm) {
      constexpr int kPerTag = 10;
      if (comm.rank() == 0) {
        for (int i = 0; i < kPerTag; ++i)
          for (int tag = 0; tag < 3; ++tag)
            comm.send_value(1, 1000 * tag + i, tag);
      } else {
        for (int tag : {2, 0, 1})
          for (int i = 0; i < kPerTag; ++i)
            EXPECT_EQ(comm.recv_value<int>(0, tag), 1000 * tag + i)
                << "tag " << tag << " message " << i;
      }
    });
  }
}

TEST(Faults, WavefrontTomcatvByteIdenticalUnderChaos) {
  // The acceptance criterion: Tomcatv wavefronts at p in {2,4,8}, blocking
  // and overlap mode, are byte-identical (mesh, vtimes, phases, traces) to
  // the deterministic schedule under random scheduling + fault plans.
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    for (bool overlap : {false, true}) {
      TomcatvConfig cfg;
      cfg.n = 40;
      cfg.iterations = 1;
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
      auto body = [&](Communicator& comm, std::vector<double>& extracted) {
        Tomcatv app(cfg, grid, comm.rank());
        app.init();
        WaveOptions opts;
        opts.block = 3;
        opts.overlap = overlap;
        Real residual = 0.0;
        for (int it = 0; it < cfg.iterations; ++it)
          residual = app.iterate(comm, opts);
        const auto part =
            pack_region(app.x(), app.layout().owned(comm.rank()));
        auto all = comm.gather(std::span<const Real>(part));
        if (comm.rank() == 0) {
          extracted.push_back(residual);
          extracted.insert(extracted.end(), all.begin(), all.end());
        }
      };
      const auto base = run_deterministic(p, cm, body);
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        ChaosOptions opts;
        opts.random_sched = true;
        opts.sched_seed = seed;
        opts.trace.enabled = true;
        if (seed != 1) opts.faults = FaultPlan::from_seed(seed * 31, p);
        SCOPED_TRACE("p=" + std::to_string(p) +
                     " overlap=" + std::to_string(overlap) + " seed=" +
                     std::to_string(seed));
        expect_identical(base, run_under(p, cm, opts, body));
      }
    }
  }
}

TEST(Faults, WavefrontSimpleByteIdenticalUnderChaos) {
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    SimpleConfig cfg;
    cfg.n = 40;
    cfg.iterations = 1;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    auto body = [&](Communicator& comm, std::vector<double>& extracted) {
      WaveOptions opts;
      opts.block = 4;
      opts.overlap = true;
      SimpleHydro app(cfg, grid, comm.rank());
      app.init();
      Real energy = 0.0;
      for (int it = 0; it < cfg.iterations; ++it)
        energy = app.step(comm, opts);
      const Real sum = app.checksum(comm);
      if (comm.rank() == 0) {
        extracted.push_back(energy);
        extracted.push_back(sum);
      }
    };
    const auto base = run_deterministic(p, cm, body);
    for (std::uint64_t seed : {7u, 8u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.trace.enabled = true;
      opts.faults = FaultPlan::from_seed(seed, p);
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" +
                   std::to_string(seed));
      expect_identical(base, run_under(p, cm, opts, body));
    }
  }
}

TEST(Faults, TwoDFrontierSmithWatermanByteIdenticalUnderChaos) {
  // The 2D processor-grid frontier: Smith-Waterman over pr x pc meshes,
  // both blocking and overlap mode, byte-identical (scores, every owned
  // cell, vtimes, phases, traces) to the deterministic schedule under
  // random fiber schedules x fault plans.
  const CostModel cm = t3e_like().costs;
  for (const std::array<int, 2> dims :
       {std::array<int, 2>{2, 2}, std::array<int, 2>{4, 2},
        std::array<int, 2>{2, 4}}) {
    const ProcGrid<2> grid(dims);
    const int p = grid.size();
    for (bool overlap : {false, true}) {
      SmithWatermanConfig cfg;
      cfg.la = 37;
      cfg.lb = 29;
      auto body = [&](Communicator& comm, std::vector<double>& extracted) {
        SmithWaterman app(cfg, grid, comm.rank());
        app.init();
        WaveOptions opts;
        opts.block = 5;
        opts.block_w = 4;
        opts.overlap = overlap;
        const auto rep = app.fill(comm, opts);
        EXPECT_EQ(rep.axes, 2);
        const Real best = app.best_score(comm);
        const auto part = pack_region(
            app.h(), app.cells().intersect(app.layout().owned(comm.rank())));
        auto all = comm.gather(std::span<const Real>(part));
        if (comm.rank() == 0) {
          extracted.push_back(best);
          extracted.insert(extracted.end(), all.begin(), all.end());
        }
      };
      const auto base = run_deterministic(p, cm, body);
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        ChaosOptions opts;
        opts.random_sched = true;
        opts.sched_seed = seed;
        opts.trace.enabled = true;
        if (seed != 1) opts.faults = FaultPlan::from_seed(seed * 23, p);
        SCOPED_TRACE(grid.describe() + " overlap=" + std::to_string(overlap) +
                     " seed=" + std::to_string(seed));
        expect_identical(base, run_under(p, cm, opts, body));
      }
    }
  }
}

TEST(Faults, TwoDScheduledTasksBackendValuesMatchChaosOracle) {
  // Multi-inflow tiles (north+west) through the scheduler. The tasks
  // backend runs only on the parallel engine (no fault interceptor), so the
  // check works from the other side, as in TasksBackendValuesMatchChaos-
  // Oracle: one parallel+tasks run fixes the values and chaotic fiber runs
  // must reproduce them. The static-FIFO SPMD backend additionally gets the
  // full byte-identity treatment under chaos.
  const CostModel cm = t3e_like().costs;
  for (const std::array<int, 2> dims :
       {std::array<int, 2>{2, 2}, std::array<int, 2>{2, 4}}) {
    const ProcGrid<2> grid(dims);
    const int p = grid.size();
    SmithWatermanConfig cfg;
    cfg.la = 33;
    cfg.lb = 31;
    WaveOptions wopts;
    wopts.block = 4;
    wopts.block_w = 5;
    const auto body_with = [&](const SchedOptions& so) {
      return [&, so](Communicator& comm, std::vector<double>& extracted) {
        SmithWaterman app(cfg, grid, comm.rank());
        app.init();
        app.fill_scheduled(comm, wopts, so);
        const Real best = app.best_score(comm);
        const auto part = pack_region(
            app.h(), app.cells().intersect(app.layout().owned(comm.rank())));
        auto all = comm.gather(std::span<const Real>(part));
        if (comm.rank() == 0) {
          extracted.push_back(best);
          extracted.insert(extracted.end(), all.begin(), all.end());
        }
      };
    };

    std::vector<double> tasks_vals;
    {
      SchedOptions so;
      so.backend = SchedBackend::kTasks;
      EngineConfig ec;
      ec.kind = EngineKind::kParallel;
      Machine m(p, cm, TraceConfig{}, ec);
      auto fn = body_with(so);
      m.run([&](Communicator& comm) { fn(comm, tasks_vals); });
    }
    ASSERT_FALSE(tasks_vals.empty());

    const auto adaptive = body_with(SchedOptions{});
    const auto base = run_deterministic(p, cm, adaptive);
    EXPECT_EQ(base.extracted, tasks_vals);
    for (std::uint64_t seed : {21u, 22u, 23u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.faults = FaultPlan::from_seed(seed * 19, p);
      SCOPED_TRACE(grid.describe() + " adaptive seed=" + std::to_string(seed));
      EXPECT_EQ(run_under(p, cm, opts, adaptive).extracted, tasks_vals);
    }

    SchedOptions stat;
    stat.policy = SchedPolicy::kFifo;
    stat.adaptive = false;
    const auto fifo = body_with(stat);
    const auto sbase = run_deterministic(p, cm, fifo);
    EXPECT_EQ(sbase.extracted, tasks_vals);
    for (std::uint64_t seed : {24u, 25u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.trace.enabled = true;
      opts.faults = FaultPlan::from_seed(seed * 19, p);
      SCOPED_TRACE(grid.describe() + " static seed=" + std::to_string(seed));
      expect_identical(sbase, run_under(p, cm, opts, fifo));
    }
  }
}

TEST(Faults, ScheduledSweep3dByteIdenticalUnderChaos) {
  // The overlapped (dataflow-scheduled) SWEEP3D under random fiber
  // schedules x fault plans at p in {2,4,8}. Adaptive mode is probe-class:
  // computed values are bitwise-invariant but virtual times may shift with
  // physical arrival, so the adaptive check compares extracted values; the
  // static-FIFO mode is fully invariant and gets the expect_identical
  // treatment (vtimes, stats, phases, traces).
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    Sweep3dConfig cfg;
    cfg.n = 8;
    cfg.angles = 1;
    const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
    const auto body_with = [&](const SchedOptions& so) {
      return [&, so](Communicator& comm, std::vector<double>& extracted) {
        Sweep3d app(cfg, grid, comm.rank());
        WaveOptions opts;
        opts.block = 2;
        opts.overlap = true;
        const Real f = app.sweep_all_scheduled(comm, opts, so);
        const Real cs = app.checksum(comm);
        if (comm.rank() == 0) {
          extracted.push_back(f);
          extracted.push_back(cs);
        }
      };
    };

    const auto adaptive = body_with(SchedOptions{});  // adaptive critical
    const auto base = run_deterministic(p, cm, adaptive);
    for (std::uint64_t seed : {3u, 4u, 5u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.faults = FaultPlan::from_seed(seed * 17, p);
      SCOPED_TRACE("adaptive p=" + std::to_string(p) + " seed=" +
                   std::to_string(seed));
      EXPECT_EQ(run_under(p, cm, opts, adaptive).extracted, base.extracted);
    }

    SchedOptions stat;
    stat.policy = SchedPolicy::kFifo;
    stat.adaptive = false;
    const auto fifo = body_with(stat);
    const auto sbase = run_deterministic(p, cm, fifo);
    EXPECT_EQ(sbase.extracted, base.extracted);  // mode changes nothing
    for (std::uint64_t seed : {6u, 7u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.trace.enabled = true;
      opts.faults = FaultPlan::from_seed(seed * 17, p);
      SCOPED_TRACE("static p=" + std::to_string(p) + " seed=" +
                   std::to_string(seed));
      expect_identical(sbase, run_under(p, cm, opts, fifo));
    }
  }
}

TEST(Faults, ScheduledAltSweepByteIdenticalUnderChaos) {
  // Same contract for the alternating sweep's scheduled strategy, whose
  // graph mixes wavefront tiles with parallel statements and northbound
  // update messages across iterations.
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    AltSweepConfig cfg;
    cfg.n = 32;
    cfg.iterations = 2;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    const auto body_with = [&](const SchedOptions& so) {
      return [&, so](Communicator& comm, std::vector<double>& extracted) {
        AltSweep app(cfg, grid, comm.rank());
        WaveOptions opts;
        opts.block = 8;
        opts.overlap = true;
        app.iterate_scheduled(comm, cfg.iterations, opts, so);
        const Real r = app.residual_norm(comm);
        const Real cs = app.checksum(comm);
        if (comm.rank() == 0) {
          extracted.push_back(r);
          extracted.push_back(cs);
        }
      };
    };

    const auto adaptive = body_with(SchedOptions{});
    const auto base = run_deterministic(p, cm, adaptive);
    for (std::uint64_t seed : {3u, 4u, 5u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.faults = FaultPlan::from_seed(seed * 13, p);
      SCOPED_TRACE("adaptive p=" + std::to_string(p) + " seed=" +
                   std::to_string(seed));
      EXPECT_EQ(run_under(p, cm, opts, adaptive).extracted, base.extracted);
    }

    SchedOptions stat;
    stat.policy = SchedPolicy::kFifo;
    stat.adaptive = false;
    const auto fifo = body_with(stat);
    const auto sbase = run_deterministic(p, cm, fifo);
    EXPECT_EQ(sbase.extracted, base.extracted);
    for (std::uint64_t seed : {6u, 7u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.trace.enabled = true;
      opts.faults = FaultPlan::from_seed(seed * 13, p);
      SCOPED_TRACE("static p=" + std::to_string(p) + " seed=" +
                   std::to_string(seed));
      expect_identical(sbase, run_under(p, cm, opts, fifo));
    }
  }
}

TEST(Faults, TasksBackendValuesMatchChaosOracle) {
  // The work-stealing tasks backend runs only on the parallel engine, which
  // has no fault interceptor, so its schedule-independence is checked from
  // the other side: one plain parallel+tasks run fixes the values, and the
  // fiber oracle must reproduce them under random schedules x fault plans.
  // That places the tasks backend's answers inside the same
  // schedule-independent equivalence class as every chaotic fiber run.
  const CostModel cm = t3e_like().costs;
  AltSweepConfig cfg;
  cfg.n = 32;
  cfg.iterations = 2;
  WaveOptions wopts;
  wopts.block = 8;
  wopts.overlap = true;
  for (int p : {2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    const auto body_with = [&](const SchedOptions& so) {
      return [&, so](Communicator& comm, std::vector<double>& extracted) {
        AltSweep app(cfg, grid, comm.rank());
        app.iterate_scheduled(comm, cfg.iterations, wopts, so);
        const Real r = app.residual_norm(comm);
        const Real cs = app.checksum(comm);
        if (comm.rank() == 0) {
          extracted.push_back(r);
          extracted.push_back(cs);
        }
      };
    };

    std::vector<double> tasks_vals;
    {
      SchedOptions so;
      so.backend = SchedBackend::kTasks;
      EngineConfig ec;
      ec.kind = EngineKind::kParallel;
      Machine m(p, cm, TraceConfig{}, ec);
      auto fn = body_with(so);
      m.run([&](Communicator& comm) { fn(comm, tasks_vals); });
    }
    ASSERT_EQ(tasks_vals.size(), 2u);

    for (std::uint64_t seed : {11u, 12u, 13u}) {
      ChaosOptions opts;
      opts.random_sched = true;
      opts.sched_seed = seed;
      opts.faults = FaultPlan::from_seed(seed * 17, p);
      SCOPED_TRACE("seed=" + std::to_string(seed));
      EXPECT_EQ(run_under(p, cm, opts, body_with(SchedOptions{})).extracted,
                tasks_vals);
    }
  }
}

TEST(Faults, SchedulerDeadlockUnderChaosNamesTheStuckTask) {
  // The executor's documented static-priority deadlock (rank 0's pick
  // order blocks on a receive whose sender rank 1 is itself blocked) must
  // surface as a typed error naming the stuck *task* — never hang — even
  // while the fault injector holds messages in limbo. Static pick order is
  // a pure function of graph + policy, so the deadlock fires under every
  // seed.
  const CostModel cm = t3e_like().costs;
  AltSweepConfig cfg;
  cfg.n = 48;
  cfg.iterations = 4;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = seed;
    opts.faults.seed = seed;
    opts.faults.delay_prob = 0.8;
    opts.faults.max_delay_steps = 25;
    try {
      run_chaotic(2, cm, opts, [&](Communicator& comm) {
        AltSweep app(cfg, grid, comm.rank());
        WaveOptions wopts;
        wopts.block = 8;
        wopts.overlap = true;
        SchedOptions so;
        so.policy = SchedPolicy::kCriticalPath;
        so.adaptive = false;
        // Opt past the executor's fail-fast: this test exists to prove the
        // *runtime* deadlock is detected and reported under chaos.
        so.allow_unsafe_static = true;
        app.iterate_scheduled(comm, cfg.iterations, wopts, so);
      });
      FAIL() << "seed " << seed << ": deadlock did not throw";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
      EXPECT_NE(what.find("task '"), std::string::npos)
          << "report should name the stuck task: " << what;
    }
  }
}

TEST(Faults, SlowedRankChangesScheduleNotResults) {
  CostModel cm;
  cm.alpha = 7.0;
  cm.beta = 0.5;
  const auto base = run_deterministic(6, cm, storm_body);
  for (int slow = 0; slow < 6; ++slow) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = 42;
    opts.trace.enabled = true;
    opts.faults.delay_prob = 0.5;
    opts.faults.max_delay_steps = 9;
    opts.faults.rank_weights.assign(6, 1.0);
    opts.faults.rank_weights[static_cast<std::size_t>(slow)] = 0.02;
    SCOPED_TRACE("slow rank " + std::to_string(slow));
    expect_identical(base, run_under(6, cm, opts, storm_body));
  }
}

TEST(Faults, DeadlockUnderChaosIsTypedErrorNeverHang) {
  // Rank 0 waits for a tag that is never sent while rank 1's real message
  // may sit in the injector's limbo when the scheduler first sees the
  // all-blocked state. The injector must flush (so no false deadlock from
  // limbo), and the genuine deadlock must still surface as EngineError.
  CostModel cm;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = seed;
    opts.faults.seed = seed;
    opts.faults.delay_prob = 0.95;
    opts.faults.max_delay_steps = 40;
    try {
      run_chaotic(2, cm, opts, [](Communicator& comm) {
        if (comm.rank() == 0) {
          int out[3] = {0, 0, 0};
          comm.recv(1, std::span<int>(out), 3);  // tag 3: sent (maybe limboed)
          (void)comm.recv_value<int>(1, 9);      // tag 9: never sent
        } else {
          const int data[3] = {1, 2, 3};
          comm.send(0, std::span<const int>(data), 3);
        }
      });
      FAIL() << "seed " << seed << ": deadlock did not throw";
    } catch (const EngineError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
      EXPECT_NE(what.find("tag=9"), std::string::npos)
          << "report should name the stuck receive: " << what;
    }
  }
}

TEST(Faults, DelayedMessageAloneIsNotADeadlock) {
  // The whole run blocks on a message that is *only* in limbo — the step
  // hook's deadlock flush must rescue it and the run must succeed.
  CostModel cm;
  ChaosOptions opts;
  opts.random_sched = false;  // earliest-vtime order makes the race certain
  opts.faults.seed = 4;
  opts.faults.delay_prob = 1.0;  // hold everything
  opts.faults.max_delay_steps = 1u << 30;  // effectively forever
  const auto res = run_chaotic(2, cm, opts, [](Communicator& comm) {
    if (comm.rank() == 0)
      comm.send_value(1, 77);
    else
      EXPECT_EQ(comm.recv_value<int>(0), 77);
  });
  EXPECT_EQ(res.total.messages_received, 1u);
}

TEST(Faults, UnreceivedMessagesEndUpInMailboxesAfterChaos) {
  // pending_messages() must be chaos-invariant: the end-of-run flush parks
  // never-received messages in the mailbox exactly like an un-faulted run.
  CostModel cm;
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;
  Machine m(2, cm, TraceConfig{}, eng);
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.max_delay_steps = 1000;
  FaultInjector injector(m, plan);
  m.set_delivery_interceptor(&injector);
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value(1, 5, /*tag=*/4);
    comm.barrier();
  });
  m.set_delivery_interceptor(nullptr);
  EXPECT_EQ(m.pending_messages(), 1u);
  EXPECT_GE(injector.held_total(), 1u);
  // Drain for reuse.
  m.run([](Communicator& comm) {
    if (comm.rank() == 1) {
      EXPECT_EQ(comm.recv_value<int>(0, 4), 5);
    }
  });
  EXPECT_EQ(m.pending_messages(), 0u);
}

TEST(Machine, InterceptorRequiresFiberEngine) {
  EngineConfig eng;
  eng.kind = EngineKind::kParallel;
  Machine m(2, {}, TraceConfig{}, eng);
  FaultInjector injector(m, FaultPlan::from_seed(1, 2));
  m.set_delivery_interceptor(&injector);
  EXPECT_THROW(m.run([](Communicator&) {}), ConfigError);
  m.set_delivery_interceptor(nullptr);
  EXPECT_NO_THROW(m.run([](Communicator&) {}));
}

TEST(Machine, RandomSchedUnderParallelEngineIsIgnoredButHarmless) {
  EngineConfig eng;
  eng.kind = EngineKind::kParallel;
  eng.sched.kind = SchedKind::kRandom;
  eng.sched.seed = 3;
  // Random picks are a fiber policy: any other engine says so, once per
  // Machine, and keeps OS scheduling.
  ::testing::internal::CaptureStderr();
  Machine m(2, {}, TraceConfig{}, eng);
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("fiber-engine policy; the parallel engine"),
            std::string::npos)
      << warned;
  const auto res = m.run([](Communicator& comm) {
    if (comm.rank() == 0)
      comm.send_value(1, 11);
    else
      EXPECT_EQ(comm.recv_value<int>(0), 11);
  });
  EXPECT_EQ(res.total.messages_sent, 1u);
}

}  // namespace
}  // namespace wavepipe
