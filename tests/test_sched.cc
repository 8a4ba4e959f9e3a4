// The tile-task dataflow scheduler (sched/): tag-allocator and task-graph
// units, the two executor modes, env-var parsing, byte-identity of
// the scheduled applications against their sequential executors, the
// multi-wavefront overlap win the scheduler exists for, and deadlock
// reports that name the stuck task.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/sweep3d.hh"
#include "comm/machine.hh"
#include "model/machines.hh"
#include "sched/recovery.hh"
#include "sched/sched.hh"

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

TEST(TagAllocator, RangesAreDisjointAndLabelled) {
  TagAllocator tags(100);
  const TagRange a = tags.alloc(5, "wave A");
  const TagRange b = tags.alloc(3, "wave B");
  EXPECT_EQ(a.base, 100);
  EXPECT_EQ(a.count, 5);
  EXPECT_EQ(a.end(), 105);
  EXPECT_EQ(b.base, 105);
  EXPECT_TRUE(a.contains(104));
  EXPECT_FALSE(a.contains(105));
  EXPECT_TRUE(b.contains(105));
  EXPECT_EQ(tags.next(), 108);
  EXPECT_EQ(tags.owner_of(102), "wave A");
  EXPECT_EQ(tags.owner_of(107), "wave B");
  EXPECT_EQ(tags.owner_of(99), "");
  EXPECT_NE(tags.describe().find("wave A"), std::string::npos);
}

TEST(TagAllocator, NegativeBaseIsAContractViolation) {
  EXPECT_THROW(TagAllocator(-1), Error);
}

TEST(TagAllocator, RejectsNonPositiveCounts) {
  TagAllocator tags;
  EXPECT_THROW(tags.alloc(0), ConfigError);
  EXPECT_THROW(tags.alloc(-3, "bogus"), ConfigError);
  try {
    tags.alloc(0, "empty phase");
    FAIL() << "alloc(0) must throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("empty phase"), std::string::npos);
  }
}

TEST(TagAllocator, RecyclesReleasedRangesFirstFit) {
  TagAllocator tags(100);
  const TagRange a = tags.alloc(8, "A");
  const TagRange b = tags.alloc(4, "B");
  tags.release(a);
  // Recycle fills the hole lowest-base first, carving only what it needs.
  const TagRange c = tags.alloc(3, "C");
  EXPECT_EQ(c.base, a.base);
  const TagRange d = tags.alloc(5, "D");
  EXPECT_EQ(d.base, a.base + 3);
  EXPECT_EQ(tags.recycled(), 2u);
  EXPECT_EQ(tags.next(), b.end());  // no fresh space consumed
  EXPECT_EQ(tags.live_ranges(), 3u);
  EXPECT_EQ(tags.owner_of(c.base), "C");
}

TEST(TagAllocator, ReleaseCoalescesAndFoldsTrailingSpace) {
  TagAllocator tags(0);
  const TagRange a = tags.alloc(4, "A");
  const TagRange b = tags.alloc(4, "B");
  const TagRange c = tags.alloc(4, "C");
  tags.release(a);
  tags.release(b);  // coalesces with a's hole
  const TagRange big = tags.alloc(8, "big");
  EXPECT_EQ(big.base, a.base);
  EXPECT_EQ(big.count, 8);
  // Releasing everything folds the space back: a balanced caller never
  // grows next().
  tags.release(big);
  tags.release(c);
  EXPECT_EQ(tags.next(), 0);
  EXPECT_EQ(tags.live_ranges(), 0u);
  EXPECT_EQ(tags.describe(), "");
}

TEST(TagAllocator, ReleaseRequiresExactLiveRange) {
  TagAllocator tags(0);
  const TagRange a = tags.alloc(4, "A");
  EXPECT_THROW(tags.release(TagRange{a.base, 2}), ConfigError);
  EXPECT_THROW(tags.release(TagRange{99, 4}), ConfigError);
  tags.release(a);
  EXPECT_THROW(tags.release(a), ConfigError);  // double release
}

TEST(TagAllocator, ExhaustionNamesTheHoardingPhase) {
  TagAllocator tags(std::numeric_limits<int>::max() - 10);
  tags.alloc(2, "small phase");
  tags.alloc(7, "the hoarding sweep");
  try {
    tags.alloc(5, "latecomer");
    FAIL() << "exhaustion must throw";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("tag space exhausted"), std::string::npos);
    EXPECT_NE(msg.find("the hoarding sweep"), std::string::npos);
  }
}

TEST(TagAllocator, DescribeIsDeterministic) {
  const auto drive = [] {
    TagAllocator tags(10);
    tags.alloc(4, "wave A");
    const TagRange b = tags.alloc(2, "wave B");
    tags.alloc(3, "wave C");
    tags.release(b);
    return tags.describe();
  };
  const std::string d = drive();
  EXPECT_EQ(d, drive());  // pure function of the call sequence
  EXPECT_EQ(d,
            "[10, 14) wave A\n"
            "[14, 16) (free)\n"
            "[16, 19) wave C\n");
}

TEST(TaskGraph, TracksEdgesAndDegrees) {
  TaskGraph g;
  const auto named = [](const char* label) {
    TaskGraph::Task t;
    t.label = label;
    return t;
  };
  const TaskId a = g.add(named("a"));
  const TaskId b = g.add(named("b"));
  const TaskId c = g.add(named("c"));
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, c);
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.edges(), 3u);
  EXPECT_EQ(g.predecessors(a), 0);
  EXPECT_EQ(g.predecessors(c), 2);
  EXPECT_EQ(g.successors(a).size(), 2u);
  EXPECT_EQ(g.task(b).label, "b");
  EXPECT_THROW(g.task(static_cast<TaskId>(7)), Error);
}

// Runs `g` (built per rank by `build`) on p ranks under the given options
// and returns vtime_max.
template <typename BuildFn>
double run_on(int p, const SchedOptions& so, BuildFn build,
              const CostModel& cm = {}) {
  return Machine::run(p, cm,
                      [&](Communicator& comm) {
                        TaskGraph g;
                        build(g, comm.rank());
                        run_graph(g, comm, so);
                      })
      .vtime_max;
}

// A genuine cross-rank cycle on two ranks: each rank's "handshake" task
// waits for the peer's handshake message before sending its own, so no
// schedule in either mode can run it. A warm-up exchange first gives the
// graph real traffic that completes before the cycle blocks.
void build_handshake_cycle(TaskGraph& g, int rank) {
  const int peer = 1 - rank;
  TaskGraph::Task tx;
  tx.label = "warmup-tx";
  tx.run = [peer](TaskContext& ctx) {
    const double v = 1.0;
    ctx.send(peer, std::span<const double>(&v, 1), 4);
  };
  const TaskId txid = g.add(std::move(tx));
  TaskGraph::Task rx;
  rx.label = "warmup-rx";
  rx.inflows.push_back({peer, 4, 1});
  const TaskId rxid = g.add(std::move(rx));
  TaskGraph::Task hs;
  hs.label = "handshake";
  hs.inflows.push_back({peer, 5, 1});
  hs.run = [peer](TaskContext& ctx) {
    const double v = 2.0;
    ctx.send(peer, std::span<const double>(&v, 1), 5);
  };
  const TaskId h = g.add(std::move(hs));
  g.add_edge(txid, h);
  g.add_edge(rxid, h);
}

TEST(Executor, FifoRunsInInsertionOrder) {
  std::vector<std::string> order;
  SchedOptions so;
  so.backend = SchedBackend::kSpmd;
  so.adaptive = false;
  run_on(1, so, [&](TaskGraph& g, int) {
    for (const char* name : {"a", "b", "c"})
      g.add({.label = name,
             .run = [&order, name](TaskContext&) { order.push_back(name); }});
  });
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Executor, CriticalPathPrefersTheLongChain) {
  // y (cost 1) is runnable alongside the x1 -> x2 chain (cost 10 each);
  // adaptive mode must start the chain first, static FIFO must not.
  const auto build = [](std::vector<std::string>& order) {
    return [&order](TaskGraph& g, int) {
      const auto body = [&order](const char* name) {
        return [&order, name](TaskContext&) { order.push_back(name); };
      };
      const TaskId y = g.add({.label = "y", .cost = 1.0, .run = body("y")});
      (void)y;
      const TaskId x1 = g.add({.label = "x1", .cost = 10.0, .run = body("x1")});
      const TaskId x2 = g.add({.label = "x2", .cost = 10.0, .run = body("x2")});
      g.add_edge(x1, x2);
    };
  };
  std::vector<std::string> crit, fifo;
  SchedOptions so;
  so.backend = SchedBackend::kSpmd;
  so.adaptive = true;
  run_on(1, so, build(crit));
  so.adaptive = false;
  run_on(1, so, build(fifo));
  EXPECT_EQ(crit, (std::vector<std::string>{"x1", "x2", "y"}));
  EXPECT_EQ(fifo, (std::vector<std::string>{"y", "x1", "x2"}));
}

TEST(Executor, CycleIsATypedError) {
  Machine::run(1, {}, [&](Communicator& comm) {
    TaskGraph g;
    const auto named = [](const char* label) {
      TaskGraph::Task t;
      t.label = label;
      return t;
    };
    const TaskId a = g.add(named("ouroboros-head"));
    const TaskId b = g.add(named("ouroboros-tail"));
    g.add_edge(a, b);
    g.add_edge(b, a);
    try {
      run_graph(g, comm, {});
      FAIL() << "cycle did not throw";
    } catch (const SchedError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cycle"), std::string::npos) << what;
      EXPECT_NE(what.find("ouroboros"), std::string::npos) << what;
    }
  });
}

TEST(Executor, InflowAndSendsMoveDataBetweenRanks) {
  for (const bool adaptive : {true, false}) {
    SchedOptions so;
    so.backend = SchedBackend::kSpmd;
    so.adaptive = adaptive;
    std::vector<double> got;
    Machine::run(2, {}, [&](Communicator& comm) {
      TaskGraph g;
      if (comm.rank() == 0) {
        g.add({.label = "tx", .run = [](TaskContext& ctx) {
                 const double payload[3] = {2.0, 3.0, 5.0};
                 ctx.send(1, std::span<const double>(payload), 7);
               }});
      } else {
        TaskGraph::Task rx;
        rx.label = "rx";
        rx.inflows.push_back({0, 7, 3});
        rx.run = [&got](TaskContext& ctx) {
          got.assign(ctx.inflow.begin(), ctx.inflow.end());
        };
        g.add(std::move(rx));
      }
      const SchedReport rep = run_graph(g, comm, so);
      EXPECT_EQ(rep.tasks, 1u);
      EXPECT_EQ(rep.adaptive, adaptive);
    });
    EXPECT_EQ(got, (std::vector<double>{2.0, 3.0, 5.0}))
        << "adaptive=" << adaptive;
  }
}

TEST(SchedOptionsEnv, ParsesPolicyAndMode) {
  // The mode is the only pickup knob left: adaptive critical-path or
  // static FIFO. Every value of the retired policy knob is refused.
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  EnvGuard ada("WAVEPIPE_SCHED_ADAPTIVE");
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");  // static needs spmd

  ::unsetenv("WAVEPIPE_SCHED_POLICY");
  ::unsetenv("WAVEPIPE_SCHED_ADAPTIVE");
  ::unsetenv("WAVEPIPE_SCHED_BACKEND");
  EXPECT_TRUE(SchedOptions::from_env().adaptive);
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "0", 1);
  EXPECT_FALSE(SchedOptions::from_env().adaptive);
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "1", 1);
  EXPECT_TRUE(SchedOptions::from_env().adaptive);
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "maybe", 1);
  EXPECT_THROW(SchedOptions::from_env(), ConfigError);

  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "1", 1);
  for (const char* v : {"fifo", "diagonal", "critical", ""}) {
    ::setenv("WAVEPIPE_SCHED_POLICY", v, 1);
    EXPECT_THROW(SchedOptions::from_env(), ConfigError) << "'" << v << "'";
  }
}

TEST(SchedOptionsEnv, RejectsRemovedKnobs) {
  // A stale environment must not be ignored silently: the error names the
  // removed knob and the mode that replaced it.
  EnvGuard pol("WAVEPIPE_SCHED_POLICY");
  EnvGuard unsafe("WAVEPIPE_SCHED_UNSAFE_STATIC");
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  ::unsetenv("WAVEPIPE_SCHED_POLICY");
  ::unsetenv("WAVEPIPE_SCHED_UNSAFE_STATIC");
  ::unsetenv("WAVEPIPE_SCHED_BACKEND");
  EXPECT_NO_THROW(SchedOptions::from_env());
  const auto expect_rejected = [](const char* knob, const char* value,
                                  const char* replacement) {
    EnvGuard g(knob);
    ::setenv(knob, value, 1);
    try {
      SchedOptions::from_env();
      ADD_FAILURE() << knob << "=" << value << " was accepted";
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(knob), std::string::npos) << what;
      EXPECT_NE(what.find("removed"), std::string::npos) << what;
      EXPECT_NE(what.find(replacement), std::string::npos) << what;
    }
  };
  expect_rejected("WAVEPIPE_SCHED_POLICY", "critical",
                  "adaptive critical-path");
  expect_rejected("WAVEPIPE_SCHED_POLICY", "fifo", "static FIFO");
  expect_rejected("WAVEPIPE_SCHED_UNSAFE_STATIC", "1", "static mode is always");
  expect_rejected("WAVEPIPE_SCHED_UNSAFE_STATIC", "0", "FIFO");
}

TEST(SchedOptionsEnv, StaticTasksIsAConfigError) {
  // Static FIFO runs on the SPMD backend only. The combination is refused
  // from the environment, before any machine exists...
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard ada("WAVEPIPE_SCHED_ADAPTIVE");
  EnvGuard eng("WAVEPIPE_ENGINE");
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "0", 1);
  ::setenv("WAVEPIPE_ENGINE", "parallel", 1);
  try {
    SchedOptions::from_env();
    ADD_FAILURE() << "static + tasks was accepted from the environment";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("adaptive"), std::string::npos) << what;
    EXPECT_NE(what.find("Valid combinations"), std::string::npos) << what;
  }
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "1", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  ::setenv("WAVEPIPE_SCHED_ADAPTIVE", "0", 1);
  EXPECT_FALSE(SchedOptions::from_env().adaptive);

  // ...and by run_graph, with no silent SPMD fallback, on every engine and
  // machine size (a one-rank machine included) and before any task runs.
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  so.adaptive = false;
  for (const EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel})
    for (const int p : {1, 2}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " p=" + std::to_string(p));
      EngineConfig ec;
      ec.kind = kind;
      bool ran = false;
      try {
        Machine::run(p, {}, ec, [&](Communicator& comm) {
          TaskGraph g;
          g.add({.label = "never",
                 .run = [&ran](TaskContext&) { ran = true; }});
          run_graph(g, comm, so);
        });
        ADD_FAILURE() << "run_graph accepted static + tasks";
      } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("adaptive"), std::string::npos) << what;
      }
      EXPECT_FALSE(ran);
    }
}

TEST(SchedOptionsEnv, ParsesBackendSelection) {
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard eng("WAVEPIPE_ENGINE");
  EnvGuard ada("WAVEPIPE_SCHED_ADAPTIVE");  // tasks needs adaptive mode
  ::unsetenv("WAVEPIPE_SCHED_BACKEND");
  ::unsetenv("WAVEPIPE_ENGINE");
  ::unsetenv("WAVEPIPE_SCHED_ADAPTIVE");
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::setenv("WAVEPIPE_SCHED_BACKEND", "threads", 1);
  EXPECT_THROW(SchedOptions::from_env(), ConfigError);
}

TEST(SchedOptionsEnv, TasksBackendCrossValidatesAgainstEngineEnv) {
  // The env-vs-env conflict is caught at configuration time, before any
  // machine exists — and the error spells out the valid combinations.
  EnvGuard backend("WAVEPIPE_SCHED_BACKEND");
  EnvGuard eng("WAVEPIPE_ENGINE");
  EnvGuard ada("WAVEPIPE_SCHED_ADAPTIVE");  // tasks needs adaptive mode
  ::unsetenv("WAVEPIPE_SCHED_ADAPTIVE");
  ::setenv("WAVEPIPE_SCHED_BACKEND", "tasks", 1);
  ::setenv("WAVEPIPE_ENGINE", "parallel", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  ::unsetenv("WAVEPIPE_ENGINE");  // unset engine: resolved at machine time
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kTasks);
  for (const char* bad : {"fibers", "threads"}) {
    ::setenv("WAVEPIPE_ENGINE", bad, 1);
    try {
      SchedOptions::from_env();
      FAIL() << "tasks backend accepted WAVEPIPE_ENGINE=" << bad;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("Valid combinations"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
  // spmd backend composes with every engine.
  ::setenv("WAVEPIPE_SCHED_BACKEND", "spmd", 1);
  ::setenv("WAVEPIPE_ENGINE", "fibers", 1);
  EXPECT_EQ(SchedOptions::from_env().backend, SchedBackend::kSpmd);
}

TEST(SchedOptionsEnv, BackendNamesRoundTrip) {
  EXPECT_STREQ(to_string(SchedBackend::kSpmd), "spmd");
  EXPECT_STREQ(to_string(SchedBackend::kTasks), "tasks");
}

// The sequential sweep, instance after instance: the one-slot graph on
// static FIFO that sweep3d_spmd runs (the SWEEP3D AppRunPin cases pin it
// to the octant-by-octant driver it replaced).
Real sequential_sweep(Sweep3d& app, Communicator& comm,
                      const WaveOptions& opts) {
  return app.sweep_all_scheduled(comm, opts, SchedOptions{.adaptive = false},
                                 nullptr, 1);
}

TEST(ScheduledSweep3d, ByteIdenticalAcrossPoliciesAndModes) {
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 1;
  const int p = 4;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  WaveOptions opts;
  opts.block = 2;
  opts.overlap = true;

  Real seq_flux = 0.0, seq_sum = 0.0;
  Machine::run(p, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, grid, comm.rank());
    const Real f = sequential_sweep(app, comm, opts);
    const Real cs = app.checksum(comm);
    if (comm.rank() == 0) {
      seq_flux = f;
      seq_sum = cs;
    }
  });

  // The two modes, and adaptive on both backends (the tasks backend needs
  // the parallel engine; the SPMD runs take the engine from the
  // environment).
  struct Mode {
    bool adaptive;
    SchedBackend backend;
  };
  for (const Mode mode : {Mode{false, SchedBackend::kSpmd},
                          Mode{true, SchedBackend::kSpmd},
                          Mode{true, SchedBackend::kTasks}}) {
    SchedOptions so;
    so.adaptive = mode.adaptive;
    so.backend = mode.backend;
    SCOPED_TRACE(std::string("adaptive=") + (mode.adaptive ? "1" : "0") +
                 " backend=" + to_string(mode.backend));
    EngineConfig ec = EngineConfig::from_env();
    if (mode.backend == SchedBackend::kTasks) ec.kind = EngineKind::kParallel;
    Real flux = 0.0, cs = 0.0;
    SchedReport rep;
    Machine::run(p, {}, ec, [&](Communicator& comm) {
      Sweep3d app(cfg, grid, comm.rank());
      // Per-rank report: ranks run concurrently under the parallel
      // engine, so only rank 0 may write the shared locals.
      SchedReport mine;
      const Real f = app.sweep_all_scheduled(comm, opts, so, &mine);
      const Real c = app.checksum(comm);
      if (comm.rank() == 0) {
        flux = f;
        cs = c;
        rep = mine;
      }
    });
    // Bitwise, not approximate: scheduling reorders execution, never
    // arithmetic (accumulation is serialized by explicit edges).
    EXPECT_EQ(flux, seq_flux);
    EXPECT_EQ(cs, seq_sum);
    EXPECT_GT(rep.tasks, 8u);  // at least one task per (octant, angle)
    EXPECT_EQ(rep.adaptive, mode.adaptive);
    EXPECT_EQ(rep.backend, mode.backend);
  }
}

TEST(ScheduledSweep3d, TwoDFrontierGridsMatchBlockingSweepBitwise) {
  // A 2D processor grid distributes a second upwind dimension, so every
  // (octant, angle) instance needs two frontier axes' worth of wave tags;
  // the scheduled sweep must agree with the blocking one bit for bit in
  // both modes. The scheduled sweep also honours block_w.
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 2;
  for (const std::array<int, 3> dims :
       {std::array<int, 3>{2, 2, 1}, std::array<int, 3>{2, 1, 2}}) {
    const ProcGrid<3> grid(dims);
    const int p = grid.size();
    for (const Coord block_w : {Coord{0}, Coord{2}}) {
      WaveOptions opts;
      opts.block = 2;
      opts.block_w = block_w;
      SCOPED_TRACE(grid.describe() + " block_w=" + std::to_string(block_w));
      Real blocking = 0.0;
      Machine::run(p, {}, [&](Communicator& comm) {
        const Real f = sweep3d_spmd(comm, cfg, grid, opts);
        if (comm.rank() == 0) blocking = f;
      });
      std::size_t tasks[2] = {0, 0};
      for (const bool adaptive : {false, true}) {
        SchedOptions so;
        so.backend = SchedBackend::kSpmd;
        so.adaptive = adaptive;
        SCOPED_TRACE(std::string("adaptive=") + (adaptive ? "1" : "0"));
        Real scheduled = 0.0;
        Machine::run(p, {}, [&](Communicator& comm) {
          Sweep3d app(cfg, grid, comm.rank());
          SchedReport rep;
          const Real f = app.sweep_all_scheduled(comm, opts, so, &rep);
          if (comm.rank() == 0) {
            scheduled = f;
            tasks[adaptive ? 1 : 0] = rep.tasks;
          }
        });
        EXPECT_EQ(scheduled, blocking);
      }
      EXPECT_EQ(tasks[0], tasks[1]);
      if (block_w > 0) {
        // Each rank owns 4 cells along every distributed dimension, so
        // block_w = 2 cuts a 2D-frontier instance's tiles into two rows.
        WaveOptions whole = opts;
        whole.block_w = 0;
        Sweep3d app(cfg, grid, 0);
        EXPECT_GT(app.build_sweep_graph(opts).size(),
                  app.build_sweep_graph(whole).size());
      }
    }
  }
}

// The three scheduler configurations a scheduled sweep can run under.
struct SweepMode {
  bool adaptive;
  SchedBackend backend;
};
constexpr std::array<SweepMode, 3> kSweepModes{
    SweepMode{false, SchedBackend::kSpmd}, SweepMode{true, SchedBackend::kSpmd},
    SweepMode{true, SchedBackend::kTasks}};

std::string describe(const SweepMode& m) {
  return std::string("adaptive=") + (m.adaptive ? "1" : "0") +
         " backend=" + to_string(m.backend);
}

TEST(ScheduledSweep3d, ReusedGraphMatchesBlockingOverIterations) {
  // sweep_all_scheduled keeps the graph it lowered and reruns it every
  // source iteration, with no per-instance vacuum reset of the slots: the
  // slots' fluff is zero from allocation and only ever overwritten where
  // the wave feeds it. Several iterations over 1, 3 and 4 slots (slot
  // reuse within and across graph runs) must still agree with the
  // blocking sweep bit for bit, flux and checksum alike.
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 2;
  cfg.iterations = 3;
  for (const std::array<int, 3> dims :
       {std::array<int, 3>{4, 1, 1}, std::array<int, 3>{2, 2, 1},
        std::array<int, 3>{2, 1, 2}}) {
    const ProcGrid<3> grid(dims);
    const int p = grid.size();
    for (const Coord block_w : {Coord{0}, Coord{2}}) {
      WaveOptions opts;
      opts.block = 2;
      opts.block_w = block_w;
      SCOPED_TRACE(grid.describe() + " block_w=" + std::to_string(block_w));
      Real flux0 = 0.0, sum0 = 0.0;
      Machine::run(p, {}, [&](Communicator& comm) {
        const Real f = sweep3d_spmd(comm, cfg, grid, opts);
        Sweep3d app(cfg, grid, comm.rank());
        for (int it = 0; it < cfg.iterations; ++it)
          sequential_sweep(app, comm, opts);
        const Real cs = app.checksum(comm);
        if (comm.rank() == 0) {
          flux0 = f;
          sum0 = cs;
        }
      });
      for (const SweepMode mode : kSweepModes) {
        for (const int slots : {1, 3, 4}) {
          SCOPED_TRACE(describe(mode) + " slots=" + std::to_string(slots));
          SchedOptions so;
          so.adaptive = mode.adaptive;
          so.backend = mode.backend;
          EngineConfig ec = EngineConfig::from_env();
          if (mode.backend == SchedBackend::kTasks)
            ec.kind = EngineKind::kParallel;
          Real flux = 0.0, sum = 0.0;
          Machine::run(p, {}, ec, [&](Communicator& comm) {
            Sweep3d app(cfg, grid, comm.rank());
            Real f = 0.0;
            for (int it = 0; it < cfg.iterations; ++it)
              f = app.sweep_all_scheduled(comm, opts, so, nullptr, slots);
            const Real cs = app.checksum(comm);
            if (comm.rank() == 0) {
              flux = f;
              sum = cs;
            }
          });
          EXPECT_EQ(flux, flux0);
          EXPECT_EQ(sum, sum0);
        }
      }
    }
  }
}

TEST(ScheduledSweep3d, ChangingBlockRebuildsTheKeptGraph) {
  // One app swept with a different block every call: each call must lower
  // a fresh graph for its block (the tile count shows it) and stay bitwise
  // equal to a blocking app swept with the same sequence of blocks.
  Sweep3dConfig cfg;
  cfg.n = 8;
  cfg.angles = 1;
  const int p = 4;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  const std::array<Coord, 4> blocks{2, 1, 4, 2};
  std::array<Real, 4> want{}, got{};
  std::array<std::size_t, 4> tasks{};
  Machine::run(p, {}, [&](Communicator& comm) {
    Sweep3d app(cfg, grid, comm.rank());
    for (std::size_t c = 0; c < blocks.size(); ++c) {
      WaveOptions opts;
      opts.block = blocks[c];
      sequential_sweep(app, comm, opts);
      const Real cs = app.checksum(comm);
      if (comm.rank() == 0) want[c] = cs;
    }
  });
  for (const SweepMode mode : kSweepModes) {
    SCOPED_TRACE(describe(mode));
    SchedOptions so;
    so.adaptive = mode.adaptive;
    so.backend = mode.backend;
    EngineConfig ec = EngineConfig::from_env();
    if (mode.backend == SchedBackend::kTasks) ec.kind = EngineKind::kParallel;
    Machine::run(p, {}, ec, [&](Communicator& comm) {
      Sweep3d app(cfg, grid, comm.rank());
      for (std::size_t c = 0; c < blocks.size(); ++c) {
        WaveOptions opts;
        opts.block = blocks[c];
        SchedReport rep;
        app.sweep_all_scheduled(comm, opts, so, &rep);
        const Real cs = app.checksum(comm);
        if (comm.rank() == 0) {
          got[c] = cs;
          tasks[c] = rep.tasks;
        }
      }
    });
    EXPECT_EQ(got, want);
    // 8 instances x (8 / b) tiles + 8 accumulations per rank.
    EXPECT_EQ(tasks, (std::array<std::size_t, 4>{40, 72, 24, 40}));
  }
}

TEST(ScheduledSweep3d, OverlapWinsAtLeastTenPercentAtP8) {
  // The acceptance number: 8 octants x 2 angles on 8 ranks under the T3E
  // calibration — overlapping instances must cut >= 10% off the makespan.
  Sweep3dConfig cfg;
  cfg.n = 16;
  cfg.angles = 2;
  const int p = 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
  const CostModel cm = t3e_like().costs;
  WaveOptions opts;
  opts.block = 2;
  opts.overlap = true;

  Real seq_flux = 0.0;
  const double seq =
      Machine::run(p, cm,
                   [&](Communicator& comm) {
                     Sweep3d app(cfg, grid, comm.rank());
                     const Real f = sequential_sweep(app, comm, opts);
                     if (comm.rank() == 0) seq_flux = f;
                   })
          .vtime_max;

  SchedOptions so;  // adaptive critical-path: the scheduler's default
  Real sched_flux = 0.0;
  SchedReport rep;
  const double sched =
      Machine::run(p, cm,
                   [&](Communicator& comm) {
                     Sweep3d app(cfg, grid, comm.rank());
                     SchedReport mine;  // ranks may run concurrently
                     const Real f = app.sweep_all_scheduled(comm, opts, so,
                                                            &mine);
                     if (comm.rank() == 0) {
                       sched_flux = f;
                       rep = mine;
                     }
                   })
          .vtime_max;

  EXPECT_EQ(sched_flux, seq_flux);
  EXPECT_LE(sched, 0.90 * seq) << "sequential " << seq << " vs scheduled "
                               << sched;
  EXPECT_GT(rep.overtakes, 0u);  // the win came from actual dataflow overlap
}

TEST(ScheduledAltSweep, MatchesPipelinedBitwise) {
  AltSweepConfig cfg;
  cfg.n = 32;
  cfg.iterations = 2;
  for (const int p : {2, 4}) {
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    WaveOptions opts;
    opts.block = 8;
    opts.overlap = true;

    Real seq_res = 0.0, seq_sum = 0.0;
    Machine::run(p, {}, [&](Communicator& comm) {
      AltSweep app(cfg, grid, comm.rank());
      for (int it = 0; it < cfg.iterations; ++it)
        app.iterate(comm, VerticalStrategy::kPipelined, opts);
      const Real r = app.residual_norm(comm);
      const Real cs = app.checksum(comm);
      if (comm.rank() == 0) {
        seq_res = r;
        seq_sum = cs;
      }
    });

    // Adaptive critical-path (the default) and static FIFO (the fully
    // schedule-invariant mode).
    for (const bool adaptive : {true, false}) {
      SchedOptions so;
      so.backend = SchedBackend::kSpmd;
      so.adaptive = adaptive;
      SCOPED_TRACE("p=" + std::to_string(p) +
                   " adaptive=" + (adaptive ? "1" : "0"));
      Real res = 0.0, cs = 0.0;
      Machine::run(p, {}, [&](Communicator& comm) {
        AltSweep app(cfg, grid, comm.rank());
        app.iterate_scheduled(comm, cfg.iterations, opts, so);
        const Real r = app.residual_norm(comm);
        const Real c = app.checksum(comm);
        if (comm.rank() == 0) {
          res = r;
          cs = c;
        }
      });
      EXPECT_EQ(res, seq_res);
      EXPECT_EQ(cs, seq_sum);
    }
  }
}

TEST(ScheduledAltSweep, IterateDispatchesTheScheduledStrategy) {
  AltSweepConfig cfg;
  cfg.n = 16;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  Real pipelined = 0.0, scheduled = 0.0;
  for (const VerticalStrategy strat :
       {VerticalStrategy::kPipelined, VerticalStrategy::kScheduled}) {
    Machine::run(2, {}, [&](Communicator& comm) {
      AltSweep app(cfg, grid, comm.rank());
      WaveOptions opts;
      opts.block = 4;
      app.iterate(comm, strat, opts);
      const Real r = app.residual_norm(comm);
      if (comm.rank() == 0)
        (strat == VerticalStrategy::kPipelined ? pipelined : scheduled) = r;
    });
  }
  EXPECT_EQ(scheduled, pipelined);
}

// Repeated iterate(kScheduled) calls hand their tag ranges back: every call
// after the first reuses the same tags (the space does not grow and no
// range stays live), and the fields still equal kPipelined's bit for bit.
TEST(ScheduledAltSweep, RepeatedIterateReusesItsTags) {
  AltSweepConfig cfg;
  cfg.n = 24;
  const int iterations = 3;
  for (const int p : {2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    WaveOptions opts;
    opts.block = 4;
    std::vector<std::vector<Real>> want(static_cast<std::size_t>(p)),
        got(static_cast<std::size_t>(p));
    std::vector<int> next_after(static_cast<std::size_t>(p), -1);
    std::vector<std::size_t> live(static_cast<std::size_t>(p), 1);
    for (const VerticalStrategy strat :
         {VerticalStrategy::kPipelined, VerticalStrategy::kScheduled}) {
      Machine::run(p, {}, [&](Communicator& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        AltSweep app(cfg, grid, comm.rank());
        for (int it = 0; it < iterations; ++it) {
          app.iterate(comm, strat, opts);
          if (strat != VerticalStrategy::kScheduled) continue;
          if (it == 0) next_after[r] = app.tags().next();
          EXPECT_EQ(app.tags().next(), next_after[r]) << "call " << it;
          live[r] = app.tags().live_ranges();
        }
        // Owned interior cells only: the scheduled graph skips the
        // south-bound ghost exchange, so fluff cells may differ.
        const Region<2> own =
            app.interior().intersect(app.layout().owned(comm.rank()));
        auto& out = (strat == VerticalStrategy::kPipelined ? want : got)[r];
        for (Coord i = own.lo(0); i <= own.hi(0); ++i)
          for (Coord j = own.lo(1); j <= own.hi(1); ++j)
            out.push_back(app.u().local()(i, j));
      });
    }
    for (int r = 0; r < p; ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(live[i], 0u) << "rank " << r;
      EXPECT_FALSE(want[i].empty()) << "rank " << r;
      EXPECT_EQ(got[i], want[i]) << "rank " << r;
    }
  }
}

TEST(Deadlock, ReportNamesTheStuckTask) {
  // Static FIFO on a graph that genuinely deadlocks: both ranks block on
  // their handshake inflow. The fiber engine must detect the all-blocked
  // state and the report must say which *task* is stuck, not just which
  // receive.
  SchedOptions so;
  so.backend = SchedBackend::kSpmd;
  so.adaptive = false;
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;  // deadlock detection needs the fiber engine
  Machine m(2, t3e_like().costs, TraceConfig{}, eng);
  try {
    m.run([&](Communicator& comm) {
      TaskGraph g;
      build_handshake_cycle(g, comm.rank());
      run_graph(g, comm, so);
    });
    FAIL() << "static FIFO deadlock did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("task 'handshake'"), std::string::npos)
        << "report should name the stuck task: " << what;
  }
}

TEST(Deadlock, RecoverableRunNamesTheStuckTask) {
  // The same cycle under run_recoverable: with a coordinator the executor
  // blocks in block_until (so adoption work can wake it) before wait_any.
  // A genuine deadlock there must still be detected and reported typed,
  // naming the stuck task, never hang.
  RecoveryCoordinator rc([](int rank) {
    RankProgram prog;
    build_handshake_cycle(prog.graph, rank);
    return prog;
  });
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;  // deadlock detection needs the fiber engine
  Machine m(2, t3e_like().costs, TraceConfig{}, eng);
  rc.attach(m);
  try {
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, {}); });
    FAIL() << "recoverable deadlock did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("'handshake'"), std::string::npos)
        << "report should name the stuck task: " << what;
  }
}

}  // namespace
}  // namespace wavepipe
