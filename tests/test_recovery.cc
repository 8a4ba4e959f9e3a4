// The crash-chaos tier: rank-kill fault injection + task-replay recovery.
//
// The tentpole gate — kill any single rank at any step under seeded chaos
// and the run completes byte-identical to the fault-free fiber oracle — is
// checked as a sweep: for each app (2D Smith-Waterman, SWEEP3D) and each
// p in {2,4,8}, every rank is killed at randomized steps across 100+ chaos
// seeds, and the surviving heir's adopted replay must publish exactly the
// bytes the dead rank would have. The same recovery path is exercised on
// the parallel engine (both the one SPMD executor, run with a coordinator,
// and the work-stealing tasks backend) via the coordinator's
// completion-count kill switch, since the chaos injector is a fiber-engine
// seam. A fault-free recoverable run goes through the same SPMD loop as
// run_graph, so it must match run_graph's values, RunResult and report.
// Negative controls keep the teeth: the same kill without recovery must
// throw typed (never hang), and static mode must fail fast rather than
// pretend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/smith_waterman.hh"
#include "apps/sweep3d.hh"
#include "comm/machine.hh"
#include "model/machines.hh"
#include "sched/recovery.hh"
#include "support/rng.hh"
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

// EXPECT_EQ on two big value buffers, but with a digestible failure report
// (index + values of the first few mismatches instead of a megabyte dump).
void expect_same_bytes(const std::vector<Real>& got,
                       const std::vector<Real>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (got == want) return;
  std::ostringstream os;
  int shown = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;
    ++total;
    if (shown < 5) {
      os << "  [" << i << "] got " << got[i] << " want " << want[i] << "\n";
      ++shown;
    }
  }
  FAIL() << total << " of " << got.size() << " values differ:\n" << os.str();
}

// ---------------------------------------------------------------------------
// App program factories: any rank (or its heir) rebuilds any rank's program
// from scratch, and the epilogue publishes the rank's owned block into a
// disjoint region of a shared host buffer.

struct SwCase {
  SmithWatermanConfig cfg;
  ProcGrid<2> grid{1, 1};
  WaveOptions wopts;

  std::size_t out_elems() const {
    return (static_cast<std::size_t>(cfg.la) + 1) *
           (static_cast<std::size_t>(cfg.lb) + 1);
  }
  ProgramFactory factory(std::vector<Real>* out) const {
    const SmithWatermanConfig c = cfg;
    const ProcGrid<2> g = grid;
    const WaveOptions w = wopts;
    return [c, g, w, out](int rank) {
      auto app = std::make_shared<SmithWaterman>(c, g, rank);
      app->init();
      RankProgram p;
      p.graph = app->build_fill_graph(w);
      p.state = app;
      p.epilogue = [app, out] { app->extract_owned_h(std::span<Real>(*out)); };
      return p;
    };
  }
  // The fault-free oracle through the *standard* executor (fill_scheduled):
  // recovery runs must reproduce the plain scheduler's bytes, not merely
  // their own.
  std::vector<Real> oracle(int p, const CostModel& cm) const {
    std::vector<Real> vals(out_elems(), -1.0);
    ChaosOptions det;
    det.random_sched = false;
    run_chaotic(p, cm, det, [&](Communicator& comm) {
      SmithWaterman app(cfg, grid, comm.rank());
      app.init();
      app.fill_scheduled(comm, wopts, SchedOptions{});
      app.extract_owned_h(std::span<Real>(vals));
    });
    return vals;
  }
};

struct SweepCase {
  Sweep3dConfig cfg;
  ProcGrid<3> grid{1, 1, 1};
  WaveOptions wopts;
  int slots = 2;

  std::size_t out_elems() const {
    const auto n = static_cast<std::size_t>(cfg.n);
    return n * n * n;
  }
  ProgramFactory factory(std::vector<Real>* out) const {
    const Sweep3dConfig c = cfg;
    const ProcGrid<3> g = grid;
    const WaveOptions w = wopts;
    const int s = slots;
    return [c, g, w, s, out](int rank) {
      auto app = std::make_shared<Sweep3d>(c, g, rank);
      RankProgram p;
      p.graph = app->build_sweep_graph(w, s);
      p.state = app;
      p.epilogue = [app, out] {
        app->mirror_last_slot();
        app->extract_owned_flux(std::span<Real>(*out));
      };
      return p;
    };
  }
  std::vector<Real> oracle(int p, const CostModel& cm) const {
    std::vector<Real> vals(out_elems(), -1.0);
    ChaosOptions det;
    det.random_sched = false;
    run_chaotic(p, cm, det, [&](Communicator& comm) {
      Sweep3d app(cfg, grid, comm.rank());
      app.sweep_all_scheduled(comm, wopts, SchedOptions{}, nullptr, slots);
      app.extract_owned_flux(std::span<Real>(vals));
    });
    return vals;
  }
};

SwCase sw_case(int p) {
  SwCase c;
  c.cfg.la = 25;
  c.cfg.lb = 23;
  c.grid = ProcGrid<2>(std::array<int, 2>{p >= 4 ? 2 : p, p >= 4 ? p / 2 : 1});
  c.wopts.block = 4;
  c.wopts.block_w = 4;
  return c;
}

SweepCase sweep_case(int p) {
  SweepCase c;
  c.cfg.n = 8;
  c.cfg.angles = 1;
  c.grid = ProcGrid<3>::along_dim(p, 0);
  c.wopts.block = 2;
  c.wopts.overlap = true;
  return c;
}

// One recoverable chaos run: fresh coordinator over `factory`, attached via
// the ChaosOptions::configure seam, kill plan from the (seed, victim, step)
// triple layered on a seeded delay plan. Returns true if the victim really
// died (so sweeps can assert their kills are not vacuous).
template <typename Case>
bool run_recoverable_chaos(const Case& cs, int p, const CostModel& cm,
                           std::vector<Real>* out, std::uint64_t seed,
                           int victim, std::uint64_t kill_step) {
  RecoveryCoordinator rc(cs.factory(out));
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = seed;
  opts.faults = FaultPlan::from_seed(seed * 31 + 7, p);
  opts.faults.kill_rank = victim;
  opts.faults.kill_step = kill_step;
  opts.configure = [&](Machine& m) { rc.attach(m); };
  bool died = false;
  run_chaotic(p, cm, opts, [&](Communicator& comm) {
    run_recoverable(comm, rc, {});
    // Past the exit barrier every program has finished; survivors can read
    // the death board to report whether this run's kill actually landed.
    if (comm.rank() != victim && comm.machine().rank_dead(victim))
      died = true;
  });
  return died;
}

// ---------------------------------------------------------------------------
// Tentpole gate, fiber engine: kill every rank at randomized steps across
// 100+ chaos seeds per app; every run must match the fault-free oracle
// byte for byte.

TEST(Recovery, SmithWatermanKillSweepMatchesOracle) {
  const CostModel cm = t3e_like().costs;
  const std::uint64_t base = test_seed(11);
  for (int p : {2, 4, 8}) {
    const SwCase cs = sw_case(p);
    const std::vector<Real> want = cs.oracle(p, cm);

    // Fault-free recovery run first: the executor run with a coordinator
    // must reproduce the standard run's bytes before any killing starts.
    std::vector<Real> clean(cs.out_elems(), -2.0);
    {
      RecoveryCoordinator rc(cs.factory(&clean));
      ChaosOptions det;
      det.random_sched = false;
      det.configure = [&](Machine& m) { rc.attach(m); };
      run_chaotic(p, cm, det,
                  [&](Communicator& comm) { run_recoverable(comm, rc, {}); });
    }
    expect_same_bytes(clean, want);

    const int seeds = p == 2 ? 40 : (p == 4 ? 36 : 28);
    int deaths = 0;
    for (int i = 0; i < seeds; ++i) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
      const int victim = i % p;
      SplitMix64 rng(seed * 977 + static_cast<std::uint64_t>(p));
      // Scheduler steps advance only when a fiber blocks, so fault-free
      // runs finish within a few steps per rank (measured: 2 at p=2, 14 at
      // p=8); the range tracks that scale so most kills land mid-run while
      // a tail lands late (during the exit barrier) or not at all — every
      // one of which must still match the oracle.
      const std::uint64_t kill_step =
          rng.next() % (3u * static_cast<unsigned>(p));
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed) +
                   " kill " + std::to_string(victim) + "@" +
                   std::to_string(kill_step));
      std::vector<Real> got(cs.out_elems(), -2.0);
      if (run_recoverable_chaos(cs, p, cm, &got, seed, victim, kill_step))
        ++deaths;
      expect_same_bytes(got, want);
    }
    // The sweep must not be vacuous: most kill steps land inside the run.
    EXPECT_GE(deaths, seeds / 2) << "too few kills fired at p=" << p;
  }
}

TEST(Recovery, Sweep3dKillSweepMatchesOracle) {
  const CostModel cm = t3e_like().costs;
  const std::uint64_t base = test_seed(13) + 50000;
  for (int p : {2, 4, 8}) {
    const SweepCase cs = sweep_case(p);
    const std::vector<Real> want = cs.oracle(p, cm);

    const int seeds = p == 2 ? 40 : (p == 4 ? 36 : 28);
    int deaths = 0;
    for (int i = 0; i < seeds; ++i) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
      const int victim = i % p;
      SplitMix64 rng(seed * 977 + static_cast<std::uint64_t>(p));
      // Fault-free step counts run 5 (p=2) to ~56 (p=8) here; see the SW
      // sweep for why the kill range tracks them.
      const std::uint64_t kill_step =
          rng.next() % (8u * static_cast<unsigned>(p) + 8u);
      SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed) +
                   " kill " + std::to_string(victim) + "@" +
                   std::to_string(kill_step));
      std::vector<Real> got(cs.out_elems(), -2.0);
      if (run_recoverable_chaos(cs, p, cm, &got, seed, victim, kill_step))
        ++deaths;
      expect_same_bytes(got, want);
    }
    EXPECT_GE(deaths, seeds / 2) << "too few kills fired at p=" << p;
  }
}

// ---------------------------------------------------------------------------
// One executor: a fault-free run_recoverable walks the graph through the
// same SPMD loop as run_graph, so on the deterministic fiber schedule it
// must reproduce run_graph's values, its whole RunResult (per-rank vtime,
// phases, stats) and every rank's SchedReport. On the parallel engine only
// the values are schedule-independent.

struct LoopRun {
  std::vector<Real> vals;
  RunResult result;
  std::vector<SchedReport> reports;
};

// Runs the factory's graph on every rank, through run_graph or through a
// fault-free run_recoverable, on the deterministic fiber schedule or on
// the parallel engine.
template <typename Case>
LoopRun run_factory_graph(const Case& cs, int p, const CostModel& cm,
                          bool recoverable, bool parallel) {
  LoopRun out;
  out.vals.assign(cs.out_elems(), -2.0);
  out.reports.resize(static_cast<std::size_t>(p));
  RecoveryCoordinator rc(cs.factory(&out.vals));
  const auto body = [&](Communicator& comm) {
    SchedReport rep;
    if (recoverable) {
      rep = run_recoverable(comm, rc, {});
    } else {
      RankProgram prog = rc.build(comm.rank());
      rep = run_graph(prog.graph, comm, SchedOptions{});
      prog.epilogue();
    }
    out.reports[static_cast<std::size_t>(comm.rank())] = rep;
  };
  if (parallel) {
    EngineConfig ec;
    ec.kind = EngineKind::kParallel;
    Machine m(p, cm, TraceConfig{}, ec);
    if (recoverable) rc.attach(m);
    out.result = m.run(body);
  } else {
    ChaosOptions det;
    det.random_sched = false;
    if (recoverable) det.configure = [&](Machine& m) { rc.attach(m); };
    out.result = run_chaotic(p, cm, det, body);
  }
  return out;
}

template <typename Case>
void expect_recoverable_equals_run_graph(const Case& cs, int p,
                                         const CostModel& cm) {
  const LoopRun plain = run_factory_graph(cs, p, cm, /*recoverable=*/false,
                                          /*parallel=*/false);
  const LoopRun rec = run_factory_graph(cs, p, cm, /*recoverable=*/true,
                                        /*parallel=*/false);
  expect_same_bytes(rec.vals, plain.vals);
  EXPECT_EQ(rec.result.vtime, plain.result.vtime);
  EXPECT_EQ(rec.result.vtime_max, plain.result.vtime_max);
  EXPECT_EQ(rec.result.phases, plain.result.phases);
  EXPECT_EQ(rec.result.phases_total, plain.result.phases_total);
  EXPECT_EQ(rec.result.stats, plain.result.stats);
  EXPECT_EQ(rec.result.total, plain.result.total);
  for (int r = 0; r < p; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    const SchedReport& a = rec.reports[static_cast<std::size_t>(r)];
    const SchedReport& b = plain.reports[static_cast<std::size_t>(r)];
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.blocked_waits, b.blocked_waits);
    EXPECT_EQ(a.overtakes, b.overtakes);
    EXPECT_EQ(a.max_posted, b.max_posted);
  }
  SCOPED_TRACE("parallel engine");
  for (const bool recoverable : {false, true})
    expect_same_bytes(
        run_factory_graph(cs, p, cm, recoverable, /*parallel=*/true).vals,
        plain.vals);
}

TEST(Recovery, FaultFreeRecoveryEqualsRunGraph) {
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    {
      SCOPED_TRACE("Smith-Waterman");
      expect_recoverable_equals_run_graph(sw_case(p), p, cm);
    }
    {
      SCOPED_TRACE("SWEEP3D");
      expect_recoverable_equals_run_graph(sweep_case(p), p, cm);
    }
  }
}

// ---------------------------------------------------------------------------
// Teeth (negative control): the same kill against the *pre-recovery*
// executor path — no coordinator attached — must surface as a typed error,
// never a hang. The victim dies at its first blocking wait and the machine
// poisons its peers.

TEST(Recovery, KillWithoutRecoveryThrowsTyped) {
  const CostModel cm = t3e_like().costs;
  const int p = 2;
  const SwCase cs = sw_case(p);
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = 9;
  opts.faults.kill_rank = 1;
  opts.faults.kill_step = 0;
  try {
    run_chaotic(p, cm, opts, [&](Communicator& comm) {
      SmithWaterman app(cs.cfg, cs.grid, comm.rank());
      app.init();
      app.fill_scheduled(comm, cs.wopts, SchedOptions{});
    });
    FAIL() << "unrecovered kill did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("killed"), std::string::npos)
        << e.what();
  }
}

// The same seed WITH recovery completes and matches the oracle — the pair
// of tests above/below is the before/after contract the tier proves.
TEST(Recovery, SameSeedWithRecoveryCompletes) {
  const CostModel cm = t3e_like().costs;
  const int p = 2;
  const SwCase cs = sw_case(p);
  const std::vector<Real> want = cs.oracle(p, cm);
  std::vector<Real> got(cs.out_elems(), -2.0);
  run_recoverable_chaos(cs, p, cm, &got, /*seed=*/9, /*victim=*/1,
                        /*kill_step=*/0);
  expect_same_bytes(got, want);
}

// ---------------------------------------------------------------------------
// The limbo regression: messages still held by the fault injector when the
// victim dies. With recovery armed the end-of-run flush deposits them into
// the dead rank's mailbox for the heir's proxy receives; without recovery
// they are dropped — in both cases no assert, no hang.

TEST(Recovery, LimboMessagesDueAfterDeathReachTheHeir) {
  const CostModel cm = t3e_like().costs;
  const int p = 2;
  SwCase cs = sw_case(p);
  cs.cfg.la = 12;
  cs.cfg.lb = 12;
  cs.wopts.block = 2;
  cs.wopts.block_w = 2;
  const std::vector<Real> want = cs.oracle(p, cm);

  std::vector<Real> got(cs.out_elems(), -2.0);
  RecoveryCoordinator rc(cs.factory(&got));
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = 3;
  opts.faults.seed = 3;
  opts.faults.delay_prob = 1.0;      // hold *every* message...
  opts.faults.max_delay_steps = 40;  // ...well past the kill step
  opts.faults.kill_rank = 1;
  opts.faults.kill_step = 1;
  opts.configure = [&](Machine& m) { rc.attach(m); };
  run_chaotic(p, cm, opts,
              [&](Communicator& comm) { run_recoverable(comm, rc, {}); });
  expect_same_bytes(got, want);
}

TEST(Recovery, LimboFlushToDeadRankWithoutRecoveryIsDropped) {
  const CostModel cm = t3e_like().costs;
  const int p = 2;
  const SwCase cs = sw_case(p);
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = 3;
  opts.faults.seed = 3;
  opts.faults.delay_prob = 1.0;
  opts.faults.max_delay_steps = 40;
  opts.faults.kill_rank = 1;
  opts.faults.kill_step = 1;
  // The regression: the injector's end-of-run flush releases messages whose
  // destination died mid-run. This must drop them (typed failure from the
  // kill, no assert on deposit-to-dead) instead of tripping the mailbox's
  // liveness invariants.
  EXPECT_THROW(run_chaotic(p, cm, opts,
                           [&](Communicator& comm) {
                             SmithWaterman app(cs.cfg, cs.grid, comm.rank());
                             app.init();
                             app.fill_scheduled(comm, cs.wopts,
                                                SchedOptions{});
                           }),
               Error);
}

// ---------------------------------------------------------------------------
// Parallel engine: the chaos injector is a fiber seam, so kills here come
// from the coordinator's completion-count switch. Both the SPMD executor
// and the work-stealing tasks backend must recover to the fiber oracle's
// bytes.

TEST(Recovery, ParallelSpmdKillMatchesFiberOracle) {
  const CostModel cm = t3e_like().costs;
  const int p = 4;
  const SwCase cs = sw_case(p);
  const std::vector<Real> want = cs.oracle(p, cm);
  struct Point {
    int victim;
    std::uint64_t after;
  };
  for (const Point pt : {Point{0, 0}, Point{1, 5}, Point{2, 12}, Point{3, 2}}) {
    SCOPED_TRACE("kill rank " + std::to_string(pt.victim) + " after " +
                 std::to_string(pt.after) + " completions");
    std::vector<Real> got(cs.out_elems(), -2.0);
    RecoveryCoordinator rc(cs.factory(&got));
    EngineConfig ec;
    ec.kind = EngineKind::kParallel;
    Machine m(p, cm, TraceConfig{}, ec);
    rc.attach(m);
    rc.arm_kill_after(pt.victim, pt.after);
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, {}); });
    EXPECT_TRUE(m.rank_dead(pt.victim)) << "kill switch never fired";
    expect_same_bytes(got, want);
  }
}

TEST(Recovery, ParallelTasksBackendKillMatchesFiberOracle) {
  const CostModel cm = t3e_like().costs;
  const int p = 4;
  const SwCase cs = sw_case(p);
  const std::vector<Real> want = cs.oracle(p, cm);
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  struct Point {
    int victim;
    std::uint64_t after;
  };
  for (const Point pt : {Point{0, 3}, Point{1, 0}, Point{2, 9}, Point{3, 20}}) {
    SCOPED_TRACE("kill rank " + std::to_string(pt.victim) + " after " +
                 std::to_string(pt.after) + " completions");
    std::vector<Real> got(cs.out_elems(), -2.0);
    RecoveryCoordinator rc(cs.factory(&got));
    EngineConfig ec;
    ec.kind = EngineKind::kParallel;
    Machine m(p, cm, TraceConfig{}, ec);
    rc.attach(m);
    rc.arm_kill_after(pt.victim, pt.after);
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, so); });
    EXPECT_TRUE(m.rank_dead(pt.victim)) << "kill switch never fired";
    expect_same_bytes(got, want);
  }
}

TEST(Recovery, ParallelTasksBackendSweep3dKillMatchesFiberOracle) {
  const CostModel cm = t3e_like().costs;
  const int p = 4;
  const SweepCase cs = sweep_case(p);
  const std::vector<Real> want = cs.oracle(p, cm);
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  struct Point {
    int victim;
    std::uint64_t after;
  };
  for (const Point pt : {Point{0, 4}, Point{2, 40}}) {
    SCOPED_TRACE("kill rank " + std::to_string(pt.victim) + " after " +
                 std::to_string(pt.after) + " completions");
    std::vector<Real> got(cs.out_elems(), -2.0);
    RecoveryCoordinator rc(cs.factory(&got));
    EngineConfig ec;
    ec.kind = EngineKind::kParallel;
    Machine m(p, cm, TraceConfig{}, ec);
    rc.attach(m);
    rc.arm_kill_after(pt.victim, pt.after);
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, so); });
    EXPECT_TRUE(m.rank_dead(pt.victim)) << "kill switch never fired";
    expect_same_bytes(got, want);
  }
}

// ---------------------------------------------------------------------------
// A partial log: the victim dies holding a two-inflow task one of whose
// inflows it already consumed. Hand-built three-rank graph:
//   rank 0  s0: sends a = {1.5, 2.5} (tag 10), then a2 = {3} (tag 11)
//   rank 1  j: inflows a and b, out[0] = a . b
//           l: inflow a2, out[1] = a2[0]
//           k (after l): sends c = {2 * out[1]} (tag 13)
//   rank 2  t: inflow c, sends b = {c, c + 1} (tag 12), out[0] = c
// Rank 1 settles a before a2 (same sender, earlier arrival), and b cannot
// exist before k ran. Killed on l's completion (the second machine-wide),
// rank 1 dies with a logged and b not: its heir (rank 2) must take a from
// the log, re-emit c, and receive only b live.

ProgramFactory partial_log_factory(std::vector<std::vector<Real>>* out) {
  return [out](int rank) {
    auto vals = std::make_shared<std::vector<Real>>(2, 0.0);
    RankProgram prog;
    TaskGraph& g = prog.graph;
    if (rank == 0) {
      TaskGraph::Task s0;
      s0.label = "s0";
      s0.run = [vals](TaskContext& ctx) {
        const std::vector<Real> a{1.5, 2.5}, a2{3.0};
        ctx.send(1, std::span<const Real>(a), 10);
        ctx.send(1, std::span<const Real>(a2), 11);
        (*vals)[0] = 1.0;
      };
      g.add(std::move(s0));
    } else if (rank == 1) {
      TaskGraph::Task j;
      j.label = "j";
      j.inflows = {{0, 10, 2}, {2, 12, 2}};
      j.run = [vals](TaskContext& ctx) {
        const auto a = ctx.inflows[0], b = ctx.inflows[1];
        (*vals)[0] = a[0] * b[0] + a[1] * b[1];
      };
      g.add(std::move(j));
      TaskGraph::Task l;
      l.label = "l";
      l.inflows = {{0, 11, 1}};
      l.run = [vals](TaskContext& ctx) { (*vals)[1] = ctx.inflow[0]; };
      const TaskId lid = g.add(std::move(l));
      TaskGraph::Task k;
      k.label = "k";
      k.run = [vals](TaskContext& ctx) {
        const std::vector<Real> c{2.0 * (*vals)[1]};
        ctx.send(2, std::span<const Real>(c), 13);
      };
      g.add_edge(lid, g.add(std::move(k)));
    } else {
      TaskGraph::Task t;
      t.label = "t";
      t.inflows = {{1, 13, 1}};
      t.run = [vals](TaskContext& ctx) {
        const Real c = ctx.inflow[0];
        const std::vector<Real> b{c, c + 1.0};
        ctx.send(1, std::span<const Real>(b), 12);
        (*vals)[0] = c;
      };
      g.add(std::move(t));
    }
    prog.state = vals;
    prog.epilogue = [vals, out, rank] {
      (*out)[static_cast<std::size_t>(rank)] = *vals;
    };
    return prog;
  };
}

TEST(Recovery, HeirTakesTheLoggedHalfOfATwoInflowTask) {
  const CostModel cm = t3e_like().costs;
  const int p = 3;
  auto run = [&](bool kill, std::vector<std::vector<Real>>& out) {
    RecoveryCoordinator rc(partial_log_factory(&out));
    EngineConfig ec;
    ec.kind = EngineKind::kFibers;
    Machine m(p, cm, TraceConfig{}, ec);
    rc.attach(m);
    if (kill) rc.arm_kill_after(1, 1);
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, {}); });
    EXPECT_EQ(m.rank_dead(1), kill);
    return rc.snapshot(1);
  };
  std::vector<std::vector<Real>> want(p), got(p);
  run(false, want);
  // a . b with b = {6, 7}: 1.5 * 6 + 2.5 * 7.
  EXPECT_EQ(want[1], (std::vector<Real>{26.5, 3.0}));
  const auto log = run(true, got);
  EXPECT_EQ(got, want);

  const TaskId j = 0, l = 1, k = 2;
  EXPECT_TRUE(log.completed_task(l));
  EXPECT_FALSE(log.completed_task(j));
  EXPECT_FALSE(log.completed_task(k));
  const auto* a = log.logged(j, 0);
  const auto* b = log.logged(j, 1);
  ASSERT_TRUE(a && a->has_value()) << "the consumed inflow was not logged";
  EXPECT_EQ(**a, (std::vector<Real>{1.5, 2.5}));
  EXPECT_FALSE(b && b->has_value()) << "an unsent inflow was logged";
}

// ---------------------------------------------------------------------------
// Mode gates: recovery refuses what it cannot honour, with typed errors.

// ---------------------------------------------------------------------------
// A contracted graph: the score-only Smith-Waterman fill keeps H as a
// window one tile wide on a tiled rank line, shared by the rank's tile
// tasks. A fresh heir replays the victim's logged prefix in completion
// order, which must slide that window exactly as the victim did: the best
// score stays bit-identical to the plain-loop reference wherever the kill
// lands.

struct SwScoreCase {
  SmithWatermanConfig cfg;
  int p = 2;
  WaveOptions wopts;

  // Every rank's (or its heir's) epilogue publishes that rank's live-out
  // max into its own slot of `best`.
  ProgramFactory factory(std::vector<Real>* best) const {
    const SmithWatermanConfig c = cfg;
    const ProcGrid<2> g = ProcGrid<2>::along_dim(p, 0);
    const WaveOptions w = wopts;
    return [c, g, w, best](int rank) {
      auto app = std::make_shared<SmithWatermanScore>(c, g, rank);
      RankProgram prog;
      auto lowered =
          std::make_shared<WaveReport<2>>(app->lower_fill(prog.graph, w));
      prog.state = app;
      prog.epilogue = [lowered, best, rank] {
        (*best)[static_cast<std::size_t>(rank)] = lowered->maxima().at(0);
      };
      return prog;
    };
  }

  // One recoverable run with `victim` killed once `after` tasks have
  // completed machine-wide; returns the best score and whether the victim
  // really died.
  std::pair<Real, bool> run(EngineKind engine, const SchedOptions& so,
                            int victim, std::uint64_t after) const {
    std::vector<Real> best(static_cast<std::size_t>(p), -1.0);
    RecoveryCoordinator rc(factory(&best));
    EngineConfig ec;
    ec.kind = engine;
    Machine m(p, t3e_like().costs, TraceConfig{}, ec);
    rc.attach(m);
    rc.arm_kill_after(victim, after);
    m.run([&](Communicator& comm) { run_recoverable(comm, rc, so); });
    return {*std::max_element(best.begin(), best.end()), m.rank_dead(victim)};
  }
};

SwScoreCase sw_score_case(int p) {
  SwScoreCase c;
  c.cfg.la = 25;
  c.cfg.lb = 23;
  c.p = p;
  c.wopts.block = 4;  // 6 tiles per rank, each window 5 columns wide
  return c;
}

void expect_same_score(Real got, Real want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << got << " vs " << want;
}

TEST(Recovery, ContractedSmithWatermanKillSweepMatchesReference) {
  for (const int p : {2, 3}) {
    const SwScoreCase cs = sw_score_case(p);
    const Real want =
        SmithWaterman(cs.cfg, ProcGrid<2>::along_dim(1, 0), 0)
            .reference_best_score();
    const std::uint64_t completions = 6u * static_cast<unsigned>(p);
    int deaths = 0;
    for (int victim = 0; victim < p; ++victim) {
      for (std::uint64_t after = 0; after < completions; ++after) {
        SCOPED_TRACE("p=" + std::to_string(p) + " kill rank " +
                     std::to_string(victim) + " after " +
                     std::to_string(after) + " completions");
        const auto [got, died] =
            cs.run(EngineKind::kFibers, SchedOptions{}, victim, after);
        deaths += died ? 1 : 0;
        expect_same_score(got, want);
      }
    }
    // Kills late in the run may find the victim done; most must land.
    EXPECT_GE(deaths, p * static_cast<int>(completions) / 2)
        << "too few kills fired at p=" << p;
  }
}

TEST(Recovery, ContractedSmithWatermanTasksBackendKillMatchesReference) {
  const int p = 3;
  const SwScoreCase cs = sw_score_case(p);
  const Real want = SmithWaterman(cs.cfg, ProcGrid<2>::along_dim(1, 0), 0)
                        .reference_best_score();
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  SplitMix64 rng(test_seed(29));
  int deaths = 0;
  for (int i = 0; i < 6; ++i) {
    const int victim = i % p;
    const std::uint64_t after = rng.next() % 12;
    SCOPED_TRACE("kill rank " + std::to_string(victim) + " after " +
                 std::to_string(after) + " completions");
    const auto [got, died] = cs.run(EngineKind::kParallel, so, victim, after);
    deaths += died ? 1 : 0;
    expect_same_score(got, want);
  }
  EXPECT_GE(deaths, 3) << "too few kills fired";
}

TEST(Recovery, StaticModeFailsFastTyped) {
  const CostModel cm = t3e_like().costs;
  const SwCase cs = sw_case(2);
  std::vector<Real> got(cs.out_elems(), 0.0);
  RecoveryCoordinator rc(cs.factory(&got));
  EngineConfig ec;
  ec.kind = EngineKind::kFibers;
  Machine m(2, cm, TraceConfig{}, ec);
  rc.attach(m);
  SchedOptions so;
  so.adaptive = false;
  EXPECT_THROW(
      m.run([&](Communicator& comm) { run_recoverable(comm, rc, so); }),
      SchedError);
}

TEST(Recovery, TasksBackendRequiresParallelEngine) {
  const CostModel cm = t3e_like().costs;
  const SwCase cs = sw_case(2);
  std::vector<Real> got(cs.out_elems(), 0.0);
  RecoveryCoordinator rc(cs.factory(&got));
  EngineConfig ec;
  ec.kind = EngineKind::kFibers;
  Machine m(2, cm, TraceConfig{}, ec);
  rc.attach(m);
  SchedOptions so;
  so.backend = SchedBackend::kTasks;
  EXPECT_THROW(
      m.run([&](Communicator& comm) { run_recoverable(comm, rc, so); }),
      ConfigError);
}

// ---------------------------------------------------------------------------
// The WAVEPIPE_KILL knob: parses "rank:step", rejects junk with a typed
// ConfigError, and arms any chaos run from the outside.

TEST(Recovery, KillEnvKnobParses) {
  EnvGuard guard("WAVEPIPE_KILL");
  int rank = -1;
  std::uint64_t step = 0;

  ::unsetenv("WAVEPIPE_KILL");
  EXPECT_FALSE(kill_from_env(rank, step));

  ::setenv("WAVEPIPE_KILL", "2:17", 1);
  EXPECT_TRUE(kill_from_env(rank, step));
  EXPECT_EQ(rank, 2);
  EXPECT_EQ(step, 17u);

  // A rank above INT_MAX is rejected, not wrapped (4294967298 would wrap
  // to rank 2).
  for (const char* junk : {"banana", "3", "1:", ":4", "1:x", "-2:3",
                           "4294967298:3", "3000000000:1"}) {
    ::setenv("WAVEPIPE_KILL", junk, 1);
    EXPECT_THROW(kill_from_env(rank, step), ConfigError) << junk;
  }
}

TEST(Recovery, KillEnvKnobArmsChaosRuns) {
  EnvGuard guard("WAVEPIPE_KILL");
  const CostModel cm = t3e_like().costs;
  const int p = 2;
  SwCase cs = sw_case(p);
  cs.cfg.la = 12;
  cs.cfg.lb = 12;

  // Proof the knob reaches the injector: an unrecovered run under the env
  // kill dies typed...
  ::setenv("WAVEPIPE_KILL", "1:0", 1);
  ChaosOptions opts;
  opts.random_sched = false;
  EXPECT_THROW(run_chaotic(p, cm, opts,
                           [&](Communicator& comm) {
                             SmithWaterman app(cs.cfg, cs.grid, comm.rank());
                             app.init();
                             app.fill_scheduled(comm, cs.wopts,
                                                SchedOptions{});
                           }),
               Error);

  // ...and the same env kill with recovery attached completes to the
  // oracle's bytes. (Oracle computed with the knob cleared so its run is
  // genuinely fault-free.)
  ::unsetenv("WAVEPIPE_KILL");
  const std::vector<Real> want = cs.oracle(p, cm);
  ::setenv("WAVEPIPE_KILL", "1:0", 1);
  std::vector<Real> got(cs.out_elems(), -2.0);
  RecoveryCoordinator rc(cs.factory(&got));
  ChaosOptions ropts;
  ropts.random_sched = false;
  ropts.configure = [&](Machine& m) { rc.attach(m); };
  run_chaotic(p, cm, ropts,
              [&](Communicator& comm) { run_recoverable(comm, rc, {}); });
  expect_same_bytes(got, want);
}

}  // namespace
}  // namespace wavepipe
