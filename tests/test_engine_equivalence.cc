// Cross-engine equivalence: the cooperative-fiber engine and the lock-free
// parallel engine must be observationally identical — same computed data,
// same RunResult (vtime, phases, stats), and byte-identical Chrome traces.
// Virtual times, stats, and trace stamps depend only on per-rank program
// order and sender-computed arrival stamps, so this holds by construction
// for every non-probe program; these tests pin it down against regressions
// in either engine. The fiber engine is the deterministic oracle the
// parallel engine is measured against.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "apps/simple_hydro.hh"
#include "apps/tomcatv.hh"
#include "array/io.hh"
#include "model/machines.hh"
#include "sched/lower.hh"

namespace wavepipe {
namespace {

EngineConfig engine(EngineKind kind) {
  EngineConfig cfg;
  cfg.kind = kind;
  return cfg;
}

// Runs fn under one engine and returns the result plus a checksum the rank
// bodies may fill in (gathered data, residuals, ...).
struct EngineRun {
  RunResult result;
  std::vector<double> extracted;
};

template <typename Fn>
EngineRun run_engine(EngineKind kind, int p, CostModel cm, TraceConfig tc,
                     Fn&& fn) {
  EngineRun out;
  Machine m(p, cm, tc, engine(kind));
  EXPECT_EQ(m.engine(), kind);  // no silent fallback on this platform
  out.result = m.run([&](Communicator& comm) { fn(comm, out.extracted); });
  return out;
}

void expect_equivalent(const EngineRun& fi, const EngineRun& pa) {
  EXPECT_EQ(fi.result.vtime, pa.result.vtime);
  EXPECT_EQ(fi.result.vtime_max, pa.result.vtime_max);
  EXPECT_EQ(fi.result.stats.size(), pa.result.stats.size());
  for (std::size_t r = 0; r < fi.result.stats.size(); ++r)
    EXPECT_EQ(fi.result.stats[r], pa.result.stats[r]) << "stats rank " << r;
  EXPECT_EQ(fi.result.total, pa.result.total);
  for (std::size_t r = 0; r < fi.result.phases.size(); ++r)
    EXPECT_EQ(fi.result.phases[r], pa.result.phases[r]) << "phases rank " << r;
  EXPECT_EQ(fi.result.phases_total, pa.result.phases_total);
  EXPECT_EQ(fi.extracted, pa.extracted);

  ASSERT_EQ(fi.result.traces.size(), pa.result.traces.size());
  for (std::size_t r = 0; r < fi.result.traces.size(); ++r) {
    EXPECT_EQ(fi.result.traces[r].dropped, pa.result.traces[r].dropped);
    EXPECT_EQ(fi.result.traces[r].events, pa.result.traces[r].events)
        << "trace rank " << r;
  }
  std::ostringstream a, b;
  write_chrome_trace(a, fi.result);
  write_chrome_trace(b, pa.result);
  EXPECT_EQ(a.str(), b.str());  // byte-identical export
}

template <typename Fn>
void compare_engines(int p, CostModel cm, Fn&& fn) {
  TraceConfig tc;
  tc.enabled = true;
  const auto fi = run_engine(EngineKind::kFibers, p, cm, tc, fn);
  // Virtual time is a pure function of program order + sender stamps,
  // whatever the physical interleaving, so for these non-probe workloads
  // the whole RunResult — vtimes and traces included — must match the
  // fiber oracle.
  const auto pa = run_engine(EngineKind::kParallel, p, cm, tc, fn);
  expect_equivalent(fi, pa);
}

TEST(EngineEquivalence, PropertyWavefrontSweep) {
  // The distributed-executor property workload: a primed wavefront
  // statement over a block layout, pipelined at several block sizes and
  // machine widths; gathered results and full RunResults must agree.
  const std::vector<std::vector<Direction<2>>> dir_sets = {
      {Direction<2>{{-1, 0}}},
      {Direction<2>{{-1, 0}}, Direction<2>{{-1, -1}}},
      {Direction<2>{{1, 1}}, Direction<2>{{1, 0}}},
  };
  CostModel cm;
  cm.alpha = 17.0;
  cm.beta = 0.5;
  for (std::size_t di = 0; di < dir_sets.size(); ++di) {
    const auto& dirs = dir_sets[di];
    for (int p : {2, 4}) {
      for (Coord block : {1, 3}) {
        const Coord n = 18;
        Coord halo0 = 1, halo1 = 1;
        for (const auto& d : dirs) {
          halo0 = std::max(halo0, std::abs(d.v[0]));
          halo1 = std::max(halo1, std::abs(d.v[1]));
        }
        const Region<2> global({{1, 1}}, {{n, n}});
        const Region<2> reg({{1 + halo0, 1 + halo1}}, {{n - halo0, n - halo1}});
        const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);

        auto body = [&](Communicator& comm, std::vector<double>& extracted) {
          const Layout<2> layout(global, grid, Idx<2>{{halo0, halo1}});
          DistArray<Real, 2> u("u", layout, comm.rank());
          DistArray<Real, 2> v("v", layout, comm.rank());
          u.local().fill_fn([](const Idx<2>& i) {
            return 0.5 + 0.25 * std::sin(0.37 * static_cast<Real>(i.v[0])) *
                             std::cos(0.23 * static_cast<Real>(i.v[1]));
          });
          v.local().fill_fn([](const Idx<2>& i) {
            return 0.1 * static_cast<Real>((i.v[0] + 2 * i.v[1]) % 7);
          });
          auto plan =
              dirs.size() == 1
                  ? scan(reg, u.local() <<= 0.3 + 0.45 * prime(u.local(), dirs[0]) +
                                           0.1 * v.local())
                        .compile()
                  : scan(reg, u.local() <<= 0.3 + 0.3 * prime(u.local(), dirs[0]) +
                                           0.25 * prime(u.local(), dirs[1]) +
                                           0.1 * v.local())
                        .compile();
          WaveOptions opts;
          opts.block = block;
          run_wavefront(plan, layout, comm, opts);
          auto g = gather_to_root(u, comm);
          if (comm.rank() == 0)
            for_each(global,
                     [&](const Idx<2>& i) { extracted.push_back((*g)(i)); });
        };
        SCOPED_TRACE("dirs#" + std::to_string(di) + " p=" + std::to_string(p) +
                     " b=" + std::to_string(block));
        compare_engines(p, cm, body);
      }
    }
  }
}

TEST(EngineEquivalence, TracedTomcatvWave) {
  // A full traced Tomcatv solve (both wavefronts, stencils, collectives)
  // under the paper's T3E calibration.
  const CostModel cm = t3e_like().costs;
  for (int p : {4, 8}) {
    TomcatvConfig cfg;
    cfg.n = 40;
    cfg.iterations = 2;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    auto body = [&](Communicator& comm, std::vector<double>& extracted) {
      WaveOptions opts;
      opts.block = 3;
      const Real residual = tomcatv_spmd(comm, cfg, grid, opts);
      if (comm.rank() == 0) extracted.push_back(residual);
    };
    SCOPED_TRACE("p=" + std::to_string(p));
    compare_engines(p, cm, body);
  }
}

TEST(EngineEquivalence, NonblockingWavefrontOverlapRun) {
  // The overlap-enabled double-buffered executor (irecv pre-post + deferred
  // isend completion) must stay byte-identical across engines: same data,
  // vtimes, phase breakdowns, and Chrome traces.
  CostModel cm;
  cm.alpha = 17.0;
  cm.beta = 0.5;
  const Coord n = 18;
  const Region<2> global({{1, 1}}, {{n, n}});
  const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
  for (int p : {2, 4}) {
    for (Coord block : {1, 3}) {
      const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
      auto body = [&](Communicator& comm, std::vector<double>& extracted) {
        const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
        DistArray<Real, 2> u("u", layout, comm.rank());
        DistArray<Real, 2> v("v", layout, comm.rank());
        u.local().fill_fn([](const Idx<2>& i) {
          return 0.5 + 0.25 * std::sin(0.37 * static_cast<Real>(i.v[0])) *
                           std::cos(0.23 * static_cast<Real>(i.v[1]));
        });
        v.local().fill_fn([](const Idx<2>& i) {
          return 0.1 * static_cast<Real>((i.v[0] + 2 * i.v[1]) % 7);
        });
        auto plan = scan(reg, u.local() <<= 0.3 +
                                  0.45 * prime(u.local(), Direction<2>{{-1, 0}}) +
                                  0.1 * at(v.local(), Direction<2>{{0, -1}}))
                        .compile();
        WaveOptions opts;
        opts.block = block;
        opts.overlap = true;
        run_wavefront(plan, layout, comm, opts);
        auto g = gather_to_root(u, comm);
        if (comm.rank() == 0)
          for_each(global,
                   [&](const Idx<2>& i) { extracted.push_back((*g)(i)); });
      };
      SCOPED_TRACE("p=" + std::to_string(p) + " b=" + std::to_string(block));
      compare_engines(p, cm, body);
    }
  }
}

TEST(EngineEquivalence, OverlapMatchesBlockingResultsTomcatv) {
  // The overlap schedule reorders communication only; Tomcatv's mesh and
  // residual must be bit-identical to the blocking schedule at every p,
  // and overlap must not raise the critical-path virtual time.
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    TomcatvConfig cfg;
    cfg.n = 40;
    cfg.iterations = 2;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    auto body = [&](bool overlap, Communicator& comm,
                    std::vector<double>& extracted) {
      Tomcatv app(cfg, grid, comm.rank());
      app.init();
      WaveOptions opts;
      opts.block = 3;
      opts.overlap = overlap;
      Real residual = 0.0;
      for (int it = 0; it < cfg.iterations; ++it)
        residual = app.iterate(comm, opts);
      // The whole mesh, gathered in rank order: bit-identity evidence.
      const auto part =
          pack_region(app.x(), app.layout().owned(comm.rank()));
      auto all = comm.gather(std::span<const Real>(part));
      if (comm.rank() == 0) {
        extracted.push_back(residual);
        extracted.insert(extracted.end(), all.begin(), all.end());
      }
    };
    const auto blocking =
        run_engine(EngineKind::kFibers, p, cm, TraceConfig{},
                   [&](Communicator& c, std::vector<double>& e) {
                     body(false, c, e);
                   });
    const auto overlap =
        run_engine(EngineKind::kFibers, p, cm, TraceConfig{},
                   [&](Communicator& c, std::vector<double>& e) {
                     body(true, c, e);
                   });
    SCOPED_TRACE("p=" + std::to_string(p));
    EXPECT_EQ(blocking.extracted, overlap.extracted);  // bit-identical
    EXPECT_LE(overlap.result.vtime_max, blocking.result.vtime_max);
  }
}

TEST(EngineEquivalence, OverlapMatchesBlockingResultsSimple) {
  const CostModel cm = t3e_like().costs;
  for (int p : {2, 4, 8}) {
    SimpleConfig cfg;
    cfg.n = 40;
    cfg.iterations = 2;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    auto run_one = [&](bool overlap) {
      return run_engine(
          EngineKind::kFibers, p, cm, TraceConfig{},
          [&](Communicator& comm, std::vector<double>& extracted) {
            WaveOptions opts;
            opts.block = 4;
            opts.overlap = overlap;
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
          });
    };
    const auto blocking = run_one(false);
    const auto overlap = run_one(true);
    SCOPED_TRACE("p=" + std::to_string(p));
    EXPECT_EQ(blocking.extracted, overlap.extracted);
    EXPECT_LE(overlap.result.vtime_max, blocking.result.vtime_max);
  }
}

TEST(EngineEquivalence, CollectiveAndP2PStorm) {
  // Interleaved ring traffic, reductions, gathers and barriers on a
  // non-power-of-two machine.
  CostModel cm;
  cm.alpha = 5.0;
  cm.beta = 0.25;
  auto body = [](Communicator& comm, std::vector<double>& extracted) {
    const int p = comm.size();
    const int me = comm.rank();
    const int next = (me + 1) % p;
    const int prev = (me + p - 1) % p;
    std::int64_t acc = me;
    for (int round = 0; round < 12; ++round) {
      comm.send_value(next, acc, 11);
      acc = comm.recv_value<std::int64_t>(prev, 11);
      acc += comm.allreduce_sum(std::int64_t{1});
      if (round % 3 == 2) comm.barrier();
      const double mine = static_cast<double>(me * 100 + round);
      auto all = comm.gather(std::span<const double>(&mine, 1));
      if (me == 0 && round == 11)
        extracted.insert(extracted.end(), all.begin(), all.end());
    }
    comm.compute(static_cast<double>(me + 1));
  };
  for (int p : {5, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    compare_engines(p, cm, body);
  }
}

TEST(EngineEquivalence, ExceptionPropagation) {
  // A rank failure must poison the machine and rethrow the original
  // exception under every engine.
  for (EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    Machine m(3, {}, TraceConfig{}, engine(kind));
    EXPECT_THROW(m.run([](Communicator& comm) {
                   if (comm.rank() == 2)
                     throw ConfigError("rank 2 exploded");
                   (void)comm.recv_value<int>(2);
                 }),
                 ConfigError)
        << to_string(kind);
    EXPECT_EQ(m.pending_messages(), 0u) << to_string(kind);
  }
}

TEST(EngineEquivalence, FiberMachineIsReusable) {
  Machine m(3, {}, TraceConfig{}, engine(EngineKind::kFibers));
  for (int round = 0; round < 4; ++round) {
    auto res = m.run([round](Communicator& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_value(next, comm.rank() * 100 + round);
      EXPECT_EQ(comm.recv_value<int>(prev), prev * 100 + round);
    });
    EXPECT_EQ(res.total.messages_sent, 3u);
    EXPECT_EQ(m.pending_messages(), 0u);
  }
}

TEST(EngineEquivalence, ProbeAndTryMatchUnderFibers) {
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kFibers));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 7);
      comm.barrier();
    } else {
      comm.barrier();  // after this the message is certainly queued
      EXPECT_TRUE(comm.probe(0, 7));
      EXPECT_FALSE(comm.probe(0, 8));
      EXPECT_EQ(comm.recv_value<int>(0, 7), 5);
      EXPECT_FALSE(comm.probe(0, 7));
    }
  });
}

TEST(EngineEquivalence, FiberSchedulingIsDeterministic) {
  // Two identical fiber runs must yield byte-identical traces — the
  // scheduler has no randomness and no dependence on host timing.
  TraceConfig tc;
  tc.enabled = true;
  CostModel cm;
  cm.alpha = 9.0;
  cm.beta = 1.0;
  auto body = [](Communicator& comm, std::vector<double>&) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int i = 0; i < 10; ++i) {
      comm.compute(static_cast<double>(comm.rank() + 1));
      comm.send_value(next, i);
      (void)comm.recv_value<int>(prev);
    }
  };
  const auto a = run_engine(EngineKind::kFibers, 6, cm, tc, body);
  const auto b = run_engine(EngineKind::kFibers, 6, cm, tc, body);
  expect_equivalent(a, b);
}

}  // namespace
}  // namespace wavepipe
