// Microbenchmarks: the message-passing substrate (google-benchmark).
// Measures real host overheads of both execution engines: point-to-point
// round trips across payload sizes, collectives across machine sizes, a
// ghost exchange, and a pipelined-wave message storm. On exit the binary
// always writes BENCH_engine.json — a machine-readable fibers-vs-parallel
// comparison (wall seconds, messages/sec, speedup, host cores) independent
// of any --benchmark_filter, so CI can assert the fiber engine's win when
// ranks outnumber cores.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "array/ghost.hh"
#include "comm/machine.hh"
#include "exec/pipelined.hh"
#include "model/machines.hh"
#include "support/timer.hh"

namespace {

using namespace wavepipe;

EngineConfig engine_cfg(EngineKind kind) {
  EngineConfig cfg;
  cfg.kind = kind;
  return cfg;
}

EngineKind kind_of(const benchmark::State& state) {
  return state.range(0) == 0 ? EngineKind::kParallel : EngineKind::kFibers;
}

// ---- workloads shared by the google benchmarks and the JSON report ----

// The pipelined-wave message storm: every rank pushes `msgs` small
// messages around a ring, receiving as it goes — the per-tile traffic
// pattern of a deep software pipeline, and the case where per-message
// engine overhead (kernel park/unpark vs user-space swap) dominates once
// ranks outnumber cores.
void storm_body(Communicator& comm, int msgs) {
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() + comm.size() - 1) % comm.size();
  for (int i = 0; i < msgs; ++i) {
    comm.send_value(next, i, 3);
    (void)comm.recv_value<int>(prev, 3);
  }
}

void pingpong_body(Communicator& comm, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (comm.rank() == 0) {
      comm.send_value(1, i);
      (void)comm.recv_value<int>(1);
    } else {
      (void)comm.recv_value<int>(0);
      comm.send_value(0, i);
    }
  }
}

void allreduce_body(Communicator& comm, int rounds) {
  double acc = comm.rank();
  for (int i = 0; i < rounds; ++i)
    acc = comm.allreduce_sum(acc) / comm.size();
  benchmark::DoNotOptimize(acc);
}

// ---- engine-parameterized google benchmarks (range(0): 0=parallel,
// 1=fibers) ----

void BM_EnginePingPong(benchmark::State& state) {
  const std::size_t elems = static_cast<std::size_t>(state.range(1));
  Machine m(2, {}, TraceConfig{}, engine_cfg(kind_of(state)));
  for (auto _ : state) {
    m.run([elems](Communicator& comm) {
      std::vector<double> buf(elems, 1.0);
      if (comm.rank() == 0) {
        comm.send(1, std::span<const double>(buf));
        comm.recv(1, std::span<double>(buf));
      } else {
        comm.recv(0, std::span<double>(buf));
        comm.send(0, std::span<const double>(buf));
      }
    });
  }
  state.SetLabel(to_string(m.engine()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(elems) * 8);
}
BENCHMARK(BM_EnginePingPong)
    ->ArgNames({"engine", "elems"})
    ->ArgsProduct({{0, 1}, {1, 1024, 65536}})
    ->Iterations(100);

void BM_EngineAllreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(1));
  Machine m(p, {}, TraceConfig{}, engine_cfg(kind_of(state)));
  for (auto _ : state) {
    m.run([](Communicator& comm) { allreduce_body(comm, 1); });
  }
  state.SetLabel(to_string(m.engine()));
}
BENCHMARK(BM_EngineAllreduce)
    ->ArgNames({"engine", "p"})
    ->ArgsProduct({{0, 1}, {2, 8}})
    ->Iterations(100);

void BM_EngineStorm(benchmark::State& state) {
  const int p = static_cast<int>(state.range(1));
  const int msgs = 200;
  Machine m(p, {}, TraceConfig{}, engine_cfg(kind_of(state)));
  for (auto _ : state) {
    m.run([msgs](Communicator& comm) { storm_body(comm, msgs); });
  }
  state.SetLabel(to_string(m.engine()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * p *
                          msgs);  // messages delivered
}
BENCHMARK(BM_EngineStorm)
    ->ArgNames({"engine", "p"})
    ->ArgsProduct({{0, 1}, {2, 8}})
    ->Iterations(20);

// One-way stream on the parallel engine: rank 0 sends `kStreamMsgs`
// messages of `elems` doubles to rank 1, which receives them in order —
// the transport cost of one face message with no reply to wait for. 48
// doubles (384 B) is a SWEEP3D face at n = 24, b = 2: past
// MessagePayload::kInlineBytes, so the payload itself is a heap buffer.
// Reports wall nanoseconds per message, run start and join included
// (amortized over the stream).
void BM_EngineStream(benchmark::State& state) {
  constexpr int kStreamMsgs = 20000;
  const std::size_t elems = static_cast<std::size_t>(state.range(0));
  Machine m(2, {}, TraceConfig{}, engine_cfg(EngineKind::kParallel));
  double seconds = 0.0;
  for (auto _ : state) {
    Timer t;
    m.run([elems](Communicator& comm) {
      std::vector<double> buf(elems, 1.0);
      for (int i = 0; i < kStreamMsgs; ++i) {
        if (comm.rank() == 0) {
          buf[0] = static_cast<double>(i);
          comm.send(1, std::span<const double>(buf), 7);
        } else {
          comm.recv(0, std::span<double>(buf), 7);
          if (buf[0] != static_cast<double>(i))
            throw Error("stream message out of order");
        }
      }
    });
    seconds += t.seconds();
  }
  state.SetLabel(to_string(m.engine()));
  state.counters["ns_per_msg"] =
      1e9 * seconds /
      (static_cast<double>(state.iterations()) * kStreamMsgs);
}
BENCHMARK(BM_EngineStream)->ArgName("elems")->Arg(48)->Iterations(20);

void BM_Barrier(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  Machine m(p);
  for (auto _ : state) {
    m.run([](Communicator& comm) { comm.barrier(); });
  }
  state.SetLabel(to_string(m.engine()));
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8)->Iterations(200);

void BM_GhostExchange(benchmark::State& state) {
  const Coord n = state.range(0);
  const int p = 4;
  Machine m(p);
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  for (auto _ : state) {
    m.run([&](Communicator& comm) {
      const Layout<2> layout(Region<2>({{1, 1}}, {{n, n}}), grid,
                             Idx<2>{{1, 1}});
      DistArray<double, 2> a("a", layout, comm.rank());
      exchange_ghosts(a, comm, Idx<2>{{1, 1}});
    });
  }
  state.SetLabel(to_string(m.engine()));
}
BENCHMARK(BM_GhostExchange)->Arg(64)->Arg(256)->Iterations(100);

// Contended operation lock: every thread charges compute(1) to one armed
// communicator, as up to four tasks-backend workers do when they run one
// rank's tiles at once. items/s counts charges across all threads per
// wall second, so the Threads(1) row is the uncontended lock and the
// others show what contention costs. With no work between charges the
// lock is saturated, unlike a task body's microseconds between
// acquisitions; there a sleeping mutex that hands the lock straight back
// to the thread that released it can post more items/s than a spin lock.
void BM_ConcurrentCompute(benchmark::State& state) {
  struct Armed {
    Machine m{1, {}, TraceConfig{}, engine_cfg(EngineKind::kParallel)};
    Communicator comm{m, 0};
    Armed() { comm.enable_concurrent_ops(); }
  };
  static Armed armed;
  for (auto _ : state) armed.comm.compute(1.0);
  benchmark::DoNotOptimize(armed.comm.vtime());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ConcurrentCompute)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

// ---- the overlap (nonblocking) wavefront workload ----

// One pipelined wavefront sweep over an n x n grid distributed along dim 0,
// with or without communication overlap. Returns the critical-path virtual
// time. The blocking schedule waits out every outflow send before starting
// the next tile; the overlap schedule pre-posts inflow receives and defers
// send completion, so per-tile NIC time hides under compute.
double wave_vtime(int p, Coord n, Coord block, bool overlap,
                  const CostModel& cm) {
  Machine m(p, cm, TraceConfig{}, engine_cfg(EngineKind::kFibers));
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  const RunResult res = m.run([&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> u("u", layout, comm.rank());
    u.local().fill_fn([](const Idx<2>& i) {
      return 1.0 + 0.01 * static_cast<Real>((3 * i.v[0] + 7 * i.v[1]) % 11);
    });
    auto plan = scan(Region<2>({{2, 2}}, {{n, n}}),
                     u.local() <<= 0.25 * (prime(u.local(), Direction<2>{{-1, 0}}) +
                                           prime(u.local(), Direction<2>{{0, -1}})))
                    .compile();
    WaveOptions opts;
    opts.block = block;
    opts.overlap = overlap;
    run_wavefront(plan, layout, comm, opts);
  });
  return res.vtime_max;
}

void BM_WaveOverlap(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const CostModel cm = t3e_like().costs;
  double vt = 0.0;
  for (auto _ : state) vt = wave_vtime(8, 96, 4, overlap, cm);
  state.SetLabel(overlap ? "overlap" : "blocking");
  state.counters["vtime"] = vt;
}
BENCHMARK(BM_WaveOverlap)->ArgName("overlap")->Arg(0)->Arg(1)->Iterations(3);

// ---- the fibers-vs-parallel report ----

struct EngineSample {
  double wall_seconds = 0.0;       // best of `reps` runs
  double messages_per_sec = 0.0;   // messages delivered / best wall
  std::uint64_t messages = 0;      // per run
};

template <typename Body>
EngineSample measure(EngineKind kind, int p, int reps, const Body& body) {
  EngineSample s;
  Machine m(p, {}, TraceConfig{}, engine_cfg(kind));
  s.wall_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    Timer t;
    const RunResult res = m.run(body);
    s.wall_seconds = std::min(s.wall_seconds, t.seconds());
    s.messages = res.total.messages_sent;
  }
  if (s.wall_seconds > 0.0)
    s.messages_per_sec = static_cast<double>(s.messages) / s.wall_seconds;
  return s;
}

void write_sample(std::ostream& os, const char* name, const EngineSample& s,
                  const char* indent) {
  os << indent << "\"" << name << "\": {\"wall_seconds\": " << s.wall_seconds
     << ", \"messages\": " << s.messages
     << ", \"messages_per_sec\": " << s.messages_per_sec << "}";
}

void write_comparison(std::ostream& os, const char* name, int p,
                      const EngineSample& parallel, const EngineSample& fibers,
                      bool last) {
  const double speedup = fibers.wall_seconds > 0.0
                             ? parallel.wall_seconds / fibers.wall_seconds
                             : 0.0;
  os << "    \"" << name << "\": {\n      \"p\": " << p << ",\n";
  write_sample(os, "parallel", parallel, "      ");
  os << ",\n";
  write_sample(os, "fibers", fibers, "      ");
  os << ",\n      \"speedup_fibers_over_parallel\": " << speedup << "\n    }"
     << (last ? "\n" : ",\n");
}

// Runs the fibers-vs-parallel comparison and writes BENCH_engine.json.
// Small fixed workloads, best-of-3: stable enough for a CI gate on a
// shared box, cheap enough to run on every build. The winner depends on
// the host: with fewer cores than ranks, fibers' user-space switches beat
// the parallel engine's kernel park/unpark; with a core per rank, the
// parallel engine can pull ahead. `cores` is recorded so the gate can tell.
void write_engine_report(const std::string& path) {
  constexpr int kReps = 3;
  constexpr int kStormP = 8;
  constexpr int kStormMsgs = 1000;       // per rank: 8000 messages per run
  constexpr int kPingPongRounds = 2000;  // 4000 messages per run
  constexpr int kAllreduceP = 8;
  constexpr int kAllreduceRounds = 250;

  const auto storm = [&](EngineKind k) {
    return measure(k, kStormP, kReps, [](Communicator& comm) {
      storm_body(comm, kStormMsgs);
    });
  };
  const auto pingpong = [&](EngineKind k) {
    return measure(k, 2, kReps, [](Communicator& comm) {
      pingpong_body(comm, kPingPongRounds);
    });
  };
  const auto allreduce = [&](EngineKind k) {
    return measure(k, kAllreduceP, kReps, [](Communicator& comm) {
      allreduce_body(comm, kAllreduceRounds);
    });
  };

  const EngineSample storm_p = storm(EngineKind::kParallel);
  const EngineSample storm_f = storm(EngineKind::kFibers);
  const EngineSample pp_p = pingpong(EngineKind::kParallel);
  const EngineSample pp_f = pingpong(EngineKind::kFibers);
  const EngineSample ar_p = allreduce(EngineKind::kParallel);
  const EngineSample ar_f = allreduce(EngineKind::kFibers);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"reps\": " << kReps << ",\n  \"cores\": " << cores
     << ",\n  \"benchmarks\": {\n";
  write_comparison(os, "storm", kStormP, storm_p, storm_f, false);
  write_comparison(os, "pingpong", 2, pp_p, pp_f, false);
  write_comparison(os, "allreduce", kAllreduceP, ar_p, ar_f, true);
  os << "  }\n}\n";
  std::cout << "wrote " << path << " (storm p=" << kStormP << " on " << cores
            << " cores, speedup fibers/parallel: "
            << storm_p.wall_seconds / storm_f.wall_seconds << "x)\n";
}

// Runs the blocking-vs-overlap wavefront comparison under the paper's
// T3E-like calibration and writes BENCH_comm_async.json: critical-path
// virtual time of a pipelined sweep with and without communication overlap
// at each block size. Virtual times are deterministic, so this report is
// exactly reproducible (and wall-clock-independent, unlike BENCH_engine).
void write_overlap_report(const std::string& path) {
  const CostModel cm = t3e_like().costs;
  constexpr int kP = 8;
  constexpr Coord kN = 96;
  const Coord blocks[] = {1, 2, 4, 8};

  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"workload\": \"wavefront\", \"p\": " << kP << ", \"n\": " << kN
     << ", \"alpha\": " << cm.alpha << ", \"beta\": " << cm.beta
     << ",\n  \"blocks\": [\n";
  double best_gain = 0.0;
  for (std::size_t i = 0; i < std::size(blocks); ++i) {
    const Coord b = blocks[i];
    const double vt_blocking = wave_vtime(kP, kN, b, false, cm);
    const double vt_overlap = wave_vtime(kP, kN, b, true, cm);
    const double gain = vt_blocking > 0.0 ? vt_blocking / vt_overlap : 0.0;
    best_gain = std::max(best_gain, gain);
    os << "    {\"block\": " << b << ", \"vtime_blocking\": " << vt_blocking
       << ", \"vtime_overlap\": " << vt_overlap
       << ", \"speedup_overlap\": " << gain << "}"
       << (i + 1 < std::size(blocks) ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "wrote " << path
            << " (best overlap speedup: " << best_gain << "x)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_engine_report("BENCH_engine.json");
  write_overlap_report("BENCH_comm_async.json");
  return 0;
}
