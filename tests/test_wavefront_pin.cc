// Cross-commit pins of the wavefront executors' observable behaviour.
//
// The engine-equivalence tests compare engines against each other within
// one build, so a refactor that shifts every engine's virtual times in the
// same way passes them. These tests pin the whole RunResult of a fixed set
// of wavefront runs on the fiber oracle under a nonzero T3E-like cost
// model as 64-bit digests: per-rank virtual times and phase breakdowns,
// per-rank CommStats, every trace event, and the owned data each rank
// computed. Any change to tile order, face layout, message tags or send
// settlement moves at least one digest. A deliberate change re-pins them
// and says why in DESIGN.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/smith_waterman.hh"
#include "exec/pipelined.hh"
#include "model/machines.hh"
#include "sched/executor.hh"

namespace wavepipe {
namespace {

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mix(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

struct Pin {
  std::uint64_t clocks = 0;  // vtime, vtime_max, phases
  std::uint64_t stats = 0;   // CommStats per rank
  std::uint64_t trace = 0;   // every trace event of every rank
  std::uint64_t data = 0;    // owned values, rank by rank
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string describe(const Pin& p) {
  std::string s = "{";
  for (const std::uint64_t v : {p.clocks, p.stats, p.trace, p.data}) {
    if (s.size() > 1) s += ", ";
    s += hex(v);
  }
  return s + "}";
}

// Runs `body` on p fibers under the T3E-like cost model with tracing on.
// The body returns its rank's owned-data digest.
Pin pin_run(int p, const std::function<std::uint64_t(Communicator&)>& body) {
  TraceConfig tc;
  tc.enabled = true;
  EngineConfig ec;
  ec.kind = EngineKind::kFibers;
  Machine m(p, t3e_like().costs, tc, ec);
  std::vector<std::uint64_t> owned(static_cast<std::size_t>(p), 0);
  const RunResult r = m.run([&](Communicator& comm) {
    owned[static_cast<std::size_t>(comm.rank())] = body(comm);
  });

  Pin pin;
  Digest clocks;
  for (const double v : r.vtime) clocks.mix(v);
  clocks.mix(r.vtime_max);
  for (const auto& ph : r.phases) {
    clocks.mix(ph.t_comp);
    clocks.mix(ph.t_comm);
    clocks.mix(ph.t_wait);
  }
  pin.clocks = clocks.h;

  Digest stats;
  for (const auto& s : r.stats) {
    for (const std::uint64_t v :
         {s.messages_sent, s.elements_sent, s.bytes_sent, s.messages_received,
          s.elements_received, s.bytes_received, s.collectives, s.isends,
          s.irecvs})
      stats.mix(v);
  }
  pin.stats = stats.h;

  Digest trace;
  for (const auto& rt : r.traces) {
    trace.mix(static_cast<std::uint64_t>(rt.rank));
    trace.mix(rt.dropped);
    for (const auto& e : rt.events) {
      trace.mix(static_cast<std::uint64_t>(e.type));
      trace.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.peer)));
      trace.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.tag)));
      trace.mix(e.elements);
      trace.mix(e.t0);
      trace.mix(e.t1);
    }
  }
  pin.trace = trace.h;

  Digest data;
  for (const std::uint64_t v : owned) data.mix(v);
  pin.data = data.h;
  return pin;
}

template <Rank R>
std::uint64_t owned_digest(const DistArray<Real, R>& a) {
  Digest d;
  for_each(a.owned(), [&](const Idx<R>& i) { d.mix(a.local()(i)); });
  return d.h;
}

void expect_pin(const Pin& got, const Pin& want) {
  EXPECT_EQ(got.clocks, want.clocks) << "actual " << describe(got);
  EXPECT_EQ(got.stats, want.stats) << "actual " << describe(got);
  EXPECT_EQ(got.trace, want.trace) << "actual " << describe(got);
  EXPECT_EQ(got.data, want.data) << "actual " << describe(got);
}

SmithWatermanConfig sw_config() {
  SmithWatermanConfig cfg;
  cfg.la = 37;
  cfg.lb = 45;
  return cfg;
}

std::uint64_t sw_digest(const SmithWaterman& app,
                        const SmithWatermanConfig& cfg) {
  std::vector<Real> h(static_cast<std::size_t>((cfg.la + 1) * (cfg.lb + 1)),
                      0.0);
  app.extract_owned_h(h);
  Digest d;
  for (const Real v : h) d.mix(v);
  return d.h;
}

Pin sw_blocking(const ProcGrid<2>& grid, WaveOptions opts) {
  const auto cfg = sw_config();
  return pin_run(grid.size(), [&](Communicator& comm) {
    SmithWaterman app(cfg, grid, comm.rank());
    app.fill(comm, opts);
    return sw_digest(app, cfg);
  });
}

Pin sw_lowered(const ProcGrid<2>& grid, WaveOptions opts) {
  const auto cfg = sw_config();
  SchedOptions so;
  so.policy = SchedPolicy::kFifo;
  so.adaptive = false;
  return pin_run(grid.size(), [&](Communicator& comm) {
    SmithWaterman app(cfg, grid, comm.rank());
    app.fill_scheduled(comm, opts, so);
    return sw_digest(app, cfg);
  });
}

Real fill_value(const Idx<2>& i) {
  return 1.0 + 0.125 * static_cast<Real>((i.v[0] * 31 + i.v[1] * 17) % 23);
}

TEST(WavefrontPin, SmithWaterman1dBlocking) {
  WaveOptions opts;
  opts.block = 8;
  expect_pin(sw_blocking(ProcGrid<2>::along_dim(4, 0), opts),
             {0xa9e27c6c47efae0cull, 0x885de2015d738667ull,
              0xf9051e7d7f171a77ull, 0x196472c19321deb8ull});
}

TEST(WavefrontPin, SmithWaterman1dOverlap) {
  WaveOptions opts;
  opts.block = 8;
  opts.overlap = true;
  expect_pin(sw_blocking(ProcGrid<2>::along_dim(4, 0), opts),
             {0xf92108327e9b9776ull, 0x885de2015d738667ull,
              0xcdf38015629e3b81ull, 0x196472c19321deb8ull});
}

TEST(WavefrontPin, SouthTravel) {
  const Coord n = 14;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(3, 0);
  const Pin pin = pin_run(3, [&](Communicator& comm) {
    const Region<2> global({{1, 1}}, {{n, n}});
    const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
    const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
    DistArray<Real, 2> a("a", layout, comm.rank());
    a.local().fill_fn(fill_value);
    auto plan =
        scan(reg, a.local() <<= 0.5 * prime(a.local(), kSouth) + 1.0).compile();
    WaveOptions opts;
    opts.block = 2;
    run_wavefront(plan, layout, comm, opts);
    return owned_digest(a);
  });
  expect_pin(pin,
             {0x63ccd2257c2de963ull, 0xa35de88a44f79c03ull,
              0x9b6f14f5a86cc8eeull, 0x0cf2a4cf8807ac1full});
}

TEST(WavefrontPin, Rank1Relay) {
  // R = 1: the tile dimension is the wavefront dimension itself, so each
  // rank is one tile and its face is unrestricted.
  const Coord n = 41;
  const ProcGrid<1> grid = ProcGrid<1>::along_dim(4, 0);
  const Pin pin = pin_run(4, [&](Communicator& comm) {
    const Region<1> global({{1}}, {{n}});
    const Region<1> reg({{2}}, {{n}});
    const Layout<1> layout(global, grid, Idx<1>{{1}});
    DistArray<Real, 1> u("u", layout, comm.rank());
    u.local().fill(1.0);
    const Direction<1> back{{-1}};
    auto plan = scan(reg, u.local() <<= 0.5 * prime(u.local(), back) + 1.0)
                    .compile();
    run_wavefront(plan, layout, comm, {});
    return owned_digest(u);
  });
  expect_pin(pin,
             {0x1e0a2090b1630342ull, 0xca6f0dba80fc4303ull,
              0x8c8dfd70b6783d8full, 0xd52e3061df051d87ull});
}

TEST(WavefrontPin, Rank3Octant) {
  const Coord n = 8;
  const ProcGrid<3> grid = ProcGrid<3>::along_dim(2, 0);
  const Pin pin = pin_run(2, [&](Communicator& comm) {
    const Region<3> global({{1, 1, 1}}, {{n, n, n}});
    const Layout<3> layout(global, grid, Idx<3>{{1, 1, 1}});
    DistArray<Real, 3> phi("phi", layout, comm.rank());
    phi.local().fill(0.0);
    phi.fill_owned([](const Idx<3>& i) {
      return 0.01 * static_cast<Real>(i.v[0] + i.v[1] + i.v[2]);
    });
    const Direction<3> ux{{-1, 0, 0}}, uy{{0, -1, 0}}, uz{{0, 0, -1}};
    auto plan = scan(global, phi.local() <<= 0.4 * prime(phi.local(), ux) +
                                             0.3 * prime(phi.local(), uy) +
                                             0.2 * prime(phi.local(), uz) +
                                             1.0)
                    .compile();
    WaveOptions opts;
    opts.block = 3;
    run_wavefront(plan, layout, comm, opts);
    return owned_digest(phi);
  });
  expect_pin(pin,
             {0x31761b26b1380311ull, 0x62c154a7f2da8a63ull,
              0x66f1cb2502b642ceull, 0x9574bc74f63c1ab1ull});
}

TEST(WavefrontPin, SmithWaterman2x2Frontier) {
  WaveOptions opts;
  opts.block = 4;
  opts.block_w = 5;
  expect_pin(sw_blocking(ProcGrid<2>({2, 2}), opts),
             {0x929feaa65e6001ccull, 0x4a47c0ac2e458cd5ull,
              0xb52ecf2f8c6b3424ull, 0x81e92ac971aa3f8eull});
}

TEST(WavefrontPin, SmithWaterman1dLoweredStaticFifo) {
  WaveOptions opts;
  opts.block = 8;
  expect_pin(sw_lowered(ProcGrid<2>::along_dim(4, 0), opts),
             {0x6871591aac660040ull, 0xab64e8da2b8d462full,
              0x611413883227e14aull, 0x196472c19321deb8ull});
}

TEST(WavefrontPin, SmithWaterman2x2LoweredStaticFifo) {
  WaveOptions opts;
  opts.block = 4;
  opts.block_w = 5;
  expect_pin(sw_lowered(ProcGrid<2>({2, 2}), opts),
             {0xb5622fe458656a04ull, 0xbed12f52cc39a2c1ull,
              0xa2a63b4308302f8aull, 0x81e92ac971aa3f8eull});
}

}  // namespace
}  // namespace wavepipe
