// Property-based tests: over a sweep of legal primed-direction sets,
// processor counts, block sizes and region shapes, the distributed
// executors must produce exactly the serial executor's results, and virtual
// time must behave monotonically where the model says it should.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "array/io.hh"
#include "sched/lower.hh"
#include "support/rng.hh"

namespace wavepipe {
namespace {

// All randomized case sizes derive from this seed; WAVEPIPE_SEED=<n>
// re-rolls the sweep and the failing seed is printed with the case.
std::uint64_t sweep_seed() { return test_seed(2026); }

// A pool of legal primed-direction sets (all wave along dim 0, leftmost
// rule) with varying depth and lateral reach.
const std::vector<std::vector<Direction<2>>>& direction_pool() {
  static const std::vector<std::vector<Direction<2>>> pool = {
      {Direction<2>{{-1, 0}}},
      {Direction<2>{{1, 0}}},
      {Direction<2>{{-2, 0}}},
      {Direction<2>{{-1, 0}}, Direction<2>{{-1, -1}}},
      {Direction<2>{{-1, 0}}, Direction<2>{{-1, 1}}},
      {Direction<2>{{-1, -1}}, Direction<2>{{-1, 1}}, Direction<2>{{-2, 0}}},
      {Direction<2>{{-1, 0}}, Direction<2>{{0, -1}}},
      {Direction<2>{{1, 1}}, Direction<2>{{1, 0}}},
      // Deeper and asymmetric reaches.
      {Direction<2>{{-2, -1}}},
      {Direction<2>{{1, -1}}, Direction<2>{{2, 0}}},
      {Direction<2>{{-1, -2}}, Direction<2>{{-1, 0}}},
      {Direction<2>{{1, 0}}, Direction<2>{{1, 1}}, Direction<2>{{2, 1}}},
  };
  return pool;
}

// Builds the statement u <<= c0 + sum_k ck * u'@dk  (+ a small unprimed
// coupling through v), compiles, runs with the given executor config.
struct PropertyCase {
  Coord n;
  std::size_t dirs_index;
  int p;
  Coord block;
};

class ExecProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ExecProperty, DistributedEqualsSerial) {
  const auto param = GetParam();
  const auto& dirs = direction_pool()[param.dirs_index];
  const Coord n = param.n;

  // Halo must cover the deepest offset.
  Coord halo0 = 1, halo1 = 1;
  for (const auto& d : dirs) {
    halo0 = std::max(halo0, std::abs(d.v[0]));
    halo1 = std::max(halo1, std::abs(d.v[1]));
  }
  const Region<2> global({{1, 1}}, {{n, n}});
  const Region<2> reg({{1 + halo0, 1 + halo1}},
                      {{n - halo0, n - halo1}});

  auto build_statement = [&](DenseArray<Real, 2>& u, DenseArray<Real, 2>& v) {
    // Coefficients shrink with index so the recurrence stays bounded.
    // Compose the expression iteratively by nesting via a fixed arity:
    // support up to 3 primed terms explicitly.
    switch (dirs.size()) {
      case 1:
        return scan(reg, u <<= 0.3 + 0.45 * prime(u, dirs[0]) + 0.1 * v)
            .compile();
      case 2:
        return scan(reg, u <<= 0.3 + 0.3 * prime(u, dirs[0]) +
                                0.25 * prime(u, dirs[1]) + 0.1 * v)
            .compile();
      default:
        return scan(reg, u <<= 0.3 + 0.25 * prime(u, dirs[0]) +
                                0.2 * prime(u, dirs[1]) +
                                0.15 * prime(u, dirs[2]) + 0.1 * v)
            .compile();
    }
  };

  auto fill_u = [](const Idx<2>& i) {
    return 0.5 + 0.25 * std::sin(0.37 * static_cast<Real>(i.v[0])) *
                     std::cos(0.23 * static_cast<Real>(i.v[1]));
  };
  auto fill_v = [](const Idx<2>& i) {
    return 0.1 * static_cast<Real>((i.v[0] + 2 * i.v[1]) % 7);
  };

  // Serial reference.
  DenseArray<Real, 2> ru("ru", global.expanded(Idx<2>{{halo0, halo1}}));
  DenseArray<Real, 2> rv("rv", global.expanded(Idx<2>{{halo0, halo1}}));
  ru.fill_fn(fill_u);
  rv.fill_fn(fill_v);
  auto ref_plan = build_statement(ru, rv);
  run_serial(ref_plan);

  // Distributed run.
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(param.p, 0);
  Machine::run(param.p, {}, [&](Communicator& comm) {
    const Layout<2> layout(global, grid, Idx<2>{{halo0, halo1}});
    DistArray<Real, 2> u("u", layout, comm.rank());
    DistArray<Real, 2> v("v", layout, comm.rank());
    u.local().fill_fn(fill_u);
    v.local().fill_fn(fill_v);
    auto plan = build_statement(u.local(), v.local());
    WaveOptions opts;
    opts.block = param.block;
    run_wavefront(plan, layout, comm, opts);
    auto g = gather_to_root(u, comm);
    if (comm.rank() == 0) {
      Real max_diff = 0.0;
      for_each(global, [&](const Idx<2>& i) {
        max_diff = std::max(max_diff, std::abs((*g)(i)-ru(i)));
      });
      EXPECT_EQ(max_diff, 0.0)
          << "dirs#" << param.dirs_index << " p=" << param.p
          << " block=" << param.block << " n=" << n
          << " (WAVEPIPE_SEED=" << sweep_seed() << ")";
    }
  });
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  SplitMix64 rng(sweep_seed());
  for (std::size_t di = 0; di < direction_pool().size(); ++di) {
    for (int p : {2, 3, 4}) {
      for (Coord block : {0, 1, 3, 7}) {
        // Randomize n a little so block boundaries land unevenly.
        const Coord n = 12 + static_cast<Coord>(rng.uniform_int(0, 6));
        cases.push_back(PropertyCase{n, di, p, block});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ExecProperty, ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& info) {
                           const auto& c = info.param;
                           return "dirs" + std::to_string(c.dirs_index) + "_p" +
                                  std::to_string(c.p) + "_b" +
                                  std::to_string(c.block) + "_n" +
                                  std::to_string(c.n);
                         });

TEST(ExecVirtualTime, PipeliningReducesMakespanUnderT3eModel) {
  // Under a communication model with nonzero alpha/beta, the pipelined
  // schedule's virtual makespan must beat the naive schedule's for a
  // reasonable block size (the whole point of the paper).
  const Coord n = 66;  // interior 64
  const int p = 4;
  CostModel cm;
  cm.alpha = 50.0;
  cm.beta = 1.0;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);

  auto makespan = [&](Coord block) {
    return Machine::run(p, cm, [&](Communicator& comm) {
             const Region<2> global({{1, 1}}, {{n, n}});
             const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
             const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
             DistArray<Real, 2> u("u", layout, comm.rank());
             u.local().fill(1.0);
             auto plan =
                 scan(reg, u.local() <<= 0.5 * prime(u.local(), kNorth) + 1.0)
                     .compile();
             WaveOptions opts;
             opts.block = block;
             run_wavefront(plan, layout, comm, opts);
           })
        .vtime_max;
  };

  const double naive = makespan(0);
  const double pipelined8 = makespan(8);
  EXPECT_LT(pipelined8, naive);
  // Virtual times are deterministic.
  EXPECT_DOUBLE_EQ(makespan(8), pipelined8);
}

TEST(ExecVirtualTime, TinyBlocksPayMessageOverhead) {
  // With a large alpha, block size 1 must be slower than a moderate block:
  // the alpha/(n/b) tradeoff of the paper's Eq (1).
  const Coord n = 66;
  const int p = 4;
  CostModel cm;
  cm.alpha = 400.0;
  cm.beta = 0.5;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  auto makespan = [&](Coord block) {
    return Machine::run(p, cm, [&](Communicator& comm) {
             const Region<2> global({{1, 1}}, {{n, n}});
             const Region<2> reg({{2, 2}}, {{n - 1, n - 1}});
             const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
             DistArray<Real, 2> u("u", layout, comm.rank());
             u.local().fill(1.0);
             auto plan =
                 scan(reg, u.local() <<= 0.5 * prime(u.local(), kNorth) + 1.0)
                     .compile();
             WaveOptions opts;
             opts.block = block;
             run_wavefront(plan, layout, comm, opts);
           })
        .vtime_max;
  };
  EXPECT_GT(makespan(1), makespan(16));
}

}  // namespace
}  // namespace wavepipe
