// CI fuzz driver: sweeps N seeds through the comm-program fuzzer
// (generate -> cross-check against replay, random schedules, fault plans,
// and the parallel engine) plus a chaos pass over the Tomcatv wavefront.
// Exits nonzero on the first failure and prints the minimized program and
// the one-line repro command.
//
//   fuzz_smoke [--seeds N] [--start S] [--probe 0|1] [--ranks-max R]
//              [--fault-plans K] [--schedules K] [--wavefront 0|1]
//
// The PR smoke runs --seeds 200; the nightly sweep runs thousands with a
// rotating --start.
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/tomcatv.hh"
#include "array/io.hh"
#include "support/options.hh"
#include "support/rng.hh"
#include "support/timer.hh"
#include "testing/proggen.hh"

using namespace wavepipe;

namespace {

// One chaos pass over the real wavefront executor: Tomcatv at p ranks must
// be byte-identical between the deterministic schedule and a seeded random
// schedule + fault plan. Returns false (and prints) on divergence.
bool wavefront_identical(std::uint64_t seed, int p) {
  const CostModel cm{50.0, 1.0};
  auto body = [&](Communicator& comm, std::vector<Real>& out) {
    TomcatvConfig cfg;
    cfg.n = 34;
    cfg.iterations = 1;
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    Tomcatv app(cfg, grid, comm.rank());
    app.init();
    WaveOptions wopts;
    wopts.block = 3;
    wopts.overlap = (seed % 2) == 0;
    const Real residual = app.iterate(comm, wopts);
    const auto part = pack_region(app.x(), app.layout().owned(comm.rank()));
    auto all = comm.gather(std::span<const Real>(part));
    if (comm.rank() == 0) {
      out.push_back(residual);
      out.insert(out.end(), all.begin(), all.end());
    }
  };
  std::vector<Real> base, chaotic;
  ChaosOptions det;
  det.random_sched = false;
  const RunResult a =
      run_chaotic(p, cm, det, [&](Communicator& c) { body(c, base); });
  ChaosOptions opts;
  opts.random_sched = true;
  opts.sched_seed = seed;
  opts.faults = FaultPlan::from_seed(seed, p);
  const RunResult b =
      run_chaotic(p, cm, opts, [&](Communicator& c) { body(c, chaotic); });
  if (base == chaotic && a.vtime == b.vtime && a.total == b.total &&
      a.phases == b.phases)
    return true;
  std::cerr << "FAIL: Tomcatv wavefront diverged under chaos seed " << seed
            << " (p=" << p << ")\n";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt(argc, argv);
  const int seeds = opt.get_int("seeds", 200);
  const std::uint64_t start = static_cast<std::uint64_t>(
      opt.get_int("start", static_cast<int>(test_seed(1))));
  const bool probe = opt.get_bool("probe", true);
  const bool wavefront = opt.get_bool("wavefront", true);

  FuzzConfig cfg;
  cfg.gen.max_ranks = opt.get_int("ranks-max", 6);
  cfg.random_schedules = opt.get_int("schedules", 3);
  cfg.fault_plans = opt.get_int("fault-plans", 2);

  Timer t;
  int ran = 0;
  for (std::uint64_t seed = start; seed < start + std::uint64_t(seeds);
       ++seed, ++ran) {
    // Alternate program classes so one sweep covers both checking tiers.
    cfg.gen.allow_probe_class = probe && (seed % 3 == 0);
    if (const auto failure = fuzz_seed(seed, cfg)) {
      std::cerr << "FAIL: seed " << seed << ": " << failure->what
                << "\nminimized (" << failure->minimized.total_ops()
                << " ops):\n"
                << failure->minimized.describe() << "\nrepro: "
                << failure->repro << "\n";
      return 1;
    }
    if (wavefront && ran % 25 == 0) {
      if (!wavefront_identical(seed, 2 + static_cast<int>(seed % 3) * 2))
        return 1;
    }
  }
  std::cout << "fuzz_smoke: " << seeds << " seeds ok (start=" << start
            << ", probe=" << probe << ", wavefront=" << wavefront << ") in "
            << t.seconds() << "s\n";
  return 0;
}
