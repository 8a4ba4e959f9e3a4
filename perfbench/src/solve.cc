#include "solve.hh"

#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "comm/machine.hh"

namespace perfbench {

namespace {

using wavepipe::Communicator;
using wavepipe::Machine;

/// Untraced runs construct and warm up this many machines; setup_s is the
/// median.
constexpr int kSetups = 7;
/// The timed loop runs in this many equal chunks of --seconds, and every
/// end-to-end figure but setup_s is quiet_decile over them (at 32 s sw-dp
/// makes ~6 solves a chunk, sweep3d-tasks ~17).
constexpr std::size_t kChunks = 16;
/// Solves made even when --seconds has already run out.
constexpr std::size_t kMinSolves = 3;

std::unique_ptr<Machine> make_machine(int ranks) {
  wavepipe::EngineConfig engine;
  engine.kind = wavepipe::EngineKind::kParallel;
  return std::make_unique<Machine>(ranks, wavepipe::CostModel{},
                                   wavepipe::TraceConfig{}, engine);
}

/// One untraced solve; returns rank 0's value and the run's traffic.
double solve_once(Machine& m, const SolveSpec& spec,
                  wavepipe::CommStats* total = nullptr) {
  double value = std::numeric_limits<double>::quiet_NaN();
  const wavepipe::RunResult res = m.run([&](Communicator& comm) {
    const double v = spec.solve(comm);
    if (comm.rank() == 0) value = v;
  });
  if (total) *total = res.total;
  return value;
}

/// Per-solve aggregates of one traced solve.
struct TracedSolve {
  double wall = 0.0;
  double construct = 0.0, fill = 0.0, reduce = 0.0, build = 0.0, run = 0.0;
  double wait = 0.0;  // summed over ranks
  double overhead = 0.0;
  double unaccounted = 0.0;
  double tasks = 0.0, steals = 0.0, blocked = 0.0;
  std::vector<double> cells_per_s;  // one per rank that filled
};

TracedSolve aggregate(double wall, const std::vector<RankPhases>& ph) {
  TracedSolve t;
  t.wall = wall;
  double longest_body = 0.0, worst_gap = 0.0;
  for (const RankPhases& r : ph) {
    t.construct = std::max(t.construct, r.construct);
    t.fill = std::max(t.fill, r.fill);
    t.reduce = std::max(t.reduce, r.reduce);
    t.build = std::max(t.build, r.build);
    t.run = std::max(t.run, r.run);
    t.wait += r.wait;
    t.tasks += r.tasks;
    t.steals += r.steals;
    t.blocked += r.blocked_waits;
    longest_body = std::max(longest_body, r.body);
    worst_gap = std::max(worst_gap, r.body - r.spans());
    if (r.fill > 0.0) t.cells_per_s.push_back(r.owned_cells / r.fill);
  }
  t.overhead = wall - longest_body;
  t.unaccounted = worst_gap / wall;
  return t;
}

template <typename F>
std::vector<double> column(const std::vector<TracedSolve>& v, F f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const TracedSolve& t : v) out.push_back(f(t));
  return out;
}

}  // namespace

Outcome run_solve_workload(const Args& args, const SolveSpec& spec) {
  Outcome out;
  Verifier ver(out, args.corrupt_every);

  // The reference value: the plain loop's first run, untimed.
  const double want = spec.serial();

  // Set-up: a fresh machine plus its first (warm-up) solve.
  std::vector<double> setup;
  std::unique_ptr<Machine> m;
  for (int s = 0; s < (args.trace ? 1 : kSetups); ++s) {
    m.reset();
    const double t0 = now_s();
    try {
      m = make_machine(spec.ranks);
      const double v = solve_once(*m, spec);
      const double t = now_s() - t0;
      if (ver.check(v, want, spec.rtol, "warm-up solve")) setup.push_back(t);
    } catch (const std::exception& e) {
      ver.fail("warm-up solve", e.what());
      m.reset();
    }
  }
  if (!m) m = make_machine(spec.ranks);

  std::unique_ptr<SpanRecorder> rec;
  if (args.trace) rec = std::make_unique<SpanRecorder>(spec.ranks);

  std::vector<double> serial, solve, messages, bytes;
  std::vector<std::vector<double>> serial_c(kChunks), solve_c(kChunks);
  std::vector<TracedSolve> traced;
  std::size_t attempts = 0;
  int solve_id = 0;
  const double start = now_s();
  const double deadline = start + args.seconds;
  while (now_s() < deadline || attempts < kMinSolves) {
    ++attempts;
    double t0 = now_s();
    const std::size_t c = chunk_of(t0 - start, args.seconds, kChunks);
    const double vs = spec.serial();
    serial.push_back(now_s() - t0);
    serial_c[c].push_back(serial.back());
    if (!(vs == want)) {
      std::cerr << "plain loop is not deterministic: " << vs << " vs " << want
                << "\n";
      out.refs_ok = false;
    }

    try {
      wavepipe::CommStats total;
      t0 = now_s();
      const double v = solve_once(*m, spec, &total);
      const double t = now_s() - t0;
      if (ver.check(v, want, spec.rtol, "solve")) {
        solve.push_back(t);
        solve_c[c].push_back(t);
        messages.push_back(static_cast<double>(total.messages_sent));
        bytes.push_back(static_cast<double>(total.bytes_sent));
      }
    } catch (const std::exception& e) {
      ver.fail("solve", e.what());
      m = make_machine(spec.ranks);
    }

    if (!rec) continue;
    try {
      const int sid = solve_id++;
      std::vector<RankPhases> ph(static_cast<std::size_t>(spec.ranks));
      double value = std::numeric_limits<double>::quiet_NaN();
      const SpanId root = rec->open(-1, "bench.solve", kNoSpan, sid);
      m->run([&](Communicator& comm) {
        const int r = comm.rank();
        RankPhases& p = ph[static_cast<std::size_t>(r)];
        const SpanId body = rec->open(r, "rank.body", root, sid);
        TraceCtx ctx{*rec, body, sid, r, p};
        const double v = spec.traced(comm, ctx);
        p.body = rec->close(body);
        if (r == 0) value = v;
      });
      const double wall = rec->close(root);
      if (ver.check(value, want, spec.rtol, "traced solve"))
        traced.push_back(aggregate(wall, ph));
    } catch (const std::exception& e) {
      ver.fail("traced solve", e.what());
      m = make_machine(spec.ranks);
    }
  }

  const std::size_t n = solve.size();
  if (!args.trace) {
    // Reference-host seconds: the host's speed drifts by tens of percent
    // over minutes, and the interleaved plain loop drifts with it.
    std::vector<std::vector<double>> scaled_c(kChunks);
    for (std::size_t c = 0; c < kChunks; ++c) {
      if (solve_c[c].empty() || serial_c[c].empty()) continue;
      const double k = spec.reference_serial_s / median(serial_c[c]);
      for (double t : solve_c[c]) scaled_c[c].push_back(t * k);
    }
    const double p50 = quiet_decile(scaled_c, median, false);
    out.set("setup_s", median(setup), setup.size());
    out.set("solve_s_p50", p50, n);
    out.set("latency_s_p50", p50, n);
    out.set("latency_s_p90",
            quiet_decile(scaled_c, [](const auto& s) { return quantile(s, 0.9); },
                         false),
            n);
    out.set("jobs_per_s",
            quiet_decile(scaled_c,
                         [](const auto& s) {
                           return static_cast<double>(s.size()) / sum(s);
                         },
                         true),
            n);
    // Per chunk: the plain loop's median over the solves' median.
    std::vector<std::vector<double>> ratio_c(kChunks);
    for (std::size_t c = 0; c < kChunks; ++c)
      if (!solve_c[c].empty() && !serial_c[c].empty())
        ratio_c[c].push_back(median(serial_c[c]) / median(solve_c[c]));
    out.set("speedup_vs_serial",
            quiet_decile(ratio_c, [](const auto& s) { return s[0]; }, true),
            std::min(n, serial.size()));
    return out;
  }

  const std::size_t k = traced.size();
  auto med = [&](auto f) { return median(column(traced, f)); };
  out.set("apps.construct_s", med([](const TracedSolve& t) { return t.construct; }), k);
  out.set("exec.fill_s", med([](const TracedSolve& t) { return t.fill; }), k);
  std::vector<double> cps;
  for (const TracedSolve& t : traced)
    cps.insert(cps.end(), t.cells_per_s.begin(), t.cells_per_s.end());
  out.set("exec.fill_cells_per_s", median(cps), cps.size());
  out.set("exec.reduce_s", med([](const TracedSolve& t) { return t.reduce; }), k);
  out.set("comm.wait_s", med([](const TracedSolve& t) { return t.wait; }), k);
  out.set("comm.engine_overhead_s",
          med([](const TracedSolve& t) { return t.overhead; }), k);
  out.set("comm.messages", median(messages), messages.size());
  out.set("comm.bytes", median(bytes), bytes.size());
  out.set("sched.build_s", med([](const TracedSolve& t) { return t.build; }), k);
  out.set("sched.run_s", med([](const TracedSolve& t) { return t.run; }), k);
  out.set("sched.tasks_per_s",
          med([](const TracedSolve& t) { return t.run > 0 ? t.tasks / t.run : 0.0; }), k);
  out.set("sched.steal_ratio",
          med([](const TracedSolve& t) { return t.tasks > 0 ? t.steals / t.tasks : 0.0; }), k);
  out.set("sched.blocked_waits", med([](const TracedSolve& t) { return t.blocked; }), k);
  out.set("bench.serial_s_p50", median(serial), serial.size());
  out.set("bench.trace_overhead",
          n && k ? med([](const TracedSolve& t) { return t.wall; }) / median(solve) - 1.0
                 : 0.0,
          std::min(n, k));
  out.set("bench.unaccounted_share",
          med([](const TracedSolve& t) { return t.unaccounted; }), k);

  report_trace(args, *rec);
  return out;
}

}  // namespace perfbench
