// service-mix: a SweepService with a 4-rank parallel pool and one client
// thread running a closed loop with 4 jobs outstanding (submit 4, then wait
// on the oldest and submit the next). Jobs come in seeded order from five
// kinds; 1 submission in 4 adds a seeded offset of 1..8 to n, which names a
// plan the cache has not kept. Every job's value is checked
// against the same job run standalone on the fiber engine.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <iostream>
#include <limits>
#include <map>
#include <memory>

#include "apps/smith_waterman.hh"
#include "apps/suite.hh"
#include "apps/sweep3d.hh"
#include "bench.hh"
#include "reference.hh"
#include "service/service.hh"
#include "spans.hh"

namespace perfbench {

namespace {

using namespace wavepipe;

struct Kind {
  const char* app;
  Coord n;
  Coord tiny_n;
  int p;
  Coord b;
  int iters;
  WavePolicy policy;
};

constexpr std::array<Kind, 5> kKinds{{
    {"smith-waterman", 1024, 128, 2, 32, 1, WavePolicy::kBlocking},
    {"tomcatv", 256, 32, 2, 16, 4, WavePolicy::kOverlap},
    {"sor", 512, 64, 2, 16, 4, WavePolicy::kBlocking},
    {"sweep3d", 24, 8, 2, 4, 1, WavePolicy::kBlocking},
    {"smith-waterman-2d", 768, 96, 4, 32, 1, WavePolicy::kBlocking},
}};
constexpr int kOffsets = 9;  // offset 0 (hot) or 1..8 (cold)
constexpr int kPool = 4;
constexpr int kOutstanding = 4;
constexpr int kSetups = 15;
/// Jobs submitted even when --seconds has already run out.
constexpr std::size_t kMinJobs = 12;
/// The closed loop runs in this many chunks (see run_service_mix).
constexpr std::size_t kChunks = 16;
/// The plain loops are re-timed after every this many chunks.
constexpr std::size_t kChunksPerTiming = 4;
/// Latencies, rounds and rates are reported in reference-host seconds: each
/// chunk's are scaled by this, the seconds the smith-waterman kind's plain
/// loop (n = 1024) takes on the reference host, over the median of
/// kCalibrationReps runs of that loop right after the chunk. The host's
/// speed drifts by tens of percent over minutes; the plain loop drifts with
/// it.
constexpr double kReferenceCalibrationS = 0.005;
constexpr int kCalibrationReps = 5;
/// Five hot plans fit with room for the most recent cold ones; a cold key
/// is rarely still cached when it comes round again, so cold submissions
/// miss, as a stream of fresh problem sizes would. (The default capacity of
/// 64 holds all 45 keys, and after warm-up nothing would ever miss.)
constexpr std::size_t kCacheCapacity = 16;
/// Empty Machine::run calls timed on the pool in the traced run.
constexpr int kEmptyRuns = 20;

struct Key {
  int kind;
  int offset;
  std::size_t index() const {
    return static_cast<std::size_t>(kind * kOffsets + offset);
  }
};

Key key_of(std::size_t index) {
  return Key{static_cast<int>(index) / kOffsets,
             static_cast<int>(index) % kOffsets};
}

JobParams params_of(const Key& k, bool tiny) {
  const Kind& kind = kKinds[static_cast<std::size_t>(k.kind)];
  JobParams jp;
  jp.app = kind.app;
  jp.n = (tiny ? kind.tiny_n : kind.n) + k.offset;
  jp.p = kind.p;
  jp.b = kind.b;
  jp.iters = kind.iters;
  jp.policy = kind.policy;
  return jp;
}

/// The seeded job stream. Kinds come in shuffled blocks of five (each kind
/// once a block) and sizes in shuffled blocks of four (one cold size, offset
/// 1..8, a block), so every seed submits the same mix in its own order and
/// a run's time does not depend on how often the seed drew the slow kinds.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed) {}

  Key next() {
    if (kinds_.empty()) {
      for (int k = 0; k < static_cast<int>(kKinds.size()); ++k) kinds_.push_back(k);
      shuffle(kinds_);
    }
    if (offsets_.empty()) {
      offsets_ = {1 + static_cast<int>(rng_.below(8)), 0, 0, 0};
      shuffle(offsets_);
    }
    const Key k{kinds_.back(), offsets_.back()};
    kinds_.pop_back();
    offsets_.pop_back();
    return k;
  }

 private:
  void shuffle(std::vector<int>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng_.below(i)]);
  }

  SplitMix rng_;
  std::vector<int> kinds_, offsets_;
};

/// The job's value from a standalone run on a fresh fiber-engine machine.
double oracle_value(const JobParams& jp) {
  static const std::vector<SuiteApp> suite = wavefront_suite();
  const SuiteApp* app = nullptr;
  for (const SuiteApp& a : suite)
    if (a.name == jp.app) app = &a;
  if (!app) throw std::runtime_error("no suite app named " + jp.app);
  EngineConfig engine;
  engine.kind = EngineKind::kFibers;
  Machine m(jp.p, CostModel{}, TraceConfig{}, engine);
  WaveOptions opts;
  opts.block = jp.b;
  opts.overlap = jp.policy == WavePolicy::kOverlap;
  double value = std::numeric_limits<double>::quiet_NaN();
  m.run([&](Communicator& comm) {
    const Real v = app->run_on(comm, jp.n, jp.iters, opts);
    if (comm.rank() == 0) value = v;
  });
  return value;
}

/// The benchmark's plain loop for a job, and the tolerance it agrees with
/// the oracle to.
double plain_loop(const JobParams& jp, double* rtol) {
  const std::string& a = jp.app;
  *rtol = kLoopRtol;
  if (a == "smith-waterman" || a == "smith-waterman-2d") {
    *rtol = 0.0;
    return sw_best_score(SmithWatermanConfig{}.seed, jp.n, jp.n);
  }
  if (a == "tomcatv") return tomcatv_residual(jp.n, jp.iters);
  if (a == "sor") return sor_residual(jp.n, jp.iters);
  *rtol = kSweep3dRtol;
  return sweep3d_total_flux(jp.n, Sweep3dConfig{}.angles, jp.iters);
}

std::unique_ptr<SweepService> make_service() {
  ServiceConfig cfg;
  cfg.ranks = kPool;
  cfg.engine.kind = EngineKind::kParallel;
  cfg.cache_capacity = kCacheCapacity;
  return std::make_unique<SweepService>(cfg);
}

struct Job {
  JobId id = 0;
  Key key;
  double submitted = 0.0;  // now_s() at submit()
  double submit_s = 0.0;   // how long submit() took
  bool miss = false;
  bool traced = false;
};

/// One completed, checked job.
struct Done {
  Key key;
  double latency = 0.0;
  double submit_s = 0.0;
  bool miss = false;
  bool traced = false;
  std::size_t chunk = 0;
  JobBill bill;
};

}  // namespace

Outcome run_service_mix(const Args& args) {
  Outcome out;
  Verifier ver(out, args.corrupt_every);

  // Oracle values for every key the mix can draw, computed once and outside
  // every timed interval.
  constexpr std::size_t kKeys = kKinds.size() * kOffsets;
  std::vector<double> oracle(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i)
    oracle[i] = oracle_value(params_of(key_of(i), args.tiny));

  // Plain-loop seconds per key, sampled once here and once after every
  // kChunksPerTiming chunks of the closed loop, so the speedup's denominator
  // sees the same host as the service does. Each run is also checked against
  // the oracle.
  std::vector<std::vector<double>> serial_reps(kKeys);
  auto time_plain_loops = [&] {
    for (std::size_t i = 0; i < kKeys; ++i) {
      const JobParams jp = params_of(key_of(i), args.tiny);
      double rtol = 0.0;
      const double t0 = now_s();
      const double v = plain_loop(jp, &rtol);
      serial_reps[i].push_back(now_s() - t0);
      const double want = oracle[i];
      if (!(rtol == 0.0 ? v == want
                        : std::abs(v - want) <= rtol * std::abs(want))) {
        std::cerr << "plain loop for " << jp.app << " n=" << jp.n << " gives "
                  << v << ", oracle " << want << "\n";
        out.refs_ok = false;
      }
    }
  };
  time_plain_loops();

  // Set-up: service construction plus its first job.
  std::vector<double> setup;
  std::unique_ptr<SweepService> svc;
  const Key warm{0, 0};
  for (int s = 0; s < (args.trace ? 1 : kSetups); ++s) {
    svc.reset();
    const double t0 = now_s();
    try {
      svc = make_service();
      const JobResult& r = svc->wait(svc->submit(params_of(warm, args.tiny)));
      const double t = now_s() - t0;
      if (ver.check(r.bill.value, oracle[warm.index()], 0.0, "warm-up job"))
        setup.push_back(t);
    } catch (const std::exception& e) {
      ver.fail("warm-up job", e.what());
      svc.reset();
    }
  }
  if (!svc) svc = make_service();

  // The closed loop, in kChunks chunks: each keeps 4 jobs outstanding for
  // its share of --seconds and drains; every kChunksPerTiming-th chunk is
  // followed by a re-timing of the plain loops. In the
  // traced run every second chunk records spans, so trace_overhead compares
  // chunks of the same run.
  std::unique_ptr<SpanRecorder> rec;
  if (args.trace) rec = std::make_unique<SpanRecorder>(kPool);
  Mix mix(args.seed);
  std::deque<Job> inflight;
  std::vector<Done> done;
  std::size_t submitted = 0;
  bool traced = false;

  auto submit = [&] {
    Job j;
    j.key = mix.next();
    j.traced = traced;
    const std::uint64_t misses = svc->cache_misses();
    const SpanId sp =
        traced ? rec->open(-1, "service.submit", kNoSpan, 0) : kNoSpan;
    j.submitted = now_s();
    j.id = svc->submit(params_of(j.key, args.tiny));
    j.submit_s = now_s() - j.submitted;
    if (sp != kNoSpan) rec->close(sp);
    j.miss = svc->cache_misses() != misses;
    inflight.push_back(j);
    ++submitted;
  };

  std::vector<double> chunk_wall, chunk_scale;
  const Coord warm_n = params_of(warm, args.tiny).n;
  for (std::size_t c = 0; c < kChunks; ++c) {
    traced = rec && c % 2 == 1;
    const double start = now_s();
    const double deadline = start + args.seconds / static_cast<double>(kChunks);
    for (int i = 0; i < kOutstanding; ++i) submit();
    double end = start;
    while (!inflight.empty()) {
      const Job j = inflight.front();
      inflight.pop_front();
      const SpanId sp = j.traced ? rec->open(-1, "service.wait", kNoSpan,
                                             static_cast<int>(j.id))
                                 : kNoSpan;
      try {
        const JobResult& r = svc->wait(j.id);
        end = now_s();
        if (sp != kNoSpan) rec->close(sp);
        if (ver.check(r.bill.value, oracle[j.key.index()], 0.0,
                      std::string("job ") + r.bill.app))
          done.push_back(Done{j.key, end - j.submitted, j.submit_s, j.miss,
                              j.traced, c, r.bill});
      } catch (const std::exception& e) {
        end = now_s();
        if (sp != kNoSpan) rec->close(sp);
        ver.fail("job", e.what());
      }
      if (now_s() < deadline || submitted < kMinJobs) submit();
    }
    chunk_wall.push_back(end - start);
    // How fast the host runs a plain loop just now, for reference-host
    // seconds (see kReferenceCalibrationS).
    std::vector<double> cal;
    for (int i = 0; i < kCalibrationReps; ++i) {
      const double t0 = now_s();
      (void)sw_best_score(SmithWatermanConfig{}.seed, warm_n, warm_n);
      cal.push_back(now_s() - t0);
    }
    chunk_scale.push_back((args.tiny ? kReferenceCalibrationS / 64.0
                                     : kReferenceCalibrationS) /
                          median(cal));
    std::fprintf(stderr, "chunk %zu: %zu jobs done, %.3f s\n", c, done.size(),
                 end - start);
    if (c % kChunksPerTiming == kChunksPerTiming - 1) time_plain_loops();
  }

  std::vector<double> serial_s(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) serial_s[i] = median(serial_reps[i]);

  // Per chunk: latencies, rounds, jobs done and their plain-loop seconds.
  // Every figure is quiet_decile over the chunks.
  const std::size_t n = done.size();
  std::vector<double> round_s;
  std::vector<std::vector<double>> chunk_latency(kChunks), chunk_round(kChunks);
  std::vector<double> chunk_serial(kChunks, 0.0);
  for (const Done& d : done) {
    const double k = chunk_scale[d.chunk];
    round_s.push_back(d.bill.wall_seconds);
    chunk_latency[d.chunk].push_back(d.latency * k);
    chunk_round[d.chunk].push_back(d.bill.wall_seconds * k);
    chunk_serial[d.chunk] += serial_s[d.key.index()];
  }
  // One value per chunk: jobs done and plain-loop seconds over chunk wall.
  std::vector<std::vector<double>> rate(kChunks), speedup(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) {
    if (chunk_latency[c].empty()) continue;
    rate[c].push_back(static_cast<double>(chunk_latency[c].size()) /
                      (chunk_wall[c] * chunk_scale[c]));
    speedup[c].push_back(chunk_serial[c] / chunk_wall[c]);
  }
  const auto p90 = [](const std::vector<double>& s) { return quantile(s, 0.9); };
  const auto only = [](const std::vector<double>& s) { return s[0]; };

  if (!args.trace) {
    out.set("setup_s", median(setup), setup.size());
    out.set("solve_s_p50", quiet_decile(chunk_round, median, false), n);
    out.set("latency_s_p50", quiet_decile(chunk_latency, median, false), n);
    out.set("latency_s_p90", quiet_decile(chunk_latency, p90, false), n);
    out.set("jobs_per_s", quiet_decile(rate, only, true), n);
    out.set("speedup_vs_serial", quiet_decile(speedup, only, true), n);
  } else {
    std::vector<double> hit_s, miss_s, queue_wait, msgs, bytes, serial, plain_lat,
        traced_lat;
    std::size_t hits = 0;
    // Rounds: wall seconds and rank-slots used, from the bills.
    std::map<int, std::pair<double, int>> rounds;
    for (const Done& d : done) {
      (d.miss ? miss_s : hit_s).push_back(d.submit_s);
      hits += d.miss ? 0 : 1;
      queue_wait.push_back(d.latency - d.bill.wall_seconds);
      msgs.push_back(static_cast<double>(d.bill.comm_total.messages_sent));
      bytes.push_back(static_cast<double>(d.bill.comm_total.bytes_sent));
      serial.push_back(serial_s[d.key.index()]);
      (d.traced ? traced_lat : plain_lat).push_back(d.latency);
      auto& r = rounds[d.bill.round];
      r.first = d.bill.wall_seconds;
      r.second += d.bill.p;
    }
    double used = 0.0, wall = 0.0;
    for (const auto& [id, r] : rounds) {
      used += r.first * r.second;
      wall += r.first;
    }

    // What every round pays to spawn, pin and join: empty runs on the
    // service's own machine, wall minus the longest (empty) rank body.
    std::vector<double> overhead;
    for (int i = 0; i < kEmptyRuns; ++i) {
      std::array<double, kPool> body{};
      const SpanId root = rec->open(-1, "comm.engine_run", kNoSpan, i);
      svc->machine().run([&](Communicator& comm) {
        const int r = comm.rank();
        body[static_cast<std::size_t>(r)] =
            rec->timed(r, "rank.body", root, i, [] {});
      });
      const double w = rec->close(root);
      overhead.push_back(w - *std::max_element(body.begin(), body.end()));
    }

    out.set("comm.engine_overhead_s", median(overhead), overhead.size());
    out.set("comm.messages", median(msgs), n);
    out.set("comm.bytes", median(bytes), n);
    out.set("service.submit_hit_s_p50", median(hit_s), hit_s.size());
    out.set("service.submit_miss_s_p50", median(miss_s), miss_s.size());
    out.set("service.cache_hit_ratio",
            n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0, n);
    out.set("service.round_s_p50", median(round_s), n);
    out.set("service.queue_wait_s_p50", median(queue_wait), n);
    out.set("service.jobs_per_round",
            rounds.empty() ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(rounds.size()),
            rounds.size());
    out.set("service.rank_occupancy", wall > 0 ? used / (kPool * wall) : 0.0,
            rounds.size());
    out.set("bench.serial_s_p50", median(serial), n);
    out.set("bench.trace_overhead",
            plain_lat.empty() || traced_lat.empty()
                ? 0.0
                : median(traced_lat) / median(plain_lat) - 1.0,
            std::min(plain_lat.size(), traced_lat.size()));

    report_trace(args, *rec);
  }

  out.meta["problem"] =
      "closed loop, 4 outstanding, pool=4, cache_capacity=16, chunks=16";
  out.meta["executor"] = "SweepService rounds";
  out.meta["seed_used"] = "job order and cold-key offsets";
  return out;
}

}  // namespace perfbench
