// The event tracer and virtual-time phase accounting: the breakdown must
// partition each rank's clock exactly, event streams must be deterministic
// (virtual time does not depend on host scheduling), and the Chrome
// exporter must emit loadable trace-event JSON.
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "apps/tomcatv.hh"
#include "array/io.hh"
#include "comm/machine.hh"
#include "comm/trace.hh"
#include "exec/driver.hh"

namespace wavepipe {
namespace {

CostModel costs(double alpha, double beta, double per_elem = 1.0) {
  CostModel cm;
  cm.alpha = alpha;
  cm.beta = beta;
  cm.compute_per_element = per_elem;
  return cm;
}

TraceConfig tracing(std::size_t capacity = 1 << 16) {
  TraceConfig cfg;
  cfg.enabled = true;
  cfg.capacity = capacity;
  return cfg;
}

// A 4-rank pipelined Tomcatv forward-elimination sweep under the cost
// model: the workload the acceptance criteria name.
RunResult pipelined_sweep(const CostModel& cm, TraceConfig trace,
                          Coord n = 34, int p = 4, Coord block = 4) {
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
  return Machine::run(p, cm, trace, [&](Communicator& comm) {
    TomcatvConfig cfg;
    cfg.n = n;
    Tomcatv app(cfg, grid, comm.rank());
    WaveOptions opts;
    opts.block = block;
    app.forward_elimination(comm, opts);
  });
}

TEST(Phases, PartitionVtimeOnPipelinedSweep) {
  const auto res = pipelined_sweep(costs(30, 1), {});
  ASSERT_EQ(res.phases.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const auto& b = res.phases[static_cast<std::size_t>(r)];
    EXPECT_NEAR(b.total(), res.vtime[static_cast<std::size_t>(r)],
                1e-9 * (1.0 + res.vtime_max))
        << "rank " << r;
    EXPECT_GT(b.t_comp, 0.0) << "rank " << r;
  }
  // Interior ranks both wait for the wave to arrive and pay send costs.
  EXPECT_GT(res.phases[1].t_wait, 0.0);
  EXPECT_GT(res.phases[1].t_comm, 0.0);
  // The totals line is the sum over ranks.
  double comp = 0.0;
  for (const auto& b : res.phases) comp += b.t_comp;
  EXPECT_DOUBLE_EQ(res.phases_total.t_comp, comp);
}

TEST(Phases, FreeModelChargesNoComm) {
  // A free cost model still charges compute (compute_per_element = 1) and
  // a receiver can still stall behind a later sender, but no message ever
  // costs anything — and the partition invariant holds regardless.
  const auto res = pipelined_sweep({}, {});
  for (std::size_t r = 0; r < res.phases.size(); ++r) {
    const auto& b = res.phases[r];
    EXPECT_DOUBLE_EQ(b.t_comm, 0.0);
    EXPECT_NEAR(b.total(), res.vtime[r], 1e-9 * (1.0 + res.vtime_max));
  }
}

TEST(Phases, WaitIsTheClockJump) {
  // Mirrors VirtualTime.RecvTakesMaxOfOwnAndArrival: rank 1 computes 5,
  // then stalls until the message sent at t=100 arrives at 100+10+1.
  Machine::run(2, costs(10, 1), [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.compute(100.0);
      comm.send_value(1, 1.0);
    } else {
      comm.compute(5.0);
      (void)comm.recv_value<double>(0);
      EXPECT_DOUBLE_EQ(comm.phases().t_comp, 5.0);
      EXPECT_DOUBLE_EQ(comm.phases().t_comm, 0.0);
      EXPECT_DOUBLE_EQ(comm.phases().t_wait, 111.0 - 5.0);
      EXPECT_DOUBLE_EQ(comm.phases().total(), comm.vtime());
    }
  });
}

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  const auto res = pipelined_sweep(costs(30, 1), {});
  EXPECT_TRUE(res.traces.empty());
}

TEST(Tracer, DeterministicAcrossRuns) {
  const auto first = pipelined_sweep(costs(30, 1), tracing());
  const auto second = pipelined_sweep(costs(30, 1), tracing());
  ASSERT_EQ(first.traces.size(), 4u);
  ASSERT_EQ(second.traces.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    const auto& a = first.traces[static_cast<std::size_t>(r)];
    const auto& b = second.traces[static_cast<std::size_t>(r)];
    EXPECT_EQ(a.dropped, 0u);
    EXPECT_FALSE(a.events.empty());
    // Bit-stable: identical typed events with identical vtime intervals.
    EXPECT_EQ(a.events, b.events) << "rank " << r;
  }
}

TEST(Tracer, EventTypesCoverTheSweep) {
  // The executor sends through the request layer, so the sweep shows
  // send-post / send-wait-or-complete events rather than blocking kSend.
  const auto res = pipelined_sweep(costs(30, 1), tracing());
  bool saw_tile = false, saw_post = false, saw_send_done = false,
       saw_wait = false, saw_compute = false;
  for (const auto& t : res.traces) {
    for (const auto& e : t.events) {
      saw_tile = saw_tile || e.type == TraceEventType::kTile;
      saw_post = saw_post || e.type == TraceEventType::kSendPost;
      saw_send_done = saw_send_done || e.type == TraceEventType::kSendWait ||
                      e.type == TraceEventType::kSendComplete;
      saw_wait = saw_wait || e.type == TraceEventType::kRecvWait;
      saw_compute = saw_compute || e.type == TraceEventType::kCompute;
      EXPECT_GE(e.t1, e.t0);
    }
  }
  EXPECT_TRUE(saw_tile);
  EXPECT_TRUE(saw_post);
  EXPECT_TRUE(saw_send_done);
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_compute);
}

TEST(Tracer, TileEventsMatchTheReportedTiling) {
  // 2 ranks, interior extent 32, block 4 => 8 tiles on each rank.
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  const auto res =
      Machine::run(2, costs(10, 1), tracing(), [&](Communicator& comm) {
        TomcatvConfig cfg;
        cfg.n = 34;
        Tomcatv app(cfg, grid, comm.rank());
        WaveOptions opts;
        opts.block = 4;
        const auto rep = app.forward_elimination(comm, opts);
        EXPECT_EQ(rep.tiles, 8);
      });
  for (const auto& t : res.traces) {
    int tiles = 0;
    for (const auto& e : t.events)
      if (e.type == TraceEventType::kTile) ++tiles;
    EXPECT_EQ(tiles, 8) << "rank " << t.rank;
  }
}

TEST(Tracer, CollectiveAndStatementEventsAppear) {
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(2, 0);
  const auto res =
      Machine::run(2, costs(5, 1), tracing(), [&](Communicator& comm) {
        const Region<2> global({{1, 1}}, {{8, 8}});
        const Layout<2> layout(global, grid, Idx<2>{{1, 1}});
        DistArray<Real, 2> a("a", layout, comm.rank());
        a.local().fill(1.0);
        apply_distributed(Region<2>({{2, 2}}, {{7, 7}}),
                          a.local() <<= at(a.local(), kNorth) + 1.0, layout,
                          comm);
        comm.barrier();
      });
  for (const auto& t : res.traces) {
    bool saw_stmt = false, saw_coll = false;
    for (const auto& e : t.events) {
      saw_stmt = saw_stmt || e.type == TraceEventType::kStatement;
      saw_coll = saw_coll || e.type == TraceEventType::kCollective;
    }
    EXPECT_TRUE(saw_stmt) << "rank " << t.rank;
    EXPECT_TRUE(saw_coll) << "rank " << t.rank;
  }
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  TraceConfig cfg = tracing(4);
  Tracer tr(cfg);
  for (int i = 0; i < 10; ++i)
    tr.record(TraceEventType::kCompute, i, i + 1, -1, i);
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(evs[static_cast<std::size_t>(i)].tag, 6 + i);
    EXPECT_DOUBLE_EQ(evs[static_cast<std::size_t>(i)].t0, 6.0 + i);
  }
}

TEST(Tracer, RecvStatsCountElementsAndBytes) {
  const auto res = Machine::run(2, {}, [](Communicator& comm) {
    std::vector<double> v(10, 1.0);
    if (comm.rank() == 0)
      comm.send(1, std::span<const double>(v));
    else
      comm.recv(0, std::span<double>(v));
  });
  EXPECT_EQ(res.stats[1].messages_received, 1u);
  EXPECT_EQ(res.stats[1].elements_received, 10u);
  EXPECT_EQ(res.stats[1].bytes_received, 80u);
  EXPECT_EQ(res.total.elements_received, res.total.elements_sent);
  EXPECT_EQ(res.total.bytes_received, res.total.bytes_sent);
}

TEST(ChromeExport, EmitsLoadableTraceEventJson) {
  const auto res = pipelined_sweep(costs(30, 1), tracing());
  std::ostringstream os;
  write_chrome_trace(os, res);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One named track per rank.
  for (int r = 0; r < 4; ++r) {
    EXPECT_NE(json.find("\"name\":\"rank " + std::to_string(r) + "\""),
              std::string::npos);
  }
  // Complete slices for tiles, send posts, with durations.
  EXPECT_NE(json.find("\"name\":\"tile\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"send-post\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);

  // Structurally valid: braces and brackets balance and nothing goes
  // negative (a cheap proxy for well-formed JSON; no parser dependency).
  long brace = 0, bracket = 0;
  for (char c : json) {
    if (c == '{') ++brace;
    if (c == '}') --brace;
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);

  // Identical runs export identical bytes (trace determinism end-to-end).
  std::ostringstream os2;
  write_chrome_trace(os2, pipelined_sweep(costs(30, 1), tracing()));
  EXPECT_EQ(json, os2.str());
}

TEST(ChromeExport, WritesFile) {
  const auto res = pipelined_sweep(costs(30, 1), tracing(), 18, 2, 2);
  const std::string path = ::testing::TempDir() + "wavepipe_trace.json";
  ASSERT_TRUE(write_chrome_trace_file(path, res));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
}

// ---- Chrome-export structural checks (ISSUE 4 satellite) ----
//
// A minimal strict JSON parser: validates the whole document and collects
// the scalar members of every object in the "traceEvents" array. Throws
// std::runtime_error with a byte offset on any syntax error, so a regression
// in the exporter fails loudly rather than "mostly loads in Perfetto".
using Fields = std::map<std::string, std::string>;

struct MiniJson {
  const std::string& s;
  std::size_t i = 0;
  std::vector<Fields> events;

  explicit MiniJson(const std::string& text) : s(text) {}

  [[noreturn]] void fail(const char* why) const {
    throw std::runtime_error(std::string(why) + " at byte " +
                             std::to_string(i));
  }
  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  char peek() {
    skip_ws();
    if (i >= s.size()) fail("unexpected end of input");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++i;
  }
  std::string string_lit() {
    expect('"');
    std::string out;
    while (true) {
      if (i >= s.size()) fail("unterminated string");
      const char c = s[i++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i >= s.size()) fail("dangling escape");
        out.push_back(s[i++]);
      } else {
        out.push_back(c);
      }
    }
  }
  std::string number_lit() {
    skip_ws();
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    bool digits = false;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '+' || s[i] == '-')) {
      digits = true;
      ++i;
    }
    if (!digits) fail("malformed number");
    return s.substr(start, i - start);
  }
  void literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p; ++p)
      if (i >= s.size() || s[i++] != *p) fail("malformed literal");
  }
  void object(Fields* capture, bool top) {
    expect('{');
    if (peek() == '}') {
      ++i;
      return;
    }
    while (true) {
      const std::string key = string_lit();
      expect(':');
      const char c = peek();
      if (c == '"') {
        const std::string v = string_lit();
        if (capture) (*capture)[key] = v;
      } else if (c == '{') {
        object(nullptr, false);
      } else if (c == '[') {
        array(top && key == "traceEvents");
      } else if (c == 't') {
        literal("true");
        if (capture) (*capture)[key] = "true";
      } else if (c == 'f') {
        literal("false");
        if (capture) (*capture)[key] = "false";
      } else if (c == 'n') {
        literal("null");
      } else {
        const std::string v = number_lit();
        if (capture) (*capture)[key] = v;
      }
      const char d = peek();
      ++i;
      if (d == ',') continue;
      if (d == '}') return;
      fail("expected ',' or '}'");
    }
  }
  void array(bool is_events) {
    expect('[');
    if (peek() == ']') {
      ++i;
      return;
    }
    while (true) {
      if (is_events) {
        if (peek() != '{') fail("traceEvents element is not an object");
        events.emplace_back();
        object(&events.back(), false);
      } else {
        const char c = peek();
        if (c == '{') object(nullptr, false);
        else if (c == '[') array(false);
        else if (c == '"') string_lit();
        else if (c == 't') literal("true");
        else if (c == 'f') literal("false");
        else if (c == 'n') literal("null");
        else number_lit();
      }
      const char d = peek();
      ++i;
      if (d == ',') continue;
      if (d == ']') return;
      fail("expected ',' or ']'");
    }
  }
  std::vector<Fields> parse() {
    object(nullptr, /*top=*/true);
    skip_ws();
    if (i != s.size()) fail("trailing garbage after document");
    return std::move(events);
  }
};

RunResult traced_sweep_on(EngineKind kind) {
  EngineConfig eng;
  eng.kind = kind;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  Machine m(4, costs(30, 1), tracing(), eng);
  return m.run([&](Communicator& comm) {
    TomcatvConfig cfg;
    cfg.n = 34;
    Tomcatv app(cfg, grid, comm.rank());
    WaveOptions opts;
    opts.block = 4;
    app.forward_elimination(comm, opts);
  });
}

// Container events (task, tile, statement) span their inner events and
// are recorded *after* them, so their t0 rewinds; every other event type
// must appear in non-decreasing virtual-time order within its rank.
bool is_container(const std::string& name) {
  return name == "task" || name == "tile" || name == "statement";
}

TEST(ChromeExport, ParsesAsStrictJsonWithSoundEventsOnBothEngines) {
  for (EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    SCOPED_TRACE(to_string(kind));
    const RunResult res = traced_sweep_on(kind);

    // In-memory invariants first: balanced intervals, monotone ranks.
    std::size_t intervals = 0, instants = 0;
    for (const RankTrace& rt : res.traces) {
      double last_flat = 0.0;
      for (const TraceEvent& e : rt.events) {
        EXPECT_GE(e.t0, 0.0);
        EXPECT_GE(e.t1, e.t0) << to_string(e.type) << " on rank " << rt.rank;
        (e.t1 > e.t0 ? intervals : instants) += 1;
        if (!is_container(to_string(e.type))) {
          EXPECT_GE(e.t0, last_flat)
              << to_string(e.type) << " rewound rank " << rt.rank
              << "'s clock";
          last_flat = e.t0;
        }
      }
    }
    ASSERT_GT(intervals, 0u);
    ASSERT_GT(instants, 0u);

    std::ostringstream os;
    write_chrome_trace(os, res);
    std::vector<Fields> events;
    try {
      events = MiniJson(os.str()).parse();
    } catch (const std::runtime_error& e) {
      FAIL() << "export is not valid JSON: " << e.what();
    }

    // Every event names a track and a phase; the phase set is closed.
    std::size_t x = 0, inst = 0, meta = 0;
    std::map<int, double> last_ts;  // per tid, flat events only
    for (const Fields& ev : events) {
      ASSERT_TRUE(ev.count("ph"));
      ASSERT_TRUE(ev.count("name"));
      ASSERT_TRUE(ev.count("pid"));
      const std::string ph = ev.at("ph");
      if (ph == "M") {
        ++meta;
        continue;
      }
      ASSERT_TRUE(ev.count("tid"));
      ASSERT_TRUE(ev.count("ts"));
      const int tid = std::stoi(ev.at("tid"));
      const double ts = std::stod(ev.at("ts"));
      EXPECT_GE(tid, 0);
      EXPECT_LT(tid, 4);
      EXPECT_GE(ts, 0.0);
      if (ph == "X") {
        ++x;
        ASSERT_TRUE(ev.count("dur")) << "complete slice without duration";
        EXPECT_GT(std::stod(ev.at("dur")), 0.0);
      } else if (ph == "i") {
        ++inst;
        EXPECT_FALSE(ev.count("dur"));
      } else {
        FAIL() << "unexpected phase '" << ph << "'";
      }
      if (!is_container(ev.at("name"))) {
        EXPECT_GE(ts, last_ts[tid]) << ev.at("name") << " on tid " << tid;
        last_ts[tid] = ts;
      }
    }
    // The export mirrors the in-memory trace one-to-one: every interval
    // becomes exactly one X slice, every zero-width event one instant, plus
    // one process_name record and a thread_name per rank.
    EXPECT_EQ(x, intervals);
    EXPECT_EQ(inst, instants);
    EXPECT_EQ(meta, 1u + res.traces.size());
  }
}

TEST(ChromeExport, ChaoticRunExportsByteIdenticalJson) {
  // The exporter is downstream of the trace ring, so byte-stable JSON under
  // a random schedule is the end-to-end form of trace determinism.
  const RunResult base = traced_sweep_on(EngineKind::kFibers);
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;
  eng.sched.kind = SchedKind::kRandom;
  eng.sched.seed = 31337;
  const ProcGrid<2> grid = ProcGrid<2>::along_dim(4, 0);
  Machine m(4, costs(30, 1), tracing(), eng);
  const RunResult chaotic = m.run([&](Communicator& comm) {
    TomcatvConfig cfg;
    cfg.n = 34;
    Tomcatv app(cfg, grid, comm.rank());
    WaveOptions opts;
    opts.block = 4;
    app.forward_elimination(comm, opts);
  });
  std::ostringstream a, b;
  write_chrome_trace(a, base);
  write_chrome_trace(b, chaotic);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TraceConfigEnv, ParsesEnablingValues) {
  // from_env reads the real environment; exercise it both ways.
  ::setenv("WAVEPIPE_TRACE", "1", 1);
  ::setenv("WAVEPIPE_TRACE_CAPACITY", "128", 1);
  const TraceConfig on = TraceConfig::from_env();
  EXPECT_TRUE(on.enabled);
  EXPECT_EQ(on.capacity, 128u);
  ::setenv("WAVEPIPE_TRACE", "0", 1);
  EXPECT_FALSE(TraceConfig::from_env().enabled);
  ::unsetenv("WAVEPIPE_TRACE");
  ::unsetenv("WAVEPIPE_TRACE_CAPACITY");
  EXPECT_FALSE(TraceConfig::from_env().enabled);
  // WAVEPIPE_TRACE_FILE alone implies tracing and names the export path.
  ::setenv("WAVEPIPE_TRACE_FILE", "/tmp/wavepipe.trace.json", 1);
  const TraceConfig exp = TraceConfig::from_env();
  EXPECT_TRUE(exp.enabled);
  EXPECT_EQ(exp.file, "/tmp/wavepipe.trace.json");
  ::unsetenv("WAVEPIPE_TRACE_FILE");
  EXPECT_FALSE(TraceConfig::from_env().enabled);
}

}  // namespace
}  // namespace wavepipe
