#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

SpanId make_id(int lane, std::size_t index) {
  return (static_cast<SpanId>(lane) << 32) | static_cast<SpanId>(index);
}

}  // namespace

SpanRecorder::SpanRecorder(int ranks)
    : lanes_(static_cast<std::size_t>(ranks) + 1) {
  for (auto& lane : lanes_) lane.reserve(1 << 12);
}

SpanId SpanRecorder::open(int rank, const char* name, SpanId parent,
                          int solve) {
  auto& lane = lanes_.at(static_cast<std::size_t>(rank + 1));
  lane.push_back(Span{name, now_s(), 0.0, parent, solve, rank});
  return make_id(rank + 1, lane.size() - 1);
}

double SpanRecorder::close(SpanId id) {
  Span& s = get(id);
  s.t1 = now_s();
  return s.t1 - s.t0;
}

Span& SpanRecorder::get(SpanId id) {
  return lanes_.at(static_cast<std::size_t>(id >> 32))
      .at(static_cast<std::size_t>(id & 0xffffffff));
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Span& s : lanes_[lane]) {
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"solve\": %d, \"rank\": %d, \"parent\": %lld}}",
                    first ? "" : ",\n", s.name, static_cast<int>(lane),
                    s.t0 * 1e6, (s.t1 - s.t0) * 1e6, s.solve, s.rank,
                    static_cast<long long>(s.parent));
      os << buf;
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

std::string SpanRecorder::self_time_table() const {
  // Children grouped by parent, then each span's self time is its duration
  // minus the union of its children's intervals (rank bodies run in
  // parallel under one solve span, so plain subtraction would go negative).
  std::map<SpanId, std::vector<std::pair<double, double>>> children;
  for (const auto& lane : lanes_)
    for (const Span& s : lane)
      if (s.parent != kNoSpan) children[s.parent].emplace_back(s.t0, s.t1);

  struct Row {
    std::size_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (std::size_t i = 0; i < lanes_[lane].size(); ++i) {
      const Span& s = lanes_[lane][i];
      double covered = 0.0;
      auto it = children.find(make_id(static_cast<int>(lane), i));
      if (it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        double lo = s.t0, hi = s.t0;
        for (auto [a, b] : iv) {
          a = std::clamp(a, s.t0, s.t1);
          b = std::clamp(b, s.t0, s.t1);
          if (a > hi) {
            covered += hi - lo;
            lo = a;
            hi = b;
          } else {
            hi = std::max(hi, b);
          }
        }
        covered += hi - lo;
      }
      Row& r = rows[s.name];
      ++r.count;
      r.total += s.t1 - s.t0;
      r.self += (s.t1 - s.t0) - covered;
    }
  }

  std::ostringstream os;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-26s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  os << buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-26s %8zu %12.6f %12.6f\n", name.c_str(),
                  r.count, r.total, r.self);
    os << buf;
  }
  return os.str();
}

void report_trace(const Args& args, const SpanRecorder& rec) {
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".trace.json";
    if (!rec.write_chrome(path)) std::cerr << "cannot write " << path << "\n";
  }
  std::cerr << rec.self_time_table();
}

}  // namespace perfbench
