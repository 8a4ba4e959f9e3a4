// In-memory span recorder for the traced run. A span is one timed call from
// the benchmark into a module's public function: name, start, end, parent
// span, solve id and rank. Each lane (lane 0 = the calling thread, lane
// r + 1 = rank r's thread) is written by one thread only, and Machine::run
// joins the rank threads before the calling thread reads them, so no lock is
// needed. Nothing is recorded in untraced runs: they never construct one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"

namespace perfbench {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  const char* name;
  double t0;  // seconds on now_s()'s clock
  double t1;
  SpanId parent;
  int solve;
  int rank;  // -1 for the calling thread
};

class SpanRecorder {
 public:
  explicit SpanRecorder(int ranks);

  SpanId open(int rank, const char* name, SpanId parent, int solve);
  /// Closes the span and returns its duration in seconds.
  double close(SpanId id);

  /// Runs fn inside a span and returns its duration in seconds.
  template <typename Fn>
  double timed(int rank, const char* name, SpanId parent, int solve, Fn&& fn) {
    const SpanId id = open(rank, name, parent, solve);
    fn();
    return close(id);
  }

  /// Chrome trace-event JSON ("X" events, host microseconds, one tid per
  /// lane). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

  /// Per span name: count, total seconds, and self seconds (duration minus
  /// the union of its children's intervals), as a fixed-width table.
  std::string self_time_table() const;

 private:
  Span& get(SpanId id);

  std::vector<std::vector<Span>> lanes_;
};

/// End of a traced run: writes the Chrome trace into args.trace_dir (when
/// set) and prints the self-time table to stderr.
void report_trace(const Args& args, const SpanRecorder& rec);

}  // namespace perfbench
