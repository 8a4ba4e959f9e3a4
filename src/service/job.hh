// Job descriptors and bills for the multi-tenant sweep service.
//
// A job is one suite application at a chosen size: (app, n, p, b, iters,
// policy). Clients submit jobs; the service runs admitted jobs on disjoint
// rank windows of one shared Machine and returns a per-job bill —
// the virtual-time phase breakdown, traffic, wall seconds and the planning
// provenance (which block size was chosen and whether the plan came from
// the cache). See DESIGN.md §17.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/stats.hh"
#include "comm/trace.hh"
#include "index/index.hh"
#include "lang/access.hh"
#include "support/error.hh"

namespace wavepipe {

/// A service-layer failure: unknown app, inadmissible job (p larger than
/// the pool), full queue, waiting on an unknown job id, or a job that was
/// running when its session failed.
class ServiceError : public Error {
 public:
  explicit ServiceError(const std::string& what) : Error(what) {}
};

/// How a job's wavefronts are executed. Mirrors the paper's schedules:
/// nonpipelined (Fig 4a), pipelined with block size b (Fig 4b), and
/// pipelined with communication/computation overlap.
enum class WavePolicy {
  kNaive,     // block = 0: full-face messages, no pipelining
  kBlocking,  // pipelined, blocking sends
  kOverlap,   // pipelined, sends overlapped with the next tile's compute
};

inline const char* to_string(WavePolicy p) {
  switch (p) {
    case WavePolicy::kNaive: return "naive";
    case WavePolicy::kBlocking: return "blocking";
    case WavePolicy::kOverlap: return "overlap";
  }
  return "?";
}

/// What a client submits.
struct JobParams {
  /// Registry name: any suite app ("tomcatv", "sweep3d", "smith-waterman",
  /// ...) or "alt-sweep".
  std::string app;
  /// Problem size; 0 picks the app's suite default.
  Coord n = 0;
  /// Ranks the job needs (its window on the shared pool).
  int p = 1;
  /// Pipeline block size; 0 asks the service to pick b* from the active
  /// cost model (the paper's closed form). Ignored under kNaive.
  Coord b = 0;
  /// Outer iterations.
  int iters = 1;
  WavePolicy policy = WavePolicy::kBlocking;
};

using JobId = std::uint64_t;

/// The per-job bill attached to every completed job.
struct JobBill {
  JobId id = 0;
  std::string app;
  Coord n = 0;
  int p = 0;
  /// The block size the job actually ran with (0 under kNaive).
  Coord block = 0;
  /// True when the service chose the block via the model's b*.
  bool block_auto = false;
  WavePolicy policy = WavePolicy::kBlocking;
  /// True when the plan came from the cache (submission skipped lowering).
  bool cache_hit = false;
  /// The app's result value (checksum/score/residual) from job-rank 0.
  Real value = 0.0;
  /// Virtual makespan over the job's ranks and its phase decomposition
  /// summed over them (t_comp + t_comm + t_wait).
  double vtime_max = 0.0;
  PhaseBreakdown phases_total;
  /// Traffic summed over the job's ranks.
  CommStats comm_total;
  /// Host wall seconds of this job: from when its first rank took it to
  /// when its last rank left its view.
  double wall_seconds = 0.0;
  /// Wall seconds submit() spent planning (lowering on a miss, lookup on a
  /// hit).
  double submit_seconds = 0.0;
  /// Placement: machine ranks [base_rank, base_rank + p) and the leased
  /// user-tag window [tag_base, tag_base + tag_count).
  int base_rank = -1;
  int tag_base = -1;
  int tag_count = 0;
  /// Which service session ran the job (1-based; see
  /// SweepService::rounds()).
  int round = 0;

  /// One deterministic line for billing logs.
  std::string describe() const;
};

/// A completed job: the bill plus the per-rank (job-local) detail.
struct JobResult {
  JobBill bill;
  std::vector<double> vtime;
  std::vector<PhaseBreakdown> phases;
  std::vector<CommStats> stats;
  /// Set when the job was running when its session failed; wait()/result()
  /// rethrow as ServiceError.
  bool failed = false;
  std::string error;
};

}  // namespace wavepipe
