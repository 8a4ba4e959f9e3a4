// The service's plan cache: lowering a job once, reusing it forever.
//
// Lowering a job — resolving its block size (the model's b* when the
// client left b unset) — is pure: a function of (app, n, p, b, iters,
// policy) and the machine's cost model only. The cache keys plans on
// exactly that tuple, so a repeat submission skips lowering entirely and a
// cache hit cannot change what runs: the plan holds only values a cold
// lowering would recompute identically (byte-identical results are a
// tested invariant). LRU-bounded; hit/miss counters feed BENCH_service.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "comm/cost_model.hh"
#include "index/index.hh"
#include "service/job.hh"

namespace wavepipe {

/// What identifies a plan. b_requested is the client's b (0 = auto), not
/// the resolved block: a client asking for b=4 and one asking for auto
/// that resolves to 4 are distinct entries, so the auto entry re-resolves
/// if the cost model's optimum moves.
struct PlanKey {
  std::string app;
  Coord n = 0;
  int p = 0;
  Coord b_requested = 0;
  int iters = 0;
  WavePolicy policy = WavePolicy::kBlocking;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// The lowered form of a job, shared (immutable) between the cache and
/// every pending job holding it.
struct JobPlan {
  /// Resolved pipeline block (0 under kNaive).
  Coord block = 0;
  /// True when block came from the model's b*, not the client.
  bool block_auto = false;
};

/// Lowers `key` under `costs` — the cold path submit() runs on a miss.
std::shared_ptr<const JobPlan> lower_job_plan(const PlanKey& key,
                                              const CostModel& costs);

/// LRU map from PlanKey to an immutable shared JobPlan.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity) : capacity_(capacity) {
    require(capacity >= 1, "plan cache capacity must be >= 1");
  }

  /// Returns the cached plan (bumping it most-recent) or nullptr.
  std::shared_ptr<const JobPlan> find(const PlanKey& key);

  /// Inserts (or replaces) the plan for `key`, evicting the least
  /// recently used entry beyond capacity.
  void insert(const PlanKey& key, std::shared_ptr<const JobPlan> plan);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::list<PlanKey>::iterator lru;
    std::shared_ptr<const JobPlan> plan;
  };

  std::size_t capacity_;
  std::list<PlanKey> lru_;  // front = most recent
  std::unordered_map<PlanKey, Entry, PlanKeyHash> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace wavepipe
