#include "service/plan_cache.hh"

#include "exec/block_select.hh"

namespace wavepipe {

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  // FNV-1a over the fields; the string hash is mixed in rather than
  // concatenated so "ab"/1 and "a"/b1 do not alias.
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::size_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(std::hash<std::string>{}(k.app));
  mix(static_cast<std::size_t>(k.n));
  mix(static_cast<std::size_t>(k.p));
  mix(static_cast<std::size_t>(k.b_requested));
  mix(static_cast<std::size_t>(k.iters));
  mix(static_cast<std::size_t>(k.policy));
  return h;
}

std::shared_ptr<const JobPlan> lower_job_plan(const PlanKey& key,
                                              const CostModel& costs) {
  auto plan = std::make_shared<JobPlan>();
  if (key.policy == WavePolicy::kNaive) {
    plan->block = 0;
  } else if (key.b_requested > 0) {
    plan->block = key.b_requested;
  } else {
    plan->block = select_block_static(costs, key.n, key.p);
    plan->block_auto = true;
  }
  return plan;
}

std::shared_ptr<const JobPlan> PlanCache::find(const PlanKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  return it->second.plan;
}

void PlanCache::insert(const PlanKey& key,
                       std::shared_ptr<const JobPlan> plan) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second.plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{lru_.begin(), std::move(plan)});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace wavepipe
