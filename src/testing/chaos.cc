#include "testing/chaos.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "support/error.hh"

namespace wavepipe {

FaultPlan FaultPlan::from_seed(std::uint64_t seed, int ranks) {
  SplitMix64 rng(seed ^ 0xFA017F017ULL);
  FaultPlan p;
  p.seed = seed;
  p.delay_prob = 0.2 + 0.6 * rng.next_double();
  p.max_delay_steps = 1 + rng.next() % 24;
  if (ranks > 1 && rng.bernoulli(0.5)) {
    p.rank_weights.assign(static_cast<std::size_t>(ranks), 1.0);
    p.rank_weights[static_cast<std::size_t>(
        rng.uniform_int(0, ranks - 1))] = 0.05;
    if (ranks > 2 && rng.bernoulli(0.25))
      p.rank_weights[static_cast<std::size_t>(
          rng.uniform_int(0, ranks - 1))] = 0.2;
  }
  return p;
}

FaultInjector::FaultInjector(Machine& machine, const FaultPlan& plan)
    : machine_(machine), plan_(plan), rng_(plan.seed ^ 0x10B0CAFEULL) {}

std::uint64_t FaultInjector::key_of(int dst, int src, int tag) {
  // dst/src are machine ranks (< 4096); tag may be any int (collectives use
  // an internal tag space), so it keeps its full 32 bits.
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

void FaultInjector::deliver(int dst, Message m) {
  const std::uint64_t key = key_of(dst, m.src, m.tag);
  const auto in_limbo = key_in_limbo_.find(key);
  const std::uint64_t behind =
      in_limbo == key_in_limbo_.end() ? 0 : in_limbo->second;
  // While an earlier message on this key sits in limbo, later ones MUST be
  // held too (and release no earlier), or the mailbox would see them out of
  // send order. The bernoulli draw happens regardless so the RNG stream
  // depends only on the message sequence, not on limbo state.
  const bool drawn = plan_.active() && rng_.bernoulli(plan_.delay_prob);
  const bool must_hold = behind > 0 && plan_.preserve_key_order;
  if (!drawn && !must_hold) {
    // deposit_direct honours the death board: messages to a dead rank are
    // dropped (no recovery) or kept for the heir (recovery armed).
    machine_.deposit_direct(dst, std::move(m));
    return;
  }
  std::uint64_t due = now_ + 1 + (plan_.max_delay_steps == 0
                                      ? 0
                                      : rng_.next() % plan_.max_delay_steps);
  if (plan_.preserve_key_order) {
    const auto prev = key_due_.find(key);
    if (prev != key_due_.end()) due = std::max(due, prev->second);
  } else {
    // TEST-ONLY bug: later messages on a busy key get strictly *earlier*
    // due steps, so back-to-back same-key sends deterministically swap.
    due = now_ + 1 + plan_.max_delay_steps -
          std::min(behind, plan_.max_delay_steps);
  }
  key_due_[key] = due;
  key_in_limbo_[key] = behind + 1;
  ++held_total_;
  limbo_.push_back(Held{dst, due, key, std::move(m)});
}

bool FaultInjector::step(std::uint64_t step, bool deadlock) {
  const bool final_flush =
      step == std::numeric_limits<std::uint64_t>::max() && deadlock;
  now_ = std::max(now_, step);
  bool killed = false;
  // Fire the kill fault exactly once, the first step at or past the plan's
  // kill step (but never at the end-of-run flush: the program is over and
  // arming a mailbox kill then would leak into a reused machine). Counts as
  // "delivered" so an all-blocked scheduler re-polls — the victim is about
  // to wake up dying, which can unblock everyone else — instead of
  // declaring deadlock.
  if (!kill_fired_ && plan_.kill_armed() && !final_flush &&
      now_ >= plan_.kill_step) {
    kill_fired_ = true;
    machine_.request_kill(
        plan_.kill_rank,
        "chaos kill (seed " + std::to_string(plan_.seed) + ", step " +
            std::to_string(now_) + ")");
    killed = true;
  }
  if (limbo_.empty()) return killed;
  // In the TEST-ONLY broken mode the overtake must also survive a deadlock
  // flush (otherwise it only manifests when enough scheduler steps happen
  // to elapse the dues, and shrunken repros stop reproducing): release in
  // due order, where later same-key messages got strictly earlier dues.
  if (deadlock && !plan_.preserve_key_order)
    std::stable_sort(limbo_.begin(), limbo_.end(),
                     [](const Held& a, const Held& b) { return a.due < b.due; });
  bool delivered = false;
  std::deque<Held> keep;
  // Insertion order is per-key send order; releasing in that order (dues
  // are clamped non-decreasing per key) keeps the FIFO contract. Releases
  // go through deposit_direct: a held message whose due step lands after
  // its destination died is dropped (no recovery) or queued for the heir
  // (recovery armed) — the end-of-run flush included, so a kill never
  // leaves limbo stragglers pretending to be pending traffic.
  for (auto& h : limbo_) {
    if (deadlock || h.due <= now_) {
      auto it = key_in_limbo_.find(h.key);
      if (it != key_in_limbo_.end() && --(it->second) == 0)
        key_in_limbo_.erase(it);
      machine_.deposit_direct(h.dst, std::move(h.msg));
      delivered = true;
    } else {
      keep.push_back(std::move(h));
    }
  }
  limbo_.swap(keep);
  return delivered || killed;
}

bool kill_from_env(int& rank, std::uint64_t& step) {
  const char* v = std::getenv("WAVEPIPE_KILL");
  if (!v || !*v) return false;
  char* end = nullptr;
  const long r = std::strtol(v, &end, 10);
  if (end == v || *end != ':' || r < 0 ||
      r > std::numeric_limits<int>::max())
    throw ConfigError(
        "WAVEPIPE_KILL must be \"rank:step\" (e.g. \"2:17\"), got \"" +
        std::string(v) + "\"");
  const char* sbeg = end + 1;
  const unsigned long long s = std::strtoull(sbeg, &end, 10);
  if (end == sbeg || *end != '\0')
    throw ConfigError(
        "WAVEPIPE_KILL must be \"rank:step\" (e.g. \"2:17\"), got \"" +
        std::string(v) + "\"");
  rank = static_cast<int>(r);
  step = static_cast<std::uint64_t>(s);
  return true;
}

RunResult run_chaotic(int size, CostModel costs, const ChaosOptions& opts,
                      const std::function<void(Communicator&)>& fn) {
  EngineConfig eng;
  eng.kind = EngineKind::kFibers;
  if (opts.random_sched) {
    eng.sched.kind = SchedKind::kRandom;
    eng.sched.seed = opts.sched_seed;
    eng.sched.rank_weights = opts.faults.rank_weights;
  }
  Machine m(size, costs, opts.trace, eng);
  require(m.engine() == EngineKind::kFibers,
          "run_chaotic needs the fiber engine (this platform fell back to "
          "parallel)");
  if (opts.configure) opts.configure(m);
  // The WAVEPIPE_KILL knob arms a kill on any plan that doesn't carry one
  // already, so every existing chaos test can be re-run with an injected
  // death from the outside.
  FaultPlan plan = opts.faults;
  if (!plan.kill_armed()) {
    int kr = -1;
    std::uint64_t ks = 0;
    if (kill_from_env(kr, ks) && kr < size) {
      plan.kill_rank = kr;
      plan.kill_step = ks;
    }
  }
  if ((!plan.active() && !plan.kill_armed()) || size < 2) return m.run(fn);
  FaultInjector injector(m, plan);
  m.set_delivery_interceptor(&injector);
  struct Detach {
    Machine& m;
    ~Detach() { m.set_delivery_interceptor(nullptr); }
  } detach{m};
  return m.run(fn);
}

}  // namespace wavepipe
