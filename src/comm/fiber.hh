// Cooperative-fiber execution engine for the SPMD Machine.
//
// Real OS threads pay a kernel context switch per blocked receive, which
// dominates wall-clock time once ranks outnumber cores. This engine runs
// all ranks as stackful fibers (POSIX ucontext) on the calling thread: a
// rank runs until it blocks (recv with no matching message, a collective
// waiting on a peer), then the scheduler switches — in user space, no
// locks — to the runnable rank with the earliest virtual clock (rank id as
// tiebreak). Because virtual times, stats, phases, and trace stamps depend
// only on per-rank program order and sender-computed arrival stamps, the
// fiber engine produces results byte-identical to the parallel engine
// (asserted in tests/test_engine_equivalence.cc); scheduling order is
// additionally deterministic, run to run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/mailbox.hh"

namespace wavepipe {

/// How Machine::run executes its ranks.
enum class EngineKind {
  kFibers,    // all ranks as cooperative fibers on the calling thread
  kParallel,  // one core-pinned OS thread per rank, lock-free SPSC mailboxes
};

const char* to_string(EngineKind k);

/// How the fiber scheduler picks the next runnable rank.
enum class SchedKind {
  kEarliestVtime,  // deterministic: smallest (vtime, rank) — the default
  kRandom,         // seeded random pick among runnable ranks (chaos testing)
};

const char* to_string(SchedKind k);

/// Fiber scheduling policy. kRandom exists to *prove* schedule independence:
/// results (vtimes, stats, phases, traces, array contents) of any program
/// that avoids the probe-class operations must be byte-identical under every
/// seed, because they depend only on per-rank program order and
/// sender-computed arrival stamps. The pick sequence is a pure function of
/// the seed and the observed runnable sets, so any run replays exactly from
/// its seed.
struct SchedConfig {
  SchedKind kind = SchedKind::kEarliestVtime;
  std::uint64_t seed = 0;
  /// Optional per-rank pick weights under kRandom (empty = uniform, missing
  /// trailing ranks default to 1). The chaos harness uses small weights to
  /// model slowed-down ranks; weights perturb the schedule only, never
  /// results.
  std::vector<double> rank_weights;
};

/// True when the platform provides the context-switching API the fiber
/// engine needs (POSIX ucontext + mmap). When false, a Machine asked for
/// kFibers falls back to kParallel with a logged warning.
bool fibers_supported();

struct EngineConfig {
  /// Per-fiber stack size before clamping (WAVEPIPE_FIBER_STACK). The
  /// default fits every workload in this repository with a wide margin;
  /// rank bodies keep bulk data on the heap (DenseArray, message payloads).
  static constexpr std::size_t kDefaultStackBytes = std::size_t{1} << 20;
  /// Machine clamps smaller requests up to this floor.
  static constexpr std::size_t kMinStackBytes = std::size_t{64} << 10;

  EngineKind kind = EngineKind::kFibers;
  std::size_t stack_bytes = kDefaultStackBytes;
  SchedConfig sched;
  /// Parallel engine only: pin rank r's thread to core r mod
  /// hardware_concurrency (best-effort, Linux). Pinning keeps the SPSC
  /// producer/consumer pairs cache-resident; disable (WAVEPIPE_PIN=0) when
  /// sharing the host with other work.
  bool pin_threads = true;

  /// WAVEPIPE_ENGINE=fibers|parallel selects the engine (default
  /// fibers); WAVEPIPE_FIBER_STACK=N[k|m] sizes fiber stacks in bytes
  /// (suffixes for KiB / MiB); WAVEPIPE_SCHED=deterministic|random:<seed>
  /// selects the fiber scheduling policy (default deterministic);
  /// WAVEPIPE_PIN=0|1 toggles parallel-engine core pinning (default 1).
  /// Unparseable values throw ConfigError naming the valid set.
  static EngineConfig from_env();
};

class Communicator;

/// The cooperative scheduler: owns one fiber per rank and implements the
/// MailboxBlocker seam so unmatched receives yield to the next runnable
/// rank. One instance serves one Machine::run call.
class FiberScheduler : public MailboxBlocker {
 public:
  FiberScheduler(int ranks, std::size_t stack_bytes, SchedConfig sched = {});
  ~FiberScheduler() override;

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Chaos seam: invoked once per scheduling iteration (deadlock=false,
  /// before the pick) and again when every unfinished rank is blocked
  /// (deadlock=true). A deadlock call returning true means machine state
  /// changed (e.g. delayed messages were finally delivered), so the
  /// scheduler re-polls instead of declaring deadlock. Returns from
  /// deadlock=false calls are ignored.
  using StepHook = std::function<bool(std::uint64_t step, bool deadlock)>;
  void set_step_hook(StepHook hook);

  /// Registers rank's virtual clock (called by the rank's own fiber once
  /// its Communicator exists); the scheduler reads it to order runnable
  /// ranks earliest-vtime-first. Unbound ranks order as vtime 0.
  void bind_clock(int rank, const double* vtime);

  /// Runs body(rank) for every rank to completion on the calling thread.
  /// When every unfinished rank is blocked (a communication deadlock, which
  /// real threads would hang on), `on_deadlock` is invoked to poison
  /// the machine's mailboxes; the blocked fibers then unwind their stacks
  /// normally and run() throws EngineError naming the blocked ranks.
  /// EngineError is also thrown when a fiber overflows its stack (detected
  /// via a low-stack check at every block point plus a canary zone — see
  /// DESIGN.md §9).
  void run(const std::function<void(int)>& body,
           const std::function<void()>& on_deadlock);

  // MailboxBlocker seam (called from fiber context / by depositing ranks).
  void block(Mailbox& mb) override;
  void notify(Mailbox& mb) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace wavepipe
