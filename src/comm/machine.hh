// The Machine: a fixed-size set of ranks executing an SPMD function,
// exchanging messages through per-rank mailboxes under a shared CostModel.
// Two execution engines run the ranks (EngineConfig / WAVEPIPE_ENGINE):
// cooperative fibers on the calling thread (the default and the
// deterministic oracle — no locks, no kernel scheduling, earliest-vtime-
// first switching, typed deadlock errors), or the parallel engine — one
// core-pinned OS thread per rank over lock-free SPSC mailboxes, the
// configuration that turns pipelined-vs-naive into a *wall-clock* result
// on multicore hosts. Both produce identical results (vtimes, stats,
// phases, traces) for non-probe programs; see DESIGN.md §9 and §13.
//
// With CostModel{} (all costs zero) this is a plain in-process
// message-passing runtime whose wall-clock behaviour is whatever the host
// provides. With T3E-like alpha/beta it is the paper's machine model: every
// experiment that the authors ran on 1..16 T3E processors runs here with
// deterministic virtual times. This substitution is documented in
// DESIGN.md §2.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "comm/communicator.hh"
#include "comm/cost_model.hh"
#include "comm/fiber.hh"
#include "comm/mailbox.hh"
#include "comm/trace.hh"

namespace wavepipe {

/// Result of one SPMD run.
struct RunResult {
  /// Completion virtual time per rank.
  std::vector<double> vtime;
  /// Max over ranks: the machine's virtual makespan (the quantity the
  /// paper's T_comp + T_comm formulas model).
  double vtime_max = 0.0;
  /// Host wall-clock seconds for the whole run. Under the parallel engine
  /// with a free CostModel this is the real-hardware measurement the paper
  /// cares about; under the virtual-time engines it mostly measures
  /// simulation overhead (see DESIGN.md §13 on vtime vs wall-clock).
  double wall_seconds = 0.0;
  /// Per-rank traffic counters and their sum.
  std::vector<CommStats> stats;
  CommStats total;
  /// Per-rank virtual-time decomposition (t_comp + t_comm + t_wait ==
  /// vtime[r]) and its sum over ranks. Always populated.
  std::vector<PhaseBreakdown> phases;
  PhaseBreakdown phases_total;
  /// Per-rank event traces; empty unless the machine's TraceConfig was
  /// enabled. Export with write_chrome_trace().
  std::vector<RankTrace> traces;
};

/// Chaos seam: when installed on a Machine, every outgoing message is routed
/// through the interceptor instead of being deposited directly into the
/// destination mailbox, and the fiber scheduler calls step() once per
/// scheduling iteration (plus once more when every unfinished rank is
/// blocked) so held messages can be delivered later. Fiber engine only:
/// Machine::run throws ConfigError when an interceptor is installed on a
/// parallel-engine machine, because deposits from concurrent rank threads
/// would race the injector's state. See src/testing/chaos.hh for the
/// FaultInjector built on this seam.
class DeliveryInterceptor {
 public:
  virtual ~DeliveryInterceptor() = default;
  /// Called in place of Mailbox::deposit on the destination's mailbox; the
  /// interceptor delivers (now or later) via machine.mailbox(dst).deposit.
  virtual void deliver(int dst, Message m) = 0;
  /// `deadlock` is true when every unfinished rank is blocked; return true
  /// iff a message was delivered (the scheduler then re-polls instead of
  /// declaring deadlock). Also called once after the rank bodies finish so
  /// messages that were never received end up in the mailboxes, exactly as
  /// they would without an interceptor.
  virtual bool step(std::uint64_t step, bool deadlock) = 0;
};

/// An SPMD machine of `size` ranks.
class Machine {
 public:
  /// The default TraceConfig and EngineConfig come from the environment
  /// (WAVEPIPE_TRACE*, WAVEPIPE_ENGINE, WAVEPIPE_FIBER_STACK), so existing
  /// callers stay trace-free and pick up the default engine unless they opt
  /// in explicitly. An EngineConfig asking for fibers on a platform without
  /// the context API falls back to parallel with a logged warning; fiber
  /// stacks are clamped up to EngineConfig::kMinStackBytes.
  explicit Machine(int size, CostModel costs = {},
                   TraceConfig trace = TraceConfig::from_env(),
                   EngineConfig engine = EngineConfig::from_env());
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  int size() const { return size_; }
  const CostModel& costs() const { return costs_; }
  const TraceConfig& trace_config() const { return trace_; }

  /// The engine this machine actually uses (after any platform fallback).
  EngineKind engine() const { return engine_.kind; }
  const EngineConfig& engine_config() const { return engine_; }

  /// Runs `fn(comm)` once on every rank and joins. Exceptions thrown by any
  /// rank poison the mailboxes (unblocking peers) and the first one is
  /// rethrown here after all threads join. The machine is reusable: a clean
  /// run leaves every mailbox empty.
  RunResult run(const std::function<void(Communicator&)>& fn);

  /// Convenience: construct, run once, return the result.
  static RunResult run(int size, CostModel costs,
                       const std::function<void(Communicator&)>& fn);

  /// As above, with an explicit trace configuration.
  static RunResult run(int size, CostModel costs, TraceConfig trace,
                       const std::function<void(Communicator&)>& fn);

  /// As above, with an explicit engine selection.
  static RunResult run(int size, CostModel costs, EngineConfig engine,
                       const std::function<void(Communicator&)>& fn);

  Mailbox& mailbox(int rank);

  /// Routes an outgoing message to `dst`: through the delivery interceptor
  /// when one is installed, else straight into the destination mailbox.
  /// Communicator sends go through here.
  void deliver(int dst, Message m);

  /// Final (interceptor-free) routing step: deposits into the destination
  /// mailbox, honouring the death board. Messages to a dead rank are
  /// dropped when no recovery is armed (the peer is gone; keeping them
  /// would make pending_messages() report ghosts) and kept — with every
  /// live rank nudged, so a blocked heir re-scans — when it is. The chaos
  /// injector releases held messages through here.
  void deposit_direct(int dst, Message m);

  // ---- rank-death board (kill injection + recovery; DESIGN.md §16) ----

  /// Arms recovery semantics for subsequent runs: a rank's own RankDeath is
  /// swallowed by the machine frame (a recovery executor has arranged an
  /// heir and marked the death) instead of poisoning the world, and
  /// messages addressed to dead ranks stay queued for the heir. Off by
  /// default: an unrecovered kill tears the machine down with typed
  /// RankDeath poison so peers never hang.
  void enable_death_recovery(bool on) { death_recovery_ = on; }
  bool death_recovery() const { return death_recovery_; }

  /// Requests that `rank` die: arms the flag executors poll at their loop
  /// tops and the mailbox-level kill that aborts a blocked victim. Safe
  /// from any rank thread.
  void request_kill(int rank, const std::string& why);
  bool kill_requested(int rank) const;

  /// Disarms a requested kill (the dying rank, after it caught its
  /// RankDeath and harvested, so heir operations on its mailbox don't
  /// re-trigger it).
  void clear_kill(int rank);

  /// Records `rank` as dead: bumps the death epoch and nudges every
  /// mailbox so blocked ranks re-evaluate the world. Called by the dying
  /// rank itself, after harvesting, before its RankDeath unwinds into the
  /// machine frame.
  void mark_dead(int rank, const std::string& why);
  bool rank_dead(int rank) const;

  /// Monotonic count of deaths; executors snapshot it and treat any change
  /// as "re-scan for a corpse to adopt".
  std::uint64_t death_epoch() const {
    return death_epoch_.load(std::memory_order_acquire);
  }

  /// Installs (or, with nullptr, removes) the chaos delivery interceptor.
  /// The pointer is borrowed; it must outlive every run() it observes.
  void set_delivery_interceptor(DeliveryInterceptor* interceptor) {
    interceptor_ = interceptor;
  }
  DeliveryInterceptor* delivery_interceptor() const { return interceptor_; }

  /// Sum of messages still queued in all mailboxes (0 after a clean run).
  std::size_t pending_messages() const;

  // ---- worker-pool seam (the sched/ tasks backend) ----

  /// The machine-wide eventcount tasks-backend workers park on when no
  /// task is runnable anywhere. run_parallel installs it into every mailbox
  /// (set_pool_signal) before rank threads spawn, so parallel-mode deposits
  /// and poisons wake idle pool workers as well as the destination rank.
  PoolSignal& pool_signal() { return pool_signal_; }

  /// Opaque per-machine extension slot for higher layers: the tasks backend
  /// hangs its cross-rank rendezvous state (per-round task arenas) here, so
  /// comm/ stays ignorant of sched/. Access only under extension_mutex().
  /// The slot lives as long as the machine; whatever is stored must not
  /// reference per-run state beyond its own lifetime rules.
  std::shared_ptr<void>& extension() { return extension_; }
  std::mutex& extension_mutex() { return extension_mutex_; }

 private:
  void run_fibers(const std::function<void(int, FiberScheduler*)>& body);
  void run_parallel(const std::function<void(int, FiberScheduler*)>& body);

  int size_;
  CostModel costs_;
  TraceConfig trace_;
  EngineConfig engine_;
  DeliveryInterceptor* interceptor_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  // Death board: per-rank kill-requested / dead flags (atomic: the
  // parallel engine reads them from every rank thread) and the epoch
  // counter that publishes deaths to scanning executors.
  bool death_recovery_ = false;
  std::unique_ptr<std::atomic<bool>[]> kill_requested_;
  std::unique_ptr<std::atomic<bool>[]> dead_;
  std::atomic<std::uint64_t> death_epoch_{0};
  PoolSignal pool_signal_;
  std::shared_ptr<void> extension_;
  std::mutex extension_mutex_;
};

}  // namespace wavepipe
