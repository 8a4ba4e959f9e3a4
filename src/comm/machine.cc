#include "comm/machine.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "support/error.hh"
#include "support/log.hh"
#include "support/timer.hh"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wavepipe {

namespace {

// Best-effort thread pinning for the parallel engine: keeps each rank's
// SPSC producer/consumer pair on a fixed core so channel cache lines stop
// bouncing. Silently does nothing where unsupported — pinning is a
// performance hint, never a correctness requirement.
void pin_to_core(unsigned core) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

}  // namespace

Machine::Machine(int size, CostModel costs, TraceConfig trace,
                 EngineConfig engine)
    : size_(size), costs_(costs), trace_(trace), engine_(engine) {
  require(size >= 1, "machine size must be >= 1");
  require(size <= 4096, "machine size is implausibly large (> 4096 ranks)");
  if (engine_.kind == EngineKind::kFibers && !fibers_supported()) {
    // Warn once per process, not once per Machine: programs construct
    // thousands of machines (benches, parameter sweeps) and a per-run
    // warning would drown the output they came for.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      log_warn("WAVEPIPE_ENGINE=fibers requested but this platform has no "
               "context API; falling back to the parallel engine");
    engine_.kind = EngineKind::kParallel;
  }
  if (engine_.kind != EngineKind::kFibers &&
      engine_.sched.kind == SchedKind::kRandom) {
    log_warn("WAVEPIPE_SCHED=random is a fiber-engine policy; the ",
             to_string(engine_.kind),
             " engine keeps OS scheduling (results are identical either way)");
  }
  engine_.stack_bytes =
      std::max(engine_.stack_bytes, EngineConfig::kMinStackBytes);
  mailboxes_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  kill_requested_ =
      std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(size));
  dead_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    kill_requested_[static_cast<std::size_t>(r)].store(false);
    dead_[static_cast<std::size_t>(r)].store(false);
  }
}

Machine::~Machine() = default;

Mailbox& Machine::mailbox(int rank) {
  require(rank >= 0 && rank < size_, "rank out of range");
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void Machine::deliver(int dst, Message m) {
  if (interceptor_) {
    interceptor_->deliver(dst, std::move(m));
    return;
  }
  deposit_direct(dst, std::move(m));
}

void Machine::deposit_direct(int dst, Message m) {
  if (rank_dead(dst)) {
    // No recovery armed: the peer is gone for good, so the message can
    // never be received — drop it (pending_messages() stays clean and the
    // typed-poison teardown isn't delayed by ghost traffic).
    if (!death_recovery_) return;
    // Recovery armed: queue for the heir, then nudge every live rank — the
    // heir may be blocked on its *own* mailbox, which this deposit would
    // otherwise never wake, and before adoption nobody knows who the heir
    // is yet.
    mailbox(dst).deposit(std::move(m));
    for (int r = 0; r < size_; ++r)
      if (r != dst && !rank_dead(r)) mailbox(r).nudge();
    return;
  }
  mailbox(dst).deposit(std::move(m));
}

void Machine::request_kill(int rank, const std::string& why) {
  require(rank >= 0 && rank < size_, "kill rank out of range");
  kill_requested_[static_cast<std::size_t>(rank)].store(
      true, std::memory_order_release);
  mailbox(rank).kill(rank, why);
}

bool Machine::kill_requested(int rank) const {
  require(rank >= 0 && rank < size_, "rank out of range");
  return kill_requested_[static_cast<std::size_t>(rank)].load(
      std::memory_order_acquire);
}

void Machine::clear_kill(int rank) {
  require(rank >= 0 && rank < size_, "rank out of range");
  kill_requested_[static_cast<std::size_t>(rank)].store(
      false, std::memory_order_release);
  mailbox(rank).clear_kill();
}

void Machine::mark_dead(int rank, const std::string& why) {
  require(rank >= 0 && rank < size_, "rank out of range");
  (void)why;
  dead_[static_cast<std::size_t>(rank)].store(true, std::memory_order_release);
  death_epoch_.fetch_add(1, std::memory_order_acq_rel);
  // Every blocked rank must re-check the world: one of them is the heir.
  for (int r = 0; r < size_; ++r)
    if (r != rank) mailbox(r).nudge();
}

bool Machine::rank_dead(int rank) const {
  require(rank >= 0 && rank < size_, "rank out of range");
  return dead_[static_cast<std::size_t>(rank)].load(std::memory_order_acquire);
}

std::size_t Machine::pending_messages() const {
  std::size_t n = 0;
  for (const auto& mb : mailboxes_) n += mb->pending();
  return n;
}

void Machine::run_parallel(
    const std::function<void(int, FiberScheduler*)>& body) {
  // Leave parallel mode however the run ends (exception included): the
  // exit drains unreceived messages into the ordinary queues and returns
  // the mailboxes to serial mode.
  struct ParallelGuard {
    std::vector<std::unique_ptr<Mailbox>>& boxes;
    ~ParallelGuard() {
      for (auto& mb : boxes) {
        mb->set_pool_signal(nullptr);
        mb->exit_parallel();
      }
    }
  } guard{mailboxes_};
  for (auto& mb : mailboxes_) {
    mb->enter_parallel(size_);
    // Worker-pool seam: deposits/poisons into any mailbox also poke the
    // machine-wide pool signal so tasks-backend workers parked with no
    // runnable task anywhere re-scan for promotable inflows.
    mb->set_pool_signal(&pool_signal_);
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const bool pin = engine_.pin_threads;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r)
    threads.emplace_back([&body, r, cores, pin] {
      if (pin) pin_to_core(static_cast<unsigned>(r) % cores);
      body(r, nullptr);
    });
  for (auto& t : threads) t.join();
}

void Machine::run_fibers(
    const std::function<void(int, FiberScheduler*)>& body) {
  FiberScheduler sched(size_, engine_.stack_bytes, engine_.sched);
  if (interceptor_)
    sched.set_step_hook([this](std::uint64_t step, bool deadlock) {
      return interceptor_->step(step, deadlock);
    });
  // Detach the cooperative blocking policy however the run ends, so the
  // mailboxes are back in plain serial mode.
  struct BlockerGuard {
    std::vector<std::unique_ptr<Mailbox>>& boxes;
    ~BlockerGuard() {
      for (auto& mb : boxes) mb->set_blocker(nullptr);
    }
  } guard{mailboxes_};
  for (auto& mb : mailboxes_) mb->set_blocker(&sched);
  sched.run([&](int rank) { body(rank, &sched); },
            [&] {
              for (auto& mb : mailboxes_)
                mb->poison("deadlock: every rank is blocked");
            });
  // Flush anything the interceptor still holds: messages the program sent
  // but never received must end up in the mailboxes, exactly as they would
  // have without chaos (pending_messages() stays chaos-invariant).
  if (interceptor_)
    interceptor_->step(std::numeric_limits<std::uint64_t>::max(),
                       /*deadlock=*/true);
}

RunResult Machine::run(const std::function<void(Communicator&)>& fn) {
  if (interceptor_ && (engine_.kind != EngineKind::kFibers || size_ < 2))
    throw ConfigError(
        "a delivery interceptor needs the fiber engine and >= 2 ranks "
        "(parallel-engine deposits would race the injector)");
  // Fresh death board per run: a machine reused after a recovered run
  // starts with no corpses. (An *unrecovered* failure leaves the mailboxes
  // poisoned, which already makes the machine single-use.)
  for (int r = 0; r < size_; ++r) {
    kill_requested_[static_cast<std::size_t>(r)].store(false);
    dead_[static_cast<std::size_t>(r)].store(false);
    // A kill that armed but was never delivered (the victim finished before
    // reaching a kill point) must not ambush the next run.
    mailboxes_[static_cast<std::size_t>(r)]->clear_kill();
  }
  RunResult result;
  result.vtime.assign(static_cast<std::size_t>(size_), 0.0);
  result.stats.assign(static_cast<std::size_t>(size_), CommStats{});
  result.phases.assign(static_cast<std::size_t>(size_), PhaseBreakdown{});
  if (trace_.enabled)
    result.traces.assign(static_cast<std::size_t>(size_), RankTrace{});

  std::mutex error_mutex;
  std::exception_ptr first_error;

  Timer wall;
  auto body = [&](int rank, FiberScheduler* sched) {
    Communicator comm(*this, rank);
    if (sched) sched->bind_clock(rank, comm.vtime_address());
    try {
      fn(comm);
    } catch (const RankDeath& rd) {
      if (death_recovery_ && rd.rank() == rank) {
        // A recovered death: the dying rank harvested its state, marked
        // itself dead, and an heir is replaying its tasks. The rank simply
        // finishes; no poison, no error — peers keep running.
      } else {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Typed teardown: peers blocked on the dead rank wake with
        // RankDeath(rd.rank()) instead of a generic poison or a hang.
        for (auto& mb : mailboxes_)
          mb->poison("rank " + std::to_string(rank) + " observed the death",
                     rd.rank());
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      // Unblock every rank waiting on a recv so the machine tears down.
      for (auto& mb : mailboxes_)
        mb->poison("rank " + std::to_string(rank) + " failed");
    }
    result.vtime[static_cast<std::size_t>(rank)] = comm.vtime();
    result.stats[static_cast<std::size_t>(rank)] = comm.stats();
    result.phases[static_cast<std::size_t>(rank)] = comm.phases();
    if (comm.tracer().enabled()) {
      auto& trace = result.traces[static_cast<std::size_t>(rank)];
      trace.rank = rank;
      trace.dropped = comm.tracer().dropped();
      trace.events = comm.tracer().events();
    }
  };

  if (size_ == 1) {
    body(0, nullptr);  // run inline: keeps single-rank timing free of
                       // thread/fiber noise
  } else if (engine_.kind == EngineKind::kFibers) {
    run_fibers(body);
  } else {
    run_parallel(body);
  }
  result.wall_seconds = wall.seconds();

  if (first_error) std::rethrow_exception(first_error);

  result.vtime_max = 0.0;
  for (double v : result.vtime)
    result.vtime_max = std::max(result.vtime_max, v);
  for (const auto& s : result.stats) result.total += s;
  for (const auto& b : result.phases) result.phases_total += b;

  // WAVEPIPE_TRACE_FILE (or an explicit TraceConfig::file): export without
  // any code in the program. Each run overwrites, so the last run in a
  // multi-run process is what lands on disk.
  if (trace_.enabled && !trace_.file.empty())
    write_chrome_trace_file(trace_.file, result);
  return result;
}

RunResult Machine::run(int size, CostModel costs,
                       const std::function<void(Communicator&)>& fn) {
  Machine m(size, costs);
  return m.run(fn);
}

RunResult Machine::run(int size, CostModel costs, TraceConfig trace,
                       const std::function<void(Communicator&)>& fn) {
  Machine m(size, costs, trace);
  return m.run(fn);
}

RunResult Machine::run(int size, CostModel costs, EngineConfig engine,
                       const std::function<void(Communicator&)>& fn) {
  Machine m(size, costs, TraceConfig::from_env(), engine);
  return m.run(fn);
}

}  // namespace wavepipe
