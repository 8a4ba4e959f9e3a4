// Per-rank mailbox: the buffering layer under point-to-point communication.
//
// Sends never block (buffered semantics); receives block until a message
// matching (src, tag) is available. Matching is FIFO per (src, tag) pair,
// which is the ordering guarantee MPI gives for a (source, tag, comm)
// triple — implemented as one FIFO queue per (src, tag) key, so matching
// and probing are O(1) regardless of how many unrelated messages are
// pending. A poisoned mailbox (peer rank failed) wakes all waiters with an
// error so the whole machine tears down instead of deadlocking.
//
// Posted-receive matching: every receive — blocking recv and nonblocking
// irecv alike — is a PostedRecv slot. Posting claims the oldest queued
// message for its (src, tag) key immediately, or registers the slot so the
// matching deposit completes it directly, without the message ever sitting
// in a queue. Because blocking receives post through the same protocol,
// blocking and nonblocking traffic on one key interleave in strict posting
// order (the FIFO guarantee extends across both APIs). Per key, at most one
// of {queued messages, waiting posted receives} is nonempty.
//
// Two modes. In serial mode every operation runs unlocked on one thread:
// the fiber scheduler's (a cooperative MailboxBlocker is attached with
// set_blocker, and a blocked receive yields to it until a deposit or
// poison notifies it), a one-rank run's, or the owning thread's between
// runs. A serial-mode wait with no blocker attached could never be woken,
// so it throws EngineError instead of hanging. In parallel mode
// (enter_parallel, used by WAVEPIPE_ENGINE=parallel) there is no mutex on
// the message path at all: each sending rank owns a lock-free SPSC channel
// into this mailbox, a deposit is one channel push plus a Parker unpark,
// and the consumer side — externally serialized, so the matching maps only
// ever see one thread at a time — drains the channels whenever it looks
// for a message and parks on the eventcount when all of them are empty.
// Under SPMD execution the serialized consumer is simply the owning rank's
// thread; the tasks backend (sched/parallel_executor) lets any worker
// thread act as the consumer by holding the rank's Communicator operation
// lock, which provides both the exclusion and the happens-before hand-off
// between consecutive consumers.
// See DESIGN.md §13 and §14 for the full memory-ordering contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/message.hh"
#include "comm/spsc.hh"

namespace wavepipe {

class Mailbox;

/// The blocking policy a cooperative engine plugs into a Machine's
/// mailboxes for the duration of one run.
class MailboxBlocker {
 public:
  virtual ~MailboxBlocker() = default;

  /// Called by the owning rank when no matching message is queued; must
  /// return once a new deposit or poison may have changed that. May throw
  /// (e.g. EngineError on imminent stack overflow); the exception
  /// propagates out of the receive path on the calling rank.
  virtual void block(Mailbox& mb) = 0;

  /// Called after every deposit or poison so a blocked owner becomes
  /// runnable again. Must not switch away from the caller.
  virtual void notify(Mailbox& mb) = 0;
};

/// One posted receive: the slot a deposit completes directly. The slot must
/// stay at a stable address from post_recv until completion or cancel_recv
/// (the mailbox holds a raw pointer while the receive is pending). `msg` is
/// written before `completed` is released, so the owner may read it lock-
/// free after an acquire load observes completion.
struct PostedRecv {
  int src = -1;
  int tag = 0;
  /// "recv" or "irecv" — only for deadlock reports (posted_summary()).
  const char* what = "recv";
  std::atomic<bool> completed{false};
  Message msg;

  bool done() const { return completed.load(std::memory_order_acquire); }
};

class Mailbox {
 public:
  /// Enqueues a message (called from the sending rank). If a posted receive
  /// is waiting on the message's (src, tag) key, the oldest one is
  /// completed in place; otherwise the message queues.
  void deposit(Message m);

  /// Blocks until a message from `src` with `tag` arrives, then removes and
  /// returns it. Throws CommError if the mailbox gets poisoned while
  /// waiting, and EngineError if it would block in serial mode with no
  /// blocker attached. Internally posts a PostedRecv, so it queues FIFO
  /// behind any earlier irecv on the same key.
  Message await(int src, int tag);

  /// Registers `slot` for its (src, tag) key: claims the oldest queued
  /// message now or arranges for a future deposit to complete it. FIFO per
  /// key across all posted receives.
  void post_recv(PostedRecv& slot);

  /// Blocks until `slot` completes (poison throws CommError first). The
  /// completed message is in slot.msg.
  void await_completion(PostedRecv& slot);

  /// Blocks until `ready()` returns true, re-evaluating after every deposit
  /// or poison (poison with ready() still false throws CommError). The
  /// predicate runs on the consumer side and must be cheap and
  /// side-effect-free. This is the wait_any seam: a rank blocked here
  /// becomes runnable whenever *any* of its pending requests may have
  /// completed.
  void await_until(const std::function<bool()>& ready);

  /// Removes a not-yet-completed posted receive (error-path and destructor
  /// cleanup). Safe to call when the slot already completed or was never
  /// posted: it then does nothing.
  void cancel_recv(PostedRecv& slot);

  /// Non-blocking variant: returns the message if one is already queued.
  std::optional<Message> try_match(int src, int tag);

  /// True if a matching message is queued (MPI_Iprobe analogue). Messages
  /// already claimed by a posted receive are not probeable.
  bool probe(int src, int tag);

  /// Marks the mailbox failed and wakes all waiters; subsequent await()
  /// calls throw immediately. `why` is included in the error message. A
  /// non-negative `death_rank` flavours the poison as a rank death: waiters
  /// then throw the typed RankDeath(death_rank) instead of a plain
  /// CommError, so peers of a killed rank see a diagnosable death notice
  /// rather than a generic teardown (and never a hang).
  void poison(const std::string& why, int death_rank = -1);

  /// Arms a pending kill of the owning rank: every blocking operation the
  /// owner is in (or later enters) throws RankDeath(rank) before looking at
  /// completions — the kill point beats message arrival, so a victim dies
  /// at a deterministic place regardless of what is in flight. Thread-safe
  /// (any rank thread may deliver the kill); wakes a blocked owner.
  void kill(int rank, const std::string& why);

  /// Disarms a pending kill. The dying rank calls this after it caught its
  /// RankDeath and finished harvesting, so an heir adopting this mailbox
  /// can operate on it without re-triggering the kill. Also releases the
  /// one-writer claim: at most one kill is in flight per run, so by the
  /// time the victim clears it no concurrent killer exists.
  void clear_kill() {
    kill_pending_.store(false, std::memory_order_release);
    kill_claim_.store(false, std::memory_order_release);
  }

  /// True while a kill is armed and undelivered (lock-free peek; executors
  /// poll this at their loop tops so a rank that never blocks still dies).
  bool killed() const {
    return kill_pending_.load(std::memory_order_acquire);
  }

  /// Wakes the owner as if a deposit had happened, without depositing
  /// anything. Used by the recovery layer: an heir blocked on its own
  /// mailbox must re-check cross-mailbox state (a message deposited to the
  /// rank it adopted, a death-epoch bump) that no deposit *here* announces.
  void nudge();

  /// Number of queued (unmatched) messages; used by shutdown checks and
  /// tests that assert no stragglers. Messages delivered into posted
  /// receives never count here.
  std::size_t pending() const { return pending_; }

  /// Human-readable list of the receives still waiting in this mailbox,
  /// sorted by (src, tag) — e.g. "irecv(src=0, tag=7); recv(src=2, tag=0)".
  /// Empty when nothing is posted. Used by the fiber engine's deadlock
  /// report to name the requests every blocked rank is stuck on.
  std::string posted_summary() const;

  /// Drains any parallel-mode channels into the matching structures
  /// (serialized consumer side only); a no-op in serial mode. The
  /// real-time-safe polling seam: Communicator::test calls this so
  /// nonblocking completion checks observe physically arrived messages
  /// without ever blocking or locking.
  void poll();

  /// Attaches (or with nullptr detaches) a cooperative engine: serial-mode
  /// waits yield to it and deposits notify it. A Machine attaches for the
  /// duration of one fiber-engine run.
  void set_blocker(MailboxBlocker* blocker) { blocker_ = blocker; }

  /// Switches the mailbox into parallel (lock-free) mode with one SPSC
  /// channel per possible sender. While in this mode all matching-map
  /// operations (post/await/probe/...) must come from an externally
  /// serialized consumer side — one thread at a time, with a happens-before
  /// edge between consecutive consumers (the SPMD engines use the owning
  /// rank's single thread; the tasks backend uses the rank's Communicator
  /// operation lock). deposit() and poison() may come from any rank thread.
  /// A Machine enters for the duration of one parallel-engine run.
  void enter_parallel(int nranks);

  /// Leaves parallel mode: drains every channel (unreceived messages land
  /// in the ordinary queues, so pending() is engine-invariant) and restores
  /// serial mode. Requires quiescence — the Machine calls it after all
  /// rank threads joined.
  void exit_parallel();

  /// Attaches (or with nullptr detaches) the machine-level worker-pool
  /// signal. While attached, every parallel-mode deposit and poison also
  /// calls signal->notify() after waking this mailbox's own parker, so a
  /// tasks-backend worker parked on the *pool* eventcount (rather than on
  /// any one rank's mailbox) still wakes when an inflow it could promote
  /// arrives anywhere in the machine. Gated by PoolSignal::idlers, this
  /// costs non-tasks runs one fence + one relaxed-ish load per deposit.
  /// Set by Machine::run_parallel before rank threads spawn.
  void set_pool_signal(PoolSignal* signal) {
    pool_signal_.store(signal, std::memory_order_release);
  }

  /// True once poison() was called in any mode: a lock-free peek for pool
  /// schedulers deciding whether an idle wait should be abandoned (the
  /// machine is tearing down, so no more work is coming).
  bool failed() const { return poisoned(); }

  /// Free-form label for what the owning rank is currently blocked doing
  /// (e.g. the scheduler task whose inflow it awaits). Purely diagnostic:
  /// the fiber engine's deadlock report appends it after the posted
  /// receives. Set before a wait that may block, clear (empty) after.
  void set_wait_context(std::string ctx) { wait_context_ = std::move(ctx); }
  const std::string& wait_context() const { return wait_context_; }

 private:
  // (src, tag) packed into one key; src and tag are both ints (tags may be
  // negative for collectives), so the pair is lossless in 64 bits.
  static std::uint64_t key_of(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  // Removes and returns the oldest queued message for (src, tag), if any.
  std::optional<Message> pop(int src, int tag);
  // The one blocking loop behind await_completion and await_until: returns
  // once ready() holds, throws on kill or poison (cancelling `slot`, when
  // given, on poison), and otherwise parks (parallel), yields to the
  // blocker (serial), or throws EngineError (serial, no blocker).
  template <typename Ready>
  void wait(const Ready& ready, PostedRecv* slot);
  static void complete(PostedRecv& slot, Message m);
  [[noreturn]] void throw_poisoned() const;
  [[noreturn]] void throw_killed() const;

  // Parallel-mode state: one SPSC channel per sender rank (indexed by the
  // message's src; unique_ptr because the channels are immovable) plus the
  // eventcount the owner parks on when every channel is empty.
  struct ParallelState {
    explicit ParallelState(int nranks);
    std::vector<std::unique_ptr<SpscQueue<Message>>> channels;
    Parker parker;
    // Consumer-owned batch buffer for drain_channels (reused across drains
    // so the steady state allocates nothing).
    std::vector<Message> scratch;
  };
  /// Messages claimed from the SPSC channels per matching pass. The batch
  /// bounds how long one drain pass can monopolize the consumer (a rank
  /// must get back to running tasks), while the short-batch early exit in
  /// drain_channels() saves the empty probe after a channel runs dry. The
  /// linked queue pays one acquire per node regardless, so raw pop
  /// throughput measures flat across batch sizes (a 2-thread
  /// million-message pop-vs-pop_batch probe reads ~22 Mmsg/s at 1, 8, 32,
  /// and 128 alike on a single-core host); 32 is chosen as comfortably
  /// past any burst the schedulers generate per tile.
  static constexpr std::size_t kDrainBatch = 32;
  // Moves every channel message into the matching maps (serialized consumer
  // side only).
  void drain_channels();
  // Match-or-queue one message (drained channel messages and serial-mode
  // deposits alike).
  void absorb(Message m);
  bool poisoned() const {
    return poisoned_.load(std::memory_order_acquire);
  }

  // Per-(src, tag) FIFO queues. Drained queues stay in the map (the key
  // space a machine sees is small and reused), so steady-state traffic
  // allocates nothing here beyond the messages themselves.
  std::unordered_map<std::uint64_t, std::deque<Message>> queues_;
  // Per-(src, tag) FIFO of receives posted before their message arrived.
  std::unordered_map<std::uint64_t, std::deque<PostedRecv*>> posted_;
  std::size_t pending_ = 0;
  MailboxBlocker* blocker_ = nullptr;
  std::unique_ptr<ParallelState> parallel_;
  // The machine-level worker-pool eventcount (tasks backend); atomic because
  // deposit() readers race the Machine's install/uninstall around runs.
  std::atomic<PoolSignal*> pool_signal_{nullptr};
  // Atomic because parallel-mode producers poison concurrently with the
  // owner's lock-free checks; the reason string is published by the release
  // store of the flag (claim_ arbitrates which poisoner writes it).
  std::atomic<bool> poisoned_{false};
  std::atomic<bool> poison_claim_{false};
  std::string poison_reason_;
  // Death flavour: set (by the poison claim winner, before the flag's
  // release store) to the rank whose death this poison announces; waiters
  // then throw RankDeath instead of CommError.
  int death_rank_ = -1;
  // Pending kill of the owning rank; same claim/release publication
  // protocol as poison, checked FIRST by every blocking path.
  std::atomic<bool> kill_pending_{false};
  std::atomic<bool> kill_claim_{false};
  int kill_rank_ = -1;
  std::string kill_reason_;
  std::string wait_context_;
};

}  // namespace wavepipe
