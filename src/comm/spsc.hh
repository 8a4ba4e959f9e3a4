// Lock-free single-producer/single-consumer primitives for the parallel
// execution engine (WAVEPIPE_ENGINE=parallel).
//
// SpscQueue is an unbounded wait-free-for-the-producer linked queue: one
// thread pushes, one thread pops, and the only synchronization is one
// release store (producer) matched by one acquire load (consumer) per
// message. The memory-ordering contract (DESIGN.md §13): everything the
// producer wrote before push() — the node's value, and by extension the
// message payload — happens-before the consumer's read after a successful
// pop(), because the value write is sequenced before the release store of
// the `next` pointer the consumer acquires. There is no CAS, no retry
// loop, and no mutex anywhere on the push/pop path. Consumed nodes go back
// to the producer through the consumer's release store of its head pointer
// (acquired by the producer before reuse), so a steady stream allocates
// and frees no nodes.
//
// Parker is the park/unpark half: an eventcount a consumer uses to sleep
// when every channel is empty without a lock on the producer's hot path.
// The producer's unpark() is a single atomic increment plus one relaxed
// flag check; it touches a futex (Linux) or a mutex+condvar (elsewhere)
// only when a consumer is actually asleep. The consumer's protocol —
// ticket = prepare(); re-check work; park(ticket) — cannot miss a wakeup:
// any unpark() after prepare() changes the epoch, and park() returns
// immediately when the epoch moved past its ticket (the futex compare, or
// the condvar predicate, re-checks under the kernel's own lock).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "comm/op_lock.hh"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>
#define WAVEPIPE_HAS_FUTEX 1
#else
#define WAVEPIPE_HAS_FUTEX 0
#endif

namespace wavepipe {

/// Unbounded lock-free SPSC FIFO with a node cache (Vyukov's unbounded
/// SPSC queue). Exactly one thread may call push() and exactly one thread
/// may call pop()/pop_batch()/peek_empty(); the two may run concurrently.
/// Destruction requires external quiescence (no concurrent push/pop), which
/// the Machine guarantees by joining rank threads first.
///
/// Node recycling: the list runs first_ -> ... -> head_ -> ... -> tail_.
/// Nodes before the consumer's head_ (the current dummy) are consumed; the
/// producer takes them back from first_ instead of allocating, re-reading
/// head_ (acquire, against the consumer's release store after each pop)
/// only when its cached copy says the cache is used up. A steady stream
/// therefore allocates nothing on either side once the queue has grown to
/// its peak depth, and the consumer never frees: nodes live until the
/// queue dies. The cache is as deep as the deepest burst the queue ever
/// held.
template <typename T>
class SpscQueue {
 public:
  SpscQueue() : head_(new Node), tail_(head_.load()), first_(tail_),
                head_copy_(tail_) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;
  SpscQueue(SpscQueue&&) = delete;

  ~SpscQueue() {
    Node* n = first_;
    while (n) {
      Node* next = n->next.load(std::memory_order_relaxed);
      delete n;
      n = next;
    }
  }

  /// Producer side. Never blocks, never fails.
  void push(T value) {
    Node* n = alloc_node();
    n->next.store(nullptr, std::memory_order_relaxed);
    n->value = std::move(value);
    // The release store publishes the node (and everything written into it
    // above) to the consumer's matching acquire load in pop().
    tail_->next.store(n, std::memory_order_release);
    tail_ = n;
  }

  /// Consumer side: pops the oldest element into `out`; false when empty.
  bool pop(T& out) {
    Node* h = head_.load(std::memory_order_relaxed);
    Node* next = h->next.load(std::memory_order_acquire);
    if (!next) return false;
    out = std::move(next->value);
    // `next` becomes the dummy and `h` joins the producer's cache: the
    // release store orders the move above before the producer reuses it.
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops up to `max` elements in FIFO order, appending them
  /// to `out`. Returns the number popped (0 when the queue is empty). The
  /// linked structure still costs one acquire load per element, but a batch
  /// lets the caller amortize everything *around* the pops — the mailbox
  /// drains a whole burst per matching pass instead of interleaving one
  /// match-dispatch per message (see Mailbox::kDrainBatch for how the
  /// default is chosen) — and hands the consumed nodes back with one
  /// release store. Elements already appended stay popped even if the
  /// caller stops early (e.g. a poison observed mid-batch): the queue has
  /// no un-pop, exactly like repeated pop() calls.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    Node* h = head_.load(std::memory_order_relaxed);
    std::size_t n = 0;
    while (n < max) {
      Node* next = h->next.load(std::memory_order_acquire);
      if (!next) break;
      out.push_back(std::move(next->value));
      h = next;
      ++n;
    }
    if (n > 0) head_.store(h, std::memory_order_release);
    return n;
  }

  /// Consumer side: true when no element is ready. (A concurrent push may
  /// make this stale immediately — callers re-check after Parker::prepare.)
  bool peek_empty() const {
    return head_.load(std::memory_order_relaxed)
               ->next.load(std::memory_order_acquire) == nullptr;
  }

  /// Nodes ever allocated, the initial dummy included. Stops growing once
  /// the cache covers the peak depth; for tests and probes. Any thread.
  std::size_t allocated_nodes() const {
    return allocated_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    T value{};
  };

  Node* alloc_node() {
    if (first_ == head_copy_) {
      head_copy_ = head_.load(std::memory_order_acquire);
      if (first_ == head_copy_) {
        allocated_.fetch_add(1, std::memory_order_relaxed);
        return new Node;
      }
    }
    Node* n = first_;
    first_ = n->next.load(std::memory_order_relaxed);
    return n;
  }

  // On separate cache lines: head_ is written only by the consumer, the
  // rest only by the producer; sharing a line would make every push/pop
  // pair a coherence miss.
  alignas(64) std::atomic<Node*> head_;  // consumer-owned (dummy node)
  alignas(64) Node* tail_;               // producer-owned (last node)
  Node* first_;                          // producer: oldest cached node
  Node* head_copy_;                      // producer: last head_ it read
  std::atomic<std::size_t> allocated_{1};
};

/// Eventcount: lets one consumer sleep until a producer signals that new
/// work *may* exist. Multiple producers may unpark() concurrently; a single
/// consumer parks. Usage (consumer):
///
///   for (;;) {
///     const std::uint32_t ticket = parker.prepare();
///     if (work_available()) break;   // re-check AFTER taking the ticket
///     parker.park(ticket);           // returns on any unpark since prepare
///   }
///
/// Producers call unpark() after publishing work. The epoch bump in
/// unpark() is sequentially consistent with the consumer's waiter
/// registration, so the "work published → epoch moved" edge makes the
/// missed-wakeup window empty: either the consumer's re-check sees the
/// work, or its park() sees the moved epoch and returns at once.
class Parker {
 public:
  std::uint32_t prepare() { return epoch_.load(std::memory_order_acquire); }

  void park(std::uint32_t ticket) {
    // Spin-then-park fast path: when wakeups tend to arrive within a few
    // hundred nanoseconds (a peer mid-burst), the futex round trip costs
    // more than just watching the epoch. The spin budget adapts: a spin
    // that resolves grows it, a spin that falls through to the kernel
    // shrinks it, so a consumer whose producer went quiet stops burning
    // cycles after a few sleeps. The budget is a relaxed shared heuristic
    // (the pool parker has many consumers); any torn update is just a
    // slightly wrong hint.
    std::uint32_t budget = spin_budget_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (epoch_.load(std::memory_order_seq_cst) != ticket) {
        spin_budget_.store(std::min(kSpinMax, budget * 2 + 16),
                           std::memory_order_relaxed);
        return;
      }
      cpu_relax();
    }
    spin_budget_.store(budget / 2, std::memory_order_relaxed);
#if WAVEPIPE_HAS_FUTEX
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    // FUTEX_WAIT atomically re-checks epoch_ == ticket under the kernel's
    // hash-bucket lock; a concurrent unpark() either moved the epoch
    // (EAGAIN, return immediately) or finds us on the wait queue and wakes.
    if (epoch_.load(std::memory_order_seq_cst) == ticket)
      ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
                FUTEX_WAIT_PRIVATE, ticket, nullptr, nullptr, 0);
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
#else
    std::unique_lock<std::mutex> lock(mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_seq_cst) != ticket;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
#endif
  }

  /// Producer side: O(1) atomic increment; enters the kernel (futex wake /
  /// condvar notify) only when a consumer is registered as waiting.
  void unpark() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
#if WAVEPIPE_HAS_FUTEX
    ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&epoch_),
              FUTEX_WAKE_PRIVATE, INT32_MAX, nullptr, nullptr, 0);
#else
    {
      // Empty critical section: orders the epoch bump before the waiter's
      // predicate check so the notify cannot land between its check and
      // its sleep.
      std::lock_guard<std::mutex> lock(mutex_);
    }
    cv_.notify_all();
#endif
  }

 private:
  static constexpr std::uint32_t kSpinMax = 4096;

  alignas(64) std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  // Adaptive spin budget for park()'s pre-futex fast path. Starts small so
  // single-core hosts (where spinning can only delay the producer) fall
  // through to the kernel almost immediately and halve it further.
  std::atomic<std::uint32_t> spin_budget_{64};
#if !WAVEPIPE_HAS_FUTEX
  std::mutex mutex_;
  std::condition_variable cv_;
#endif
};

/// Machine-level worker-pool signal (the tasks-backend seam): one shared
/// eventcount every worker thread parks on when it finds no runnable task
/// anywhere, plus the idler count that gates the producer-side wakeup.
///
/// Producer protocol: publish work (a deposit into any mailbox channel, a
/// task release, a poison), then call notify(). Consumer protocol:
/// idlers.fetch_add(seq_cst); ticket = parker.prepare(); re-check for work;
/// parker.park(ticket); idlers.fetch_sub(seq_cst). The seq_cst fence in
/// notify() pairs with the consumer's seq_cst increment (the classic
/// store-buffer pattern): either the consumer's re-check observes the
/// published work, or the producer observes idlers > 0 and bumps the epoch
/// the consumer's ticket predates — so the gated wakeup cannot be missed,
/// while the common no-idlers case costs producers one fence + one load.
struct PoolSignal {
  std::atomic<int> idlers{0};
  Parker parker;

  void notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (idlers.load(std::memory_order_seq_cst) > 0) parker.unpark();
  }
};

}  // namespace wavepipe
