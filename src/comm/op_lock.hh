// OpLock: the recursive spin lock behind Communicator's concurrent mode.
//
// Under the tasks backend a rank's operation lock is held for a few hundred
// nanoseconds at a time (a clock bump, a face post, a request-table scan)
// and contended by the pool's other workers. A blocking mutex turns every
// collision into a futex sleep and wake that costs more than the critical
// section; this lock never enters the kernel. lock() is test-and-test-and-set
// with acquire/release ordering: a bounded pause spin, then
// std::this_thread::yield() per retry so an oversubscribed host still runs
// the holder. It is recursive (owner id plus depth) because a thread that
// holds its rank's lock, such as the tasks backend's departure handshake,
// still calls the self-locking Communicator operations. try_lock() makes
// exactly one attempt. Meets the Lockable requirements, so std::unique_lock
// and std::lock_guard work on it.
#pragma once

#include <atomic>
#include <thread>

namespace wavepipe {

/// One spin-wait step: tells the core this is a busy-wait loop.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

class OpLock {
 public:
  void lock() {
    if (reenter()) return;
    for (int spins = 0; !acquire();) {
      if (spins < kSpins) {
        ++spins;
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

  bool try_lock() { return reenter() || acquire(); }

  void unlock() {
    if (--depth_ > 0) return;
    owner_.store(std::thread::id(), std::memory_order_relaxed);
    held_.store(false, std::memory_order_release);
  }

 private:
  static constexpr int kSpins = 256;

  // Only the owner ever stores its own id, so reading it back proves
  // ownership; any other thread reads some other id or none.
  bool reenter() {
    if (owner_.load(std::memory_order_relaxed) != std::this_thread::get_id())
      return false;
    ++depth_;
    return true;
  }

  bool acquire() {
    if (held_.load(std::memory_order_relaxed) ||
        held_.exchange(true, std::memory_order_acquire))
      return false;
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
    depth_ = 1;
    return true;
  }

  std::atomic<bool> held_{false};
  std::atomic<std::thread::id> owner_{};
  static_assert(std::atomic<std::thread::id>::is_always_lock_free);
  int depth_ = 0;  // touched only by the owner
};

}  // namespace wavepipe
