#include "comm/fiber.hh"

#include <cerrno>
#include <csetjmp>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "support/error.hh"
#include "support/log.hh"
#include "support/rng.hh"

#if defined(__unix__) || defined(__linux__)
#define WAVEPIPE_HAS_FIBERS 1
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>
#else
#define WAVEPIPE_HAS_FIBERS 0
#endif

// AddressSanitizer tracks one stack per thread. Jumping between the
// scheduler stack and an mmap-ed fiber stack without telling it corrupts
// its shadow bookkeeping: the _longjmp interceptor's no-return handler
// unpoisons the wrong range, stale redzone poison accumulates on fiber
// stacks, and eventually an innocent stack write trips a false
// stack-buffer-underflow inside the sanitizer runtime itself. The fix —
// the same one QEMU's coroutines and boost.context use — is to bracket
// every switch with __sanitizer_{start,finish}_switch_fiber so ASan
// retargets its stack bounds along with us. All of it compiles away in
// non-sanitized builds.
#if defined(__SANITIZE_ADDRESS__)
#define WAVEPIPE_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WAVEPIPE_ASAN_FIBERS 1
#endif
#endif
#ifndef WAVEPIPE_ASAN_FIBERS
#define WAVEPIPE_ASAN_FIBERS 0
#endif
#if WAVEPIPE_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

// ThreadSanitizer has the same problem one layer up: it models one stack
// and one happens-before clock per OS thread, so an unannounced jump onto a
// fiber stack makes it report wild data races inside a single logical
// thread. The cure is the fiber API TSan grew for QEMU's coroutines:
// __tsan_create_fiber per fiber, __tsan_switch_to_fiber immediately before
// every context switch (in either direction), __tsan_destroy_fiber at
// teardown. Compiles away in non-TSan builds.
#if defined(__SANITIZE_THREAD__)
#define WAVEPIPE_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WAVEPIPE_TSAN_FIBERS 1
#endif
#endif
#ifndef WAVEPIPE_TSAN_FIBERS
#define WAVEPIPE_TSAN_FIBERS 0
#endif
#if WAVEPIPE_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace wavepipe {

const char* to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kParallel:
      return "parallel";
    case EngineKind::kFibers:
      break;
  }
  return "fibers";
}

const char* to_string(SchedKind k) {
  return k == SchedKind::kEarliestVtime ? "deterministic" : "random";
}

bool fibers_supported() { return WAVEPIPE_HAS_FIBERS != 0; }

EngineConfig EngineConfig::from_env() {
  EngineConfig cfg;
  if (const char* v = std::getenv("WAVEPIPE_ENGINE")) {
    const std::string s(v);
    if (s == "fibers" || s.empty()) {
      cfg.kind = EngineKind::kFibers;
    } else if (s == "parallel") {
      cfg.kind = EngineKind::kParallel;
    } else {
      throw ConfigError("WAVEPIPE_ENGINE expects 'fibers' or 'parallel', got '" +
                        s + "'");
    }
  }
  if (const char* v = std::getenv("WAVEPIPE_PIN")) {
    const std::string s(v);
    if (s == "0") {
      cfg.pin_threads = false;
    } else if (s == "1" || s.empty()) {
      cfg.pin_threads = true;
    } else {
      throw ConfigError("WAVEPIPE_PIN expects '0' or '1', got '" + s + "'");
    }
  }
  if (const char* v = std::getenv("WAVEPIPE_SCHED")) {
    const std::string s(v);
    if (s == "deterministic" || s.empty()) {
      cfg.sched.kind = SchedKind::kEarliestVtime;
    } else if (s == "random" || s.rfind("random:", 0) == 0) {
      cfg.sched.kind = SchedKind::kRandom;
      if (s.rfind("random:", 0) == 0) {
        const std::string digits = s.substr(7);
        char* end = nullptr;
        const unsigned long long seed =
            std::strtoull(digits.c_str(), &end, 10);
        if (digits.empty() || !end || *end != '\0')
          throw ConfigError(
              "WAVEPIPE_SCHED=random:<seed> needs a decimal seed, got '" + s +
              "'");
        cfg.sched.seed = static_cast<std::uint64_t>(seed);
      }
    } else {
      throw ConfigError(
          "WAVEPIPE_SCHED expects 'deterministic' or 'random[:<seed>]', got "
          "'" +
          s + "'");
    }
  }
  if (const char* v = std::getenv("WAVEPIPE_FIBER_STACK")) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    std::size_t bytes = static_cast<std::size_t>(n);
    if (end && (*end == 'k' || *end == 'K')) {
      bytes <<= 10;
      ++end;
    } else if (end && (*end == 'm' || *end == 'M')) {
      bytes <<= 20;
      ++end;
    }
    if (end == v || *end != '\0' || bytes == 0)
      throw ConfigError(
          "WAVEPIPE_FIBER_STACK expects a byte count (optionally with a k/m "
          "suffix), got '" +
          std::string(v) + "'");
    cfg.stack_bytes = bytes;
  }
  return cfg;
}

#if WAVEPIPE_HAS_FIBERS

namespace {

// The red zone between the guard page and the usable stack. Overflow that
// stays shallow lands here and is caught by the canary sweep; overflow that
// runs deeper hits the PROT_NONE guard page and faults instead of silently
// corrupting a neighbouring allocation.
constexpr std::size_t kCanaryBytes = 512;
constexpr unsigned char kCanaryByte = 0xA5;

// A fiber throws EngineError at its next block point once its remaining
// stack drops below this, converting most overflows into a typed, orderly
// machine teardown before any memory is harmed.
constexpr std::size_t kHeadroomBytes = std::size_t{16} << 10;

std::size_t page_size() {
  const long p = sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : 4096;
}

}  // namespace

struct FiberScheduler::Impl {
  enum class State { kRunnable, kRunning, kBlocked, kDone };

  struct Fiber {
    ucontext_t ctx{};
    std::jmp_buf jb;                  // resume point once started
    unsigned char* map = nullptr;     // whole mapping (guard + canary + stack)
    std::size_t map_bytes = 0;
    unsigned char* canary = nullptr;  // kCanaryBytes red zone
    unsigned char* usable_lo = nullptr;
    std::size_t usable_bytes = 0;
    State state = State::kRunnable;
    bool started = false;
    Mailbox* waiting_on = nullptr;
    const double* vtime = nullptr;
    std::exception_ptr escaped;  // exception that escaped the body (if any)
    bool counted = false;
#if WAVEPIPE_ASAN_FIBERS
    void* fake_stack = nullptr;  // ASan fake-stack save slot while suspended
#endif
#if WAVEPIPE_TSAN_FIBERS
    void* tsan_fiber = nullptr;  // TSan's per-fiber state handle
#endif
  };

  int ranks;
  std::size_t stack_bytes;
  SchedConfig sched;
  SplitMix64 rng;
  FiberScheduler::StepHook step_hook;
  std::vector<Fiber> fibers;
  ucontext_t main_ctx{};
  std::jmp_buf main_jb;  // refreshed at every switch into a fiber
  int current = -1;
  std::function<void(int)> body;

  Impl(int n, std::size_t stack, SchedConfig sc)
      : ranks(n),
        stack_bytes(stack),
        sched(std::move(sc)),
        rng(sched.seed),
        fibers(static_cast<std::size_t>(n)) {}

  ~Impl() {
    for (auto& f : fibers) {
      tsan_destroy(f);
      if (f.map) ::munmap(f.map, f.map_bytes);
    }
  }

  Fiber& at(int r) { return fibers[static_cast<std::size_t>(r)]; }

  // ASan fiber-switch annotations (no-ops without ASan). Protocol: the
  // suspending side calls start_switch_fiber naming the destination stack
  // (saving its own fake stack, or destroying it on terminal exit), and the
  // first thing run on the destination stack is finish_switch_fiber
  // restoring that side's fake stack.
#if WAVEPIPE_ASAN_FIBERS
  unsigned char* main_stack_lo = nullptr;  // captured at first fiber entry
  std::size_t main_stack_bytes = 0;
  void* main_fake_stack = nullptr;

  void asan_enter_fiber(Fiber& f) {  // on the scheduler stack, about to jump
    __sanitizer_start_switch_fiber(&main_fake_stack, f.usable_lo,
                                   f.usable_bytes);
  }
  void asan_finish_on_fiber(void* fake_stack) {  // first code on a fiber stack
    const void* bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    if (!main_stack_lo) {  // the stack we came from is the scheduler's
      main_stack_lo =
          const_cast<unsigned char*>(static_cast<const unsigned char*>(bottom));
      main_stack_bytes = size;
    }
  }
  void asan_fiber_entered() { asan_finish_on_fiber(nullptr); }  // first entry
  void asan_fiber_resumed(Fiber& f) { asan_finish_on_fiber(f.fake_stack); }
  void asan_leave_fiber(Fiber& f, bool terminal) {  // on the fiber stack
    __sanitizer_start_switch_fiber(terminal ? nullptr : &f.fake_stack,
                                   main_stack_lo, main_stack_bytes);
  }
  void asan_main_entered() {  // back on the scheduler stack
    __sanitizer_finish_switch_fiber(main_fake_stack, nullptr, nullptr);
  }
#else
  void asan_enter_fiber(Fiber&) {}
  void asan_fiber_entered() {}
  void asan_fiber_resumed(Fiber&) {}
  void asan_leave_fiber(Fiber&, bool) {}
  void asan_main_entered() {}
#endif

  // TSan fiber-switch annotations (no-ops without TSan). Simpler protocol
  // than ASan's: announce the destination fiber immediately before each
  // jump; TSan transfers its stack bounds and race-detection state with us.
#if WAVEPIPE_TSAN_FIBERS
  void* tsan_main = nullptr;  // the scheduler thread's own TSan fiber
  void tsan_create(Fiber& f) { f.tsan_fiber = __tsan_create_fiber(0); }
  void tsan_destroy(Fiber& f) {
    if (f.tsan_fiber) __tsan_destroy_fiber(f.tsan_fiber);
  }
  void tsan_enter_fiber(Fiber& f) {  // scheduler stack, about to jump in
    if (!tsan_main) tsan_main = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f.tsan_fiber, 0);
  }
  void tsan_leave_fiber() {  // fiber stack, about to jump back
    __tsan_switch_to_fiber(tsan_main, 0);
  }
#else
  void tsan_create(Fiber&) {}
  void tsan_destroy(Fiber&) {}
  void tsan_enter_fiber(Fiber&) {}
  void tsan_leave_fiber() {}
#endif

  void alloc_stack(Fiber& f) {
    const std::size_t page = page_size();
    const std::size_t usable = (stack_bytes + page - 1) / page * page;
    f.map_bytes = page + kCanaryBytes + usable;
    void* mem = ::mmap(nullptr, f.map_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
      throw EngineError("fiber engine: cannot map a " +
                        std::to_string(f.map_bytes) + "-byte stack (" +
                        std::strerror(errno) + ")");
    f.map = static_cast<unsigned char*>(mem);
    // Low page is the guard; deep overflow faults there instead of walking
    // into unrelated memory.
    if (::mprotect(f.map, page, PROT_NONE) != 0) {
      ::munmap(f.map, f.map_bytes);
      f.map = nullptr;
      throw EngineError("fiber engine: cannot guard a fiber stack (" +
                        std::string(std::strerror(errno)) + ")");
    }
    f.canary = f.map + page;
    std::memset(f.canary, kCanaryByte, kCanaryBytes);
    f.usable_lo = f.canary + kCanaryBytes;
    f.usable_bytes = usable;
  }

  bool canary_intact(const Fiber& f) const {
    for (std::size_t i = 0; i < kCanaryBytes; ++i)
      if (f.canary[i] != kCanaryByte) return false;
    return true;
  }

  [[noreturn]] void throw_overflow(int rank, const char* how) const {
    throw EngineError(
        "rank " + std::to_string(rank) + " overflowed its " +
        std::to_string(stack_bytes) + "-byte fiber stack (" + how +
        "); raise WAVEPIPE_FIBER_STACK or EngineConfig::stack_bytes, or keep "
        "large buffers on the heap");
  }

  static void trampoline(unsigned int hi, unsigned int lo) {
    auto* self = reinterpret_cast<Impl*>(static_cast<std::uintptr_t>(
        (static_cast<std::uint64_t>(hi) << 32) | static_cast<std::uint64_t>(lo)));
    self->asan_fiber_entered();  // first entry: no fake stack yet
    const int rank = self->current;
    Fiber& f = self->at(rank);
    try {
      self->body(rank);
    } catch (...) {
      // Machine's rank body catches everything itself, so anything landing
      // here is unexpected — surface it from run() rather than terminating.
      f.escaped = std::current_exception();
    }
    f.state = State::kDone;
    // Jump straight back to the scheduler loop's freshest resume point.
    // (Not uc_link: the ucontext snapshot of the main stack is stale after
    // the first switch, whereas main_jb is re-armed at every switch-in.)
    self->asan_leave_fiber(f, /*terminal=*/true);
    self->tsan_leave_fiber();
    _longjmp(self->main_jb, 1);
  }

  /// Switches into `f`, returning when the fiber yields back (block() or
  /// trampoline exit, both via main_jb). glibc's swapcontext makes a
  /// sigprocmask syscall per switch (~0.5 µs on this host), so it is used
  /// only for the first entry, which needs a fresh stack; every later
  /// switch is a pure user-space _setjmp/_longjmp pair (~25 ns). noinline
  /// keeps the caller's locals out of the frame _longjmp returns into,
  /// which is what makes the jump (and -Wclobbered) safe.
  [[gnu::noinline]] void switch_into(Fiber& f) {
    if (_setjmp(main_jb) == 0) {
      asan_enter_fiber(f);
      tsan_enter_fiber(f);
      if (!f.started) {
        f.started = true;
        if (::swapcontext(&main_ctx, &f.ctx) != 0)
          throw EngineError("fiber engine: swapcontext failed");
      } else {
        _longjmp(f.jb, 1);
      }
    } else {
      asan_main_entered();
    }
  }

  /// Runnable rank with the smallest (vtime, rank); -1 if none.
  int pick_earliest() const {
    int best = -1;
    double best_t = 0.0;
    for (int r = 0; r < ranks; ++r) {
      const Fiber& f = fibers[static_cast<std::size_t>(r)];
      if (f.state != State::kRunnable) continue;
      const double t = f.vtime ? *f.vtime : 0.0;
      if (best < 0 || t < best_t) {
        best = r;
        best_t = t;
      }
    }
    return best;
  }

  double weight_of(int r) const {
    const auto i = static_cast<std::size_t>(r);
    if (i < sched.rank_weights.size() && sched.rank_weights[i] > 0.0)
      return sched.rank_weights[i];
    return 1.0;
  }

  /// Weighted random pick among the runnable ranks; -1 if none. Consumes
  /// RNG state only when at least one rank is runnable, so the pick
  /// sequence (and therefore the whole run) replays exactly from the seed.
  int pick_random() {
    double total = 0.0;
    int last = -1;
    for (int r = 0; r < ranks; ++r) {
      if (fibers[static_cast<std::size_t>(r)].state != State::kRunnable)
        continue;
      total += weight_of(r);
      last = r;
    }
    if (last < 0) return -1;
    double x = rng.next_double() * total;
    for (int r = 0; r < ranks; ++r) {
      if (fibers[static_cast<std::size_t>(r)].state != State::kRunnable)
        continue;
      x -= weight_of(r);
      if (x < 0.0) return r;
    }
    return last;  // floating-point slop: fall back to the last runnable
  }

  int pick_next() {
    return sched.kind == SchedKind::kRandom ? pick_random() : pick_earliest();
  }

  std::string blocked_ranks() const {
    std::string s;
    for (int r = 0; r < ranks; ++r) {
      const Fiber& f = fibers[static_cast<std::size_t>(r)];
      if (f.state != State::kBlocked) continue;
      if (!s.empty()) s += ", ";
      s += std::to_string(r);
      // Name the receives the rank is stuck on, so a deadlock report reads
      // "ranks 0 [irecv(src=1, tag=5)], 1 [recv(src=0, tag=5)]".
      if (f.waiting_on) {
        const std::string reqs = f.waiting_on->posted_summary();
        if (!reqs.empty()) s += " [" + reqs + "]";
        const std::string& ctx = f.waiting_on->wait_context();
        if (!ctx.empty()) s += " in " + ctx;
      }
    }
    return s;
  }

  void run(const std::function<void(int)>& b,
           const std::function<void()>& on_deadlock) {
    body = b;
    const std::uint64_t self = reinterpret_cast<std::uintptr_t>(this);
    for (int r = 0; r < ranks; ++r) {
      Fiber& f = at(r);
      alloc_stack(f);
      tsan_create(f);
      if (::getcontext(&f.ctx) != 0)
        throw EngineError("fiber engine: getcontext failed");
      f.ctx.uc_stack.ss_sp = f.usable_lo;
      f.ctx.uc_stack.ss_size = f.usable_bytes;
      f.ctx.uc_link = &main_ctx;
      // makecontext's entry point is untyped by design; the int-sized halves
      // of `this` ride along as its documented integer arguments.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wcast-function-type"
      ::makecontext(&f.ctx, reinterpret_cast<void (*)()>(&trampoline), 2,
                    static_cast<unsigned int>(self >> 32),
                    static_cast<unsigned int>(self & 0xffffffffu));
#pragma GCC diagnostic pop
    }

    int finished = 0;
    std::uint64_t step = 0;
    std::exception_ptr deadlock_error;
    while (finished < ranks) {
      if (step_hook) step_hook(step, /*deadlock=*/false);
      ++step;
      const int next = pick_next();
      if (next < 0) {
        // Before declaring deadlock, give the chaos fault injector a chance
        // to deliver any messages it is still holding; if that wakes a
        // rank, this was no deadlock at all.
        if (!deadlock_error && step_hook && step_hook(step, /*deadlock=*/true))
          continue;
        // Every unfinished rank is blocked: a communication deadlock real
        // threads would hang on. Poison the mailboxes so the blocked fibers
        // unwind (destroying their stack objects), then report the root
        // cause.
        if (deadlock_error)  // on_deadlock failed to unblock anything
          std::rethrow_exception(deadlock_error);
        deadlock_error = std::make_exception_ptr(EngineError(
            "deadlock: every rank is blocked on a receive (ranks " +
            blocked_ranks() + "); real threads would hang here"));
        on_deadlock();
        continue;
      }
      Fiber& f = at(next);
      f.state = State::kRunning;
      current = next;
      switch_into(f);
      if (!canary_intact(f)) throw_overflow(next, "stack canary clobbered");
      if (f.state == State::kDone && !f.counted) {
        f.counted = true;
        ++finished;
      }
    }

    if (deadlock_error) std::rethrow_exception(deadlock_error);
    for (int r = 0; r < ranks; ++r)
      if (at(r).escaped) std::rethrow_exception(at(r).escaped);
  }

  void block(Mailbox& mb) {
    internal_check(current >= 0, "fiber block() outside a running fiber");
    Fiber& f = at(current);
    // Low-stack check: &probe approximates the fiber's stack pointer, so
    // this fires before an overflow reaches the canary or the guard page
    // on any workload that communicates.
    unsigned char probe = 0;
    const unsigned char* sp = &probe;
    if (sp >= f.usable_lo && sp < f.usable_lo + f.usable_bytes &&
        static_cast<std::size_t>(sp - f.usable_lo) < kHeadroomBytes)
      throw_overflow(current, "under 16 KiB of headroom at a block point");
    f.state = State::kBlocked;
    f.waiting_on = &mb;
    // Yield to the scheduler; it re-enters through f.jb when this rank is
    // picked again.
    if (_setjmp(f.jb) == 0) {
      asan_leave_fiber(f, /*terminal=*/false);
      tsan_leave_fiber();
      _longjmp(main_jb, 1);
    } else {
      asan_fiber_resumed(f);
    }
  }

  void notify(Mailbox& mb) {
    for (auto& f : fibers) {
      if (f.state == State::kBlocked && f.waiting_on == &mb) {
        f.state = State::kRunnable;
        f.waiting_on = nullptr;
      }
    }
  }
};

FiberScheduler::FiberScheduler(int ranks, std::size_t stack_bytes,
                               SchedConfig sched)
    : impl_(std::make_unique<Impl>(ranks, stack_bytes, std::move(sched))) {}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::set_step_hook(StepHook hook) {
  impl_->step_hook = std::move(hook);
}

void FiberScheduler::bind_clock(int rank, const double* vtime) {
  impl_->at(rank).vtime = vtime;
}

void FiberScheduler::run(const std::function<void(int)>& body,
                         const std::function<void()>& on_deadlock) {
  impl_->run(body, on_deadlock);
}

void FiberScheduler::block(Mailbox& mb) { impl_->block(mb); }

void FiberScheduler::notify(Mailbox& mb) { impl_->notify(mb); }

#else  // !WAVEPIPE_HAS_FIBERS

struct FiberScheduler::Impl {};

FiberScheduler::FiberScheduler(int, std::size_t, SchedConfig) {}
FiberScheduler::~FiberScheduler() = default;
void FiberScheduler::set_step_hook(StepHook) {}
void FiberScheduler::bind_clock(int, const double*) {}
void FiberScheduler::run(const std::function<void(int)>&,
                         const std::function<void()>&) {
  throw EngineError("the fiber engine is not supported on this platform");
}
void FiberScheduler::block(Mailbox&) {
  throw EngineError("the fiber engine is not supported on this platform");
}
void FiberScheduler::notify(Mailbox&) {}

#endif  // WAVEPIPE_HAS_FIBERS

}  // namespace wavepipe
