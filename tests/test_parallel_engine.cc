// The real-parallel engine (WAVEPIPE_ENGINE=parallel): SPSC queue and
// Parker eventcount torture (the lock-free mailbox substrate), engine
// behaviour (reuse, leftover-message accounting, wall-clock measurement),
// the request-layer bugfixes under real threads (stale handles, generation
// wrap-around retirement), poison propagation through parked receivers,
// and the headline guarantee: the whole wavefront benchmark suite computes
// values byte-identical to the deterministic fiber oracle at p in {2,4,8}.
//
// The SPSC tests are also the TSan target: CI runs this binary under
// -fsanitize=thread, where the 2-thread million-message torture would
// flag any missing release/acquire edge in spsc.hh.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/alt_sweep.hh"
#include "apps/suite.hh"
#include "apps/sweep3d.hh"
#include "comm/machine.hh"
#include "comm/op_lock.hh"
#include "comm/spsc.hh"
#include "sched/executor.hh"
#include "sched/graph.hh"
#include "sched/parallel_executor.hh"
#include "support/error.hh"

namespace wavepipe {
namespace {

EngineConfig engine(EngineKind kind) {
  EngineConfig cfg;
  cfg.kind = kind;
  return cfg;
}

// Sets (or with nullptr clears) an environment variable for one test,
// restoring the previous state on destruction.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_ = true;
      saved_ = old;
    }
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

// ---------------------------------------------------------------------------
// SpscQueue + Parker primitives.

TEST(Spsc, SingleThreadFifoAndEmpty) {
  SpscQueue<int> q;
  EXPECT_TRUE(q.peek_empty());
  int out = 0;
  EXPECT_FALSE(q.pop(out));
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_FALSE(q.peek_empty());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.peek_empty());
  EXPECT_FALSE(q.pop(out));
}

TEST(Spsc, TwoThreadMillionMessageTorture) {
  // One producer, one consumer, 1M messages. The consumer asserts strict
  // FIFO (values are consecutive), which under TSan also proves the
  // release/acquire pairing publishes every payload write.
  constexpr std::uint64_t kMessages = 1'000'000;
  SpscQueue<std::uint64_t> q;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kMessages; ++i) q.push(i);
  });
  std::uint64_t expected = 0;
  while (expected < kMessages) {
    std::uint64_t v = 0;
    if (!q.pop(v)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(q.peek_empty());
}

TEST(Spsc, ParkerWakesParkedConsumer) {
  // The consumer parks with nothing pending; the producer's unpark must
  // release it. A missed wakeup hangs the test (gtest's timeout fails it).
  Parker parker;
  std::atomic<bool> work{false};
  std::thread consumer([&] {
    for (;;) {
      const std::uint32_t ticket = parker.prepare();
      if (work.load(std::memory_order_acquire)) return;
      parker.park(ticket);
    }
  });
  // Let the consumer reach park with high probability before signalling.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  work.store(true, std::memory_order_release);
  parker.unpark();
  consumer.join();
}

TEST(Spsc, ParkReturnsImmediatelyWhenUnparkRacedAhead) {
  // An unpark between prepare() and park() moves the epoch past the
  // ticket, so park() must return without sleeping — the protocol's
  // missed-wakeup window is empty.
  Parker parker;
  const std::uint32_t ticket = parker.prepare();
  parker.unpark();
  parker.park(ticket);  // must not block
}

TEST(Spsc, QueueAndParkerTortureWithSleepingConsumer) {
  // The mailbox's actual await-loop shape: the consumer parks whenever the
  // queue looks empty, the producer pushes then unparks. Bursty pacing
  // makes the consumer actually sleep between bursts; every message must
  // still arrive in order.
  constexpr std::uint64_t kMessages = 200'000;
  SpscQueue<std::uint64_t> q;
  Parker parker;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kMessages; ++i) {
      q.push(i);
      parker.unpark();
      if (i % 4096 == 0) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  while (expected < kMessages) {
    const std::uint32_t ticket = parker.prepare();
    std::uint64_t v = 0;
    if (q.pop(v)) {
      ASSERT_EQ(v, expected);
      ++expected;
      continue;
    }
    parker.park(ticket);
  }
  producer.join();
  EXPECT_TRUE(q.peek_empty());
}

// ---------------------------------------------------------------------------
// Engine behaviour.

TEST(ParallelEngine, RunsRingAndMeasuresWallClock) {
  Machine m(4, {}, TraceConfig{}, engine(EngineKind::kParallel));
  ASSERT_EQ(m.engine(), EngineKind::kParallel);  // no silent fallback
  const auto res = m.run([](Communicator& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    comm.send_value(next, comm.rank());
    EXPECT_EQ(comm.recv_value<int>(prev), prev);
  });
  EXPECT_EQ(res.total.messages_sent, 4u);
  // Under the parallel engine wall_seconds is a real elapsed-time
  // measurement of the OS-thread run (DESIGN.md §13).
  EXPECT_GT(res.wall_seconds, 0.0);
  EXPECT_EQ(m.pending_messages(), 0u);
}

TEST(ParallelEngine, MachineIsReusable) {
  Machine m(3, {}, TraceConfig{}, engine(EngineKind::kParallel));
  for (int round = 0; round < 4; ++round) {
    auto res = m.run([round](Communicator& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_value(next, comm.rank() * 100 + round);
      EXPECT_EQ(comm.recv_value<int>(prev), prev * 100 + round);
    });
    EXPECT_EQ(res.total.messages_sent, 3u);
    EXPECT_EQ(m.pending_messages(), 0u);
  }
}

TEST(ParallelEngine, LeftoverMessagesSurviveExitDrain) {
  // A message never received must still be counted by pending_messages()
  // after the run: exit_parallel drains the SPSC channels back into the
  // ordinary queues, keeping the accounting engine-invariant.
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) comm.send_value(1, 42, 9);
    comm.barrier();  // ensure the deposit lands before the run ends
  });
  EXPECT_EQ(m.pending_messages(), 1u);
}

TEST(ParallelEngine, TestObservesArrivalWithoutBlocking) {
  // The adaptive scheduler's real-time-safe poll path: test() must
  // eventually see a physically delivered message without ever blocking
  // (the consumer drains its channels on each poll).
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      int v = 0;
      Request r = comm.irecv(1, std::span<int>(&v, 1), 3);
      while (!comm.test(r)) std::this_thread::yield();
      EXPECT_EQ(v, 17);
    } else {
      comm.send_value(0, 17, 3);
    }
  });
}

TEST(ParallelEngine, PoisonWakesParkedReceivers) {
  // Ranks parked in futex-wait inside a recv must be woken by a peer's
  // failure, unwind with CommError, and let the machine rethrow the
  // original exception; no messages may leak.
  Machine m(4, {}, TraceConfig{}, engine(EngineKind::kParallel));
  EXPECT_THROW(m.run([](Communicator& comm) {
                 if (comm.rank() == 3) throw ConfigError("rank 3 exploded");
                 (void)comm.recv_value<int>(3);  // parks until poisoned
               }),
               ConfigError);
  EXPECT_EQ(m.pending_messages(), 0u);
}

// ---------------------------------------------------------------------------
// Request-layer bugfixes under the parallel engine.

TEST(ParallelEngine, StaleHandleCopyThrowsUnderParallel) {
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      int v = 0;
      Request r = comm.irecv(1, std::span<int>(&v, 1));
      Request copy = r;  // copies share the slot id
      comm.wait(r);
      EXPECT_TRUE(copy.valid());  // the copy was not reset...
      EXPECT_THROW(comm.wait(copy), CommError);  // ...but its slot is gone
    } else {
      comm.send_value(0, 3);
    }
  });
}

TEST(ParallelEngine, GenerationWrapRetiresTheSlot) {
  // The ABA fix: a slot whose generation counter wraps to 0 is retired,
  // never recycled, so a 2^32-use-old stale handle keeps throwing
  // CommError instead of aliasing a fresh request. The debug seam fakes
  // the 2^32 uses by rewriting the generation to its maximum.
  for (EngineKind kind : {EngineKind::kFibers, EngineKind::kParallel}) {
    Machine m(2, {}, TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        int v = 0;
        Request r = comm.irecv(1, std::span<int>(&v, 1), 5);
        r = comm.debug_rewrite_request_gen(r, 0xffffffffu);
        Request copy = r;
        comm.wait(r);  // completes, then wraps the generation to 0
        EXPECT_EQ(v, 11);
        EXPECT_THROW(comm.wait(copy), CommError);
        // Later traffic allocates fresh slots; the retired one must stay
        // dead, so the ancient copy throws forever.
        for (int i = 0; i < 8; ++i) {
          int w = 0;
          Request r2 = comm.irecv(1, std::span<int>(&w, 1), 5);
          comm.wait(r2);
          EXPECT_EQ(w, 12 + i);
          EXPECT_THROW(comm.wait(copy), CommError);
        }
      } else {
        comm.send_value(0, 11, 5);
        for (int i = 0; i < 8; ++i) comm.send_value(0, 12 + i, 5);
      }
    });
  }
}

// ---------------------------------------------------------------------------
// The benchmark suite: parallel values must be byte-identical to the fiber
// oracle. The suite adapters select the engine from the environment, so
// these tests flip WAVEPIPE_ENGINE per run.

struct SuiteSize {
  const char* name;
  Coord n;
  int iters;
};

constexpr SuiteSize kSuiteSizes[] = {
    {"tomcatv", 40, 2},        {"simple", 40, 2},
    {"sweep3d", 12, 1},        {"smith-waterman", 64, 1},
    {"smith-waterman-2d", 64, 1}, {"sor", 40, 2},
};

Coord size_of(const std::string& name) {
  for (const auto& s : kSuiteSizes)
    if (name == s.name) return s.n;
  ADD_FAILURE() << "unknown suite app " << name;
  return 16;
}

int iters_of(const std::string& name) {
  for (const auto& s : kSuiteSizes)
    if (name == s.name) return s.iters;
  return 1;
}

TEST(ParallelSuite, ValuesAndVtimesMatchFiberOracle) {
  const CostModel cm;  // default costs; engine comes from the environment
  auto suite = wavefront_suite();
  ASSERT_EQ(suite.size(), 6u);
  for (int p : {2, 4, 8}) {
    for (auto& app : suite) {
      const Coord n = size_of(app.name);
      const int iters = iters_of(app.name);
      for (Coord block : {Coord{0}, Coord{3}}) {  // naive and pipelined
        SCOPED_TRACE(app.name + " p=" + std::to_string(p) +
                     " b=" + std::to_string(block));
        RunResult fi, pa;
        double fi_value = 0.0, pa_value = 0.0;
        {
          EnvGuard e("WAVEPIPE_ENGINE", "fibers");
          fi = app.run(p, cm, n, iters, block);
          fi_value = *app.last_value;
        }
        {
          EnvGuard e("WAVEPIPE_ENGINE", "parallel");
          pa = app.run(p, cm, n, iters, block);
          pa_value = *app.last_value;
        }
        // Bit-identical application result, and the full virtual-time
        // observables: the parallel engine changes wall-clock behaviour
        // only.
        EXPECT_EQ(fi_value, pa_value);
        EXPECT_EQ(fi.vtime, pa.vtime);
        EXPECT_EQ(fi.vtime_max, pa.vtime_max);
        EXPECT_EQ(fi.total, pa.total);
        ASSERT_EQ(fi.stats.size(), pa.stats.size());
        for (std::size_t r = 0; r < fi.stats.size(); ++r)
          EXPECT_EQ(fi.stats[r], pa.stats[r]) << "stats rank " << r;
      }
    }
  }
}

TEST(ParallelSuite, ScheduledSweepMatchesFiberOracle) {
  // The dataflow scheduler on top of the parallel engine. Static FIFO mode
  // is fully schedule-invariant, so the whole RunResult must match the
  // fiber oracle; adaptive mode is probe-class (pick order observes
  // physical arrival), so only the computed flux is pinned.
  Sweep3dConfig cfg;
  cfg.n = 12;
  cfg.iterations = 1;
  WaveOptions wopts;
  wopts.block = 3;
  for (int p : {2, 4}) {
    const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
    auto run_one = [&](EngineKind kind, bool adaptive, double& flux) {
      SchedOptions so;
      so.backend = SchedBackend::kSpmd;
      so.adaptive = adaptive;
      Machine m(p, {}, TraceConfig{}, engine(kind));
      return m.run([&](Communicator& comm) {
        const Real v = sweep3d_spmd_scheduled(comm, cfg, grid, wopts, so);
        if (comm.rank() == 0) flux = v;
      });
    };
    SCOPED_TRACE("p=" + std::to_string(p));
    {
      double fi_flux = 0.0, pa_flux = 0.0;
      const auto fi = run_one(EngineKind::kFibers, /*adaptive=*/false, fi_flux);
      const auto pa =
          run_one(EngineKind::kParallel, /*adaptive=*/false, pa_flux);
      EXPECT_EQ(fi_flux, pa_flux);
      EXPECT_EQ(fi.vtime, pa.vtime);
      EXPECT_EQ(fi.vtime_max, pa.vtime_max);
      EXPECT_EQ(fi.total, pa.total);
    }
    {
      double fi_flux = 0.0, pa_flux = 0.0;
      run_one(EngineKind::kFibers, /*adaptive=*/true, fi_flux);
      run_one(EngineKind::kParallel, /*adaptive=*/true, pa_flux);
      EXPECT_EQ(fi_flux, pa_flux);  // values only: adaptive is probe-class
    }
  }
}

// ---------------------------------------------------------------------------
// SpscQueue::pop_batch — the batched consumer claim behind drain_channels.

TEST(Spsc, PopBatchFifoPartialAndEmpty) {
  SpscQueue<int> q;
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 8), 0u);
  EXPECT_TRUE(out.empty());
  for (int i = 0; i < 10; ++i) q.push(i);
  EXPECT_EQ(q.pop_batch(out, 4), 4u);  // full batch
  EXPECT_EQ(q.pop_batch(out, 100), 6u);  // short batch: queue ran dry
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(q.peek_empty());
  // The queue keeps working after a drain (the dummy-head swap is sound).
  q.push(42);
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(Spsc, PopBatchTwoThreadMillionMessageTorture) {
  // Same contract as the single-pop torture: strict FIFO, nothing lost,
  // nothing duplicated — now with the consumer claiming odd-sized batches
  // so batch boundaries land at every phase of the producer's progress.
  SpscQueue<std::uint64_t> q;
  constexpr std::uint64_t kCount = 1000000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) q.push(i);
  });
  std::uint64_t expect = 0;
  std::vector<std::uint64_t> batch;
  while (expect < kCount) {
    batch.clear();
    const std::size_t n = q.pop_batch(batch, 7);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[i], expect) << "FIFO violated";
      ++expect;
    }
    if (n == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(q.peek_empty());
}

TEST(Spsc, RecycledNodesCarryMessagesWithoutAllocating) {
  // The mailbox's element type through the node cache: the consumer starts
  // on a burst only once all of it is queued and drains it completely
  // before the producer refills, so the queue's depth peaks at the largest
  // burst and every burst after the first runs on recycled nodes. Payloads
  // straddle MessagePayload::kInlineBytes (inline, boundary, heap), and the
  // consumer alternates pop() and pop_batch() so both hand nodes back.
  constexpr std::size_t kMessages = 200'000;
  constexpr std::array<std::size_t, 5> kBytes{0, 64, 65, 384, 4096};
  constexpr std::array<std::size_t, 6> kBurst{64, 1, 7, 32, 13, 50};
  static_assert(kBytes[1] == MessagePayload::kInlineBytes);
  auto byte_of = [](std::size_t i, std::size_t k) {
    return static_cast<std::byte>((i * 31 + k * 7) & 0xff);
  };

  SpscQueue<Message> q;
  std::atomic<std::size_t> produced{0};
  std::atomic<std::size_t> consumed{0};
  std::atomic<std::size_t> warm_nodes{0};
  std::thread producer([&] {
    std::vector<std::byte> bytes(kBytes.back());
    std::size_t i = 0;
    for (std::size_t b = 0; i < kMessages; ++b) {
      const std::size_t burst =
          std::min(kBurst[b % kBurst.size()], kMessages - i);
      for (std::size_t end = i + burst; i < end; ++i) {
        const std::size_t n = kBytes[i % kBytes.size()];
        for (std::size_t k = 0; k < n; ++k) bytes[k] = byte_of(i, k);
        Message m;
        m.src = static_cast<int>(i % 3);
        m.tag = static_cast<int>(i);
        m.elements = n / sizeof(double);
        m.payload.assign(std::span<const std::byte>(bytes.data(), n));
        q.push(std::move(m));
      }
      produced.store(i, std::memory_order_release);
      // Drain fully before the refill.
      while (consumed.load(std::memory_order_acquire) < i)
        std::this_thread::yield();
      // The first burst is the largest: from here on nothing allocates.
      if (b == 0) warm_nodes.store(q.allocated_nodes());
    }
  });

  std::vector<Message> batch;
  std::size_t next = 0;
  std::size_t bad = 0;
  auto check = [&](const Message& m) {
    // Counts (never stops on) a mismatch: the producer waits for every
    // message to be consumed, so the loop must run to the end.
    const std::size_t i = next++;
    const std::size_t n = kBytes[i % kBytes.size()];
    bool ok = m.tag == static_cast<int>(i) &&
              m.src == static_cast<int>(i % 3) && m.payload.size() == n;
    for (std::size_t k = 0; ok && k < n; ++k)
      ok = m.payload.data()[k] == byte_of(i, k);
    if (!ok && bad++ == 0)
      ADD_FAILURE() << "message " << i << " arrived out of order or corrupt";
  };
  while (next < kMessages) {
    if (produced.load(std::memory_order_acquire) == next) {
      std::this_thread::yield();  // the next burst is not fully queued yet
      continue;
    }
    std::size_t got = 0;
    if (next % 2 == 0) {
      batch.clear();
      got = q.pop_batch(batch, 16);
      for (const Message& m : batch) check(m);
    } else {
      Message m;
      if (q.pop(m)) {
        check(m);
        got = 1;
      }
    }
    if (got == 0) {
      std::this_thread::yield();
      continue;
    }
    consumed.store(next, std::memory_order_release);
  }
  producer.join();
  EXPECT_EQ(bad, 0u);
  EXPECT_TRUE(q.peek_empty());
  // The deepest burst needs one node per message plus the dummy.
  EXPECT_EQ(warm_nodes.load(), kBurst.front() + 1);
  EXPECT_EQ(q.allocated_nodes(), warm_nodes.load());
}

TEST(ParallelEngine, PoisonAfterBurstDeliversMessagesThenTypedError) {
  // "Poison mid-batch": the sender deposits a burst larger than the
  // consumer's drain batch (kDrainBatch = 32) and then dies. Completion
  // wins over poison, so every already-deposited message must still be
  // received in FIFO order across multiple batched drains, and only the
  // recv that can never complete reports the teardown.
  constexpr int kBurst = 100;
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  int got = 0;
  try {
    m.run([&](Communicator& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kBurst; ++i) comm.send_value(1, i);
        throw CommError("rank 0 dies after the burst");
      }
      for (int i = 0; i < kBurst; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0), i);
        ++got;
      }
      (void)comm.recv_value<int>(0);  // never sent: must surface the poison
      FAIL() << "recv past the burst returned";
    });
    FAIL() << "poisoned run returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).size(), 0u);
  }
  EXPECT_EQ(got, kBurst);
}

// ---------------------------------------------------------------------------
// WorkStealingDeque — the tasks backend's per-worker ready queue.

TEST(Deque, OwnerLifoThiefFifoAndSingleItemRace) {
  WorkStealingDeque d;
  std::int64_t v = 0;
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.pop(v));
  EXPECT_FALSE(d.steal(v));
  for (std::int64_t i = 0; i < 4; ++i) d.push(i);
  EXPECT_FALSE(d.empty());
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 3);  // owner pops LIFO
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 0);  // thieves steal FIFO
  ASSERT_TRUE(d.steal(v));
  EXPECT_EQ(v, 1);
  ASSERT_TRUE(d.pop(v));
  EXPECT_EQ(v, 2);  // the single-item case goes through the CAS race path
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.pop(v));
}

TEST(Deque, GrowthPreservesEveryItem) {
  // Push far past the initial capacity (64) with no pops: grow() must
  // carry every element and steals must still drain in FIFO order.
  WorkStealingDeque d;
  constexpr std::int64_t kN = 10000;
  for (std::int64_t i = 0; i < kN; ++i) d.push(i);
  std::int64_t v = 0;
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(d.steal(v));
    ASSERT_EQ(v, i);
  }
  EXPECT_TRUE(d.empty());
}

TEST(Deque, MultiThiefTortureClaimsEveryItemExactlyOnce) {
  // One owner interleaving pushes and pops with three thieves. Every item
  // must be claimed exactly once across all four threads. This is the TSan
  // pass over the deque: CI reruns this binary under -fsanitize=thread.
  constexpr std::int64_t kItems = 200000;
  constexpr int kThieves = 3;
  WorkStealingDeque d;
  std::vector<std::atomic<int>> claimed(static_cast<std::size_t>(kItems));
  for (auto& c : claimed) c.store(0, std::memory_order_relaxed);
  std::atomic<bool> done{false};
  std::atomic<std::int64_t> total{0};

  auto claim = [&](std::int64_t v) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, kItems);
    EXPECT_EQ(
        claimed[static_cast<std::size_t>(v)].fetch_add(
            1, std::memory_order_relaxed),
        0)
        << "item " << v << " claimed twice";
    total.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::int64_t v = 0;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(v)) claim(v);
      }
      while (d.steal(v)) claim(v);  // final sweep after the owner stops
    });
  }
  std::int64_t v = 0;
  for (std::int64_t i = 0; i < kItems; ++i) {
    d.push(i);
    // Pop in bursts so the bottom oscillates against concurrent steals,
    // exercising the single-item CAS race from both sides.
    if ((i & 7) == 0 && d.pop(v)) claim(v);
  }
  while (d.pop(v)) claim(v);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  EXPECT_EQ(total.load(), kItems);
  EXPECT_TRUE(d.empty());
}

// ---------------------------------------------------------------------------
// OpLock — the recursive spin lock behind Communicator's concurrent mode.

TEST(OpLock, OwnerNestsAndUnwindsEveryLevel) {
  OpLock lk;
  lk.lock();
  lk.lock();
  EXPECT_TRUE(lk.try_lock());  // the owner re-enters without contention
  lk.unlock();
  lk.unlock();
  // Still held at depth 1: another thread cannot take it.
  bool other = true;
  std::thread([&] { other = lk.try_lock(); }).join();
  EXPECT_FALSE(other);
  lk.unlock();
  std::thread([&] {
    other = lk.try_lock();
    if (other) lk.unlock();
  }).join();
  EXPECT_TRUE(other);
}

TEST(OpLock, TryLockFailsWhileHeldAndSucceedsAfterRelease) {
  OpLock lk;
  std::atomic<int> phase{0};
  bool while_held = true, after_release = false;
  std::thread t([&] {
    while (phase.load(std::memory_order_acquire) != 1)
      std::this_thread::yield();
    while_held = lk.try_lock();
    phase.store(2, std::memory_order_release);
    while (phase.load(std::memory_order_acquire) != 3)
      std::this_thread::yield();
    after_release = lk.try_lock();
    if (after_release) lk.unlock();
  });
  lk.lock();
  phase.store(1, std::memory_order_release);
  while (phase.load(std::memory_order_acquire) != 2) std::this_thread::yield();
  lk.unlock();
  phase.store(3, std::memory_order_release);
  t.join();
  EXPECT_FALSE(while_held);
  EXPECT_TRUE(after_release);
}

TEST(OpLock, ArmedCommunicatorSerializesAPlainCounter) {
  // Four threads hammer one armed communicator: the counter is a plain
  // long, so an exact total (and a clean TSan run) shows lock_ops() orders
  // every critical section. compute() nests inside the held lock, and its
  // clock must count every charge too.
  Machine m(1, {}, TraceConfig{}, engine(EngineKind::kParallel));
  Communicator comm(m, 0);
  comm.enable_concurrent_ops();
  constexpr int kThreads = 4;
  constexpr long kIters = 100000;
  long counter = 0;
  std::vector<std::thread> ts;
  for (int i = 0; i < kThreads; ++i)
    ts.emplace_back([&] {
      for (long k = 0; k < kIters; ++k) {
        auto l = comm.lock_ops();
        ASSERT_TRUE(l.owns_lock());
        ++counter;
        comm.compute(1.0);
      }
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
  EXPECT_EQ(comm.vtime(), static_cast<double>(kThreads * kIters));
}

TEST(OpLock, UnarmedCommunicatorLocksNothing) {
  Machine m(1, {}, TraceConfig{}, engine(EngineKind::kParallel));
  Communicator comm(m, 0);
  auto l = comm.lock_ops();
  EXPECT_FALSE(l.owns_lock());
  EXPECT_EQ(l.mutex(), nullptr);
  auto t = comm.try_lock_ops();
  EXPECT_FALSE(t.owns_lock());
  EXPECT_EQ(t.mutex(), nullptr);
}

// ---------------------------------------------------------------------------
// The work-stealing tasks backend (WAVEPIPE_SCHED_BACKEND=tasks).

TEST(TasksBackend, RefusesNonParallelEngineWithTypedError) {
  // The authoritative gate sits on the machine that actually runs — no
  // silent SPMD fallback, and the error names the valid combinations.
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kFibers));
  try {
    m.run([&](Communicator& comm) {
      TaskGraph g;
      g.add({.label = "t"});
      SchedOptions so;
      so.backend = SchedBackend::kTasks;
      run_graph(g, comm, so);
    });
    FAIL() << "tasks backend ran on the fiber engine";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parallel engine"), std::string::npos) << what;
    EXPECT_NE(what.find("Valid combinations"), std::string::npos) << what;
  }
}

TEST(TasksBackend, HandGraphCrossRankInflowAndReport) {
  // Two ranks, explicit graph: rank 0 computes a payload and sends it;
  // rank 1's consumer task declares it as inflow. Exercises release,
  // promotion via arrived(), TaskContext::send through the per-rank sink,
  // and the send-settlement at departure.
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  std::atomic<int> ran{0};
  std::vector<double> seen(3, 0.0);
  SchedReport reps[2];
  m.run([&](Communicator& comm) {
    TaskGraph g;
    SchedOptions so;
    so.backend = SchedBackend::kTasks;
    if (comm.rank() == 0) {
      const TaskId a = g.add({.label = "produce",
                              .cost = 4.0,
                              .run = [&](TaskContext& ctx) {
                                ctx.comm.compute(4.0);
                                const double payload[3] = {1.5, 2.5, 3.5};
                                ctx.send(1, payload, 77);
                                ran.fetch_add(1);
                              }});
      const TaskId b = g.add({.label = "after",
                              .run = [&](TaskContext&) { ran.fetch_add(1); }});
      g.add_edge(a, b);
    } else {
      g.add({.label = "consume",
             .inflows = {{0, 77, 3}},
             .run = [&](TaskContext& ctx) {
               ASSERT_EQ(ctx.inflow.size(), 3u);
               std::copy(ctx.inflow.begin(), ctx.inflow.end(), seen.begin());
               ran.fetch_add(1);
             }});
    }
    reps[comm.rank()] = run_graph(g, comm, so);
  });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(seen, (std::vector<double>{1.5, 2.5, 3.5}));
  EXPECT_EQ(reps[0].backend, SchedBackend::kTasks);
  EXPECT_EQ(reps[1].backend, SchedBackend::kTasks);
  EXPECT_EQ(reps[0].tasks, 2u);
  EXPECT_EQ(reps[1].tasks, 1u);
  EXPECT_EQ(reps[1].max_posted, 1u);
}

TEST(TasksBackend, ScheduledSweep3dValuesMatchFiberOracle) {
  // The headline identity: the tasks backend computes byte-identical flux
  // to the fiber oracle's SPMD walk at p in {2, 4, 8}, adaptive mode.
  Sweep3dConfig cfg;
  cfg.n = 12;
  cfg.iterations = 1;
  WaveOptions wopts;
  wopts.block = 3;
  for (int p : {2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const ProcGrid<3> grid = ProcGrid<3>::along_dim(p, 0);
    auto run_one = [&](EngineKind kind, SchedBackend backend, double& flux) {
      SchedOptions so;
      so.backend = backend;
      Machine m(p, {}, TraceConfig{}, engine(kind));
      return m.run([&](Communicator& comm) {
        const Real v = sweep3d_spmd_scheduled(comm, cfg, grid, wopts, so);
        if (comm.rank() == 0) flux = v;
      });
    };
    double fi_flux = 0.0, tk_flux = 0.0;
    run_one(EngineKind::kFibers, SchedBackend::kSpmd, fi_flux);
    run_one(EngineKind::kParallel, SchedBackend::kTasks, tk_flux);
    EXPECT_EQ(fi_flux, tk_flux);
  }
}

TEST(TasksBackend, ScheduledAltSweepValuesMatchFiberOracle) {
  AltSweepConfig cfg;
  cfg.n = 32;
  cfg.iterations = 2;
  WaveOptions wopts;
  wopts.block = 8;
  wopts.overlap = true;
  for (int p : {2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const ProcGrid<2> grid = ProcGrid<2>::along_dim(p, 0);
    auto run_one = [&](EngineKind kind, SchedBackend backend, double& res,
                       double& cs) {
      SchedOptions so;
      so.backend = backend;
      Machine m(p, {}, TraceConfig{}, engine(kind));
      m.run([&](Communicator& comm) {
        AltSweep app(cfg, grid, comm.rank());
        app.iterate_scheduled(comm, cfg.iterations, wopts, so);
        const Real r = app.residual_norm(comm);
        const Real c = app.checksum(comm);
        if (comm.rank() == 0) {
          res = r;
          cs = c;
        }
      });
    };
    double fi_res = 0.0, fi_cs = 0.0, tk_res = 0.0, tk_cs = 0.0;
    run_one(EngineKind::kFibers, SchedBackend::kSpmd, fi_res, fi_cs);
    run_one(EngineKind::kParallel, SchedBackend::kTasks, tk_res, tk_cs);
    EXPECT_EQ(fi_res, tk_res);
    EXPECT_EQ(fi_cs, tk_cs);
  }
}

TEST(TasksBackend, DeadlockNamesTheStuckTask) {
  // Rank 0's only task consumes a message rank 1 never sends. Rank 1's
  // worker departs; rank 0's worker goes idle with a pending inflow that
  // can never arrive — the pool's last-idle detector must convert that
  // into a SchedError naming the stuck task, not a hang.
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  try {
    m.run([&](Communicator& comm) {
      TaskGraph g;
      if (comm.rank() == 0)
        g.add({.label = "lonely-consumer",
               .inflows = {{1, 99, 1}}});
      SchedOptions so;
      so.backend = SchedBackend::kTasks;
      run_graph(g, comm, so);
      if (comm.rank() == 0) FAIL() << "starved graph completed";
    });
    FAIL() << "deadlocked run returned";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("lonely-consumer"), std::string::npos) << what;
  }
}

TEST(TasksBackend, CrossRankStealsReported) {
  // Rank 1's graph is a wide fan of independent compute tasks; rank 0's
  // single task consumes a payload rank 1 sends only after the whole fan.
  // Rank 0's worker therefore idles with one posted inflow and nothing
  // runnable of its own — exactly the state whose cure is stealing — and
  // must execute some of rank 1's tasks, which each run long enough (a
  // real sleep) that the fan cannot drain before rank 0 looks. Pins that
  // report.steals actually surfaces the counter (it was once dropped on
  // the floor and read 0 for every run).
  constexpr int kFan = 48;
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  SchedReport reps[2];
  std::atomic<int> ran{0};
  m.run([&](Communicator& comm) {
    TaskGraph g;
    SchedOptions so;
    so.backend = SchedBackend::kTasks;
    if (comm.rank() == 1) {
      std::vector<TaskId> fan;
      for (int i = 0; i < kFan; ++i)
        fan.push_back(
            g.add({.label = "fan" + std::to_string(i),
                   .run = [&](TaskContext& ctx) {
                     std::this_thread::sleep_for(std::chrono::microseconds(500));
                     ctx.comm.compute(1.0);
                     ran.fetch_add(1);
                   }}));
      const TaskId fin = g.add({.label = "finale",
                                .run = [&](TaskContext& ctx) {
                                  const double payload[1] = {42.0};
                                  ctx.send(0, payload, 5);
                                }});
      for (TaskId t : fan) g.add_edge(t, fin);
    } else {
      g.add({.label = "sink",
             .inflows = {{1, 5, 1}},
             .run = [&](TaskContext& ctx) { EXPECT_EQ(ctx.inflow[0], 42.0); }});
    }
    reps[comm.rank()] = run_graph(g, comm, so);
  });
  EXPECT_EQ(ran.load(), kFan);
  // Rank 1's report counts rank 1's tasks that ran on rank 0's worker.
  EXPECT_GT(reps[1].steals, 0u);
}

TEST(TasksBackend, TaskBodyThrowQuiescesStolenWorkBeforeTeardown) {
  // Rank 0's graph is a wide fan plus a task that throws; rank 1 idles on
  // an inflow rank 0 never sends, so rank 1's worker spends the round
  // executing *stolen* rank-0 tasks. When the bomb fires, rank 0's thread
  // unwinds and destroys its stack-resident Communicator — the failure
  // path must run the same departure handshake as a clean depart (flip
  // `departed`, then wait out in-flight stolen tasks), or rank 1
  // dereferences a dead Communicator mid-task (the TSan tier catches the
  // regression as a use-after-free). Both ranks must surface a typed
  // error; the run must never hang.
  constexpr int kFan = 48;
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kParallel));
  try {
    m.run([&](Communicator& comm) {
      TaskGraph g;
      SchedOptions so;
      so.backend = SchedBackend::kTasks;
      // Equal critical paths + bomb-first: the tie-break by task id gives
      // the bomb the best steal-order key, so rank 0's owner LIFO-pops it
      // while rank 1 FIFO-steals fan tasks from the other end — the throw
      // is guaranteed to land on the rank whose tasks are being stolen, not
      // on the thief.
      if (comm.rank() == 0) {
        g.add({.label = "bomb", .run = [](TaskContext&) {
                 std::this_thread::sleep_for(std::chrono::milliseconds(1));
                 throw std::runtime_error("task body exploded");
               }});
        for (int i = 0; i < kFan; ++i)
          g.add({.label = "fan" + std::to_string(i),
                 // Touch the (rank-0) communicator every few dozen
                 // microseconds for ~2ms: a thief is virtually certain to
                 // be inside one of these when the bomb fires.
                 .run = [](TaskContext& ctx) {
                   for (int k = 0; k < 40; ++k) {
                     std::this_thread::sleep_for(std::chrono::microseconds(50));
                     ctx.comm.compute(1.0);
                   }
                 }});
      } else {
        g.add({.label = "starved",
               .inflows = {{0, 9, 1}}});
      }
      run_graph(g, comm, so);
      ADD_FAILURE() << "failed round returned normally on rank "
                    << comm.rank();
    });
    FAIL() << "machine run with a throwing task body returned";
  } catch (const std::exception& e) {
    // Machine::run rethrows the first failing rank's exception: either the
    // bomb itself or a peer's typed abort naming it.
    const std::string what = e.what();
    EXPECT_TRUE(what.find("exploded") != std::string::npos ||
                what.find("aborted") != std::string::npos ||
                what.find("failed") != std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace wavepipe
