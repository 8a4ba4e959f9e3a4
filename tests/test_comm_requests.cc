// Unit tests: the nonblocking request layer (isend/irecv + wait/test/
// wait_all/wait_any). The virtual-time contract under test: isend();wait()
// bills exactly what send() bills, irecv();wait() exactly what recv()
// bills, completion order is deterministic, and posted receives interleave
// FIFO with blocking receives on the same (src, tag) key — under both
// engines.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "comm/machine.hh"
#include "support/error.hh"
#include "testing/chaos.hh"

namespace wavepipe {
namespace {

CostModel costs(double alpha, double beta, double per_elem = 1.0) {
  CostModel cm;
  cm.alpha = alpha;
  cm.beta = beta;
  cm.compute_per_element = per_elem;
  return cm;
}

EngineConfig engine(EngineKind kind) {
  EngineConfig cfg;
  cfg.kind = kind;
  return cfg;
}

const EngineKind kBothEngines[] = {EngineKind::kFibers, EngineKind::kParallel};

TEST(Requests, IrecvPostedBeforeSendCompletes) {
  for (EngineKind kind : kBothEngines) {
    Machine m(2, costs(10, 1), TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        double v = 0.0;
        Request r = comm.irecv(1, std::span<double>(&v, 1), 3);
        EXPECT_TRUE(r.valid());
        EXPECT_DOUBLE_EQ(comm.vtime(), 0.0);  // posting is free
        comm.wait(r);
        EXPECT_FALSE(r.valid());  // consumed
        EXPECT_DOUBLE_EQ(v, 42.0);
      } else {
        comm.send_value(0, 42.0, 3);
      }
    });
  }
}

TEST(Requests, IrecvPostedAfterSendArrivedCompletes) {
  for (EngineKind kind : kBothEngines) {
    Machine m(2, costs(10, 1), TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        comm.barrier();  // the message is certainly queued after this
        double v = 0.0;
        Request r = comm.irecv(1, std::span<double>(&v, 1), 3);
        comm.wait(r);
        EXPECT_DOUBLE_EQ(v, 42.0);
      } else {
        comm.send_value(0, 42.0, 3);
        comm.barrier();
      }
    });
  }
}

TEST(Requests, PostedReceivesMatchInPostingOrder) {
  // Two irecvs on one (src, tag) key: the first posted gets the first
  // message even when the second is waited first.
  for (EngineKind kind : kBothEngines) {
    Machine m(2, {}, TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        int a = 0, b = 0;
        Request ra = comm.irecv(1, std::span<int>(&a, 1), 9);
        Request rb = comm.irecv(1, std::span<int>(&b, 1), 9);
        comm.wait(rb);
        comm.wait(ra);
        EXPECT_EQ(a, 1);
        EXPECT_EQ(b, 2);
      } else {
        comm.send_value(0, 1, 9);
        comm.send_value(0, 2, 9);
      }
    });
  }
}

TEST(Requests, BlockingAndNonblockingInterleaveFifoOnOneKey) {
  // Stress: one (src, tag) stream consumed by an alternating mix of
  // irecv/wait and blocking recv. Posting order is consumption order.
  constexpr int kN = 64;
  for (EngineKind kind : kBothEngines) {
    Machine m(2, {}, TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<int> got;
        int k = 0;
        while (k < kN) {
          switch (k % 4) {
            case 0: {  // irecv waited immediately
              int v = -1;
              Request r = comm.irecv(1, std::span<int>(&v, 1), 5);
              comm.wait(r);
              got.push_back(v);
              ++k;
              break;
            }
            case 1: {  // irecv posted, blocking recv overtakes in program
                       // order but not in matching order
              int v1 = -1;
              Request r = comm.irecv(1, std::span<int>(&v1, 1), 5);
              const int v2 = comm.recv_value<int>(1, 5);
              comm.wait(r);
              got.push_back(v1);
              got.push_back(v2);
              k += 2;
              break;
            }
            default: {  // plain blocking recv
              got.push_back(comm.recv_value<int>(1, 5));
              ++k;
              break;
            }
          }
        }
        for (int i = 0; i < kN; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
      } else {
        for (int i = 0; i < kN; ++i) comm.send_value(0, i, 5);
      }
    });
  }
}

TEST(Requests, IsendWaitBillsExactlyLikeBlockingSend) {
  // occupy_sender (the default): no charge at post, the full alpha+beta*n
  // lands as t_comm at wait — identical totals to blocking send.
  for (EngineKind kind : kBothEngines) {
    Machine blocking(2, costs(100, 3), TraceConfig{}, engine(kind));
    const auto res_b = blocking.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<double> v(8, 1.0);
        comm.send(1, std::span<const double>(v), 2);
      } else {
        std::vector<double> v(8);
        comm.recv(0, std::span<double>(v), 2);
      }
    });
    Machine nonblocking(2, costs(100, 3), TraceConfig{}, engine(kind));
    const auto res_n = nonblocking.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<double> v(8, 1.0);
        Request r = comm.isend(1, std::span<const double>(v), 2);
        EXPECT_DOUBLE_EQ(comm.vtime(), 0.0);  // nothing billed at post
        comm.wait(r);
        EXPECT_DOUBLE_EQ(comm.vtime(), 100.0 + 3.0 * 8.0);
      } else {
        std::vector<double> v(8);
        Request r = comm.irecv(0, std::span<double>(v), 2);
        comm.wait(r);
      }
    });
    EXPECT_EQ(res_b.vtime, res_n.vtime);
    for (std::size_t r = 0; r < res_b.phases.size(); ++r)
      EXPECT_EQ(res_b.phases[r], res_n.phases[r]) << "rank " << r;
  }
}

TEST(Requests, ConsecutiveIsendsQueueOnTheSendEngine) {
  // Three isends posted back to back: the send engine serializes them
  // (arrivals at 108, 216, 324) while the cpu computes; the final wait
  // only stalls to the engine's drain time. Blocking sends cost 474.
  const CostModel cm = costs(100, 1);
  auto body = [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(8, 1.0);
      std::vector<Request> rs;
      for (int i = 0; i < 3; ++i) {
        rs.push_back(comm.isend(1, std::span<const double>(v), 4));
        comm.compute(50.0);
      }
      comm.wait_all(std::span<Request>(rs));
      EXPECT_DOUBLE_EQ(comm.vtime(), 324.0);  // max(150, 3*108)
    } else {
      std::vector<double> v(8);
      for (int i = 0; i < 3; ++i) comm.recv(0, std::span<double>(v), 4);
      EXPECT_DOUBLE_EQ(comm.vtime(), 324.0);  // last arrival
    }
  };
  for (EngineKind kind : kBothEngines) {
    Machine m(2, cm, TraceConfig{}, engine(kind));
    const auto res = m.run(body);
    EXPECT_DOUBLE_EQ(res.vtime_max, 324.0);
    // The blocking schedule pays 3*(108 + 50) on the sender.
    Machine mb(2, cm, TraceConfig{}, engine(kind));
    const auto res_b = mb.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        std::vector<double> v(8, 1.0);
        for (int i = 0; i < 3; ++i) {
          comm.send(1, std::span<const double>(v), 4);
          comm.compute(50.0);
        }
      } else {
        std::vector<double> v(8);
        for (int i = 0; i < 3; ++i) comm.recv(0, std::span<double>(v), 4);
      }
    });
    EXPECT_GT(res_b.vtime_max, res.vtime_max);  // overlap won
  }
}

TEST(Requests, TestReportsVirtualTimeCompletion) {
  // test() succeeds only once the rank's own clock has reached the
  // operation's completion stamp; it never advances the clock itself.
  Machine m(2, costs(10, 1), TraceConfig{}, engine(EngineKind::kFibers));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      double v = 1.0;
      Request r = comm.isend(1, std::span<const double>(&v, 1), 6);
      EXPECT_FALSE(comm.test(r));  // engine busy until t=11
      EXPECT_TRUE(r.valid());
      comm.compute(20.0);  // clock passes the completion stamp
      EXPECT_TRUE(comm.test(r));
      EXPECT_FALSE(r.valid());
      comm.barrier();
    } else {
      double v = 0.0;
      Request r = comm.irecv(0, std::span<double>(&v, 1), 6);
      comm.barrier();  // physically arrived, but arrival stamp is t=11
      const double t_after_barrier = comm.vtime();
      if (t_after_barrier >= 11.0) {
        EXPECT_TRUE(comm.test(r));
        EXPECT_DOUBLE_EQ(v, 1.0);
      } else {
        EXPECT_FALSE(comm.test(r));
        comm.wait(r);
        EXPECT_DOUBLE_EQ(v, 1.0);
      }
    }
  });
}

TEST(Requests, WaitAnyPicksEarliestCompletionDeterministically) {
  // Rank 0 posts receives from ranks 1 and 2; rank 2's message leaves
  // earlier in virtual time. Arrival is dependency-forced by the barrier,
  // so both engines must pick the same index: the smaller arrival stamp.
  for (EngineKind kind : kBothEngines) {
    Machine m(3, costs(10, 1), TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        double a = 0.0, b = 0.0;
        std::vector<Request> rs;
        rs.push_back(comm.irecv(1, std::span<double>(&a, 1), 1));
        rs.push_back(comm.irecv(2, std::span<double>(&b, 1), 2));
        comm.barrier();  // both sends have physically happened
        const std::size_t first = comm.wait_any(std::span<Request>(rs));
        EXPECT_EQ(first, 1u);  // rank 2 sent at t=1, rank 1 at t=5
        EXPECT_FALSE(rs[1].valid());
        EXPECT_TRUE(rs[0].valid());
        const std::size_t second = comm.wait_any(std::span<Request>(rs));
        EXPECT_EQ(second, 0u);
        EXPECT_DOUBLE_EQ(a, 10.0);
        EXPECT_DOUBLE_EQ(b, 20.0);
      } else if (comm.rank() == 1) {
        comm.compute(5.0);
        comm.send_value(0, 10.0, 1);
        comm.barrier();
      } else {
        comm.compute(1.0);
        comm.send_value(0, 20.0, 2);
        comm.barrier();
      }
    });
  }
}

TEST(Requests, WaitAnyBlocksUntilSomethingArrives) {
  // With only receives pending, wait_any must block (not spin or throw)
  // until a deposit completes one.
  for (EngineKind kind : kBothEngines) {
    Machine m(2, {}, TraceConfig{}, engine(kind));
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        int v = 0;
        std::vector<Request> rs;
        rs.push_back(comm.irecv(1, std::span<int>(&v, 1), 8));
        EXPECT_EQ(comm.wait_any(std::span<Request>(rs)), 0u);
        EXPECT_EQ(v, 7);
      } else {
        comm.send_value(0, 7, 8);
      }
    });
  }
}

TEST(Requests, WaitOnInvalidHandleIsANoOp) {
  Machine::run(1, {}, [](Communicator& comm) {
    Request r;
    EXPECT_FALSE(r.valid());
    comm.wait(r);  // must not throw
    EXPECT_TRUE(comm.test(r));
    std::vector<Request> rs(3);
    comm.wait_all(std::span<Request>(rs));  // all invalid: no-op
    EXPECT_THROW(comm.wait_any(std::span<Request>(rs)), CommError);
  });
}

TEST(Requests, StaleHandleCopyIsDetected) {
  Machine::run(2, {}, [](Communicator& comm) {
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

TEST(Requests, StatsCountNonblockingOperations) {
  const auto res = Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      int v = 0;
      Request r = comm.irecv(1, std::span<int>(&v, 1));
      comm.wait(r);
      comm.send_value(1, 1);  // blocking: not an isend
    } else {
      const int x = 2;
      Request s = comm.isend(0, std::span<const int>(&x, 1));
      comm.wait(s);
      (void)comm.recv_value<int>(0);
    }
  });
  EXPECT_EQ(res.total.isends, 1u);
  EXPECT_EQ(res.total.irecvs, 1u);
  EXPECT_EQ(res.total.messages_sent, 2u);
  EXPECT_EQ(res.total.messages_received, 2u);
}

TEST(Requests, DeadlockReportNamesPendingRequests) {
  // Under fibers an all-blocked machine reports which receives every rank
  // is stuck on — including nonblocking ones in flight.
  Machine m(2, {}, TraceConfig{}, engine(EngineKind::kFibers));
  try {
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        int v = 0;
        Request r = comm.irecv(1, std::span<int>(&v, 1), 7);
        comm.wait(r);  // never satisfied
      } else {
        (void)comm.recv_value<int>(0, 3);  // never satisfied
      }
    });
    FAIL() << "deadlocked run returned";
  } catch (const EngineError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos) << what;
    EXPECT_NE(what.find("irecv(src=1, tag=7)"), std::string::npos) << what;
    EXPECT_NE(what.find("recv(src=0, tag=3)"), std::string::npos) << what;
  }
}

TEST(Requests, SizeMismatchSurfacesAtWait) {
  for (EngineKind kind : kBothEngines) {
    Machine m(2, {}, TraceConfig{}, engine(kind));
    EXPECT_THROW(m.run([](Communicator& comm) {
                   if (comm.rank() == 0) {
                     std::vector<int> v(2);
                     Request r = comm.irecv(1, std::span<int>(v), 1);
                     comm.wait(r);
                   } else {
                     comm.send_value(0, 5, 1);  // one element, not two
                   }
                 }),
                 CommError)
        << to_string(kind);
  }
}

TEST(Requests, MixedBlockingNonblockingWaitAnyOneKeyKeepsFifoUnderChaos) {
  // Regression distilled from the chaos fuzzer's hottest pattern (ISSUE 4):
  // one (src, tag) key worked simultaneously by blocking recv, posted
  // irecvs, and wait_any, while a fault plan delays and jitters physical
  // delivery. A 45k-seed sweep of the generated-program fuzzer found no
  // ordering bug in the posted-receive protocol; this pins the pattern the
  // sweep leaned on hardest so it stays covered at unit-test granularity.
  // FIFO-per-key means values arrive in send order no matter which receive
  // flavor claims them or which request wait_any picks first.
  constexpr int kMsgs = 12;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ChaosOptions opts;
    opts.random_sched = true;
    opts.sched_seed = seed;
    opts.faults.seed = seed;
    opts.faults.delay_prob = 0.8;
    opts.faults.max_delay_steps = 11;
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    run_chaotic(2, {}, opts, [](Communicator& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kMsgs; ++i) comm.send_value(1, i, /*tag=*/5);
        return;
      }
      std::vector<int> got;
      std::vector<int> slot(4, -1);
      // Rounds of 4: blocking recv, two posted irecvs resolved via
      // wait_any (physical order) then wait, and one more blocking recv —
      // all on the same key.
      for (int round = 0; round < kMsgs / 4; ++round) {
        got.push_back(comm.recv_value<int>(0, 5));
        std::array<Request, 2> reqs = {
            comm.irecv(0, std::span<int>(&slot[0], 1), 5),
            comm.irecv(0, std::span<int>(&slot[1], 1), 5)};
        got.push_back(comm.recv_value<int>(0, 5));
        const std::size_t first = comm.wait_any(std::span<Request>(reqs));
        comm.wait(reqs[1 - first]);
        // The irecvs were posted in order, so slot[0] precedes slot[1]
        // regardless of which request completed first physically.
        got.push_back(slot[0]);
        got.push_back(slot[1]);
        // FIFO: the blocking recvs bracket the posted pair, in post order.
        const int base = round * 4;
        EXPECT_EQ(got[static_cast<std::size_t>(base) + 0], base + 0);
        EXPECT_EQ(got[static_cast<std::size_t>(base) + 1], base + 3);
        EXPECT_EQ(got[static_cast<std::size_t>(base) + 2], base + 1);
        EXPECT_EQ(got[static_cast<std::size_t>(base) + 3], base + 2);
      }
    });
  }
}

TEST(Requests, LatencyModeBillsOverheadAtPost) {
  // With occupy_sender = false the blocking send charges send_overhead and
  // nothing else; isend must do the same, with wait a no-op.
  CostModel cm = costs(100, 3);
  cm.occupy_sender = false;
  cm.send_overhead = 2.0;
  Machine m(2, cm, TraceConfig{}, engine(EngineKind::kFibers));
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      double v = 1.0;
      Request r = comm.isend(1, std::span<const double>(&v, 1), 1);
      EXPECT_DOUBLE_EQ(comm.vtime(), 2.0);  // overhead billed at post
      comm.wait(r);
      EXPECT_DOUBLE_EQ(comm.vtime(), 2.0);  // wait adds nothing
    } else {
      double v = 0.0;
      Request r = comm.irecv(0, std::span<double>(&v, 1), 1);
      comm.wait(r);
      EXPECT_DOUBLE_EQ(comm.vtime(), 103.0);  // wire arrival, as blocking
    }
  });
}

}  // namespace
}  // namespace wavepipe
