// Unit tests: message-passing runtime, point-to-point layer.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "comm/machine.hh"

namespace wavepipe {
namespace {

TEST(Machine, SizeValidation) {
  EXPECT_THROW(Machine(0), ContractError);
  EXPECT_NO_THROW(Machine(1));
  EXPECT_NO_THROW(Machine(17));
}

TEST(Mailbox, SerialWaitWithNoBlockerThrowsTypedError) {
  // Serial mode with no cooperative engine attached: this thread is the
  // only one that could deposit, so a wait that would block can never be
  // woken. It must raise a typed error naming what is posted, not hang.
  Mailbox mb;
  try {
    (void)mb.await(1, 7);
    FAIL() << "unwakeable wait returned";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("recv(src=1, tag=7)"),
              std::string::npos)
        << e.what();
  }
  // The failed receive left nothing registered behind it...
  EXPECT_EQ(mb.posted_summary(), "");
  EXPECT_THROW(mb.await_until([] { return false; }), EngineError);

  // ...and waits that need no blocking still complete in serial mode.
  Message m{};
  m.src = 1;
  m.tag = 7;
  m.elements = 3;
  mb.deposit(std::move(m));
  EXPECT_EQ(mb.pending(), 1u);
  EXPECT_EQ(mb.await(1, 7).elements, 3u);
  EXPECT_EQ(mb.pending(), 0u);
  EXPECT_NO_THROW(mb.await_until([] { return true; }));
}

TEST(P2P, SingleValueRoundTrip) {
  auto result = Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 42.5);
    } else {
      EXPECT_DOUBLE_EQ(comm.recv_value<double>(0), 42.5);
    }
  });
  EXPECT_EQ(result.total.messages_sent, 1u);
  EXPECT_EQ(result.total.messages_received, 1u);
}

TEST(P2P, VectorPayload) {
  Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<int> v(1000);
      std::iota(v.begin(), v.end(), 0);
      comm.send(1, std::span<const int>(v));
    } else {
      std::vector<int> v(1000);
      comm.recv(0, std::span<int>(v));
      for (int i = 0; i < 1000; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i);
    }
  });
}

TEST(P2P, FifoOrderPerSourceAndTag) {
  Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 50; ++k) comm.send_value(1, k, /*tag=*/3);
    } else {
      for (int k = 0; k < 50; ++k)
        EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/3), k);
    }
  });
}

TEST(P2P, TagsMatchIndependently) {
  Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, /*tag=*/10);
      comm.send_value(1, 2, /*tag=*/20);
    } else {
      // Receive in the opposite order of sending: tags select messages.
      EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/20), 2);
      EXPECT_EQ(comm.recv_value<int>(0, /*tag=*/10), 1);
    }
  });
}

TEST(P2P, SourcesMatchIndependently) {
  Machine::run(3, {}, [](Communicator& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 11);
    } else if (comm.rank() == 2) {
      comm.send_value(0, 22);
    } else {
      // Receive from rank 2 first even if rank 1's message arrived first.
      EXPECT_EQ(comm.recv_value<int>(2), 22);
      EXPECT_EQ(comm.recv_value<int>(1), 11);
    }
  });
}

TEST(P2P, ProbeSeesQueuedMessage) {
  Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 7);
      comm.barrier();
    } else {
      comm.barrier();  // after this the message is certainly queued
      EXPECT_TRUE(comm.probe(0, 7));
      EXPECT_FALSE(comm.probe(0, 8));
      EXPECT_EQ(comm.recv_value<int>(0, 7), 5);
      EXPECT_FALSE(comm.probe(0, 7));
    }
  });
}

TEST(P2P, SizeMismatchThrowsCommError) {
  EXPECT_THROW(Machine::run(2, {},
                            [](Communicator& comm) {
                              if (comm.rank() == 0) {
                                comm.send_value(1, 1.0);
                              } else {
                                std::vector<double> v(2);
                                comm.recv(0, std::span<double>(v));
                              }
                            }),
               CommError);
}

TEST(P2P, SelfSendRejected) {
  EXPECT_THROW(
      Machine::run(2, {},
                   [](Communicator& comm) {
                     if (comm.rank() == 0) comm.send_value(0, 1);
                   }),
      Error);
}

TEST(P2P, NegativeUserTagRejected) {
  EXPECT_THROW(
      Machine::run(2, {},
                   [](Communicator& comm) {
                     if (comm.rank() == 0) comm.send_value(1, 1, -5);
                   }),
      ContractError);
}

TEST(P2P, RankFailurePoisonsBlockedPeers) {
  // Rank 1 blocks on a receive that will never be satisfied; rank 0 throws.
  // The machine must tear down (not deadlock) and rethrow rank 0's error.
  EXPECT_THROW(Machine::run(2, {},
                            [](Communicator& comm) {
                              if (comm.rank() == 0)
                                throw ConfigError("rank 0 exploded");
                              (void)comm.recv_value<int>(0);
                            }),
               ConfigError);
}

TEST(P2P, CleanRunLeavesNoPendingMessages) {
  Machine m(2);
  m.run([](Communicator& comm) {
    if (comm.rank() == 0)
      comm.send_value(1, 9);
    else
      (void)comm.recv_value<int>(0);
  });
  EXPECT_EQ(m.pending_messages(), 0u);
}

TEST(P2P, MachineIsReusable) {
  Machine m(3);
  for (int round = 0; round < 4; ++round) {
    auto res = m.run([round](Communicator& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send_value(next, comm.rank() * 100 + round);
      EXPECT_EQ(comm.recv_value<int>(prev), prev * 100 + round);
    });
    EXPECT_EQ(res.total.messages_sent, 3u);
  }
}

TEST(P2P, ManyRanksRing) {
  const int p = 16;
  auto res = Machine::run(p, {}, [p](Communicator& comm) {
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    comm.send_value(next, comm.rank());
    EXPECT_EQ(comm.recv_value<int>(prev), prev);
  });
  EXPECT_EQ(res.total.messages_sent, static_cast<std::uint64_t>(p));
}

TEST(P2P, StatsCountElementsAndBytes) {
  auto res = Machine::run(2, {}, [](Communicator& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(10, 1.0);
      comm.send(1, std::span<const double>(v));
    } else {
      std::vector<double> v(10);
      comm.recv(0, std::span<double>(v));
    }
  });
  EXPECT_EQ(res.stats[0].elements_sent, 10u);
  EXPECT_EQ(res.stats[0].bytes_sent, 80u);
  EXPECT_EQ(res.stats[1].messages_received, 1u);
}

}  // namespace
}  // namespace wavepipe
