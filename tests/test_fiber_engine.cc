// Fiber-engine robustness: engine selection from the environment, stack
// sizing and clamping, typed errors for stack overflow and communication
// deadlock (conditions real OS threads would SIGSEGV or hang on).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "comm/machine.hh"
#include "support/error.hh"

namespace wavepipe {
namespace {

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

TEST(FiberEngine, ToStringNames) {
  EXPECT_STREQ(to_string(EngineKind::kFibers), "fibers");
  EXPECT_STREQ(to_string(EngineKind::kParallel), "parallel");
}

TEST(FiberEngine, SupportedOnThisPlatform) {
  EXPECT_TRUE(fibers_supported());
}

TEST(FiberEngine, FromEnvDefaultsToFibers) {
  EnvGuard e("WAVEPIPE_ENGINE", nullptr);
  EnvGuard s("WAVEPIPE_FIBER_STACK", nullptr);
  const EngineConfig cfg = EngineConfig::from_env();
  EXPECT_EQ(cfg.kind, EngineKind::kFibers);
  EXPECT_EQ(cfg.stack_bytes, EngineConfig::kDefaultStackBytes);
}

TEST(FiberEngine, FromEnvSelectsEngine) {
  {
    EnvGuard e("WAVEPIPE_ENGINE", "fibers");
    EXPECT_EQ(EngineConfig::from_env().kind, EngineKind::kFibers);
  }
  {
    EnvGuard e("WAVEPIPE_ENGINE", "parallel");
    EXPECT_EQ(EngineConfig::from_env().kind, EngineKind::kParallel);
  }
  // The rejection must name the full valid set and the rejected value; the
  // retired one-thread-per-rank engine is rejected like any unknown name.
  for (const char* bad : {"green-threads", "threads"}) {
    EnvGuard e("WAVEPIPE_ENGINE", bad);
    try {
      (void)EngineConfig::from_env();
      FAIL() << "unknown engine '" << bad << "' accepted";
    } catch (const ConfigError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("'fibers' or 'parallel'"), std::string::npos)
          << what;
      EXPECT_NE(what.find(std::string("got '") + bad + "'"),
                std::string::npos)
          << what;
    }
  }
}

TEST(FiberEngine, FromEnvParsesPinToggle) {
  EnvGuard e("WAVEPIPE_ENGINE", "parallel");
  {
    EnvGuard g("WAVEPIPE_PIN", nullptr);
    EXPECT_TRUE(EngineConfig::from_env().pin_threads);  // default on
  }
  {
    EnvGuard g("WAVEPIPE_PIN", "0");
    EXPECT_FALSE(EngineConfig::from_env().pin_threads);
  }
  {
    EnvGuard g("WAVEPIPE_PIN", "1");
    EXPECT_TRUE(EngineConfig::from_env().pin_threads);
  }
  {
    EnvGuard g("WAVEPIPE_PIN", "maybe");
    EXPECT_THROW(EngineConfig::from_env(), ConfigError);
  }
}

TEST(FiberEngine, FromEnvParsesStackSizes) {
  struct Case {
    const char* value;
    std::size_t bytes;
  };
  for (const Case& c : {Case{"131072", 131072u}, Case{"128k", 131072u},
                        Case{"128K", 131072u}, Case{"2m", std::size_t{2} << 20},
                        Case{"1M", std::size_t{1} << 20}}) {
    EnvGuard s("WAVEPIPE_FIBER_STACK", c.value);
    EXPECT_EQ(EngineConfig::from_env().stack_bytes, c.bytes) << c.value;
  }
  // ("-1" is absent: strtoull wraps it to a huge value, which the clamp in
  // Machine would handle; only unparseable or zero inputs are rejected.)
  for (const char* bad : {"banana", "", "0", "64kb", "k"}) {
    EnvGuard s("WAVEPIPE_FIBER_STACK", bad);
    EXPECT_THROW(EngineConfig::from_env(), ConfigError) << "'" << bad << "'";
  }
}

TEST(FiberEngine, MachineHonoursEngineEnv) {
  EnvGuard e("WAVEPIPE_ENGINE", "parallel");
  Machine m(2);
  EXPECT_EQ(m.engine(), EngineKind::kParallel);
}

TEST(FiberEngine, MachineClampsTinyStacks) {
  EngineConfig cfg;
  cfg.kind = EngineKind::kFibers;
  cfg.stack_bytes = 1;  // absurd; must be clamped, not crash
  Machine m(2, {}, TraceConfig{}, cfg);
  EXPECT_EQ(m.engine_config().stack_bytes, EngineConfig::kMinStackBytes);
  m.run([](Communicator& comm) {
    if (comm.rank() == 0)
      comm.send_value(1, 42);
    else
      EXPECT_EQ(comm.recv_value<int>(0), 42);
  });
}

TEST(FiberEngine, DeadlockThrowsTypedError) {
  // Both ranks receive first: real threads would hang forever; the
  // fiber engine sees that every rank is blocked and reports it.
  EngineConfig cfg;
  cfg.kind = EngineKind::kFibers;
  Machine m(2, {}, TraceConfig{}, cfg);
  try {
    m.run([](Communicator& comm) {
      (void)comm.recv_value<int>(1 - comm.rank());
      comm.send_value(1 - comm.rank(), comm.rank());
    });
    FAIL() << "deadlocked run returned";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos)
        << e.what();
  }
}

TEST(FiberEngine, StackOverflowThrowsTypedError) {
  // A rank that eats most of a 64 KiB stack and then blocks must get a
  // typed error from the low-stack check, not a SIGSEGV.
  EngineConfig cfg;
  cfg.kind = EngineKind::kFibers;
  cfg.stack_bytes = EngineConfig::kMinStackBytes;
  Machine m(2, {}, TraceConfig{}, cfg);
  try {
    m.run([](Communicator& comm) {
      if (comm.rank() == 0) {
        (void)comm.recv_value<int>(1);
        comm.send_value(1, 1);
        return;
      }
      volatile char pad[48 * 1024];
      for (std::size_t i = 0; i < sizeof(pad); i += 512) pad[i] = 1;
      comm.send_value(0, static_cast<int>(pad[0]));
      (void)comm.recv_value<int>(0);  // rank 0 has not sent yet: must block
    });
    FAIL() << "overflowing run returned";
  } catch (const EngineError& e) {
    EXPECT_NE(std::string(e.what()).find("stack"), std::string::npos)
        << e.what();
  }
}

TEST(FiberEngine, GenerousStackSurvivesTheSameWorkload) {
  // The same workload with the default stack completes cleanly, so the
  // previous test's failure really is about stack exhaustion.
  EngineConfig cfg;
  cfg.kind = EngineKind::kFibers;
  Machine m(2, {}, TraceConfig{}, cfg);
  m.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv_value<int>(1), 1);
      comm.send_value(1, 1);
      return;
    }
    volatile char pad[48 * 1024];
    for (std::size_t i = 0; i < sizeof(pad); i += 512) pad[i] = 1;
    comm.send_value(0, static_cast<int>(pad[0]));
    EXPECT_EQ(comm.recv_value<int>(0), 1);
  });
  EXPECT_EQ(m.pending_messages(), 0u);
}

}  // namespace
}  // namespace wavepipe
