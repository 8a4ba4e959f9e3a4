// Random communication-program generator + cross-checking fuzz harness.
//
// generate_program(seed) emits a well-formed SPMD program — a per-rank list
// of send/isend/recv/irecv/wait/wait_all/wait_any/barrier/allreduce/
// broadcast/compute ops — that is deadlock-free by construction: ops are
// drawn from a single global sequence in which every receive's message is
// already sent (or its irecv is bound to a later send) and collectives are
// appended to all ranks at the same position, so the generation order
// itself is a valid linearization.
//
// run_program executes a program on a Machine under any engine / scheduler
// / fault plan and machine-checks the invariants: every received payload is
// the one FIFO-per-(src,tag) promises, t_comp+t_comm+t_wait == vtime per
// rank, every request completes, and no message is left queued. check_
// program then cross-checks many executions (deterministic baseline, replay,
// random schedules, fault plans, the parallel engine) for byte-identical
// results; minimize_program shrinks a failing program (ranks → messages →
// ops) to a small repro, and fuzz_seed ties it together behind a one-line
// repro command.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "testing/chaos.hh"

namespace wavepipe {

struct CommOp {
  enum class Kind : std::uint8_t {
    kCompute,
    kSend,
    kIsend,
    kRecv,
    kIrecv,
    kWait,
    kWaitAll,
    kWaitAny,
    kBarrier,
    kAllreduce,
    kBroadcast,
  };

  Kind kind = Kind::kCompute;
  int peer = -1;   // destination for sends, source for receives
  int tag = 0;
  int elems = 0;
  int msg_id = -1;   // message identity; payloads are a function of it
  int req_id = -1;   // request created (isend/irecv) or waited (kWait)
  int coll_id = -1;  // collective identity (same op on every rank)
  double work = 0.0;               // kCompute amount
  std::vector<int> req_ids;        // kWaitAll / kWaitAny operands
};

const char* to_string(CommOp::Kind k);

struct CommProgram {
  int ranks = 0;
  std::uint64_t seed = 0;  // generator seed (for the repro line)
  /// True when the program contains wait_any — a probe-class op whose
  /// choice observes *physical* arrival. Such programs keep every safety
  /// invariant under chaos but are not byte-identical across schedules;
  /// check_program downgrades them to invariant + bag-checksum checks.
  bool probe_class = false;
  std::vector<std::vector<CommOp>> ops;  // [rank][step]

  std::size_t total_ops() const;
  std::string describe() const;
};

struct ProgGenOptions {
  int min_ranks = 2;
  int max_ranks = 6;
  /// Ops drawn for the body; the cleanup tail (receives for unclaimed
  /// messages, a final wait_all per rank, a closing barrier) rides on top.
  int target_ops = 48;
  bool allow_probe_class = false;
  double collective_prob = 0.06;
  int max_tag = 2;
  int max_elems = 24;
};

CommProgram generate_program(std::uint64_t seed,
                             const ProgGenOptions& opts = {});

/// Expected payload word `i` of message `msg_id` under `program_seed`.
std::uint64_t payload_word(std::uint64_t program_seed, int msg_id,
                           std::size_t i);

struct ProgramOutcome {
  RunResult result;
  /// Per-rank order-sensitive fold over (msg_id, position) of every
  /// completed receive: equal folds mean identical receive ordering.
  std::vector<std::uint64_t> recv_fold;
  /// Order-insensitive combination over all ranks' receives.
  std::uint64_t recv_bag = 0;
  /// Invariant violations observed during/after the run; empty means clean.
  std::vector<std::string> violations;
};

struct ProgramRunOptions {
  CostModel cm = {8.0, 0.5};  // alpha 8, beta 0.5: stamps exercise waiting
  bool parallel_engine = false;
  bool random_sched = false;
  std::uint64_t sched_seed = 0;
  FaultPlan faults;  // inactive by default; fiber engine only
};

/// Executes the program and machine-checks payload FIFO correctness, the
/// phase partition, request completion, and mailbox drainage. Throws
/// whatever the run throws (an EngineError here on a generated program is
/// itself a finding — they are deadlock-free by construction).
ProgramOutcome run_program(const CommProgram& prog,
                           const ProgramRunOptions& ropts = {});

struct FuzzConfig {
  ProgGenOptions gen;
  CostModel cm = {8.0, 0.5};
  int random_schedules = 3;
  int fault_plans = 2;
};

/// First divergence/violation across all configured executions of `prog`,
/// or nullopt when every check passes.
std::optional<std::string> check_program(const CommProgram& prog,
                                         const FuzzConfig& cfg);

/// Oracle: returns a failure description for a program, nullopt when it
/// passes. minimize_program keeps a shrink step only if the oracle still
/// fails on the smaller program.
using ProgramOracle =
    std::function<std::optional<std::string>(const CommProgram&)>;

/// Greedy delta-debugging shrink: drop ranks (remapping peers), then whole
/// messages (send+receive+waits together, preserving FIFO pairing of the
/// rest), then collectives and computes; repeats until a fixed point.
CommProgram minimize_program(CommProgram prog, const ProgramOracle& oracle);

/// The one-line command that replays a failing seed.
std::string repro_line(std::uint64_t seed);

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string what;
  CommProgram minimized;
  std::string repro;
};

/// Generates the seed's program, cross-checks it, and on failure shrinks it
/// and builds the repro line. The core of the fuzz loop.
std::optional<FuzzFailure> fuzz_seed(std::uint64_t seed,
                                     const FuzzConfig& cfg);

}  // namespace wavepipe
