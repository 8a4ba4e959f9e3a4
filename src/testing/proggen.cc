#include "testing/proggen.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "support/error.hh"

namespace wavepipe {

const char* to_string(CommOp::Kind k) {
  switch (k) {
    case CommOp::Kind::kCompute: return "compute";
    case CommOp::Kind::kSend: return "send";
    case CommOp::Kind::kIsend: return "isend";
    case CommOp::Kind::kRecv: return "recv";
    case CommOp::Kind::kIrecv: return "irecv";
    case CommOp::Kind::kWait: return "wait";
    case CommOp::Kind::kWaitAll: return "wait_all";
    case CommOp::Kind::kWaitAny: return "wait_any";
    case CommOp::Kind::kBarrier: return "barrier";
    case CommOp::Kind::kAllreduce: return "allreduce";
    case CommOp::Kind::kBroadcast: return "broadcast";
  }
  return "?";
}

std::size_t CommProgram::total_ops() const {
  std::size_t n = 0;
  for (const auto& rank_ops : ops) n += rank_ops.size();
  return n;
}

std::string CommProgram::describe() const {
  std::ostringstream os;
  os << "program seed=" << seed << " ranks=" << ranks
     << " ops=" << total_ops() << (probe_class ? " [probe-class]" : "")
     << "\n";
  for (int r = 0; r < ranks; ++r) {
    os << "  rank " << r << ":";
    for (const auto& op : ops[static_cast<std::size_t>(r)]) {
      os << " " << to_string(op.kind);
      switch (op.kind) {
        case CommOp::Kind::kCompute:
          os << "(" << op.work << ")";
          break;
        case CommOp::Kind::kSend:
        case CommOp::Kind::kIsend:
          os << "(dst=" << op.peer << ",tag=" << op.tag << ",n=" << op.elems
             << ",msg=" << op.msg_id;
          if (op.req_id >= 0) os << ",req=" << op.req_id;
          os << ")";
          break;
        case CommOp::Kind::kRecv:
        case CommOp::Kind::kIrecv:
          os << "(src=" << op.peer << ",tag=" << op.tag << ",n=" << op.elems
             << ",msg=" << op.msg_id;
          if (op.req_id >= 0) os << ",req=" << op.req_id;
          os << ")";
          break;
        case CommOp::Kind::kWait:
          os << "(req=" << op.req_id << ")";
          break;
        case CommOp::Kind::kWaitAll:
        case CommOp::Kind::kWaitAny: {
          os << "(req=";
          for (std::size_t i = 0; i < op.req_ids.size(); ++i)
            os << (i ? "," : "") << op.req_ids[i];
          os << ")";
          break;
        }
        case CommOp::Kind::kBarrier:
        case CommOp::Kind::kAllreduce:
        case CommOp::Kind::kBroadcast:
          os << "(coll=" << op.coll_id << ")";
          break;
      }
      os << ";";
    }
    os << "\n";
  }
  return os.str();
}

std::uint64_t payload_word(std::uint64_t program_seed, int msg_id,
                           std::size_t i) {
  SplitMix64 rng(program_seed ^
                 (static_cast<std::uint64_t>(msg_id) * 0x9E3779B97F4A7C15ULL) ^
                 (static_cast<std::uint64_t>(i) << 17));
  return rng.next();
}

namespace {

std::uint64_t coll_word(std::uint64_t program_seed, int coll_id, int rank) {
  SplitMix64 rng(program_seed ^ 0xC0117EC7ULL ^
                 (static_cast<std::uint64_t>(coll_id) * 131ULL + 7ULL) ^
                 (static_cast<std::uint64_t>(rank) << 24));
  return rng.next();
}

std::uint64_t mix64(std::uint64_t x) {
  SplitMix64 rng(x);
  return rng.next();
}

}  // namespace

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

namespace {

struct Generator {
  const ProgGenOptions& opts;
  SplitMix64 rng;
  CommProgram prog;

  struct Msg {
    int src = -1, dst = -1, tag = 0, elems = 0;
  };
  struct Req {
    int rank = -1;
    bool is_recv = false;
    bool waitable = false;  // its matching send has been emitted
    bool open = true;       // not yet consumed by an emitted wait
    int op_index = -1;      // index in ops[rank] (irecv ops, for patching)
  };
  // Per (dst, src, tag) key, mirrors the mailbox invariant: at most one of
  // {messages sent but not claimed, receives posted but not matched} is
  // nonempty. std::map keys keep every pick deterministic across platforms.
  struct KeyState {
    std::deque<int> sent;    // msg ids
    std::deque<int> posted;  // req ids
  };
  std::map<std::tuple<int, int, int>, KeyState> keys;
  std::vector<Msg> msgs;
  std::vector<Req> reqs;
  int next_coll = 0;

  Generator(std::uint64_t seed, const ProgGenOptions& o)
      : opts(o), rng(seed ^ 0x9C0FFEE5ULL) {
    prog.seed = seed;
    prog.ranks = static_cast<int>(
        rng.uniform_int(opts.min_ranks, std::max(opts.min_ranks,
                                                 opts.max_ranks)));
    prog.ops.assign(static_cast<std::size_t>(prog.ranks), {});
  }

  std::vector<CommOp>& at(int r) {
    return prog.ops[static_cast<std::size_t>(r)];
  }

  KeyState& key(int dst, int src, int tag) {
    return keys[std::make_tuple(dst, src, tag)];
  }

  int new_msg(int src, int dst, int tag, int elems) {
    msgs.push_back(Msg{src, dst, tag, elems});
    return static_cast<int>(msgs.size()) - 1;
  }

  int new_req(int rank, bool is_recv, bool waitable) {
    reqs.push_back(Req{rank, is_recv, waitable, true, -1});
    return static_cast<int>(reqs.size()) - 1;
  }

  void emit_send(int src, int dst, int tag, bool nonblocking) {
    KeyState& k = key(dst, src, tag);
    int elems;
    int msg_id;
    if (!k.posted.empty()) {
      // A posted-but-unmatched irecv is waiting on this key: this send is
      // its message. The irecv fixed the element count at post time.
      const int rid = k.posted.front();
      k.posted.pop_front();
      Req& r = reqs[static_cast<std::size_t>(rid)];
      CommOp& posted_op =
          at(r.rank)[static_cast<std::size_t>(r.op_index)];
      elems = posted_op.elems;
      msg_id = new_msg(src, dst, tag, elems);
      posted_op.msg_id = msg_id;
      r.waitable = true;
    } else {
      elems = static_cast<int>(rng.uniform_int(1, opts.max_elems));
      msg_id = new_msg(src, dst, tag, elems);
      k.sent.push_back(msg_id);
    }
    CommOp op;
    op.kind = nonblocking ? CommOp::Kind::kIsend : CommOp::Kind::kSend;
    op.peer = dst;
    op.tag = tag;
    op.elems = elems;
    op.msg_id = msg_id;
    if (nonblocking) op.req_id = new_req(src, /*is_recv=*/false, true);
    at(src).push_back(op);
  }

  bool random_endpoints(int& src, int& dst, int& tag) {
    if (prog.ranks < 2) return false;
    src = static_cast<int>(rng.uniform_int(0, prog.ranks - 1));
    dst = static_cast<int>((src + rng.uniform_int(1, prog.ranks - 1)) %
                           prog.ranks);
    tag = static_cast<int>(rng.uniform_int(0, opts.max_tag));
    return true;
  }

  void do_send() {
    int src, dst, tag;
    if (!random_endpoints(src, dst, tag)) return;
    emit_send(src, dst, tag, rng.bernoulli(0.5));
  }

  /// Claims an already-sent, unclaimed message with a blocking recv or an
  /// immediately-matched irecv. Falls back to a send when nothing is
  /// claimable.
  void do_recv_now() {
    std::vector<std::tuple<int, int, int>> candidates;
    for (const auto& [kt, ks] : keys)
      if (!ks.sent.empty()) candidates.push_back(kt);
    if (candidates.empty()) return do_send();
    const auto [dst, src, tag] = candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
    KeyState& k = key(dst, src, tag);
    const int msg_id = k.sent.front();
    k.sent.pop_front();
    const Msg& m = msgs[static_cast<std::size_t>(msg_id)];
    CommOp op;
    op.peer = src;
    op.tag = tag;
    op.elems = m.elems;
    op.msg_id = msg_id;
    if (rng.bernoulli(0.5)) {
      op.kind = CommOp::Kind::kRecv;
    } else {
      op.kind = CommOp::Kind::kIrecv;
      op.req_id = new_req(dst, /*is_recv=*/true, /*waitable=*/true);
      reqs[static_cast<std::size_t>(op.req_id)].op_index =
          static_cast<int>(at(dst).size());
    }
    at(dst).push_back(op);
  }

  /// Posts an irecv. If the key already holds an unclaimed sent message the
  /// irecv matches it immediately; otherwise it goes to the key's posted
  /// queue and a later send will be bound to it (msg_id patched then).
  void do_irecv() {
    int src, dst, tag;
    if (!random_endpoints(src, dst, tag)) return;
    KeyState& k = key(dst, src, tag);
    CommOp op;
    op.kind = CommOp::Kind::kIrecv;
    op.peer = src;
    op.tag = tag;
    if (!k.sent.empty()) {
      const int msg_id = k.sent.front();
      k.sent.pop_front();
      op.elems = msgs[static_cast<std::size_t>(msg_id)].elems;
      op.msg_id = msg_id;
      op.req_id = new_req(dst, true, /*waitable=*/true);
    } else {
      op.elems = static_cast<int>(rng.uniform_int(1, opts.max_elems));
      op.msg_id = -1;  // patched when a send binds to it
      op.req_id = new_req(dst, true, /*waitable=*/false);
      k.posted.push_back(op.req_id);
    }
    reqs[static_cast<std::size_t>(op.req_id)].op_index =
        static_cast<int>(at(dst).size());
    at(dst).push_back(op);
  }

  std::vector<int> open_waitable(int rank) const {
    std::vector<int> ids;
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i].rank == rank && reqs[i].open && reqs[i].waitable)
        ids.push_back(static_cast<int>(i));
    return ids;
  }

  std::vector<int> ranks_with_waitable(std::size_t min_count) const {
    std::vector<int> out;
    for (int r = 0; r < prog.ranks; ++r)
      if (open_waitable(r).size() >= min_count) out.push_back(r);
    return out;
  }

  int pick(const std::vector<int>& v) {
    return v[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  void do_wait() {
    const auto ranks = ranks_with_waitable(1);
    if (ranks.empty()) return do_compute();
    const int r = pick(ranks);
    auto ids = open_waitable(r);
    if (ids.size() > 1 && rng.bernoulli(0.35)) {
      // wait_all over a random prefix-respecting subset (creation order).
      std::vector<int> subset;
      for (int id : ids)
        if (rng.bernoulli(0.7)) subset.push_back(id);
      if (subset.size() < 2) subset = ids;
      CommOp op;
      op.kind = CommOp::Kind::kWaitAll;
      op.req_ids = subset;
      at(r).push_back(op);
      for (int id : subset) reqs[static_cast<std::size_t>(id)].open = false;
    } else {
      const int id = pick(ids);
      CommOp op;
      op.kind = CommOp::Kind::kWait;
      op.req_id = id;
      at(r).push_back(op);
      reqs[static_cast<std::size_t>(id)].open = false;
    }
  }

  void do_wait_any() {
    const auto ranks = ranks_with_waitable(2);
    if (ranks.empty()) return do_wait();
    const int r = pick(ranks);
    CommOp op;
    op.kind = CommOp::Kind::kWaitAny;
    op.req_ids = open_waitable(r);
    at(r).push_back(op);
    // Exactly one of these completes at runtime — which one depends on
    // physical arrival, so the generator must treat all of them as possibly
    // consumed: they stay "open" (the cleanup wait_all re-waits them, which
    // is a no-op for the consumed one) and the program becomes probe-class.
    prog.probe_class = true;
  }

  void do_compute() {
    if (prog.ranks < 1) return;
    CommOp op;
    op.kind = CommOp::Kind::kCompute;
    op.work = static_cast<double>(rng.uniform_int(1, 12));
    at(static_cast<int>(rng.uniform_int(0, prog.ranks - 1))).push_back(op);
  }

  void do_collective() {
    CommOp op;
    op.coll_id = next_coll++;
    const auto roll = rng.uniform_int(0, 2);
    op.kind = roll == 0   ? CommOp::Kind::kBarrier
              : roll == 1 ? CommOp::Kind::kAllreduce
                          : CommOp::Kind::kBroadcast;
    for (int r = 0; r < prog.ranks; ++r) at(r).push_back(op);
  }

  void body() {
    for (int i = 0; i < opts.target_ops; ++i) {
      if (rng.bernoulli(opts.collective_prob)) {
        do_collective();
        continue;
      }
      const auto roll = rng.uniform_int(0, 99);
      if (roll < 12) {
        do_compute();
      } else if (roll < 42) {
        do_send();
      } else if (roll < 64) {
        do_recv_now();
      } else if (roll < 76) {
        do_irecv();
      } else if (roll < 92 || !opts.allow_probe_class) {
        do_wait();
      } else {
        do_wait_any();
      }
    }
  }

  /// Closes the program: every posted irecv gets its send, every unclaimed
  /// message gets its recv, every request gets waited, and a final barrier
  /// lines the ranks up.
  void cleanup() {
    for (auto& [kt, ks] : keys) {
      const auto [dst, src, tag] = kt;
      while (!ks.posted.empty()) emit_send(src, dst, tag, false);
      while (!ks.sent.empty()) {
        const int msg_id = ks.sent.front();
        ks.sent.pop_front();
        CommOp op;
        op.kind = CommOp::Kind::kRecv;
        op.peer = src;
        op.tag = tag;
        op.elems = msgs[static_cast<std::size_t>(msg_id)].elems;
        op.msg_id = msg_id;
        at(dst).push_back(op);
      }
    }
    for (int r = 0; r < prog.ranks; ++r) {
      std::vector<int> open_ids;
      for (std::size_t i = 0; i < reqs.size(); ++i)
        if (reqs[i].rank == r && reqs[i].open)
          open_ids.push_back(static_cast<int>(i));
      if (open_ids.empty()) continue;
      CommOp op;
      op.kind = CommOp::Kind::kWaitAll;
      op.req_ids = std::move(open_ids);
      at(r).push_back(op);
    }
    if (prog.ranks > 1) {
      CommOp op;
      op.kind = CommOp::Kind::kBarrier;
      op.coll_id = next_coll++;
      for (int r = 0; r < prog.ranks; ++r) at(r).push_back(op);
    }
  }
};

}  // namespace

CommProgram generate_program(std::uint64_t seed, const ProgGenOptions& opts) {
  require(opts.min_ranks >= 2, "generated programs need at least 2 ranks");
  Generator g(seed, opts);
  g.body();
  g.cleanup();
  return std::move(g.prog);
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

ProgramOutcome run_program(const CommProgram& prog,
                           const ProgramRunOptions& ropts) {
  const int p = prog.ranks;
  require(p >= 1, "program has no ranks");
  EngineConfig eng;
  eng.kind =
      ropts.parallel_engine ? EngineKind::kParallel : EngineKind::kFibers;
  if (!ropts.parallel_engine && ropts.random_sched) {
    eng.sched.kind = SchedKind::kRandom;
    eng.sched.seed = ropts.sched_seed;
    eng.sched.rank_weights = ropts.faults.rank_weights;
  }
  Machine machine(p, ropts.cm, TraceConfig{}, eng);

  std::vector<std::vector<std::string>> viol(static_cast<std::size_t>(p));
  std::vector<std::uint64_t> fold(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> bag(static_cast<std::size_t>(p), 0);

  auto body = [&](Communicator& comm) {
    const int me = comm.rank();
    auto& my_viol = viol[static_cast<std::size_t>(me)];
    std::unordered_map<int, Request> live;               // req id -> handle
    std::unordered_map<int, std::vector<std::uint64_t>> bufs;  // recv buffers
    std::unordered_map<int, const CommOp*> recv_of;      // req id -> irecv op

    auto note = [&](std::string s) { my_viol.push_back(std::move(s)); };

    auto check_payload = [&](int msg_id, const std::uint64_t* data,
                             std::size_t n, const char* where) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t want = payload_word(prog.seed, msg_id, i);
        if (data[i] != want) {
          note("rank " + std::to_string(me) + " " + where + ": msg " +
               std::to_string(msg_id) + " word " + std::to_string(i) +
               " = " + std::to_string(data[i]) + ", FIFO order promises " +
               std::to_string(want));
          break;
        }
      }
      auto& f = fold[static_cast<std::size_t>(me)];
      f = (f ^ static_cast<std::uint64_t>(msg_id + 1)) * 0x100000001B3ULL;
      bag[static_cast<std::size_t>(me)] +=
          mix64(static_cast<std::uint64_t>(msg_id + 1));
    };

    auto finish_recv_req = [&](int req_id) {
      const auto op_it = recv_of.find(req_id);
      if (op_it == recv_of.end()) return;  // a send request
      const auto& buf = bufs[req_id];
      check_payload(op_it->second->msg_id, buf.data(), buf.size(),
                    "irecv completion");
    };

    for (const CommOp& op : prog.ops[static_cast<std::size_t>(me)]) {
      switch (op.kind) {
        case CommOp::Kind::kCompute:
          comm.compute(op.work);
          break;
        case CommOp::Kind::kSend:
        case CommOp::Kind::kIsend: {
          std::vector<std::uint64_t> payload(
              static_cast<std::size_t>(op.elems));
          for (std::size_t i = 0; i < payload.size(); ++i)
            payload[i] = payload_word(prog.seed, op.msg_id, i);
          const std::span<const std::uint64_t> data(payload);
          if (op.kind == CommOp::Kind::kSend) {
            comm.send(op.peer, data, op.tag);
          } else {
            live[op.req_id] = comm.isend(op.peer, data, op.tag);
          }
          break;
        }
        case CommOp::Kind::kRecv: {
          std::vector<std::uint64_t> buf(static_cast<std::size_t>(op.elems));
          comm.recv(op.peer, std::span<std::uint64_t>(buf), op.tag);
          check_payload(op.msg_id, buf.data(), buf.size(), "recv");
          break;
        }
        case CommOp::Kind::kIrecv: {
          auto& buf = bufs[op.req_id];
          buf.assign(static_cast<std::size_t>(op.elems), 0);
          live[op.req_id] =
              comm.irecv(op.peer, std::span<std::uint64_t>(buf), op.tag);
          recv_of[op.req_id] = &op;
          break;
        }
        case CommOp::Kind::kWait: {
          const auto it = live.find(op.req_id);
          if (it == live.end()) break;
          const bool was_valid = it->second.valid();
          comm.wait(it->second);
          if (was_valid) finish_recv_req(op.req_id);
          break;
        }
        case CommOp::Kind::kWaitAll: {
          std::vector<int> ids;
          std::vector<Request> local;
          std::vector<bool> was_valid;
          for (int id : op.req_ids) {
            const auto it = live.find(id);
            if (it == live.end()) continue;
            ids.push_back(id);
            local.push_back(it->second);
            was_valid.push_back(it->second.valid());
          }
          if (local.empty()) break;
          comm.wait_all(std::span<Request>(local));
          for (std::size_t i = 0; i < ids.size(); ++i) {
            live[ids[i]] = local[i];
            if (was_valid[i]) finish_recv_req(ids[i]);
          }
          break;
        }
        case CommOp::Kind::kWaitAny: {
          std::vector<int> ids;
          std::vector<Request> local;
          for (int id : op.req_ids) {
            const auto it = live.find(id);
            if (it != live.end() && it->second.valid()) {
              ids.push_back(id);
              local.push_back(it->second);
            }
          }
          if (local.empty()) break;  // every candidate already consumed
          const std::size_t idx = comm.wait_any(std::span<Request>(local));
          const int won = ids[idx];
          live[won] = local[idx];  // consumed (now invalid)
          finish_recv_req(won);
          break;
        }
        case CommOp::Kind::kBarrier:
          comm.barrier();
          break;
        case CommOp::Kind::kAllreduce: {
          const std::uint64_t mine = coll_word(prog.seed, op.coll_id, me);
          std::uint64_t expect = 0;
          for (int r = 0; r < p; ++r)
            expect += coll_word(prog.seed, op.coll_id, r);
          const std::uint64_t got = comm.allreduce_sum(mine);
          if (got != expect)
            note("rank " + std::to_string(me) + " allreduce " +
                 std::to_string(op.coll_id) + ": got " + std::to_string(got) +
                 ", want " + std::to_string(expect));
          break;
        }
        case CommOp::Kind::kBroadcast: {
          std::uint64_t v = me == 0 ? coll_word(prog.seed, op.coll_id, 0) : 0;
          comm.broadcast(std::span<std::uint64_t>(&v, 1));
          if (v != coll_word(prog.seed, op.coll_id, 0))
            note("rank " + std::to_string(me) + " broadcast " +
                 std::to_string(op.coll_id) + " diverged");
          break;
        }
      }
    }
    for (auto& [id, r] : live)
      if (r.valid())
        note("rank " + std::to_string(me) + " request " + std::to_string(id) +
             " never completed");
  };

  ProgramOutcome out;
  const bool inject = ropts.faults.active() && p >= 2 &&
                      machine.engine() == EngineKind::kFibers;
  if (inject) {
    FaultInjector injector(machine, ropts.faults);
    machine.set_delivery_interceptor(&injector);
    struct Detach {
      Machine& m;
      ~Detach() { m.set_delivery_interceptor(nullptr); }
    } detach{machine};
    out.result = machine.run(body);
  } else {
    out.result = machine.run(body);
  }

  for (int r = 0; r < p; ++r)
    for (auto& v : viol[static_cast<std::size_t>(r)])
      out.violations.push_back(std::move(v));
  out.recv_fold = std::move(fold);
  for (std::uint64_t b : bag) out.recv_bag += b;

  for (int r = 0; r < p; ++r) {
    const auto& ph = out.result.phases[static_cast<std::size_t>(r)];
    const double vt = out.result.vtime[static_cast<std::size_t>(r)];
    const double tol = 1e-9 * (1.0 + std::abs(vt));
    if (std::abs(ph.total() - vt) > tol)
      out.violations.push_back(
          "rank " + std::to_string(r) + " phase partition broken: t_comp+" +
          "t_comm+t_wait = " + std::to_string(ph.total()) + " but vtime = " +
          std::to_string(vt));
  }
  if (machine.pending_messages() != 0)
    out.violations.push_back(
        std::to_string(machine.pending_messages()) +
        " messages left in mailboxes after a clean run");
  return out;
}

// ---------------------------------------------------------------------------
// Cross-check
// ---------------------------------------------------------------------------

namespace {

std::optional<std::string> compare_outcomes(const ProgramOutcome& base,
                                            const ProgramOutcome& other,
                                            const std::string& label,
                                            bool full) {
  if (!other.violations.empty())
    return label + ": " + other.violations.front();
  if (other.recv_bag != base.recv_bag)
    return label + ": receive multiset diverged from baseline";
  if (!(other.result.total == base.result.total))
    return label + ": total CommStats diverged from baseline";
  if (!full) return std::nullopt;
  if (other.result.vtime != base.result.vtime)
    return label + ": per-rank vtimes diverged from baseline";
  if (other.result.phases != base.result.phases)
    return label + ": per-rank phase breakdowns diverged from baseline";
  if (other.result.stats != base.result.stats)
    return label + ": per-rank CommStats diverged from baseline";
  if (other.recv_fold != base.recv_fold)
    return label + ": per-rank receive order diverged from baseline";
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_program(const CommProgram& prog,
                                         const FuzzConfig& cfg) {
  ProgramRunOptions base_opts;
  base_opts.cm = cfg.cm;

  auto run_checked =
      [&](const ProgramRunOptions& ro,
          const std::string& label) -> std::pair<std::optional<std::string>,
                                                 ProgramOutcome> {
    try {
      return {std::nullopt, run_program(prog, ro)};
    } catch (const std::exception& e) {
      return {label + " threw: " + e.what(), ProgramOutcome{}};
    }
  };

  auto [base_err, baseline] = run_checked(base_opts, "baseline");
  if (base_err) return base_err;
  if (!baseline.violations.empty())
    return "baseline: " + baseline.violations.front();

  auto check_one = [&](const ProgramRunOptions& ro, const std::string& label,
                       bool full) -> std::optional<std::string> {
    auto [err, outcome] = run_checked(ro, label);
    if (err) return err;
    return compare_outcomes(baseline, outcome, label, full);
  };

  // Replay: the deterministic schedule must reproduce itself bit-for-bit,
  // probe-class or not.
  if (auto err = check_one(base_opts, "deterministic replay", true))
    return err;

  const bool full = !prog.probe_class;
  SplitMix64 derive(prog.seed ^ 0x5EEDFACEULL);
  for (int i = 0; i < cfg.random_schedules; ++i) {
    ProgramRunOptions ro = base_opts;
    ro.random_sched = true;
    ro.sched_seed = derive.next();
    if (auto err = check_one(
            ro, "random schedule #" + std::to_string(i + 1), full))
      return err;
  }
  for (int i = 0; i < cfg.fault_plans; ++i) {
    ProgramRunOptions ro = base_opts;
    ro.random_sched = true;
    ro.sched_seed = derive.next();
    ro.faults = FaultPlan::from_seed(derive.next(), prog.ranks);
    if (auto err =
            check_one(ro, "fault plan #" + std::to_string(i + 1), full))
      return err;
  }
  ProgramRunOptions ro = base_opts;
  ro.parallel_engine = true;
  return check_one(ro, "parallel engine", full);
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

bool is_message_op(CommOp::Kind k) {
  return k == CommOp::Kind::kSend || k == CommOp::Kind::kIsend ||
         k == CommOp::Kind::kRecv || k == CommOp::Kind::kIrecv;
}

std::vector<int> message_ids(const CommProgram& p) {
  std::set<int> ids;
  for (const auto& rank_ops : p.ops)
    for (const auto& op : rank_ops)
      if (is_message_op(op.kind) && op.msg_id >= 0) ids.insert(op.msg_id);
  return {ids.begin(), ids.end()};
}

std::vector<int> collective_ids(const CommProgram& p) {
  std::set<int> ids;
  for (const auto& rank_ops : p.ops)
    for (const auto& op : rank_ops)
      if (op.coll_id >= 0) ids.insert(op.coll_id);
  return {ids.begin(), ids.end()};
}

/// Removes one message end to end: its send/isend, its recv/irecv, and any
/// waits that referenced only the dropped requests. The remaining messages
/// keep their FIFO pairing, because removing the i-th send and the i-th
/// claim on one (src, tag) key shifts both sides together.
CommProgram drop_message(const CommProgram& p, int msg_id) {
  CommProgram out;
  out.ranks = p.ranks;
  out.seed = p.seed;
  out.probe_class = p.probe_class;
  out.ops.assign(p.ops.size(), {});
  std::unordered_set<int> dropped_reqs;
  for (std::size_t r = 0; r < p.ops.size(); ++r) {
    for (const auto& op : p.ops[r]) {
      if (is_message_op(op.kind) && op.msg_id == msg_id) {
        if (op.req_id >= 0) dropped_reqs.insert(op.req_id);
        continue;
      }
      if (op.kind == CommOp::Kind::kWait &&
          dropped_reqs.count(op.req_id) != 0)
        continue;
      if (op.kind == CommOp::Kind::kWaitAll ||
          op.kind == CommOp::Kind::kWaitAny) {
        CommOp trimmed = op;
        std::erase_if(trimmed.req_ids, [&](int id) {
          return dropped_reqs.count(id) != 0;
        });
        if (trimmed.req_ids.empty()) continue;
        out.ops[r].push_back(std::move(trimmed));
        continue;
      }
      out.ops[r].push_back(op);
    }
  }
  return out;
}

CommProgram drop_collective(const CommProgram& p, int coll_id) {
  CommProgram out = p;
  for (auto& rank_ops : out.ops)
    std::erase_if(rank_ops,
                  [&](const CommOp& op) { return op.coll_id == coll_id; });
  return out;
}

CommProgram drop_rank(const CommProgram& p, int rank) {
  // First remove every message that touches the rank, then the rank itself,
  // remapping higher peers down.
  CommProgram out = p;
  for (std::size_t r = 0; r < p.ops.size(); ++r) {
    for (const auto& op : p.ops[r]) {
      const bool send_like = op.kind == CommOp::Kind::kSend ||
                             op.kind == CommOp::Kind::kIsend;
      if (send_like && op.msg_id >= 0 &&
          (static_cast<int>(r) == rank || op.peer == rank))
        out = drop_message(out, op.msg_id);
    }
  }
  out.ops.erase(out.ops.begin() + rank);
  out.ranks -= 1;
  for (auto& rank_ops : out.ops)
    for (auto& op : rank_ops)
      if (is_message_op(op.kind) && op.peer > rank) --op.peer;
  return out;
}

}  // namespace

CommProgram minimize_program(CommProgram prog, const ProgramOracle& oracle) {
  auto still_fails = [&](const CommProgram& cand) {
    try {
      return oracle(cand).has_value();
    } catch (...) {
      return true;
    }
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int r = prog.ranks - 1; r >= 0 && prog.ranks > 1; --r) {
      CommProgram cand = drop_rank(prog, r);
      if (still_fails(cand)) {
        prog = std::move(cand);
        changed = true;
      }
    }
    for (int id : message_ids(prog)) {
      CommProgram cand = drop_message(prog, id);
      if (still_fails(cand)) {
        prog = std::move(cand);
        changed = true;
      }
    }
    for (int id : collective_ids(prog)) {
      CommProgram cand = drop_collective(prog, id);
      if (still_fails(cand)) {
        prog = std::move(cand);
        changed = true;
      }
    }
    // Single dispensable ops: computes (waits must stay — dropping one
    // would leave its request unconsumed and fail for the wrong reason).
    for (std::size_t r = 0; r < prog.ops.size(); ++r) {
      for (std::size_t i = 0; i < prog.ops[r].size();) {
        if (prog.ops[r][i].kind != CommOp::Kind::kCompute) {
          ++i;
          continue;
        }
        CommProgram cand = prog;
        cand.ops[r].erase(cand.ops[r].begin() +
                          static_cast<std::ptrdiff_t>(i));
        if (still_fails(cand)) {
          prog = std::move(cand);
          changed = true;
        } else {
          ++i;
        }
      }
    }
  }
  return prog;
}

std::string repro_line(std::uint64_t seed) {
  return "WAVEPIPE_FUZZ_SEED=" + std::to_string(seed) +
         " ./tests/test_fuzz_comm --gtest_filter='Fuzz.ReplaySeed'";
}

std::optional<FuzzFailure> fuzz_seed(std::uint64_t seed,
                                     const FuzzConfig& cfg) {
  const CommProgram prog = generate_program(seed, cfg.gen);
  auto err = check_program(prog, cfg);
  if (!err) return std::nullopt;
  FuzzFailure f;
  f.seed = seed;
  f.what = std::move(*err);
  f.minimized = minimize_program(
      prog, [&](const CommProgram& c) { return check_program(c, cfg); });
  f.repro = repro_line(seed);
  return f;
}

}  // namespace wavepipe
