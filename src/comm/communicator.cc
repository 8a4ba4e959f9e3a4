#include "comm/communicator.hh"

#include <algorithm>
#include <cstring>

#include "comm/machine.hh"

namespace wavepipe {

Communicator::Communicator(Machine& machine, int rank)
    : machine_(machine), rank_(rank), tracer_(machine.trace_config()) {
  require(rank >= 0 && rank < machine.size(), "communicator rank out of range");
}

Communicator::~Communicator() {
  for (auto& s : requests_)
    if (s.kind == RequestState::Kind::kRecv && !s.posted.done())
      machine_.mailbox(rank_).cancel_recv(s.posted);
}

int Communicator::size() const {
  return view_size_ > 0 ? view_size_ : machine_.size();
}

const CostModel& Communicator::costs() const { return machine_.costs(); }

void Communicator::enter_view(int base, int size, int tag_base, int tag_count,
                              std::string label) {
  auto l = lock_ops();
  if (view_size_ > 0)
    throw ConfigError("rank " + std::to_string(rank_) +
                      " already holds a job view ('" + view_label_ +
                      "'): views do not nest");
  require(size >= 1, "a job view needs at least one rank");
  require(base >= 0 && base + size <= machine_.size(),
          "job view window exceeds the machine");
  require(rank_ >= base && rank_ < base + size,
          "a rank may only enter a job view containing it");
  require(tag_base >= 0 && tag_count > 0,
          "a job view needs a non-empty tag lease with tags >= 0");
  view_base_ = base;
  view_size_ = size;
  view_tag_base_ = tag_base;
  view_tag_count_ = tag_count;
  view_label_ = std::move(label);
}

void Communicator::exit_view() {
  auto l = lock_ops();
  view_base_ = 0;
  view_size_ = 0;
  view_tag_base_ = 0;
  view_tag_count_ = 0;
  view_label_.clear();
}

int Communicator::to_world(int peer, const char* what) const {
  if (view_size_ <= 0) return peer;
  if (peer < 0 || peer >= view_size_)
    throw CommError(std::string(what) + " peer " + std::to_string(peer) +
                    " out of range for job view '" + view_label_ + "' of " +
                    std::to_string(view_size_) + " ranks");
  return peer + view_base_;
}

int Communicator::to_world_tag(int tag) const {
  // Negative tags are collective internals: never shifted (they cannot
  // collide across jobs because job rank sets are disjoint).
  if (view_size_ <= 0 || tag < 0) return tag;
  if (tag >= view_tag_count_)
    throw ConfigError("job '" + view_label_ + "' used tag " +
                      std::to_string(tag) + " outside its tag lease of " +
                      std::to_string(view_tag_count_) +
                      " tags — raise the service's per-job tag span");
  return tag + view_tag_base_;
}

void Communicator::compute(double elements) {
  auto l = lock_ops();
  const double dt = elements * machine_.costs().compute_per_element;
  tracer_.record(TraceEventType::kCompute, vtime_, vtime_ + dt, -1, 0,
                 static_cast<std::uint64_t>(elements));
  vtime_ += dt;
  phases_.t_comp += dt;
}

void Communicator::send_bytes(int dst, int tag,
                              std::span<const std::byte> payload,
                              std::size_t elements) {
  dst = to_world(dst, "send");
  tag = to_world_tag(tag);
  require(dst >= 0 && dst < machine_.size(), "send destination out of range");
  require(dst != rank_, "a rank may not send to itself");

  auto l = lock_ops();
  const CostModel& cm = machine_.costs();
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.elements = elements;
  m.payload.assign(payload);
  const double t0 = vtime_;
  if (cm.occupy_sender) {
    // The send engine is serialized: if earlier isends left it busy past
    // the clock, this blocking send queues behind them. With no isends in
    // flight send_engine_free_ <= vtime_, so this is vtime_ + cost exactly
    // as before the request layer existed.
    const double start = std::max(vtime_, send_engine_free_);
    vtime_ = start + cm.message_cost(elements);
    send_engine_free_ = vtime_;
    m.arrival_vtime = vtime_;
  } else {
    m.arrival_vtime = vtime_ + cm.message_cost(elements);
    vtime_ += cm.send_overhead;
  }
  phases_.t_comm += vtime_ - t0;
  tracer_.record(TraceEventType::kSend, t0, vtime_, dst, tag, elements);

  ++stats_.messages_sent;
  stats_.elements_sent += elements;
  stats_.bytes_sent += payload.size();

  machine_.deliver(dst, std::move(m));
}

void Communicator::complete_recv(const Message& m, std::span<std::byte> out,
                                 std::size_t expected_elements, int src,
                                 int tag) {
  if (m.elements != expected_elements || m.payload.size() != out.size()) {
    throw CommError("message size mismatch: rank " + std::to_string(rank_) +
                    " expected " + std::to_string(expected_elements) +
                    " elements (" + std::to_string(out.size()) +
                    " bytes) from rank " + std::to_string(src) + " tag " +
                    std::to_string(tag) + ", got " +
                    std::to_string(m.elements) + " elements (" +
                    std::to_string(m.payload.size()) + " bytes)");
  }
  std::memcpy(out.data(), m.payload.data(), m.payload.size());
  if (m.arrival_vtime > vtime_) {
    // The rank stalled (in virtual time) waiting for the message.
    phases_.t_wait += m.arrival_vtime - vtime_;
    tracer_.record(TraceEventType::kRecvWait, vtime_, m.arrival_vtime, src,
                   tag, m.elements);
    vtime_ = m.arrival_vtime;
  }
  tracer_.record(TraceEventType::kRecvComplete, vtime_, vtime_, src, tag,
                 m.elements);
  ++stats_.messages_received;
  stats_.elements_received += m.elements;
  stats_.bytes_received += m.payload.size();
}

void Communicator::recv_bytes(int src, int tag, std::span<std::byte> out,
                              std::size_t expected_elements) {
  src = to_world(src, "recv");
  tag = to_world_tag(tag);
  require(src >= 0 && src < machine_.size(), "recv source out of range");
  require(src != rank_, "a rank may not receive from itself");

  auto l = lock_ops();
  Message m = machine_.mailbox(rank_).await(src, tag);
  complete_recv(m, out, expected_elements, src, tag);
}

bool Communicator::probe(int src, int tag) {
  src = to_world(src, "probe");
  tag = to_world_tag(tag);
  require(src >= 0 && src < machine_.size(), "probe source out of range");
  auto l = lock_ops();
  return machine_.mailbox(rank_).probe(src, tag);
}

void Communicator::set_wait_context(std::string ctx) {
  auto l = lock_ops();
  machine_.mailbox(rank_).set_wait_context(std::move(ctx));
}

// ---- nonblocking request layer ----

std::size_t Communicator::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::size_t idx = free_slots_.back();
    free_slots_.pop_back();
    RequestState& s = requests_[idx];
    s.peer = -1;
    s.tag = 0;
    s.expected_elements = 0;
    s.out = {};
    s.complete_vtime = 0.0;
    s.posted.completed.store(false, std::memory_order_relaxed);
    s.posted.msg = Message{};
    return idx;
  }
  requests_.emplace_back();
  return requests_.size() - 1;
}

Communicator::RequestState& Communicator::resolve(const Request& r) {
  const std::size_t idx =
      static_cast<std::size_t>(r.id_ & 0xffffffffu);
  const std::uint32_t gen = static_cast<std::uint32_t>(r.id_ >> 32);
  if (idx == 0 || idx > requests_.size())
    throw CommError("invalid request handle");
  RequestState& s = requests_[idx - 1];
  if (s.gen != gen || s.kind == RequestState::Kind::kNone)
    throw CommError("stale request handle (slot already completed)");
  return s;
}

void Communicator::release(Request& r, RequestState& s) {
  s.kind = RequestState::Kind::kNone;
  ++s.gen;  // any copy of this handle is now detectably stale
  // Generation wrap-around would resurrect the slot's oldest stale handles
  // (a 2^32-use ABA). Retire the slot instead of recycling it: with kind
  // stuck at kNone and the slot never returned to the free list, every old
  // handle keeps throwing CommError no matter what gen it carries.
  if (s.gen != 0)
    free_slots_.push_back(static_cast<std::size_t>(r.id_ & 0xffffffffu) - 1);
  r.id_ = 0;
}

Request Communicator::debug_rewrite_request_gen(Request r,
                                                std::uint32_t gen) {
  RequestState& s = resolve(r);
  s.gen = gen;
  return Request((static_cast<std::uint64_t>(gen) << 32) |
                 (r.id_ & 0xffffffffu));
}

Request Communicator::isend_bytes(int dst, int tag,
                                  std::span<const std::byte> payload,
                                  std::size_t elements) {
  dst = to_world(dst, "isend");
  tag = to_world_tag(tag);
  require(dst >= 0 && dst < machine_.size(), "isend destination out of range");
  require(dst != rank_, "a rank may not send to itself");

  auto l = lock_ops();
  const CostModel& cm = machine_.costs();
  const std::size_t idx = alloc_slot();
  RequestState& s = requests_[idx];
  s.kind = RequestState::Kind::kSend;
  s.peer = dst;
  s.tag = tag;
  s.expected_elements = elements;

  Message m;
  m.src = rank_;
  m.tag = tag;
  m.elements = elements;
  m.payload.assign(payload);
  const double t0 = vtime_;
  if (cm.occupy_sender) {
    // No cpu-clock charge at post: the message occupies the serialized
    // send engine instead. wait() settles the bill (t_comm) — so
    // isend();wait() costs exactly what send() costs, and compute between
    // the two overlaps with the engine draining.
    const double start = std::max(vtime_, send_engine_free_);
    send_engine_free_ = start + cm.message_cost(elements);
    m.arrival_vtime = send_engine_free_;
    s.complete_vtime = send_engine_free_;
  } else {
    m.arrival_vtime = vtime_ + cm.message_cost(elements);
    vtime_ += cm.send_overhead;
    phases_.t_comm += vtime_ - t0;
    s.complete_vtime = vtime_;
  }
  tracer_.record(TraceEventType::kSendPost, t0, vtime_, dst, tag, elements);

  ++stats_.messages_sent;
  stats_.elements_sent += elements;
  stats_.bytes_sent += payload.size();
  ++stats_.isends;

  machine_.deliver(dst, std::move(m));
  return Request((static_cast<std::uint64_t>(s.gen) << 32) |
                 static_cast<std::uint64_t>(idx + 1));
}

Request Communicator::irecv_bytes(int src, int tag, std::span<std::byte> out,
                                  std::size_t expected_elements) {
  src = to_world(src, "irecv");
  tag = to_world_tag(tag);
  require(src >= 0 && src < machine_.size(), "irecv source out of range");
  require(src != rank_, "a rank may not receive from itself");

  auto l = lock_ops();
  const std::size_t idx = alloc_slot();
  RequestState& s = requests_[idx];
  s.kind = RequestState::Kind::kRecv;
  s.peer = src;
  s.tag = tag;
  s.expected_elements = expected_elements;
  s.out = out;
  s.posted.src = src;
  s.posted.tag = tag;
  s.posted.what = "irecv";
  machine_.mailbox(rank_).post_recv(s.posted);
  tracer_.record(TraceEventType::kRecvPost, vtime_, vtime_, src, tag,
                 expected_elements);
  ++stats_.irecvs;
  return Request((static_cast<std::uint64_t>(s.gen) << 32) |
                 static_cast<std::uint64_t>(idx + 1));
}

void Communicator::complete_send(RequestState& s, bool allow_stall) {
  if (s.complete_vtime > vtime_) {
    internal_check(allow_stall, "test() completed a send before its time");
    // The send engine is still draining: the wait stalls the cpu clock
    // until it finishes. Communication cost, so t_comm — together with
    // the zero charge at post this matches blocking send exactly.
    phases_.t_comm += s.complete_vtime - vtime_;
    tracer_.record(TraceEventType::kSendWait, vtime_, s.complete_vtime,
                   s.peer, s.tag, s.expected_elements);
    vtime_ = s.complete_vtime;
  }
  tracer_.record(TraceEventType::kSendComplete, vtime_, vtime_, s.peer, s.tag,
                 s.expected_elements);
}

void Communicator::wait(Request& r) {
  if (!r.valid()) return;
  auto l = lock_ops();
  RequestState& s = resolve(r);
  if (s.kind == RequestState::Kind::kSend) {
    complete_send(s, /*allow_stall=*/true);
  } else {
    machine_.mailbox(rank_).await_completion(s.posted);
    complete_recv(s.posted.msg, s.out, s.expected_elements, s.peer, s.tag);
  }
  release(r, s);
}

bool Communicator::test(Request& r) {
  if (!r.valid()) return true;
  auto l = lock_ops();
  RequestState& s = resolve(r);
  if (s.kind == RequestState::Kind::kSend) {
    if (s.complete_vtime > vtime_) return false;
    complete_send(s, /*allow_stall=*/false);
  } else {
    // Real-time-safe polling seam: under the parallel engine arrivals sit
    // in lock-free channels until the owner drains them; poll() does that
    // drain (and is a no-op under the other engines), so test() sees every
    // physically arrived message without blocking or locking.
    machine_.mailbox(rank_).poll();
    if (!s.posted.done()) return false;
    if (s.posted.msg.arrival_vtime > vtime_) return false;
    complete_recv(s.posted.msg, s.out, s.expected_elements, s.peer, s.tag);
  }
  release(r, s);
  return true;
}

void Communicator::wait_all(std::span<Request> rs) {
  for (Request& r : rs) wait(r);
}

bool Communicator::cancel(Request& r) {
  if (!r.valid()) return false;
  auto l = lock_ops();
  RequestState& s = resolve(r);
  if (s.kind == RequestState::Kind::kSend) {
    // Deposited at post: nothing to undo, the bytes are with the receiver.
    release(r, s);
    return true;
  }
  Mailbox& mb = machine_.mailbox(rank_);
  mb.poll();
  if (!s.posted.done()) {
    mb.cancel_recv(s.posted);
    // After cancel_recv the slot can no longer complete (we are the
    // serialized consumer in parallel mode; serial mode is one thread), so
    // done() here is final.
    if (!s.posted.done()) {
      release(r, s);
      return false;
    }
  }
  // Harvest: the message physically arrived. Unpack into the caller's
  // buffer without any clock or stats charge — the caller is tearing down
  // and only the bytes matter (they feed the recovery inflow log).
  if (s.posted.msg.payload.size() != s.out.size())
    throw CommError("cancel: harvested message size mismatch from rank " +
                    std::to_string(s.peer) + " tag " + std::to_string(s.tag));
  std::memcpy(s.out.data(), s.posted.msg.payload.data(), s.out.size());
  release(r, s);
  return true;
}

void Communicator::block_until(const std::function<bool()>& ready) {
  auto l = lock_ops();
  machine_.mailbox(rank_).await_until(ready);
}

bool Communicator::arrived(const Request& r) {
  if (!r.valid()) return true;
  auto l = lock_ops();
  RequestState& s = resolve(r);
  if (s.kind == RequestState::Kind::kSend) return true;
  // Drain first so a message sitting in a parallel-mode channel counts as
  // arrived; done() alone would lag physical delivery by one drain.
  machine_.mailbox(rank_).poll();
  return s.posted.done();
}

std::size_t Communicator::wait_any(std::span<Request> rs) {
  auto l = lock_ops();
  // Gather the live candidates once; resolve() validates each handle.
  std::vector<std::pair<std::size_t, RequestState*>> live;
  live.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i)
    if (rs[i].valid()) live.emplace_back(i, &resolve(rs[i]));
  if (live.empty())
    throw CommError("wait_any: every request handle is invalid");

  // Sends are physically complete at post, so this blocks only when every
  // candidate is a not-yet-arrived receive; any deposit re-evaluates.
  machine_.mailbox(rank_).await_until([&] {
    for (const auto& [i, s] : live) {
      (void)i;
      if (s->kind == RequestState::Kind::kSend || s->posted.done())
        return true;
    }
    return false;
  });

  // Deterministic pick among the physically complete: smallest completion
  // vtime, index breaking ties (strict < keeps the lowest index).
  std::size_t best = rs.size();
  double best_t = 0.0;
  RequestState* best_s = nullptr;
  for (const auto& [i, s] : live) {
    double t = 0.0;
    if (s->kind == RequestState::Kind::kSend) {
      t = s->complete_vtime;
    } else if (s->posted.done()) {
      t = s->posted.msg.arrival_vtime;
    } else {
      continue;
    }
    if (!best_s || t < best_t) {
      best = i;
      best_t = t;
      best_s = s;
    }
  }
  internal_check(best_s != nullptr, "wait_any woke with nothing complete");

  if (best_s->kind == RequestState::Kind::kSend) {
    complete_send(*best_s, /*allow_stall=*/true);
  } else {
    complete_recv(best_s->posted.msg, best_s->out, best_s->expected_elements,
                  best_s->peer, best_s->tag);
  }
  release(rs[best], *best_s);
  return best;
}

}  // namespace wavepipe
