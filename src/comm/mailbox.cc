#include "comm/mailbox.hh"

#include <algorithm>
#include <vector>

#include "support/error.hh"

namespace wavepipe {

void Mailbox::throw_poisoned() const {
  if (death_rank_ >= 0)
    throw RankDeath(death_rank_,
                    "recv aborted: rank " + std::to_string(death_rank_) +
                        " died (" + poison_reason_ + ")");
  throw CommError("recv aborted: machine poisoned (" + poison_reason_ + ")");
}

void Mailbox::throw_killed() const {
  throw RankDeath(kill_rank_, "rank " + std::to_string(kill_rank_) +
                                  " killed: " + kill_reason_);
}

void Mailbox::nudge() {
  if (parallel_) {
    parallel_->parker.unpark();
    if (PoolSignal* ps = pool_signal_.load(std::memory_order_acquire))
      ps->notify();
    return;
  }
  if (blocker_) blocker_->notify(*this);
}

void Mailbox::kill(int rank, const std::string& why) {
  bool expected = false;
  if (kill_claim_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    kill_rank_ = rank;
    kill_reason_ = why;
    kill_pending_.store(true, std::memory_order_release);
  }
  nudge();
}

Mailbox::ParallelState::ParallelState(int nranks) {
  channels.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    channels.push_back(std::make_unique<SpscQueue<Message>>());
}

void Mailbox::enter_parallel(int nranks) {
  internal_check(!blocker_ && !parallel_,
                 "mailbox already has an engine attached");
  parallel_ = std::make_unique<ParallelState>(nranks);
}

void Mailbox::exit_parallel() {
  if (!parallel_) return;
  // Quiescent by contract (rank threads joined), so this final drain moves
  // any message that was sent but never received into the ordinary queues —
  // pending() reports the same count every engine reports.
  drain_channels();
  parallel_.reset();
}

void Mailbox::absorb(Message m) {
  // A waiting posted receive gets the message directly, otherwise it
  // queues.
  const auto it = posted_.find(key_of(m.src, m.tag));
  if (it != posted_.end() && !it->second.empty()) {
    PostedRecv* slot = it->second.front();
    it->second.pop_front();
    complete(*slot, std::move(m));
  } else {
    queues_[key_of(m.src, m.tag)].push_back(std::move(m));
    ++pending_;
  }
}

void Mailbox::drain_channels() {
  // Serialized consumer side only. Per-(src, tag) FIFO holds because each
  // channel is itself FIFO, only rank `src` pushes into channel[src], and
  // batches are absorbed in pop order.
  auto& scratch = parallel_->scratch;
  for (auto& ch : parallel_->channels) {
    for (;;) {
      scratch.clear();
      const std::size_t n = ch->pop_batch(scratch, kDrainBatch);
      if (n == 0) break;
      for (Message& m : scratch) absorb(std::move(m));
      // A short batch means the channel ran dry mid-claim; skip the extra
      // empty-probe round trip.
      if (n < kDrainBatch) break;
    }
  }
}

void Mailbox::poll() {
  if (parallel_) drain_channels();
}

std::optional<Message> Mailbox::pop(int src, int tag) {
  const auto it = queues_.find(key_of(src, tag));
  if (it == queues_.end() || it->second.empty()) return std::nullopt;
  Message out = std::move(it->second.front());
  it->second.pop_front();
  --pending_;
  return out;
}

void Mailbox::complete(PostedRecv& slot, Message m) {
  slot.msg = std::move(m);
  slot.completed.store(true, std::memory_order_release);
}

void Mailbox::deposit(Message m) {
  if (parallel_) {
    // Producer hot path: one lock-free push into this sender's private
    // channel plus an eventcount bump. No mutex, no map access — the owner
    // does all matching when it drains.
    auto& st = *parallel_;
    const auto src = static_cast<std::size_t>(m.src);
    internal_check(m.src >= 0 && src < st.channels.size(),
                   "parallel deposit from out-of-range source rank");
    st.channels[src]->push(std::move(m));
    st.parker.unpark();
    // Tasks backend: a pool worker parked machine-wide may be able to
    // promote the task this message feeds; gated to a fence + load when no
    // worker is idle.
    if (PoolSignal* ps = pool_signal_.load(std::memory_order_acquire))
      ps->notify();
    return;
  }
  absorb(std::move(m));
  if (blocker_) blocker_->notify(*this);
}

Message Mailbox::await(int src, int tag) {
  // Route through the posted-receive protocol so a blocking recv queues
  // FIFO behind any earlier irecv posted on the same (src, tag) key.
  PostedRecv slot;
  slot.src = src;
  slot.tag = tag;
  slot.what = "recv";
  post_recv(slot);
  try {
    await_completion(slot);
  } catch (...) {
    // An exception can unwind through a block point (the fiber engine's
    // low-stack check, an engine teardown) after the slot matched nothing.
    // The slot lives in this stack frame: leaving it registered would let
    // a later deposit complete into a dead frame and corrupt whatever
    // reuses the memory. (A message that *did* land in the slot stays
    // consumed — per-(src,tag) FIFO has already advanced past it.)
    if (!slot.done()) cancel_recv(slot);
    throw;
  }
  return std::move(slot.msg);
}

void Mailbox::post_recv(PostedRecv& slot) {
  // Drain first so the slot claims a message that already physically
  // arrived, exactly as a serial-mode deposit would have matched it.
  poll();
  // Per key, at most one of {queued messages, waiting posted receives} is
  // nonempty: if a message is queued there is nothing posted ahead of us,
  // so claiming the oldest one preserves FIFO order.
  if (auto m = pop(slot.src, slot.tag)) {
    complete(slot, std::move(*m));
    return;
  }
  posted_[key_of(slot.src, slot.tag)].push_back(&slot);
}

template <typename Ready>
void Mailbox::wait(const Ready& ready, PostedRecv* slot) {
  for (;;) {
    // Parallel mode takes the parker ticket BEFORE draining: any deposit
    // after this point bumps the epoch, so park(ticket) cannot sleep
    // through it.
    std::uint32_t ticket = 0;
    if (parallel_) {
      ticket = parallel_->parker.prepare();
      drain_channels();
    }
    // A pending kill beats completion (and poison): the victim dies at its
    // kill point no matter what arrived. A posted slot stays posted — the
    // dying rank's harvest pass decides what to do with it.
    if (killed()) throw_killed();
    // Completion wins over poison: a message already delivered is valid
    // even if the machine is tearing down, in both modes alike.
    if (ready()) return;
    if (poisoned()) {
      if (slot) cancel_recv(*slot);
      throw_poisoned();
    }
    if (parallel_) {
      parallel_->parker.park(ticket);
    } else if (blocker_) {
      blocker_->block(*this);
    } else {
      // Serial mode with no cooperative engine: the only thread that could
      // deposit is this one, so nothing can ever wake it.
      std::string what =
          "mailbox: blocking wait with no engine attached can never be "
          "woken (posted: ";
      const std::string posted = posted_summary();
      what += posted.empty() ? "none" : posted;
      what += ")";
      throw EngineError(what);
    }
  }
}

void Mailbox::await_completion(PostedRecv& slot) {
  wait([&] { return slot.done(); }, &slot);
}

void Mailbox::await_until(const std::function<bool()>& ready) {
  wait(ready, nullptr);
}

void Mailbox::cancel_recv(PostedRecv& slot) {
  const auto it = posted_.find(key_of(slot.src, slot.tag));
  if (it == posted_.end()) return;
  auto& dq = it->second;
  dq.erase(std::remove(dq.begin(), dq.end(), &slot), dq.end());
}

std::optional<Message> Mailbox::try_match(int src, int tag) {
  if (poisoned()) throw_poisoned();
  poll();
  return pop(src, tag);
}

bool Mailbox::probe(int src, int tag) {
  poll();
  const auto it = queues_.find(key_of(src, tag));
  return it != queues_.end() && !it->second.empty();
}

void Mailbox::poison(const std::string& why, int death_rank) {
  // In parallel mode any rank thread may poison concurrently. The CAS picks
  // one winner to write the reason; the release store of poisoned_ then
  // publishes the string (and the death flavour) to the owner's acquire
  // load in poisoned(). Every poisoner wakes the owner (the winner after
  // its store, so the owner can never park forever with the flag set), and
  // pool workers idle-parked machine-wide observe the teardown too.
  bool expected = false;
  if (poison_claim_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
    poison_reason_ = why;
    death_rank_ = death_rank;
    poisoned_.store(true, std::memory_order_release);
  }
  nudge();
}

std::string Mailbox::posted_summary() const {
  std::vector<const PostedRecv*> slots;
  for (const auto& [key, dq] : posted_) {
    (void)key;
    for (const PostedRecv* s : dq) slots.push_back(s);
  }
  std::sort(slots.begin(), slots.end(),
            [](const PostedRecv* a, const PostedRecv* b) {
              if (a->src != b->src) return a->src < b->src;
              return a->tag < b->tag;
            });
  std::string out;
  for (const PostedRecv* s : slots) {
    if (!out.empty()) out += "; ";
    out += s->what;
    out += "(src=" + std::to_string(s->src) +
           ", tag=" + std::to_string(s->tag) + ")";
  }
  return out;
}

}  // namespace wavepipe
