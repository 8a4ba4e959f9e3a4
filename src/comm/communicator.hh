// The per-rank communication handle: typed point-to-point messaging,
// tree-based collectives, and the virtual clock.
//
// Semantics mirror a small, useful subset of MPI:
//   * send() is buffered and never blocks on the receiver;
//   * recv() blocks until the matching (src, tag) message arrives;
//   * matching is FIFO per (src, tag) pair;
//   * collectives must be entered by every rank of the machine.
//
// Virtual time: under a non-free CostModel each rank carries a virtual
// clock. compute() advances it by work*compute_per_element; a message sent
// at sender time t becomes available to the receiver at t + alpha + beta*n;
// recv() advances the receiver's clock to max(own, arrival). Because
// arrival stamps depend only on program order, virtual times are
// deterministic regardless of host thread scheduling.
//
// Nonblocking operations (isend/irecv + wait/test/wait_all/wait_any) obey
// three virtual-time rules, chosen so that `isend(); wait()` costs exactly
// what `send()` costs and `irecv(); wait()` exactly what `recv()` costs:
//   1. Posting never advances the clock beyond what the blocking call
//      charges up front (irecv: nothing; isend under occupy_sender:
//      nothing — the message occupies the *send engine*, modeled by a
//      NIC-free timestamp, not the cpu clock; isend under !occupy_sender:
//      send_overhead, as blocking send does).
//   2. wait() advances the clock to max(own, completion): for a recv the
//      completion stamp is the message's arrival (stall charged t_wait);
//      for a send it is when the serialized send engine drains (stall
//      charged t_comm). Consecutive isends queue on the send engine, which
//      is exactly how overlap wins: compute between post and wait runs
//      while the engine drains.
//   3. Completion stamps depend only on program order, so nonblocking
//      virtual times are as deterministic as blocking ones under both
//      engines. (test() and wait_any() additionally depend on *physical*
//      arrival, which is deterministic under fibers and under the parallel
//      engine only when arrival order is dependency-forced — the same
//      caveat probe() carries.)
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "comm/cost_model.hh"
#include "comm/mailbox.hh"
#include "comm/op_lock.hh"
#include "comm/request.hh"
#include "comm/stats.hh"
#include "comm/trace.hh"
#include "support/error.hh"

namespace wavepipe {

class Machine;

namespace internal_tags {
// Negative tags are reserved for collectives; user tags must be >= 0.
inline constexpr int kReduce = -1;
inline constexpr int kBroadcast = -2;
inline constexpr int kBarrier = -3;
inline constexpr int kGatherSize = -4;
inline constexpr int kGatherData = -5;
}  // namespace internal_tags

class Communicator {
 public:
  Communicator(Machine& machine, int rank);

  /// Cancels any still-posted irecv slots so the mailbox holds no dangling
  /// pointers when a rank unwinds with requests in flight (error paths).
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  /// This rank's id. Under a job view (enter_view) this is the job-local
  /// rank; otherwise the machine rank.
  int rank() const { return rank_ - view_base_; }
  /// Machine size, or the job view's sub-pool size when one is active.
  int size() const;
  const CostModel& costs() const;

  /// This rank's machine (world) id regardless of any active job view.
  int world_rank() const { return rank_; }

  /// The machine this communicator belongs to (backend dispatch needs the
  /// engine kind; the tasks backend needs the pool signal and extension
  /// slot).
  Machine& machine() { return machine_; }

  // ---- job views (the sweep service's isolation seam) ----
  //
  // A job view narrows this communicator to a contiguous sub-pool of the
  // machine: rank()/size() become job-local, point-to-point peers are
  // job-local and translated to machine ranks underneath, and user tags
  // (>= 0) are shifted into the job's leased tag range — so a program
  // written against rank()/size() runs unmodified on a slice of a shared
  // machine, and two jobs on disjoint slices with disjoint leases cannot
  // collide on (src, tag) matching. Collectives tree over the view's local
  // rank/size, so their shape on a p-rank slice is identical to a p-rank
  // machine. Internal (negative) collective tags are not shifted: they
  // cannot collide across jobs because the ranks are disjoint. See
  // DESIGN.md §17.

  /// Enters a job view over machine ranks [base, base + size) with user
  /// tags translated into [tag_base, tag_base + tag_count). Must be called
  /// by a rank inside the window; views do not nest. `label` names the job
  /// in diagnostics.
  void enter_view(int base, int size, int tag_base, int tag_count,
                  std::string label);

  /// Leaves the current job view, restoring machine-wide rank/size/tags.
  void exit_view();

  /// True while a job view is active.
  bool view_active() const { return view_size_ > 0; }

  // ---- concurrent-operations mode (the sched/ tasks backend) ----
  //
  // By default a Communicator is single-threaded: the owning rank's thread
  // is the only caller, and no operation takes a lock. The work-stealing
  // tasks backend breaks that assumption — any worker thread may run one of
  // this rank's tasks, and a scanner thread may concurrently poll this
  // rank's inflow requests. enable_concurrent_ops() arms a per-communicator
  // OpLock (comm/op_lock.hh: a recursive spin lock that never sleeps in the
  // kernel) that every leaf operation (compute, send/recv, request ops,
  // probe) then takes, serializing the rank's virtual clock, request table,
  // and mailbox consumer side. Recursive so that a thread already holding
  // the lock (a scanner inside try_lock_ops(), a task release, the
  // departure handshake) can still call the self-locking ops. When not
  // armed, lock_ops() returns an empty (no-op) lock, so the SPMD paths pay
  // one acquire load per op and nothing else.

  /// Arms concurrent mode for the rest of this communicator's life (there
  /// is no disarm: the run that needed it is the run that made it).
  void enable_concurrent_ops() {
    concurrent_.store(true, std::memory_order_release);
  }

  /// Acquires the operation lock (spinning, then yielding; it never sleeps
  /// in the kernel). Empty lock when concurrent mode is off.
  std::unique_lock<OpLock> lock_ops() {
    if (!concurrent_.load(std::memory_order_acquire)) return {};
    return std::unique_lock<OpLock>(op_lock_);
  }

  /// Try-acquires the operation lock; an empty lock means some other worker
  /// holds it (or concurrent mode is off — callers only use this when on).
  std::unique_lock<OpLock> try_lock_ops() {
    if (!concurrent_.load(std::memory_order_acquire)) return {};
    return std::unique_lock<OpLock>(op_lock_, std::try_to_lock);
  }

  // ---- virtual time ----

  /// Charges `elements` worth of computation to this rank's virtual clock.
  void compute(double elements);

  /// Advances the clock by an absolute amount of virtual time. Accounted
  /// as computation in the phase breakdown.
  void advance_time(double dt) {
    auto l = lock_ops();
    tracer_.record(TraceEventType::kCompute, vtime_, vtime_ + dt);
    vtime_ += dt;
    phases_.t_comp += dt;
  }

  double vtime() const {
    // Concurrent mode: another worker may be advancing this rank's clock
    // inside a locked leaf op right now (two tasks of one rank on two
    // workers), so the read must serialize with those mutations.
    if (!concurrent_.load(std::memory_order_acquire)) return vtime_;
    std::lock_guard<OpLock> l(op_lock_);
    return vtime_;
  }

  /// Engine seam: the stable address of this rank's virtual clock. The
  /// cooperative scheduler reads it to order runnable ranks
  /// earliest-vtime-first; nothing may write through it.
  const double* vtime_address() const { return &vtime_; }

  /// Diagnostic label for what this rank is about to block on (e.g. the
  /// scheduler task awaiting its inflow). The fiber engine's deadlock
  /// report appends it to the rank's entry, so a hang names the stuck
  /// task, not just the raw irecv. Set before a potentially blocking wait,
  /// clear with the empty string afterwards.
  void set_wait_context(std::string ctx);

  // ---- point-to-point ----

  /// Sends `data` to rank `dst`. Buffered: returns as soon as the payload
  /// is copied into the destination mailbox.
  template <typename T>
  void send(int dst, std::span<const T> data, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wavepipe messages carry trivially copyable elements");
    require(tag >= 0, "user message tags must be >= 0");
    send_bytes(dst, tag, as_bytes(data), data.size());
  }

  /// Sends a single value.
  template <typename T>
  void send_value(int dst, const T& v, int tag = 0) {
    send(dst, std::span<const T>(&v, 1), tag);
  }

  /// Receives exactly out.size() elements from `src` into `out`.
  template <typename T>
  void recv(int src, std::span<T> out, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(tag >= 0, "user message tags must be >= 0");
    recv_bytes(src, tag, as_writable_bytes(out), out.size());
  }

  template <typename T>
  T recv_value(int src, int tag = 0) {
    T v{};
    recv(src, std::span<T>(&v, 1), tag);
    return v;
  }

  /// True if a message from (src, tag) is already queued.
  bool probe(int src, int tag = 0);

  // ---- nonblocking point-to-point ----

  /// Starts a send to `dst` and returns a Request to wait on. The payload
  /// is copied out immediately, so `data` may be reused as soon as isend
  /// returns; the Request only settles the virtual-time bill (rule 2
  /// above). Under occupy_sender the message queues on this rank's
  /// serialized send engine without advancing the cpu clock.
  template <typename T>
  Request isend(int dst, std::span<const T> data, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "wavepipe messages carry trivially copyable elements");
    require(tag >= 0, "user message tags must be >= 0");
    return isend_bytes(dst, tag, as_bytes(data), data.size());
  }

  /// Posts a receive of exactly out.size() elements from `src`. Never
  /// advances the clock. `out` must stay valid and unresized until the
  /// request completes (wait/test/wait_all/wait_any) — the completed
  /// message is unpacked into it at that point. Posted receives match
  /// sends FIFO per (src, tag), interleaving with blocking recv() calls in
  /// posting order.
  template <typename T>
  Request irecv(int src, std::span<T> out, int tag = 0) {
    static_assert(std::is_trivially_copyable_v<T>);
    require(tag >= 0, "user message tags must be >= 0");
    return irecv_bytes(src, tag, as_writable_bytes(out), out.size());
  }

  /// Blocks until `r` completes, advances the clock to max(own,
  /// completion), and consumes the handle (resets it to invalid). A wait
  /// on an invalid handle is a no-op, so double-buffered loops need no
  /// first-iteration special case.
  void wait(Request& r);

  /// Nonblocking completion check: true iff the operation has completed
  /// *by this rank's current virtual time* (and, for a recv, the message
  /// has physically arrived). On success the handle is consumed and the
  /// operation finalized without any clock advance; on failure the handle
  /// stays valid. True for an invalid handle (MPI's inactive-request
  /// convention).
  bool test(Request& r);

  /// Physical-completion predicate: true iff the operation behind `r` is
  /// done in *real* time — sends always (the payload is deposited at post),
  /// receives once the message physically arrived — regardless of this
  /// rank's virtual clock. Unlike test() it never consumes the handle and
  /// never refuses a message whose arrival stamp is still in the clock's
  /// future (a subsequent wait() then charges the stall). The tasks
  /// backend's promotion scan uses this: test()'s vtime gate would starve a
  /// worker that has nothing else to advance its clock with. True for an
  /// invalid handle.
  bool arrived(const Request& r);

  /// Cancel-or-harvest of one pending request (the recovery teardown
  /// primitive). A send counts as harvested immediately — its payload
  /// deposited at post. A recv whose message already physically arrived is
  /// finalized: the payload is unpacked into the caller's buffer with *no*
  /// virtual-time or stats charge (the caller is a dying rank whose clock
  /// no longer matters) and true is returned; otherwise the posted slot is
  /// unregistered from the mailbox and false returned. Either way the
  /// handle is consumed. Race-free by the mailbox consumer contract: in
  /// parallel mode only the serialized consumer (the caller) completes
  /// slots, and serial mode runs everything on one thread.
  bool cancel(Request& r);

  /// Blocks this rank on its own mailbox until `ready()` holds,
  /// re-evaluating after every deposit, nudge, or poison of this mailbox.
  /// The wait primitive of recovery (the SPMD executor run with a
  /// coordinator, and the exit barrier): the predicate may consult state
  /// beyond this mailbox (an adopted rank's arrivals, the machine's death
  /// epoch) because machine-level death events nudge every live rank's
  /// mailbox.
  void block_until(const std::function<bool()>& ready);

  /// Waits for every request in order (index 0 first). Equivalent to
  /// calling wait() on each in sequence; the index order makes the phase
  /// accounting deterministic.
  void wait_all(std::span<Request> rs);

  /// Blocks until at least one request is physically complete, then
  /// finalizes and consumes the one with the smallest (completion vtime,
  /// index) among the physically complete — a deterministic tie-break —
  /// and returns its index. Invalid handles are skipped; throws CommError
  /// if every handle is invalid. See rule 3 for the determinism caveat
  /// under the parallel engine.
  std::size_t wait_any(std::span<Request> rs);

  // ---- collectives (binomial trees over point-to-point) ----

  /// Blocks until every rank arrives; virtual clocks synchronize to the
  /// slowest rank plus the tree traversal cost.
  void barrier();

  /// Element-wise reduction of `data` across all ranks with `op`; the
  /// result lands in `data` on every rank (MPI_Allreduce).
  template <typename T, typename Op>
  void allreduce(std::span<T> data, Op op) {
    const double t0 = vtime();
    reduce_to_root(data, op, internal_tags::kReduce);
    broadcast_from_root(data, internal_tags::kBroadcast);
    note_collective(t0, data.size());
  }

  template <typename T>
  T allreduce_sum(T v) {
    allreduce(std::span<T>(&v, 1), [](T a, T b) { return a + b; });
    return v;
  }

  template <typename T>
  T allreduce_max(T v) {
    allreduce(std::span<T>(&v, 1), [](T a, T b) { return a < b ? b : a; });
    return v;
  }

  template <typename T>
  T allreduce_min(T v) {
    allreduce(std::span<T>(&v, 1), [](T a, T b) { return b < a ? b : a; });
    return v;
  }

  /// Broadcasts `data` from rank 0 to all ranks.
  template <typename T>
  void broadcast(std::span<T> data) {
    const double t0 = vtime();
    broadcast_from_root(data, internal_tags::kBroadcast);
    note_collective(t0, data.size());
  }

  /// Gathers `local` from every rank onto rank 0, concatenated in rank
  /// order. Non-root ranks get an empty vector. Chunks may differ in size.
  template <typename T>
  std::vector<T> gather(std::span<const T> local) {
    const double t0 = vtime();
    std::vector<T> out;
    if (rank() == 0) {
      out.insert(out.end(), local.begin(), local.end());
      for (int r = 1; r < size(); ++r) {
        std::uint64_t n = 0;
        recv_internal(r, std::span<std::uint64_t>(&n, 1),
                      internal_tags::kGatherSize);
        std::vector<T> chunk(n);
        if (n > 0)
          recv_internal(r, std::span<T>(chunk), internal_tags::kGatherData);
        out.insert(out.end(), chunk.begin(), chunk.end());
      }
    } else {
      const std::uint64_t n = local.size();
      send_internal(0, std::span<const std::uint64_t>(&n, 1),
                    internal_tags::kGatherSize);
      if (!local.empty()) send_internal(0, local, internal_tags::kGatherData);
    }
    note_collective(t0, local.size());
    return out;
  }

  // ---- stats, phases, tracing ----

  const CommStats& stats() const { return stats_; }

  /// Virtual-time decomposition accumulated so far; the three buckets
  /// partition every clock advance, so phases().total() == vtime().
  const PhaseBreakdown& phases() const { return phases_; }

  /// This rank's event tracer (a disabled no-op unless the Machine was
  /// given an enabled TraceConfig). Executors may record their own events
  /// (tiles, statements) through it.
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  template <typename T>
  static std::span<const std::byte> as_bytes(std::span<const T> s) {
    return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
  }
  template <typename T>
  static std::span<std::byte> as_writable_bytes(std::span<T> s) {
    return {reinterpret_cast<std::byte*>(s.data()), s.size_bytes()};
  }

  // Core byte-level transport (implemented in communicator.cc).
  void send_bytes(int dst, int tag, std::span<const std::byte> payload,
                  std::size_t elements);
  void recv_bytes(int src, int tag, std::span<std::byte> out,
                  std::size_t expected_elements);
  Request isend_bytes(int dst, int tag, std::span<const std::byte> payload,
                      std::size_t elements);
  Request irecv_bytes(int src, int tag, std::span<std::byte> out,
                      std::size_t expected_elements);

  /// One pending nonblocking operation. Slots live in a deque (stable
  /// addresses — the mailbox keeps a pointer to `posted` while a recv is
  /// pending) and are recycled through free_slots_; `gen` bumps on every
  /// release so stale Request handles are detected, not misdelivered. A
  /// slot whose gen wraps to 0 is retired (never recycled) so handle
  /// staleness survives generation-counter overflow.
  struct RequestState {
    enum class Kind : std::uint8_t { kNone, kSend, kRecv };
    Kind kind = Kind::kNone;
    std::uint32_t gen = 1;
    int peer = -1;
    int tag = 0;
    std::size_t expected_elements = 0;
    std::span<std::byte> out{};   // recv destination (caller-owned)
    double complete_vtime = 0.0;  // send: when the send engine drains
    PostedRecv posted;            // recv: the mailbox-facing slot
  };

  std::size_t alloc_slot();
  RequestState& resolve(const Request& r);
  void release(Request& r, RequestState& s);

  /// Translates a (possibly view-local) peer rank to a machine rank; with
  /// no view active this is the identity. `what` names the operation for
  /// the out-of-range diagnostic.
  int to_world(int peer, const char* what) const;

  /// Translates a user tag into the view's leased range; internal
  /// (negative) tags and tags outside a view pass through unchanged. A tag
  /// beyond the lease is a ConfigError naming the job.
  int to_world_tag(int tag) const;

 public:
  /// Test-only seam: rewrites the generation counter of the live slot
  /// behind `r` and returns a matching handle, so the 2^32-release
  /// overflow-retirement path (see release()) is exercisable without four
  /// billion requests. Not for production use.
  Request debug_rewrite_request_gen(Request r, std::uint32_t gen);

 private:
  /// Shared finalization of a matched receive: size check, unpack, stall
  /// accounting (t_wait + kRecvWait/kRecvComplete), stats. Used by both
  /// recv_bytes and request completion so blocking and nonblocking
  /// receives are bit-identical in cost.
  void complete_recv(const Message& m, std::span<std::byte> out,
                     std::size_t expected_elements, int src, int tag);
  void complete_send(RequestState& s, bool allow_stall);

  // Internal (negative-tag) variants used by collectives.
  template <typename T>
  void send_internal(int dst, std::span<const T> data, int tag) {
    send_bytes(dst, tag, as_bytes(data), data.size());
  }
  template <typename T>
  void recv_internal(int src, std::span<T> out, int tag) {
    recv_bytes(src, tag, as_writable_bytes(out), out.size());
  }

  /// Binomial-tree reduce onto rank 0. At round `mask`, ranks with bit
  /// `mask` set send their partial result downward and drop out; ranks with
  /// the bit clear receive from `rank | mask` and fold it in.
  template <typename T, typename Op>
  void reduce_to_root(std::span<T> data, Op op, int tag) {
    const int p = size();
    const int r = rank();
    std::vector<T> incoming(data.size());
    for (int mask = 1; mask < p; mask <<= 1) {
      if ((r & mask) != 0) {
        send_internal(r - mask, std::span<const T>(data.data(), data.size()),
                      tag);
        return;
      }
      const int peer = r | mask;
      if (peer < p) {
        recv_internal(peer, std::span<T>(incoming), tag);
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = op(data[i], incoming[i]);
      }
    }
  }

  /// Binomial-tree broadcast from rank 0 (mirror of the reduce tree): at
  /// round `mask`, ranks < mask (which already hold the data) send to
  /// rank + mask; ranks in [mask, 2*mask) receive.
  template <typename T>
  void broadcast_from_root(std::span<T> data, int tag) {
    const int p = size();
    const int r = rank();
    for (int mask = 1; mask < p; mask <<= 1) {
      if (r < mask) {
        const int peer = r + mask;
        if (peer < p)
          send_internal(peer, std::span<const T>(data.data(), data.size()),
                        tag);
      } else if (r < 2 * mask) {
        recv_internal(r - mask, data, tag);
      }
    }
  }

  void note_collective(double t0, std::uint64_t elements) {
    ++stats_.collectives;
    tracer_.record(TraceEventType::kCollective, t0, vtime_, -1, 0, elements);
  }

  Machine& machine_;
  int rank_;
  // Active job view ([view_base_, view_base_ + view_size_) of the machine,
  // user tags shifted by view_tag_base_). view_size_ == 0 means no view.
  int view_base_ = 0;
  int view_size_ = 0;
  int view_tag_base_ = 0;
  int view_tag_count_ = 0;
  std::string view_label_;
  // Concurrent-operations mode (tasks backend): armed once, never disarmed.
  std::atomic<bool> concurrent_{false};
  // Mutable so const readers (vtime()) can serialize against the locked
  // mutators when concurrent mode is armed.
  mutable OpLock op_lock_;
  double vtime_ = 0.0;
  // When the serialized send engine (NIC) is free again, under
  // occupy_sender. Blocking sends keep it equal to the clock, so programs
  // that never isend see exactly the pre-request cost model; isends push
  // it ahead of the clock, and the gap is the overlap window.
  double send_engine_free_ = 0.0;
  std::deque<RequestState> requests_;
  std::vector<std::size_t> free_slots_;
  CommStats stats_;
  PhaseBreakdown phases_;
  Tracer tracer_;
};

}  // namespace wavepipe
