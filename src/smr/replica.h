// SMR replica (paper Fig. 1 and Alg. 1).
//
// Parallel mode ("P-SMR"): the atomic-broadcast deliver callback feeds a
// hand-off queue; the *scheduler* (parallelizer) thread drains every queued
// delivered batch at each wake-up, deduplicates retransmissions, stamps
// delivery order, and inserts the surviving commands into the COS with one
// insert_batch; a pool of *worker* threads loops get -> execute -> remove
// and replies to the command's client.
//
// Sequential mode (classical SMR): the scheduler thread itself executes
// every command in delivery order — no COS, no workers.
//
// Early-scheduling mode routes most commands straight to per-worker queues
// using the service's static class map and keeps the DAG only as a barrier
// fallback (cos/early_sched.h); the scheduler and worker loops are
// identical — the policy only changes which Cos make_scheduler() builds.
//
// At-most-once execution: commands are identified by (client, client_seq).
// The scheduler skips any command it already inserted: it keeps, per
// client, the highest inserted client_seq and a bitmap of the inserted seqs
// in the kReplyCacheWindow below it, and treats seqs older than that window
// as inserted. This absorbs both client retransmissions and re-proposals
// after a view change, yet still inserts a pipelined command whose first
// Request was lost while later ones went through. The replica answers
// retransmissions of already-executed commands from a bounded reply cache.
//
// No lock shared by all clients is on the command path: the dedup windows
// belong to the scheduler thread alone, and the reply cache is split into
// stripes by client id, so replies to different clients rarely meet.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "broadcast/sequenced_broadcast.h"
#include "common/blocking_queue.h"
#include "common/metrics.h"
#include "common/padded.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "cos/factory.h"
#include "net/transport.h"

namespace psmr {

class Replica {
 public:
  // Per-client reply-cache window, in client_seq distance: a retransmission
  // of one of a client's last kReplyCacheWindow executed commands is
  // answered from the cache; older ones fall through to scheduler dedup.
  static constexpr std::uint64_t kReplyCacheWindow = 1024;

  struct Config {
    // How delivery order becomes execution order: the COS dependency
    // graph (default), early scheduling (class-routed worker queues, DAG
    // fallback — uses the service's class_map()), or the classical
    // sequential baseline.
    SchedulerPolicy policy = SchedulerPolicy::kCosDag;
    // COS construction knobs (kind, capacity, indexed, reclaim,
    // segment_width). `cos.conflict` is ignored — the replica always uses
    // the service's conflict relation.
    CosOptions cos;
    int workers = 4;
    SequencedBroadcast::Config broadcast;
  };

  // Registers this replica's network endpoint. After all replicas of the
  // deployment are constructed, call connect() with every endpoint (in
  // replica-index order), then start().
  Replica(Transport& net, int index, std::unique_ptr<Service> service,
          Config config);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  NodeId endpoint() const { return endpoint_; }
  int index() const { return index_; }

  void connect(const std::vector<NodeId>& replica_endpoints);
  void start();
  void stop();

  // Observability.
  std::uint64_t executed_count() const {
    return executed_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
  // Samples the service digest at a scheduler quiescent point (a control
  // task, like state transfer), so the read cannot race with worker
  // execution. Blocks until the sample is taken; on a stopped replica it
  // reads directly (all threads are joined).
  std::uint64_t state_digest();
  bool is_leader() const {
    auto* b = broadcast_.load(std::memory_order_acquire);
    return b != nullptr && b->is_leader();
  }
  std::uint64_t view() const {
    auto* b = broadcast_.load(std::memory_order_acquire);
    return b != nullptr ? b->view() : 0;
  }
  const Service& service() const { return *service_; }
  double mean_graph_population() const;
  // Deliveries waiting for the scheduler's next drain (a drain in progress
  // is not counted).
  std::size_t queued_deliveries() const { return delivered_.size(); }

  // Simulates a crash: the endpoint goes silent and all replica threads
  // stop. Used by fault-tolerance tests and the fault_tolerance example.
  void crash();

 private:
  // Scheduler work item: either a delivered batch or a control task (state
  // transfer serve/apply) that must run at a quiescent point, i.e., after
  // every previously delivered command has fully executed.
  struct Delivery {
    std::uint64_t seq = 0;
    std::vector<Command> batch;
    std::function<void()> control;
  };

  struct Metrics {
    Counter& batches;           // delivered batches scheduled
    Counter& batch_commands;    // commands in those batches (pre-dedup)
    Counter& dedup_hits;        // retransmissions dropped by at-most-once
    Counter& reply_cache_hits;  // retransmissions answered from the cache
    Counter& worker_exec_ns;    // total time executing commands (workers,
                                // or the scheduler in sequential mode)
    Counter& worker_stall_ns;   // total worker time blocked in cos->get()
    Counter& dropped_deliveries;  // push on a closed queue while running_
    Gauge& queue_depth;         // delivered_ hand-off queue occupancy
    HistogramMetric& batch_size;
  };

  void handle_message(NodeId from, const MessagePtr& m);
  void on_request(NodeId from, const RequestMsg& m);
  // Audited hand-off to the scheduler queue: counts/logs drops that happen
  // while the replica still claims to be running (see replica.cc).
  bool push_delivery(Delivery d, const char* what);
  void scheduler_loop();
  // Scheduler thread: at-most-once filters one delivered batch and appends
  // its fresh commands, numbered in delivery order, to `fresh`.
  void dedup(const Delivery& delivery, std::vector<Command>& fresh);
  // Scheduler thread: hands `fresh` to execution, as one insert_batch into
  // the COS or, in sequential mode, by executing it here in order, and
  // clears it. False once the COS is closed.
  bool schedule(std::vector<Command>& fresh);
  void worker_loop();
  void execute_and_reply(const Command& c);

  // State transfer (all run on the scheduler thread at quiescence).
  void wait_quiescent();
  std::vector<std::uint8_t> encode_checkpoint();
  bool decode_checkpoint(std::span<const std::uint8_t> bytes);
  void serve_state_request(NodeId peer);
  void apply_state_response(const StateResponseMsg& m);

  Transport& net_;
  const int index_;
  const Config config_;
  std::unique_ptr<Service> service_;  // NOLINT(psmr-guarded-by-coverage) set in ctor, before any thread starts
  NodeId endpoint_ = -1;  // NOLINT(psmr-guarded-by-coverage) written in connect() before threads start

  // connect() constructs the engine and publishes it through the atomic
  // pointer; on a real transport a peer's message can reach the dispatcher
  // thread before (or during) connect(), so the handoff must be a release/
  // acquire pair, not a bare unique_ptr assignment.
  std::unique_ptr<SequencedBroadcast> broadcast_owner_;  // NOLINT(psmr-guarded-by-coverage) ownership only; access goes through the atomic broadcast_
  std::atomic<SequencedBroadcast*> broadcast_{nullptr};
  BlockingQueue<Delivery> delivered_;

  // make_scheduler(config_.policy, ...); nullptr in sequential mode, where
  // the scheduler thread executes every command itself.
  std::unique_ptr<Cos> cos_;  // NOLINT(psmr-guarded-by-coverage) created in the ctor before worker threads start
  std::thread scheduler_;
  std::vector<std::thread> workers_;  // NOLINT(psmr-guarded-by-coverage) created/joined by the owner thread only
  std::atomic<bool> running_{false};

  // Deliveries taken from delivered_ by the scheduler's latest drain and
  // not yet processed. Scheduler thread only; stop() runs the control tasks
  // left here once every replica thread is joined.
  std::deque<Delivery> drained_;  // NOLINT(psmr-guarded-by-coverage) scheduler thread only; read by stop() after the join

  // Per-client at-most-once window. The bitmap is a ring over the window:
  // bit client_seq % kReplyCacheWindow is set iff that seq, within the
  // window ending at max_inserted_seq, was inserted.
  struct DedupWindow {
    std::uint64_t max_inserted_seq = 0;
    std::array<std::uint64_t, kReplyCacheWindow / 64> inserted{};

    // True if `seq` must not be inserted: it was, or it is too old to tell
    // (below the window, or 0, which no client issues).
    bool inserted_or_stale(std::uint64_t seq) const {
      if (seq > max_inserted_seq) return false;
      if (seq == 0 || max_inserted_seq - seq >= kReplyCacheWindow) return true;
      return test(seq);
    }
    void mark_inserted(std::uint64_t seq);
    // Checkpoint validation: the high-water mark is marked and no bit
    // stands for a seq of 0 or below.
    bool consistent() const;

   private:
    bool test(std::uint64_t seq) const {
      const std::uint64_t bit = seq % kReplyCacheWindow;
      return (inserted[bit / 64] >> (bit % 64) & 1) != 0;
    }
    void assign(std::uint64_t seq, bool value) {
      const std::uint64_t bit = seq % kReplyCacheWindow;
      const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
      inserted[bit / 64] = value ? inserted[bit / 64] | mask
                                 : inserted[bit / 64] & ~mask;
    }
  };
  // Read and written only on the scheduler thread: by dedup(), and by the
  // checkpoint encode/decode, which run there as control tasks.
  std::unordered_map<std::uint64_t, DedupWindow> windows_;  // NOLINT(psmr-guarded-by-coverage) scheduler thread only

  // Reply cache, written by workers (or the sequential scheduler) and read
  // by on_request. Each client's cache is a ring of kReplyCacheWindow slots
  // indexed by client_seq % kReplyCacheWindow and tagged by the Response's
  // client_seq (never 0 for an executed command), created on the client's
  // first reply: O(1) lookup and insert, no allocation after that. Clients
  // are spread over kReplyStripes stripes by id, each with its own lock, so
  // replies to different clients do not serialize. A stripe lock is held
  // across net_.send on the cache-hit path (its rank precedes the transport
  // rank), is never held with another stripe's, and never with COS locks.
  static constexpr std::size_t kReplyStripes = 16;
  struct ReplyStripe {
    RankedMutex<lock_rank::kReplicaClients> mu;
    std::unordered_map<std::uint64_t, std::vector<Response>> replies
        PSMR_GUARDED_BY(mu);
  };
  ReplyStripe& reply_stripe(std::uint64_t client) {
    return *reply_stripes_[client % kReplyStripes];
  }
  std::array<Padded<ReplyStripe>, kReplyStripes> reply_stripes_;

  std::atomic<std::uint64_t> executed_{0};
  std::uint64_t scheduled_count_ = 0;  // commands handed off; scheduler only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::atomic<std::uint64_t> population_sum_{0};
  std::atomic<std::uint64_t> population_samples_{0};
  std::uint64_t next_command_id_ = 1;      // scheduler thread only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::uint64_t last_processed_seq_ = 0;   // scheduler thread only  // NOLINT(psmr-guarded-by-coverage) scheduler thread only
  std::atomic<std::uint64_t> state_transfers_{0};  // observability
  const Metrics metrics_;

 public:
  // Number of state-transfer checkpoints this replica installed.
  std::uint64_t state_transfers() const {
    return state_transfers_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
};

}  // namespace psmr
