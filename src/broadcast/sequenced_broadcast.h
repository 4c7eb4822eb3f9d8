// Sequenced atomic broadcast — the ordering substrate under each replica.
//
// Substitute for BFT-SMaRt's ordering protocol in its crash-fault
// configuration: a leader-based, majority-ack sequenced broadcast over
// n = 2f+1 replicas (Paxos phase-2 pattern with a stable leader, plus a
// Viewstamped-Replication-style view change for leader failure).
//
// Normal case:
//   The leader assigns the next sequence number to a batch and sends
//   ACCEPT(view, seq, batch); replicas log it and answer ACCEPTED; on a
//   majority (counting itself) the leader broadcasts COMMIT once; every
//   replica delivers committed batches in sequence order (gap-free) through
//   the deliver callback.
//
// Self-clocked proposals (the ordering pipeline of arXiv 1311.6183):
//   submit(cmds) at the leader proposes at once when the leader's most
//   recent proposal is already committed. While that proposal is
//   uncommitted, new commands accumulate, and the commit that clears it
//   proposes whatever accumulated as the next batch. A batch still leaves at
//   once when it reaches batch_max commands. "In flight" means the latest
//   proposal, not a count of uncommitted slots, so a slot stuck by a lost
//   message cannot throttle later proposals; a view change clears it.
//   batch_timeout is only the stall fallback: the timer proposes commands
//   that waited that long, checked at tick granularity. Under load the batch
//   size follows the commit round trip, with no timer in the path.
//
// Lost messages:
//   A slot whose ACCEPT or ACCEPTED messages are lost never reaches a
//   majority, and since delivery is gap-free it would stall the log for good
//   (the leader's heartbeats keep a view change from firing). The leader
//   therefore re-sends the ACCEPT of any slot left uncommitted for a
//   heartbeat interval to the replicas that have not acknowledged it.
//
// Leader failure:
//   The leader heartbeats when idle. A replica that hears nothing for
//   leader_timeout starts view change v+1: it sends VIEWCHANGE(v+1, its
//   accepted log) to the new leader (view round-robin). The new leader
//   collects a majority of VIEWCHANGE messages, selects for each slot the
//   entry accepted in the highest view (committed entries are majority-
//   replicated, so they always survive the majority intersection), fills
//   holes with no-op batches, and installs the result with NEWVIEW, after
//   which normal case resumes. Uncommitted entries may be re-proposed; the
//   SMR layer deduplicates by (client, client_seq) so re-execution never
//   happens.
//   Silence only counts while this replica itself was running: a timer tick
//   that arrives late by half the leader timeout or more (the process was
//   stopped or descheduled, and the leader's messages wait unread in its
//   inbox) restarts the suspicion clock instead of starting a view change.
//
// Delivery ordering guarantee (uniform total order): all replicas deliver
// the same batches in the same sequence order; delivery is gap-free and
// each batch is delivered at most once per replica.
//
// Threading: handle() is invoked by the network endpoint dispatcher;
// submit() by any thread; an internal timer thread, woken every
// tick_interval, sends the leader's heartbeats and ACCEPT re-sends, detects
// leader failure and runs the batch_timeout stall fallback. All state is
// guarded by one mutex; the deliver callback is invoked while *not* holding
// it, in delivery order.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "broadcast/messages.h"
#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace psmr {

class SequencedBroadcast {
 public:
  struct Config {
    std::size_t batch_max = 64;
    // Stall fallback for commands accumulated behind an uncommitted
    // proposal (checked once per tick).
    std::uint64_t batch_timeout_us = 500;
    std::uint64_t heartbeat_interval_ms = 10;
    std::uint64_t leader_timeout_ms = 100;
    std::uint64_t tick_interval_ms = 2;
    // Delivered slots retained for view changes / laggards; a replica that
    // falls further behind than this needs state transfer (see on_gap).
    std::uint64_t retained_slots = 1024;
    std::uint64_t gap_report_interval_ms = 200;
  };

  // `deliver` receives each committed batch exactly once, in sequence
  // order, possibly from the timer or dispatcher thread — it must not block
  // for long (the SMR replica hands off to its scheduler queue).
  using DeliverFn = std::function<void(std::uint64_t seq,
                                       const std::vector<Command>& batch)>;

  // Invoked (throttled) when a peer's traffic shows this replica lags
  // beyond the retention window and ordinary delivery can no longer catch
  // it up; `peer` is a replica that has the missing history and
  // `our_delivered` is this replica's delivery watermark. The SMR layer
  // reacts with a state-transfer request. NOTE: invoked with the engine's
  // internal mutex held — the handler must not call back into this engine.
  using GapFn = std::function<void(NodeId peer, std::uint64_t our_delivered)>;

  SequencedBroadcast(Transport& net, NodeId self, int index,
                     std::vector<NodeId> replicas, Config config,
                     DeliverFn deliver);

  void set_gap_handler(GapFn on_gap) {
    MutexLock lock(mu_);
    on_gap_ = std::move(on_gap);
  }

  // State-transfer install: everything up to and including `seq` is covered
  // by an externally restored checkpoint. Prunes the log below it and moves
  // the delivery watermark; later committed slots resume delivering
  // normally. No-op if `seq` is not ahead of the watermark.
  void install_checkpoint(std::uint64_t seq);
  ~SequencedBroadcast();

  SequencedBroadcast(const SequencedBroadcast&) = delete;
  SequencedBroadcast& operator=(const SequencedBroadcast&) = delete;

  void start();
  void stop();

  // Feeds protocol messages (types msg::kAccept .. msg::kNewView).
  void handle(NodeId from, const MessagePtr& m);

  // Atomic-broadcast "broadcast" primitive: enqueues commands for ordering.
  // Only effective at the current leader; callers forward client requests
  // to every replica and non-leaders ignore them. Returns false if this
  // replica does not believe itself leader (so callers may drop or buffer).
  bool submit(const std::vector<Command>& cmds);

  bool is_leader() const;
  std::uint64_t view() const;
  std::uint64_t last_delivered() const;

 private:
  struct Slot {
    std::uint64_t view = 0;  // view in which the current value was accepted
    std::vector<Command> batch;
    std::set<int> acks;  // replica indices that ACCEPTED (leader only)
    bool committed = false;
    bool delivered = false;
    // View in which this replica broadcast the slot's COMMIT, if it did.
    std::optional<std::uint64_t> commit_view;
    // When the leader last sent this slot's ACCEPT (leader only).
    std::uint64_t accept_sent_ns = 0;
  };

  int leader_of(std::uint64_t v) const {
    return static_cast<int>(v % replicas_.size());
  }
  // False for a single replica, which proposes and commits on its own and
  // builds no ACCEPT or COMMIT that nobody would receive.
  bool has_peers() const { return replicas_.size() > 1; }

  struct Metrics {
    Counter& proposals;           // batches proposed (leader side)
    Counter& delivered_batches;   // batches delivered in order
    Counter& delivered_commands;  // commands in those batches
    Counter& heartbeats;          // heartbeats sent while leader
    Counter& gap_reports;         // gap handler firings (throttled)
    Counter& checkpoint_installs;
    Counter& view_changes;        // view changes this replica initiated
    Counter& accept_resends;      // ACCEPTs re-sent for unacked slots
    Gauge& seq_lag;               // highest slot seen minus delivered
  };

  // All of the following require mu_ held. try_deliver_locked releases and
  // reacquires mu_ around the deliver callback (directly on the mutex, so
  // the static analysis and the rank checker both track it).
  // Proposes pending commands in batches of at most batch_max; with
  // `partial` false only full batches leave and the rest keeps accumulating.
  void propose_locked(bool partial) PSMR_REQUIRES(mu_);
  // True while the latest proposal of this leader is uncommitted.
  bool proposal_in_flight_locked() const PSMR_REQUIRES(mu_);
  void commit_locked(std::uint64_t seq, Slot& slot) PSMR_REQUIRES(mu_);
  // Leader: re-sends the ACCEPT of every uncommitted slot of this view that
  // went unanswered for a heartbeat interval, to the replicas not in acks.
  void resend_unacked_locked(std::uint64_t now) PSMR_REQUIRES(mu_);
  void try_deliver_locked() PSMR_REQUIRES(mu_);
  void broadcast_to_replicas_locked(const MessagePtr& m) PSMR_REQUIRES(mu_);
  void start_view_change_locked(std::uint64_t target_view)
      PSMR_REQUIRES(mu_);
  void process_view_change_locked(int from_index, const ViewChangeMsg& vc)
      PSMR_REQUIRES(mu_);
  void adopt_new_view_locked(const NewViewMsg& nv) PSMR_REQUIRES(mu_);
  std::vector<LogEntrySummary> accepted_log_locked() const
      PSMR_REQUIRES(mu_);

  void on_accept(int from_index, const AcceptMsg& m);
  void on_accepted(int from_index, const AcceptedMsg& m);
  void on_commit(const CommitMsg& m);
  void on_heartbeat(int from_index, const HeartbeatMsg& m);
  void maybe_report_gap_locked(int from_index, std::uint64_t their_seq)
      PSMR_REQUIRES(mu_);

  void timer_loop();

  Transport& net_;
  const NodeId self_;
  const int index_;
  const std::vector<NodeId> replicas_;
  const Config config_;
  const DeliverFn deliver_;
  GapFn on_gap_ PSMR_GUARDED_BY(mu_);

  // mu_ is held across net_.send (broadcast rank precedes transport rank)
  // and released around the deliver callback.
  mutable RankedMutex<lock_rank::kBroadcast> mu_;
  std::uint64_t view_ PSMR_GUARDED_BY(mu_) = 0;
  // next_seq_: leader's next slot to assign; last_delivered_: highest
  // gap-free delivered slot.
  std::uint64_t next_seq_ PSMR_GUARDED_BY(mu_) = 1;
  // Slot of the leader's latest proposal in this view (0: none).
  std::uint64_t last_proposed_seq_ PSMR_GUARDED_BY(mu_) = 0;
  std::uint64_t last_delivered_ PSMR_GUARDED_BY(mu_) = 0;
  std::map<std::uint64_t, Slot> log_ PSMR_GUARDED_BY(mu_);
  std::vector<Command> pending_ PSMR_GUARDED_BY(mu_);
  std::uint64_t pending_since_ns_ PSMR_GUARDED_BY(mu_) = 0;
  std::uint64_t last_leader_activity_ns_ PSMR_GUARDED_BY(mu_) = 0;
  std::uint64_t last_heartbeat_sent_ns_ PSMR_GUARDED_BY(mu_) = 0;

  // Single-deliverer guard for try_deliver_locked.
  bool delivering_ PSMR_GUARDED_BY(mu_) = false;

  std::uint64_t last_gap_report_ns_ PSMR_GUARDED_BY(mu_) = 0;

  // View-change state.
  bool view_changing_ PSMR_GUARDED_BY(mu_) = false;
  std::uint64_t target_view_ PSMR_GUARDED_BY(mu_) = 0;
  std::map<int, ViewChangeMsg> view_change_msgs_
      PSMR_GUARDED_BY(mu_);  // by replica index

  const Metrics metrics_;

  std::thread timer_;
  CondVar timer_cv_;
  bool stopping_ PSMR_GUARDED_BY(mu_) = false;
  std::atomic<bool> started_{false};
};

}  // namespace psmr
