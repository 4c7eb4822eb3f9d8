// Measurement seams of the end-to-end benchmark. Everything here wraps the
// program from outside, through interfaces it already exposes:
//
//   - TimingTransport decorates a Transport (installed through
//     Deployment::Config::transport_factory): it counts every message by
//     type, stamps each command's first Request send and its first Reply at
//     the client, times send() and every handler, and records trace events.
//   - TimingService decorates a Service (installed through the
//     ServiceFactory): it counts and times execute().
//
// Both share one Probe, the per-deployment measurement state. Counters are
// totals since construction; the benchmark takes window deltas. Timings
// accumulate only while Probe::tracing is set, so the untraced run pays for
// counting and the Request/Reply stamps alone.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "app/service.h"
#include "broadcast/messages.h"
#include "common/metrics.h"
#include "net/transport.h"
#include "stats.h"

namespace perfbench {

using psmr::Command;
using psmr::Counter;
using psmr::MessagePtr;
using psmr::NodeId;

// One trace event. Command events are keyed by (client endpoint,
// client_seq); kCommit is keyed by the broadcast sequence number alone.
struct Event {
  enum Kind : std::uint8_t {
    kReqSend,       // client's first Request send            (t0)
    kReqHandled,    // leader's handler for that Request      (t0, t1)
    kAccept,        // leader's ACCEPT carrying the command   (t0, bseq)
    kCommit,        // leader's COMMIT for bseq               (t0)
    kExec,          // execute() at replica `node`            (t0, t1)
    kReplySend,     // replica `node` sends the Reply         (t0)
    kReplyHandled,  // client handler for the first Reply     (t0, t1), node = replier
  };
  Kind kind = kReqSend;
  std::int32_t node = -1;
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t bseq = 0;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
};

// Process-wide span store: each thread appends to its own buffer, so
// recording takes no shared lock after a thread's first event.
class Tracer {
 public:
  // Commands whose client_seq is a multiple of this are traced.
  static constexpr std::uint64_t kSampleEvery = 8;
  static bool sampled(std::uint64_t client_seq) {
    return client_seq % kSampleEvery == 0;
  }

  static Tracer& global();
  void record(const Event& e);
  // Concatenates every buffer. Call once all recording threads are joined.
  std::vector<Event> collect() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Event>>> buffers_;
};

// Reply check for one command: op is the command's opcode.
using ReplyCheck = std::function<bool(std::uint16_t op, const psmr::ReplyMsg&)>;

// Committed batches as the leader sent them in ACCEPTs, for the sequential
// replay check. Filled from the leader's send path, drained by the
// benchmark's main thread.
class Ledger {
 public:
  void on_accept(const MessagePtr& m);
  void on_commit(std::uint64_t bseq);
  // Hands the gap-free prefix of accepted batches not yet taken to `apply`,
  // in sequence order.
  void drain(const std::function<void(const psmr::AcceptMsg&)>& apply);
  // Every accepted batch was also committed, and no sequence number is
  // missing below the highest one.
  bool complete() const;
  std::uint64_t accepted() const;

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, MessagePtr> waiting_;
  std::uint64_t next_ = 1;  // next sequence number to hand out
  std::uint64_t highest_ = 0;
  std::vector<bool> accepted_;   // by sequence number
  std::vector<bool> committed_;  // by sequence number
  std::uint64_t accepted_count_ = 0;
  std::uint64_t committed_count_ = 0;
};

// Per-deployment measurement state shared by the decorators.
struct Probe {
  static constexpr int kMaxEndpoints = 16;

  Probe(int replica_count, ReplyCheck check)
      : replicas(replica_count), reply_ok(std::move(check)) {}

  const int replicas;
  const ReplyCheck reply_ok;
  Ledger* ledger = nullptr;  // set for the replay check, else null

  // Latency samples land in latency[window]; 0 = outside any window.
  std::atomic<int> window{0};
  std::atomic<bool> tracing{false};
  std::atomic<bool> first_reply{false};

  Counter sends, request_msgs, reply_msgs, commit_msgs, send_ns;
  Counter replica_handler_ns, request_handler_ns, requests_handled;
  Counter client_handler_ns, replies_handled;
  Counter executes, execute_ns;

  struct Pending {
    std::uint64_t sent_ns;
    std::uint16_t op;
  };
  // Client-side book: commands sent and not yet answered, plus outcomes.
  struct ClientBook {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t wrong = 0;
    std::array<LatencyHistogram, 3> latency;  // by window
  };
  std::array<std::unique_ptr<ClientBook>, kMaxEndpoints> books;

  struct Totals {
    std::uint64_t issued = 0, completed = 0, wrong = 0;
  };
  Totals totals();
  LatencyHistogram latencies(int window_id);
};

class TimingTransport final : public psmr::Transport {
 public:
  TimingTransport(std::unique_ptr<psmr::Transport> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  // Wraps the handler and forwards. Ids must come back sequentially from 0
  // (Deployment's factory contract); a fabric that breaks it aborts.
  NodeId add_endpoint(Handler handler) override;
  void send(NodeId from, NodeId to, MessagePtr msg) override;

  void remove_endpoint(NodeId node) override { inner_->remove_endpoint(node); }
  void shutdown() override { inner_->shutdown(); }
  std::uint64_t messages_delivered() const override {
    return inner_->messages_delivered();
  }
  std::uint64_t messages_dropped() const override {
    return inner_->messages_dropped();
  }
  bool supports_fault_injection() const override {
    return inner_->supports_fault_injection();
  }
  void set_link(NodeId a, NodeId b, bool up) override { inner_->set_link(a, b, up); }
  void crash(NodeId node) override { inner_->crash(node); }
  bool crashed(NodeId node) const override { return inner_->crashed(node); }

 private:
  void on_replica_message(NodeId self, NodeId from, const MessagePtr& m,
                          const Handler& inner);
  void on_client_message(NodeId self, NodeId from, const MessagePtr& m,
                         const Handler& inner);

  std::unique_ptr<psmr::Transport> inner_;
  Probe& probe_;
  NodeId next_id_ = 0;  // registration happens before traffic flows
};

class TimingService final : public psmr::Service {
 public:
  TimingService(std::unique_ptr<psmr::Service> inner, int replica, Probe& probe)
      : inner_(std::move(inner)), replica_(replica), probe_(probe) {}

  psmr::Response execute(const Command& c) override;
  psmr::ConflictFn conflict() const override { return inner_->conflict(); }
  psmr::ClassMapFn class_map() const override { return inner_->class_map(); }
  std::uint64_t state_digest() const override { return inner_->state_digest(); }
  std::vector<std::uint8_t> snapshot() const override { return inner_->snapshot(); }
  bool restore(std::span<const std::uint8_t> bytes) override {
    return inner_->restore(bytes);
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<psmr::Service> inner_;
  const int replica_;
  Probe& probe_;
};

}  // namespace perfbench
