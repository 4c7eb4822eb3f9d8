// In-process simulated cluster network.
//
// Substitute for the paper's 7-machine 1 Gbps switched LAN: endpoints are
// in-process actors. Each endpoint owns a timed inbox, a min-heap ordered by
// (deliver_at, sequence) under the endpoint's own mutex; send() stamps the
// message with a delivery time (base latency + seeded jitter) and pushes it
// into the destination's inbox. The endpoint's dispatcher thread sleeps
// until the head of its inbox is due, pops it and runs the handler with no
// lock held (one message at a time per endpoint, like a socket read loop).
// No thread but the sender and the receiver's dispatcher touches a message,
// and send() takes no lock shared by all endpoints: it finds both ends in a
// lock-free, append-only directory and then locks only the destination's
// inbox. So, as on a real LAN, a message costs its two ends and nobody else.
//
// Link semantics are TCP-like, matching what BFT-SMaRt assumes: reliable
// and FIFO per (from, to) pair, unless a fault is injected — links can be
// cut (partition) and endpoints crashed, which silently drops traffic, and
// a probabilistic drop rate exists for network-level tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/transport.h"

namespace psmr {

struct SimNetworkConfig {
  std::uint64_t base_latency_us = 100;  // one-way
  std::uint64_t jitter_us = 50;         // uniform [0, jitter)
  double drop_rate = 0.0;               // applied per message
  std::uint64_t seed = 1;
};

class SimNetwork final : public Transport {
 public:
  using Config = SimNetworkConfig;

  explicit SimNetwork(Config config = Config());
  ~SimNetwork() override;

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Registers an endpoint; its handler runs on a dedicated dispatcher
  // thread, one message at a time. Must be called before traffic flows to
  // the endpoint. Thread-safe. Ids are assigned sequentially from 0.
  NodeId add_endpoint(Handler handler) override;

  // Asynchronous, thread-safe. Self-sends are allowed.
  void send(NodeId from, NodeId to, MessagePtr msg) override;

  // Fault injection: cut or restore the (bidirectional) link between a and
  // b. Messages in flight on a cut link are dropped at delivery time.
  bool supports_fault_injection() const override { return true; }
  void set_link(NodeId a, NodeId b, bool up) override;

  // Crashes an endpoint: all of its inbound and outbound traffic is dropped
  // from now on (in-flight included). Its dispatcher stops.
  void crash(NodeId node) override;
  bool crashed(NodeId node) const override;

  // Deregisters an endpoint (Transport contract): joins its dispatcher, so
  // on return no handler invocation is running or will start. In-flight
  // messages to the endpoint and its per-link FIFO state are purged.
  void remove_endpoint(NodeId node) override;

  // Test hooks for the purge logic: per-link FIFO entries retained and
  // messages currently queued for delivery.
  std::size_t link_state_entries() const;
  std::size_t in_flight() const;

  // Statistics.
  std::uint64_t messages_delivered() const override {
    return delivered_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }
  std::uint64_t messages_dropped() const override {
    return dropped_.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  }

  // Stops all threads. Called by the destructor; idempotent.
  void shutdown() override;

 private:
  struct InFlight {
    std::uint64_t deliver_at_ns;
    std::uint64_t sequence;  // tie-break, preserves send order
    NodeId from;
    MessagePtr msg;
    // Heap order: std::push_heap keeps the greatest on top, so "greater"
    // here means "due later" and the earliest message is the head.
    bool operator<(const InFlight& other) const {
      return deliver_at_ns != other.deliver_at_ns
                 ? deliver_at_ns > other.deliver_at_ns
                 : sequence > other.sequence;
    }
  };

  // One endpoint's timed inbox and everything send() needs to stamp a
  // message for it. Endpoints are never freed before the network, so a
  // pointer read from the directory stays valid after the lookup.
  struct Endpoint {
    Endpoint(Handler h, std::uint64_t seed)
        : handler(std::move(h)), rng(seed) {}

    const Handler handler;
    std::thread dispatcher;  // started once, joined by remove/shutdown
    // Read by send() on the *sender's* endpoint under the destination's
    // mu; crash() stores it before purging every inbox under that inbox's
    // mu, which orders the two.
    std::atomic<bool> crashed{false};

    RankedMutex<lock_rank::kTransport> mu;
    CondVar cv;
    std::vector<InFlight> inbox PSMR_GUARDED_BY(mu);  // heap, earliest on top
    // Per-sender FIFO clock: the deliver_at of the last message from that
    // sender, so a later send never overtakes it.
    std::unordered_map<NodeId, std::uint64_t> last_delivery
        PSMR_GUARDED_BY(mu);
    std::set<NodeId> cut_from PSMR_GUARDED_BY(mu);  // peers on cut links
    Xoshiro256 rng PSMR_GUARDED_BY(mu);             // jitter and drop draws
    std::uint64_t next_sequence PSMR_GUARDED_BY(mu) = 0;
    // Set by whoever owns joining the dispatcher (remove_endpoint or
    // shutdown).
    bool removed PSMR_GUARDED_BY(mu) = false;
    // Removed, crashed or shut down: the dispatcher exits and sends to the
    // endpoint are dropped.
    bool stopping PSMR_GUARDED_BY(mu) = false;
  };

  // The endpoint directory: endpoint i lives in slot i % kChunkSize of
  // chunk i / kChunkSize. Chunks are allocated on demand and never move, so
  // send() reads the directory with no lock (see add_endpoint).
  static constexpr std::size_t kChunkSize = 64;
  static constexpr std::size_t kMaxChunks = 1024;  // 65536 endpoints
  using Chunk = std::array<std::atomic<Endpoint*>, kChunkSize>;

  struct Metrics {
    Counter& delivered;
    Counter& dropped;
    Gauge& inflight;
  };

  // The endpoint with id `node`, or nullptr if there is none. Lock-free.
  Endpoint* endpoint_at(NodeId node) const;
  // As endpoint_at, but nullptr too once the network is shutting down.
  Endpoint* lookup(NodeId node) const;
  // Every endpoint, for operations that visit all inboxes one at a time.
  std::vector<Endpoint*> all_endpoints() const;
  // Drops queued messages to/from `node` and its per-link FIFO entries in
  // every inbox. Shared by crash() and remove_endpoint().
  void purge_node(NodeId node);
  void count_dropped(std::uint64_t n);
  void dispatch_loop(Endpoint& endpoint);

  const Config config_;

  // Serializes add_endpoint and shutdown; never taken by send(), never held
  // across an inbox lock, a notify or a handler.
  mutable RankedMutex<lock_rank::kTransport> table_mu_;
  // add_endpoint fills a slot and then publishes it by storing count_
  // (release); a reader that loads count_ (acquire) and finds the id below
  // it sees the chunk and the slot.
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<std::size_t> count_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_{0};
  const Metrics metrics_;
};

}  // namespace psmr
