#include "net/sim_network.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <stdexcept>
#include <utility>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "common/stopwatch.h"

namespace psmr {

SimNetwork::SimNetwork(Config config)
    : config_(config),
      metrics_{MetricsRegistry::global().counter("net.sim.delivered"),
               MetricsRegistry::global().counter("net.sim.dropped"),
               MetricsRegistry::global().gauge("net.sim.inflight")} {}

SimNetwork::~SimNetwork() {
  shutdown();
  const std::size_t n = count_.load(std::memory_order_acquire);
  for (std::size_t id = 0; id < n; ++id) {
    delete endpoint_at(static_cast<NodeId>(id));
  }
  for (std::atomic<Chunk*>& chunk : chunks_) {
    delete chunk.load(std::memory_order_acquire);
  }
}

NodeId SimNetwork::add_endpoint(Handler handler) {
  MutexLock lock(table_mu_);
  const std::size_t id = count_.load(std::memory_order_acquire);
  if (id == kChunkSize * kMaxChunks) {
    throw std::length_error("SimNetwork: endpoint directory is full");
  }
  std::atomic<Chunk*>& chunk = chunks_[id / kChunkSize];
  if (chunk.load(std::memory_order_acquire) == nullptr) {
    chunk.store(new Chunk{}, std::memory_order_release);
  }
  // Each inbox draws its own jitter and drops, so senders to different
  // destinations share no state.
  auto endpoint = std::make_unique<Endpoint>(
      std::move(handler),
      config_.seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id));
  Endpoint* raw = endpoint.get();
  endpoint->dispatcher = std::thread([this, raw] { dispatch_loop(*raw); });
  (*chunk.load(std::memory_order_acquire))[id % kChunkSize].store(
      endpoint.release(), std::memory_order_release);
  count_.store(id + 1, std::memory_order_release);  // publish
  return static_cast<NodeId>(id);
}

SimNetwork::Endpoint* SimNetwork::endpoint_at(NodeId node) const {
  if (node < 0) return nullptr;
  const auto id = static_cast<std::size_t>(node);
  if (id >= count_.load(std::memory_order_acquire)) return nullptr;
  const Chunk& chunk = *chunks_[id / kChunkSize].load(std::memory_order_acquire);
  return chunk[id % kChunkSize].load(std::memory_order_acquire);
}

SimNetwork::Endpoint* SimNetwork::lookup(NodeId node) const {
  if (stopping_.load(std::memory_order_acquire)) return nullptr;
  return endpoint_at(node);
}

std::vector<SimNetwork::Endpoint*> SimNetwork::all_endpoints() const {
  const std::size_t n = count_.load(std::memory_order_acquire);
  std::vector<Endpoint*> all;
  all.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    all.push_back(endpoint_at(static_cast<NodeId>(id)));
  }
  return all;
}

void SimNetwork::count_dropped(std::uint64_t n) {
  if (n == 0) return;
  dropped_.fetch_add(n, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
  metrics_.dropped.inc(n);
}

void SimNetwork::send(NodeId from, NodeId to, MessagePtr msg) {
  Endpoint* const sender = lookup(from);
  Endpoint* const dest = lookup(to);
  if (sender == nullptr || dest == nullptr) return;
  const std::uint64_t now = now_ns();
  bool earliest = false;
  {
    MutexLock lock(dest->mu);
    // The sender's flag is read under the destination's lock: crash()
    // stores it before purging this inbox under the same lock, so a send
    // racing the crash is either refused here or purged there.
    const bool refused =
        dest->stopping ||
        sender->crashed.load(std::memory_order_relaxed) ||  // NOLINT(psmr-relaxed-order-audit) ordered by dest->mu, see above
        (config_.drop_rate > 0.0 && dest->rng.uniform() < config_.drop_rate);
    if (refused) {
      lock.unlock();
      count_dropped(1);
      return;
    }
    const std::uint64_t latency_ns =
        (config_.base_latency_us +
         (config_.jitter_us > 0 ? dest->rng.below(config_.jitter_us) : 0)) *
        1000ull;
    // Per-link FIFO: never schedule before an earlier message on the link.
    std::uint64_t& last = dest->last_delivery[from];
    const std::uint64_t deliver_at = std::max(now + latency_ns, last + 1);
    last = deliver_at;
    const std::uint64_t sequence = dest->next_sequence++;
    dest->inbox.push_back({deliver_at, sequence, from, std::move(msg)});
    std::push_heap(dest->inbox.begin(), dest->inbox.end());
    metrics_.inflight.add(1);  // before the pop that subtracts it
    // The dispatcher sleeps until the head is due; only a new head moves
    // that deadline.
    earliest = dest->inbox.front().sequence == sequence;
  }
  if (earliest) dest->cv.notify_one();
}

void SimNetwork::dispatch_loop(Endpoint& endpoint) {
#ifdef __linux__
  // The default 50-us timer slack would stretch every timed wait below it,
  // i.e. the whole injected latency, by up to that much.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  MutexLock lock(endpoint.mu);
  while (!endpoint.stopping) {
    if (endpoint.inbox.empty()) {
      endpoint.cv.wait(endpoint.mu);
      continue;
    }
    const std::uint64_t due = endpoint.inbox.front().deliver_at_ns;
    const std::uint64_t now = now_ns();
    if (due > now) {
      endpoint.cv.wait_for(endpoint.mu, std::chrono::nanoseconds(due - now));
      continue;
    }
    std::pop_heap(endpoint.inbox.begin(), endpoint.inbox.end());
    InFlight item = std::move(endpoint.inbox.back());
    endpoint.inbox.pop_back();
    const bool link_up = !endpoint.cut_from.contains(item.from);
    lock.unlock();
    metrics_.inflight.sub(1);
    if (link_up) {
      delivered_.fetch_add(1, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) stat counter
      metrics_.delivered.inc();
      endpoint.handler(item.from, std::move(item.msg));
    } else {
      count_dropped(1);
      item.msg.reset();
    }
    lock.lock();
  }
}

void SimNetwork::set_link(NodeId a, NodeId b, bool up) {
  for (const auto& [self, peer] : {std::pair{a, b}, std::pair{b, a}}) {
    Endpoint* endpoint = lookup(self);
    if (endpoint == nullptr) continue;
    MutexLock lock(endpoint->mu);
    if (up) {
      endpoint->cut_from.erase(peer);
    } else {
      endpoint->cut_from.insert(peer);
    }
  }
}

void SimNetwork::crash(NodeId node) {
  Endpoint* endpoint = lookup(node);
  if (endpoint == nullptr) return;
  // Before the purge: sends from `node` check the flag under each
  // destination's lock, which the purge takes after this store.
  endpoint->crashed.store(true, std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) ordered by the inbox locks purge_node takes next
  {
    MutexLock lock(endpoint->mu);
    endpoint->stopping = true;
  }
  endpoint->cv.notify_one();
  // Drop its queued traffic now and forget its per-link FIFO state:
  // long-running fault tests crash many endpoints, and dead links must not
  // accumulate.
  purge_node(node);
}

void SimNetwork::remove_endpoint(NodeId node) {
  // After shutdown() there is nothing to do: it joined every dispatcher.
  Endpoint* endpoint = lookup(node);
  if (endpoint == nullptr) return;
  {
    MutexLock lock(endpoint->mu);
    if (endpoint->removed) return;  // another remover owns the join
    endpoint->removed = true;
    endpoint->stopping = true;
  }
  endpoint->cv.notify_one();
  purge_node(node);
  // Join with no lock held: the handler may be inside send() right now.
  if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
}

void SimNetwork::purge_node(NodeId node) {
  const std::vector<Endpoint*> endpoints = all_endpoints();
  for (std::size_t id = 0; id < endpoints.size(); ++id) {
    Endpoint& endpoint = *endpoints[id];
    std::vector<InFlight> purged;  // freed after the lock is released
    {
      MutexLock lock(endpoint.mu);
      std::vector<InFlight>& inbox = endpoint.inbox;
      if (static_cast<NodeId>(id) == node) {
        purged.swap(inbox);
        endpoint.last_delivery.clear();
      } else {
        const auto dead = std::partition(
            inbox.begin(), inbox.end(),
            [node](const InFlight& m) { return m.from != node; });
        purged.assign(std::make_move_iterator(dead),
                      std::make_move_iterator(inbox.end()));
        inbox.erase(dead, inbox.end());
        std::make_heap(inbox.begin(), inbox.end());
        endpoint.last_delivery.erase(node);
      }
    }
    metrics_.inflight.sub(static_cast<std::int64_t>(purged.size()));
    count_dropped(purged.size());
  }
}

std::size_t SimNetwork::link_state_entries() const {
  std::size_t entries = 0;
  for (Endpoint* endpoint : all_endpoints()) {
    MutexLock lock(endpoint->mu);
    entries += endpoint->last_delivery.size();
  }
  return entries;
}

std::size_t SimNetwork::in_flight() const {
  std::size_t queued = 0;
  for (Endpoint* endpoint : all_endpoints()) {
    MutexLock lock(endpoint->mu);
    queued += endpoint->inbox.size();
  }
  return queued;
}

bool SimNetwork::crashed(NodeId node) const {
  const Endpoint* endpoint = endpoint_at(node);
  return endpoint == nullptr ||
         endpoint->crashed.load(std::memory_order_relaxed);  // NOLINT(psmr-relaxed-order-audit) control flag; re-checked in loop or fenced by joins/locks
}

void SimNetwork::shutdown() {
  {
    MutexLock lock(table_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    stopping_.store(true, std::memory_order_release);
  }
  // Stop every dispatcher, then join outside every lock: a running handler
  // may call send().
  std::vector<Endpoint*> to_join;
  for (Endpoint* endpoint : all_endpoints()) {
    {
      MutexLock lock(endpoint->mu);
      endpoint->stopping = true;
      if (!endpoint->removed) {
        endpoint->removed = true;  // the join is ours
        to_join.push_back(endpoint);
      }
      metrics_.inflight.sub(static_cast<std::int64_t>(endpoint->inbox.size()));
      endpoint->inbox.clear();
    }
    endpoint->cv.notify_one();
  }
  for (Endpoint* endpoint : to_join) {
    if (endpoint->dispatcher.joinable()) endpoint->dispatcher.join();
  }
}

}  // namespace psmr
