#include "seams.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"

namespace perfbench {

using psmr::now_ns;
namespace msg = psmr::msg;

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::record(const Event& e) {
  thread_local std::vector<Event>* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Event>>());
    buffer = buffers_.back().get();
    buffer->reserve(1 << 14);
  }
  buffer->push_back(e);
}

std::vector<Event> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

namespace {
// Sets bit `i`, growing the vector; false if it was already set.
bool mark(std::vector<bool>& bits, std::uint64_t i) {
  if (i >= bits.size()) bits.resize(std::max<std::size_t>(2 * bits.size(), i + 1));
  if (bits[i]) return false;
  bits[i] = true;
  return true;
}
}  // namespace

void Ledger::on_accept(const MessagePtr& m) {
  const auto& accept = psmr::message_as<psmr::AcceptMsg>(m);
  std::lock_guard<std::mutex> lock(mu_);
  // The leader sends one ACCEPT per follower; keep the first.
  if (!mark(accepted_, accept.seq)) return;
  ++accepted_count_;
  highest_ = std::max(highest_, accept.seq);
  if (accept.seq >= next_) waiting_.emplace(accept.seq, m);
}

void Ledger::on_commit(std::uint64_t bseq) {
  std::lock_guard<std::mutex> lock(mu_);
  if (mark(committed_, bseq)) ++committed_count_;
}

void Ledger::drain(const std::function<void(const psmr::AcceptMsg&)>& apply) {
  std::vector<MessagePtr> ready;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = waiting_.begin(); it != waiting_.end() && it->first == next_;
         it = waiting_.erase(it)) {
      ready.push_back(it->second);
      ++next_;
    }
  }
  for (const MessagePtr& m : ready) apply(psmr::message_as<psmr::AcceptMsg>(m));
}

bool Ledger::complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_count_ == highest_ && committed_count_ == highest_ &&
         waiting_.empty() && next_ == highest_ + 1;
}

std::uint64_t Ledger::accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accepted_count_;
}

Probe::Totals Probe::totals() {
  Totals t;
  for (auto& book : books) {
    if (!book) continue;
    std::lock_guard<std::mutex> lock(book->mu);
    t.issued += book->issued;
    t.completed += book->completed;
    t.wrong += book->wrong;
  }
  return t;
}

LatencyHistogram Probe::latencies(int window_id) {
  LatencyHistogram all;
  for (auto& book : books) {
    if (!book) continue;
    std::lock_guard<std::mutex> lock(book->mu);
    all.merge(book->latency[static_cast<std::size_t>(window_id)]);
  }
  return all;
}

NodeId TimingTransport::add_endpoint(Handler handler) {
  const NodeId self = next_id_++;
  if (self >= Probe::kMaxEndpoints) {
    std::fprintf(stderr, "perfbench: more than %d endpoints\n", Probe::kMaxEndpoints);
    std::abort();
  }
  if (self >= probe_.replicas) {
    probe_.books[static_cast<std::size_t>(self)] = std::make_unique<Probe::ClientBook>();
  }
  const NodeId id = inner_->add_endpoint(
      [this, self, inner = std::move(handler)](NodeId from, MessagePtr m) {
        if (self < probe_.replicas) {
          on_replica_message(self, from, m, inner);
        } else {
          on_client_message(self, from, m, inner);
        }
      });
  if (id != self) {
    std::fprintf(stderr, "perfbench: transport assigned id %d, expected %d\n", id,
                 self);
    std::abort();
  }
  return id;
}

void TimingTransport::send(NodeId from, NodeId to, MessagePtr m) {
  const bool tracing = probe_.tracing.load(std::memory_order_relaxed);
  const std::uint64_t t0 = tracing ? now_ns() : 0;
  switch (m->type) {
    case msg::kRequest: {
      probe_.request_msgs.inc();
      auto* book = probe_.books[static_cast<std::size_t>(from)].get();
      if (book == nullptr) break;
      const std::uint64_t sent = tracing ? t0 : now_ns();
      for (const Command& c : psmr::message_as<psmr::RequestMsg>(m).commands) {
        bool first = false;
        {
          std::lock_guard<std::mutex> lock(book->mu);
          first = book->pending.try_emplace(c.client_seq, Probe::Pending{sent, c.op})
                      .second;
          if (first) ++book->issued;
        }
        if (first && tracing && Tracer::sampled(c.client_seq)) {
          Tracer::global().record({Event::kReqSend, -1,
                                   static_cast<std::uint64_t>(from), c.client_seq,
                                   0, sent, 0});
        }
      }
      break;
    }
    case msg::kReply: {
      probe_.reply_msgs.inc();
      const auto& reply = psmr::message_as<psmr::ReplyMsg>(m);
      if (tracing && Tracer::sampled(reply.client_seq)) {
        Tracer::global().record({Event::kReplySend, from,
                                 static_cast<std::uint64_t>(to), reply.client_seq,
                                 0, t0, 0});
      }
      break;
    }
    case msg::kAccept: {
      if (probe_.ledger != nullptr) probe_.ledger->on_accept(m);
      if (!tracing) break;
      const auto& accept = psmr::message_as<psmr::AcceptMsg>(m);
      for (const Command& c : accept.batch) {
        if (!Tracer::sampled(c.client_seq)) continue;
        Tracer::global().record(
            {Event::kAccept, from, c.client, c.client_seq, accept.seq, t0, 0});
      }
      break;
    }
    case msg::kCommit: {
      probe_.commit_msgs.inc();
      const std::uint64_t bseq = psmr::message_as<psmr::CommitMsg>(m).seq;
      if (probe_.ledger != nullptr) probe_.ledger->on_commit(bseq);
      if (tracing) Tracer::global().record({Event::kCommit, from, 0, 0, bseq, t0, 0});
      break;
    }
    default:
      break;
  }
  probe_.sends.inc();
  inner_->send(from, to, std::move(m));
  if (tracing) probe_.send_ns.inc(now_ns() - t0);
}

void TimingTransport::on_replica_message(NodeId self, NodeId from,
                                         const MessagePtr& m, const Handler& inner) {
  const bool tracing = probe_.tracing.load(std::memory_order_relaxed);
  const std::uint64_t t0 = tracing ? now_ns() : 0;
  inner(from, m);
  if (!tracing) return;
  const std::uint64_t t1 = now_ns();
  probe_.replica_handler_ns.inc(t1 - t0);
  if (m->type != msg::kRequest) return;
  probe_.request_handler_ns.inc(t1 - t0);
  probe_.requests_handled.inc();
  if (self != 0) return;  // the leader of view 0; view changes fail the run
  for (const Command& c : psmr::message_as<psmr::RequestMsg>(m).commands) {
    if (!Tracer::sampled(c.client_seq)) continue;
    Tracer::global().record({Event::kReqHandled, self,
                             static_cast<std::uint64_t>(from), c.client_seq, 0, t0,
                             t1});
  }
}

void TimingTransport::on_client_message(NodeId self, NodeId from, const MessagePtr& m,
                                        const Handler& inner) {
  if (m->type != msg::kReply) {
    inner(from, m);
    return;
  }
  const std::uint64_t t0 = now_ns();
  const auto& reply = psmr::message_as<psmr::ReplyMsg>(m);
  bool first = false;
  {
    Probe::ClientBook& book = *probe_.books[static_cast<std::size_t>(self)];
    std::lock_guard<std::mutex> lock(book.mu);
    auto it = book.pending.find(reply.client_seq);
    if (it != book.pending.end()) {
      first = true;
      ++book.completed;
      if (!probe_.reply_ok(it->second.op, reply)) ++book.wrong;
      const int window = probe_.window.load(std::memory_order_relaxed);
      if (window != 0) {
        book.latency[static_cast<std::size_t>(window)].record(t0 - it->second.sent_ns);
      }
      book.pending.erase(it);
    }
  }
  if (first) probe_.first_reply = true;
  inner(from, m);
  if (!probe_.tracing.load(std::memory_order_relaxed)) return;
  const std::uint64_t t1 = now_ns();
  probe_.client_handler_ns.inc(t1 - t0);
  probe_.replies_handled.inc();
  if (first && Tracer::sampled(reply.client_seq)) {
    Tracer::global().record({Event::kReplyHandled, from,
                             static_cast<std::uint64_t>(self), reply.client_seq, 0,
                             t0, t1});
  }
}

psmr::Response TimingService::execute(const Command& c) {
  probe_.executes.inc();
  if (!probe_.tracing.load(std::memory_order_relaxed)) return inner_->execute(c);
  const std::uint64_t t0 = now_ns();
  psmr::Response r = inner_->execute(c);
  const std::uint64_t t1 = now_ns();
  probe_.execute_ns.inc(t1 - t0);
  if (c.client != 0 && Tracer::sampled(c.client_seq)) {
    Tracer::global().record({Event::kExec, replica_, c.client, c.client_seq, 0, t0, t1});
  }
  return r;
}

}  // namespace perfbench
