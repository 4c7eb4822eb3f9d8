// Tests of the benchmark's own arithmetic and of the decorators' forwarding.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "app/kv_service.h"
#include "net/sim_network.h"
#include "seams.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankWithSampleCount) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p50 = percentile(v, 50);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(percentile(v, 90).value, 90.0);
  EXPECT_EQ(percentile(v, 99).value, 99.0);
  EXPECT_EQ(percentile(v, 100).value, 100.0);
  EXPECT_EQ(percentile({7}, 50).value, 7.0);
  EXPECT_EQ(percentile({1, 2}, 50).value, 1.0);
}

TEST(Percentile, EmptySampleIsZeroWithZeroCount) {
  const Percentile p = percentile({}, 50);
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.samples, 0u);
}

TEST(LatencyHistogram, MatchesExactPercentilesWithinABucket) {
  LatencyHistogram a, b;
  std::vector<std::uint64_t> all;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::uint64_t ns = 1'000'000 + (i * 7919) % 2'000'000;  // 1..3 ms
    (i % 2 ? a : b).record(ns);
    all.push_back(ns);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 3000u);
  for (double p : {50.0, 90.0, 99.0}) {
    const Percentile h = a.percentile(p);
    EXPECT_EQ(h.samples, 3000u);
    EXPECT_NEAR(h.value, percentile(all, p).value, LatencyHistogram::kBucketNs);
  }
}

TEST(LatencyHistogram, OverflowAndEmpty) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile(50).samples, 0u);
  h.record(500);
  h.record(LatencyHistogram::kBuckets * LatencyHistogram::kBucketNs + 5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile(50).value, 500.0);
  EXPECT_EQ(h.percentile(100).value,
            static_cast<double>(LatencyHistogram::kBuckets * LatencyHistogram::kBucketNs + 5));
}

TEST(SelfTime, SubtractsUnionOfChildren) {
  // Parent [0,100); children cover [10,30) and [20,50) (overlapping) and
  // [90,120) (sticking out): covered = 40 + 10 = 50.
  EXPECT_EQ(self_time({0, 100}, {{10, 30}, {20, 50}, {90, 120}}), 50u);
}

TEST(SelfTime, NoChildrenAndFullCover) {
  EXPECT_EQ(self_time({5, 25}, {}), 20u);
  EXPECT_EQ(self_time({5, 25}, {{0, 10}, {10, 30}}), 0u);
  EXPECT_EQ(self_time({5, 25}, {{7, 3}}), 20u);  // empty child
  EXPECT_EQ(self_time({25, 5}, {{0, 30}}), 0u);  // empty parent
}

TEST(Outcome, FailedCountsUnansweredAndWrong) {
  Outcome o{100, 97, 2};
  EXPECT_EQ(o.failed(), 5u);
  EXPECT_DOUBLE_EQ(o.failed_ratio(), 0.05);
  EXPECT_EQ((Outcome{10, 10, 0}).failed(), 0u);
  EXPECT_DOUBLE_EQ((Outcome{10, 10, 0}).failed_ratio(), 0.0);
  EXPECT_DOUBLE_EQ((Outcome{0, 0, 0}).failed_ratio(), 1.0);  // nothing ran
}

TEST(Spans, ChainCoversTheRootOnThreeReplicas) {
  // One traced command: client 3, seq 8; replica 1 replies first.
  const std::vector<Event> events = {
      {Event::kReqSend, -1, 3, 8, 0, 100, 0},
      {Event::kReqHandled, 0, 3, 8, 0, 140, 150},
      {Event::kAccept, 0, 3, 8, 5, 400, 0},
      {Event::kAccept, 0, 3, 8, 5, 401, 0},
      {Event::kCommit, 0, 0, 0, 5, 500, 0},
      {Event::kCommit, 0, 0, 0, 5, 900, 0},  // late re-send: ignored
      {Event::kExec, 0, 3, 8, 0, 510, 520},
      {Event::kExec, 1, 3, 8, 0, 560, 570},
      {Event::kReplySend, 1, 3, 8, 0, 575, 0},
      {Event::kReplyHandled, 1, 3, 8, 0, 610, 615},
  };
  const SpanReport r = build_spans(events, 3, 10);
  ASSERT_EQ(r.commands, 1u);
  const std::vector<std::uint64_t> expected = {510, 40, 10, 250, 100, 60, 10, 5, 35, 5};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(r.durations[i].size(), 1u) << span_names()[i];
    EXPECT_EQ(r.durations[i][0], expected[i]) << span_names()[i];
  }
  EXPECT_EQ(r.self[0][0], 0u);
  EXPECT_DOUBLE_EQ(r.child_coverage, 1.0);
  EXPECT_EQ(r.lines.size(), 1u);
}

TEST(Spans, IncompletePathsAreDropped) {
  const std::vector<Event> events = {
      {Event::kReqSend, -1, 3, 8, 0, 100, 0},
      {Event::kReqHandled, 0, 3, 8, 0, 140, 150},
  };
  EXPECT_EQ(build_spans(events, 1, 10).commands, 0u);
}

ReplyCheck accept_all() {
  return [](std::uint16_t, const psmr::ReplyMsg&) { return true; };
}

TEST(TimingTransport, ForwardsCrashAndKeepsSequentialIds) {
  Probe probe(2, accept_all());
  TimingTransport net(std::make_unique<psmr::SimNetwork>(), probe);
  auto noop = [](NodeId, MessagePtr) {};
  EXPECT_EQ(net.add_endpoint(noop), 0);
  EXPECT_EQ(net.add_endpoint(noop), 1);
  EXPECT_EQ(net.add_endpoint(noop), 2);
  EXPECT_TRUE(net.supports_fault_injection());
  EXPECT_FALSE(net.crashed(1));
  net.crash(1);
  EXPECT_TRUE(net.crashed(1));
  EXPECT_FALSE(net.crashed(0));
  EXPECT_EQ(probe.books[0], nullptr);  // replicas have no client book
  EXPECT_NE(probe.books[2], nullptr);
  net.shutdown();
}

// A fabric that hands out ids from 10: the decorator must refuse it.
class OffsetTransport final : public psmr::Transport {
 public:
  NodeId add_endpoint(Handler) override { return 10 + next_++; }
  void send(NodeId, NodeId, MessagePtr) override {}
  void remove_endpoint(NodeId) override {}
  void shutdown() override {}
  std::uint64_t messages_delivered() const override { return 0; }
  std::uint64_t messages_dropped() const override { return 0; }

 private:
  int next_ = 0;
};

TEST(TimingTransportDeathTest, AbortsOnNonSequentialIds) {
  Probe probe(1, accept_all());
  TimingTransport net(std::make_unique<OffsetTransport>(), probe);
  EXPECT_DEATH(net.add_endpoint([](NodeId, MessagePtr) {}), "expected 0");
}

TEST(TimingTransport, StampsFirstRequestAndFirstReply) {
  Probe probe(1, [](std::uint16_t, const psmr::ReplyMsg& r) { return r.ok; });
  TimingTransport net(std::make_unique<psmr::SimNetwork>(), probe);
  const NodeId replica = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId client = net.add_endpoint([](NodeId, MessagePtr) {});
  probe.window = 1;
  psmr::Command c;
  c.client = static_cast<std::uint64_t>(client);
  c.client_seq = 1;
  auto request = psmr::make_message<psmr::RequestMsg>(std::vector<psmr::Command>{c});
  net.send(client, replica, request);
  net.send(client, replica, request);  // resend: still one command
  net.send(replica, client, psmr::make_message<psmr::ReplyMsg>(1, 0, true));
  net.send(replica, client, psmr::make_message<psmr::ReplyMsg>(1, 0, true));  // duplicate
  for (int i = 0; i < 500 && probe.totals().completed == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  net.shutdown();
  const Probe::Totals t = probe.totals();
  EXPECT_EQ(t.issued, 1u);
  EXPECT_EQ(t.completed, 1u);
  EXPECT_EQ(t.wrong, 0u);
  EXPECT_EQ(probe.request_msgs.value(), 2u);
  EXPECT_EQ(probe.reply_msgs.value(), 2u);
  EXPECT_EQ(probe.latencies(1).count(), 1u);
  EXPECT_TRUE(probe.first_reply.load());
}

TEST(TimingService, CountsAndForwards) {
  Probe probe(1, accept_all());
  psmr::KvService plain;
  TimingService timed(std::make_unique<psmr::KvService>(), 0, probe);
  const psmr::Command put = plain.make_put(42, 7);
  plain.execute(put);
  timed.execute(put);
  EXPECT_EQ(probe.executes.value(), 1u);
  EXPECT_EQ(timed.state_digest(), plain.state_digest());
  EXPECT_STREQ(timed.name(), plain.name());
  EXPECT_EQ(timed.snapshot(), plain.snapshot());
}

}  // namespace
}  // namespace perfbench
