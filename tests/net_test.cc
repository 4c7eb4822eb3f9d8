#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/sim_network.h"

namespace psmr {
namespace {

struct IntMsg final : Message {
  explicit IntMsg(int v) : Message(100), value(v) {}
  int value;
};

// Carries its sender's sequence number and the time send() was called.
struct StampedMsg final : Message {
  StampedMsg(int s, int i, std::uint64_t t)
      : Message(101), sender(s), index(i), sent_ns(t) {}
  int sender;
  int index;
  std::uint64_t sent_ns;
};

SimNetwork::Config fast_config() {
  SimNetwork::Config config;
  config.base_latency_us = 50;
  config.jitter_us = 20;
  return config;
}

TEST(SimNetwork, DeliversMessage) {
  SimNetwork net(fast_config());
  std::atomic<int> received{-1};
  std::atomic<NodeId> from_seen{-1};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId from, MessagePtr m) {
    from_seen = from;
    received = message_as<IntMsg>(m).value;
  });
  net.send(a, b, make_message<IntMsg>(42));
  for (int i = 0; i < 200 && received.load() < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 42);
  EXPECT_EQ(from_seen.load(), a);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(SimNetwork, SelfSendWorks) {
  SimNetwork net(fast_config());
  std::atomic<int> received{-1};
  NodeId a = net.add_endpoint(
      [&](NodeId, MessagePtr m) { received = message_as<IntMsg>(m).value; });
  net.send(a, a, make_message<IntMsg>(7));
  for (int i = 0; i < 200 && received.load() < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(received.load(), 7);
}

TEST(SimNetwork, PerLinkFifoOrderDespiteJitter) {
  SimNetwork::Config config;
  config.base_latency_us = 10;
  config.jitter_us = 500;  // heavy jitter tries to reorder
  SimNetwork net(config);
  std::vector<int> received;
  std::mutex mu;
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId, MessagePtr m) {
    std::lock_guard lock(mu);
    received.push_back(message_as<IntMsg>(m).value);
  });
  constexpr int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) net.send(a, b, make_message<IntMsg>(i));
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard lock(mu);
      if (static_cast<int>(received.size()) == kMessages) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  ASSERT_EQ(static_cast<int>(received.size()), kMessages);
  for (int i = 0; i < kMessages; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(SimNetwork, CrashedEndpointReceivesNothing) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.crash(b);
  EXPECT_TRUE(net.crashed(b));
  for (int i = 0; i < 10; ++i) net.send(a, b, make_message<IntMsg>(i));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(count.load(), 0);
  EXPECT_GE(net.messages_dropped(), 10u);
}

TEST(SimNetwork, CrashedEndpointSendsNothing) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.crash(a);
  net.send(a, b, make_message<IntMsg>(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(count.load(), 0);
}

TEST(SimNetwork, CutLinkDropsTrafficBothWays) {
  SimNetwork net(fast_config());
  std::atomic<int> at_a{0}, at_b{0};
  const NodeId a =
      net.add_endpoint([&](NodeId, MessagePtr) { at_a.fetch_add(1); });
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { at_b.fetch_add(1); });
  net.set_link(a, b, false);
  net.send(a, b, make_message<IntMsg>(1));
  net.send(b, a, make_message<IntMsg>(2));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(at_a.load(), 0);
  EXPECT_EQ(at_b.load(), 0);

  // Healing the link restores delivery.
  net.set_link(a, b, true);
  net.send(a, b, make_message<IntMsg>(3));
  for (int i = 0; i < 100 && at_b.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(at_b.load(), 1);
}

TEST(SimNetwork, DropRateLosesRoughlyThatFraction) {
  SimNetwork::Config config;
  config.base_latency_us = 1;
  config.jitter_us = 0;
  config.drop_rate = 0.5;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  constexpr int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) net.send(a, b, make_message<IntMsg>(i));
  for (int i = 0; i < 200; ++i) {
    if (net.messages_delivered() + net.messages_dropped() >=
        static_cast<std::uint64_t>(kMessages)) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_NEAR(count.load(), kMessages / 2, kMessages / 8);
}

TEST(SimNetwork, LatencyIsApplied) {
  SimNetwork::Config config;
  config.base_latency_us = 20'000;  // 20 ms
  config.jitter_us = 0;
  SimNetwork net(config);
  std::atomic<bool> received{false};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { received = true; });
  net.send(a, b, make_message<IntMsg>(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(received.load());  // too early
  for (int i = 0; i < 100 && !received.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(received.load());
}

TEST(SimNetwork, CrashPurgesLinkStateAndInFlightMessages) {
  // Regression test for unbounded last_delivery_ growth: long fault tests
  // crash many endpoints, and the per-link FIFO map used to keep entries
  // for dead links forever. crash() now purges them, and also drops the
  // crashed destination's queued in-flight messages eagerly instead of at
  // their (possibly far-future) delivery time.
  SimNetwork::Config config;
  config.base_latency_us = 500'000;  // 500 ms: messages stay queued
  config.jitter_us = 0;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  const NodeId c =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });

  for (int i = 0; i < 10; ++i) net.send(a, b, make_message<IntMsg>(i));
  net.send(a, c, make_message<IntMsg>(99));  // survivor traffic
  EXPECT_EQ(net.in_flight(), 11u);
  EXPECT_EQ(net.link_state_entries(), 2u);  // (a,b) and (a,c)

  net.crash(b);
  // Immediately — not 500 ms later — b's queued messages are dropped and
  // its link state is gone; the a->c message is untouched.
  EXPECT_EQ(net.in_flight(), 1u);
  EXPECT_EQ(net.link_state_entries(), 1u);
  EXPECT_GE(net.messages_dropped(), 10u);

  for (int i = 0; i < 200 && count.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), 1);  // only the survivor delivery happened
}

TEST(SimNetwork, RepeatedCrashesDoNotAccumulateLinkState) {
  SimNetwork net(fast_config());
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  std::vector<NodeId> victims;
  for (int i = 0; i < 8; ++i) {
    victims.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  for (NodeId v : victims) {
    net.send(a, v, make_message<IntMsg>(1));
    net.crash(v);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(net.link_state_entries(), 0u);
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetwork, ShutdownIsIdempotentAndStopsDelivery) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.shutdown();
  net.shutdown();
  net.send(a, b, make_message<IntMsg>(1));  // silently ignored
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(count.load(), 0);
}

TEST(SimNetwork, ManySendersStress) {
  SimNetwork::Config config;
  config.base_latency_us = 5;
  config.jitter_us = 5;
  SimNetwork net(config);
  std::atomic<int> count{0};
  const NodeId sink =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  std::vector<NodeId> senders;
  for (int i = 0; i < 4; ++i) {
    senders.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  constexpr int kPerSender = 2500;
  std::vector<std::thread> threads;
  for (NodeId s : senders) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        net.send(s, sink, make_message<IntMsg>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  const int expected = static_cast<int>(senders.size()) * kPerSender;
  for (int i = 0; i < 1000 && count.load() < expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count.load(), expected);
}

TEST(SimNetwork, ConcurrentSendersToOneDestinationKeepPerLinkFifo) {
  SimNetwork::Config config;
  config.base_latency_us = 10;
  config.jitter_us = 300;  // heavy jitter tries to reorder each link
  SimNetwork net(config);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 500;
  std::mutex mu;
  std::vector<std::vector<int>> received(kSenders);
  const NodeId sink = net.add_endpoint([&](NodeId, MessagePtr m) {
    const auto& stamped = message_as<StampedMsg>(m);
    std::lock_guard lock(mu);
    received[static_cast<std::size_t>(stamped.sender)].push_back(
        stamped.index);
  });
  std::vector<NodeId> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.push_back(net.add_endpoint([](NodeId, MessagePtr) {}));
  }
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        net.send(senders[static_cast<std::size_t>(s)], sink,
                 make_message<StampedMsg>(s, i, 0));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < 1000; ++t) {
    if (net.messages_delivered() == kSenders * kPerSender) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard lock(mu);
  for (int s = 0; s < kSenders; ++s) {
    const auto& seen = received[static_cast<std::size_t>(s)];
    ASSERT_EQ(static_cast<int>(seen.size()), kPerSender) << "sender " << s;
    for (int i = 0; i < kPerSender; ++i) {
      ASSERT_EQ(seen[static_cast<std::size_t>(i)], i) << "sender " << s;
    }
  }
}

TEST(SimNetwork, NoMessageIsDispatchedBeforeItsDeliveryTime) {
  SimNetwork::Config config;
  config.base_latency_us = 300;
  config.jitter_us = 100;
  SimNetwork net(config);
  constexpr int kMessages = 200;
  std::atomic<int> count{0};
  std::atomic<std::uint64_t> min_wait_ns{~std::uint64_t{0}};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b = net.add_endpoint([&](NodeId, MessagePtr m) {
    const std::uint64_t wait = now_ns() - message_as<StampedMsg>(m).sent_ns;
    std::uint64_t seen = min_wait_ns.load();
    while (wait < seen && !min_wait_ns.compare_exchange_weak(seen, wait)) {
    }
    count.fetch_add(1);
  });
  for (int i = 0; i < kMessages; ++i) {
    net.send(a, b, make_message<StampedMsg>(0, i, now_ns()));
    if (i % 20 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  for (int t = 0; t < 400 && count.load() < kMessages; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(count.load(), kMessages);
  EXPECT_GE(min_wait_ns.load(), config.base_latency_us * 1000);
}

TEST(SimNetwork, HandlerCanSendToItsOwnEndpoint) {
  SimNetwork net(fast_config());
  std::atomic<int> last{-1};
  NodeId self = -1;
  self = net.add_endpoint([&](NodeId from, MessagePtr m) {
    const int value = message_as<IntMsg>(m).value;
    EXPECT_EQ(from, self);
    last = value;
    if (value < 20) net.send(self, self, make_message<IntMsg>(value + 1));
  });
  net.send(self, self, make_message<IntMsg>(0));
  for (int t = 0; t < 400 && last.load() < 20; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(last.load(), 20);
}

TEST(SimNetwork, SendToRemovedEndpointCountsAsDropped) {
  SimNetwork net(fast_config());
  std::atomic<int> count{0};
  const NodeId a = net.add_endpoint([](NodeId, MessagePtr) {});
  const NodeId b =
      net.add_endpoint([&](NodeId, MessagePtr) { count.fetch_add(1); });
  net.remove_endpoint(b);
  const std::uint64_t dropped = net.messages_dropped();
  net.send(a, b, make_message<IntMsg>(1));
  EXPECT_EQ(net.messages_dropped(), dropped + 1);
  EXPECT_EQ(net.in_flight(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(count.load(), 0);
  EXPECT_EQ(net.messages_delivered(), 0u);
}

TEST(SimNetwork, AddEndpointRacesSendsFromOtherThreads) {
  // send() reads the endpoint directory with no lock while add_endpoint
  // grows it chunk by chunk. Every message to an endpoint that add_endpoint
  // had already returned must arrive; a send to an id not added yet is
  // dropped or, if the id appears meanwhile, delivered, but never harmful.
  SimNetwork::Config config;
  config.base_latency_us = 5;
  config.jitter_us = 5;
  SimNetwork net(config);
  constexpr int kSenders = 3;
  constexpr int kAdded = 140;  // crosses two chunk boundaries
  constexpr int kTotal = kSenders + kAdded;
  std::vector<std::atomic<int>> received(kTotal);
  std::vector<std::atomic<int>> expected(kTotal);
  auto counter = [&](int id) {
    return [&received, id](NodeId, MessagePtr) { received[id].fetch_add(1); };
  };
  for (int s = 0; s < kSenders; ++s) {
    ASSERT_EQ(net.add_endpoint(counter(s)), s);
  }
  std::atomic<int> published{kSenders};
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      Xoshiro256 rng(static_cast<std::uint64_t>(s) + 1);
      while (!done.load()) {
        const int n = published.load();
        const auto to = static_cast<NodeId>(
            rng.below(static_cast<std::uint64_t>(n)));
        net.send(s, to, make_message<IntMsg>(0));
        expected[to].fetch_add(1);
        net.send(s, n + static_cast<NodeId>(rng.below(4)),
                 make_message<IntMsg>(0));
      }
    });
  }
  for (int i = 0; i < kAdded; ++i) {
    const NodeId id = net.add_endpoint(counter(kSenders + i));
    ASSERT_EQ(id, kSenders + i);
    published.store(id + 1);
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : senders) t.join();
  auto all_arrived = [&] {
    for (int id = 0; id < kTotal; ++id) {
      if (received[id].load() < expected[id].load()) return false;
    }
    return true;
  };
  for (int t = 0; t < 2000 && !all_arrived(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (int id = 0; id < kTotal; ++id) {
    EXPECT_GE(received[id].load(), expected[id].load()) << "endpoint " << id;
  }
}

}  // namespace
}  // namespace psmr
