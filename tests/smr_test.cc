// End-to-end SMR integration tests: full deployments (simulated network +
// sequenced broadcast + replicas + closed-loop clients) for all scheduler
// kinds and the sequential baseline, checking liveness, replica
// convergence, at-most-once execution, the bank-conservation invariant, and
// leader-crash recovery.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "app/bank_service.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "smr/deployment.h"
#include "workload/generator.h"

namespace psmr {
namespace {

SimNetwork::Config fast_net() {
  SimNetwork::Config config;
  config.base_latency_us = 30;
  config.jitter_us = 20;
  return config;
}

SequencedBroadcast::Config fast_broadcast() {
  SequencedBroadcast::Config config;
  config.batch_timeout_us = 200;
  config.heartbeat_interval_ms = 5;
  config.leader_timeout_ms = 250;
  config.tick_interval_ms = 1;
  return config;
}

Deployment::Config make_config(SchedulerPolicy policy, CosKind kind,
                               int workers) {
  Deployment::Config config;
  config.replicas = 3;
  config.net = fast_net();
  config.replica.policy = policy;
  config.replica.cos.kind = kind;
  config.replica.workers = workers;
  config.replica.broadcast = fast_broadcast();
  return config;
}

// Waits until every running replica executed at least `count` commands.
bool wait_executed(Deployment& deployment, std::uint64_t count,
                   int timeout_ms = 10000) {
  for (int t = 0; t < timeout_ms / 5; ++t) {
    bool all = true;
    for (int i = 0; i < deployment.replica_count(); ++i) {
      if (deployment.net().crashed(deployment.replica(i).endpoint())) continue;
      if (deployment.replica(i).executed_count() < count) all = false;
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

struct SmrParam {
  SchedulerPolicy policy;
  CosKind kind;
  int workers;
};

std::string smr_param_name(const ::testing::TestParamInfo<SmrParam>& info) {
  if (info.param.policy == SchedulerPolicy::kSequential) return "Sequential";
  std::string name;
  switch (info.param.kind) {
    case CosKind::kCoarseGrained:
      name = "CoarseGrained";
      break;
    case CosKind::kFineGrained:
      name = "FineGrained";
      break;
    case CosKind::kLockFree:
      name = "LockFree";
      break;
    case CosKind::kStriped:
      name = "Striped";
      break;
  }
  if (info.param.policy == SchedulerPolicy::kEarlyScheduling) {
    name = "Early" + name;
  }
  return name + "_w" + std::to_string(info.param.workers);
}

class SmrEndToEndTest : public ::testing::TestWithParam<SmrParam> {};

TEST_P(SmrEndToEndTest, ClientsCompleteAndReplicasConverge) {
  const SmrParam param = GetParam();
  static constexpr std::size_t kListSize = 200;
  Deployment deployment(
      make_config(param.policy, param.kind, param.workers),
      [] { return std::make_unique<LinkedListService>(kListSize); });

  // 4 clients, mixed workload with writes so convergence is meaningful.
  std::vector<std::unique_ptr<Xoshiro256>> rngs;
  for (int c = 0; c < 4; ++c) {
    auto rng = std::make_unique<Xoshiro256>(100 + static_cast<unsigned>(c));
    Xoshiro256* r = rng.get();
    rngs.push_back(std::move(rng));
    SmrClient::Config client_config;
    client_config.pipeline = 4;
    deployment.add_client(client_config, [r] {
      const std::uint64_t v = r->below(kListSize);
      return r->uniform() < 0.2 ? LinkedListService::make_add(v)
                                : LinkedListService::make_contains(v);
    });
  }

  deployment.start();
  // Let the system run until clients completed a solid batch of commands.
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 800; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t completed = deployment.total_client_completed();
  EXPECT_GE(completed, 800u) << "system did not make progress";

  // Quiesce: stop clients, let every replica finish executing everything
  // that was ordered, then compare state digests.
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  ASSERT_TRUE(wait_executed(deployment,
                            deployment.replica(0).executed_count()));
  // Give stragglers a moment to drain their last batch.
  for (int t = 0; t < 600; ++t) {
    if (deployment.states_converged()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  deployment.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, SmrEndToEndTest,
    ::testing::Values(
        SmrParam{SchedulerPolicy::kSequential, CosKind::kLockFree, 0},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kCoarseGrained, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kFineGrained, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kLockFree, 4},
        SmrParam{SchedulerPolicy::kCosDag, CosKind::kLockFree, 8},
        SmrParam{SchedulerPolicy::kEarlyScheduling, CosKind::kLockFree, 2},
        SmrParam{SchedulerPolicy::kEarlyScheduling, CosKind::kLockFree, 4}),
    smr_param_name);

// Runs under both the DAG and early-scheduling policies: the transfer mix
// includes cross-class transfers (accounts in different classes), which
// exercise the early scheduler's barrier path end to end.
void run_bank_conservation(SchedulerPolicy policy) {
  static constexpr std::size_t kAccounts = 32;
  static constexpr std::uint64_t kInitial = 1000;
  Deployment deployment(
      make_config(policy, CosKind::kLockFree, 4), [] {
        return std::make_unique<BankService>(kAccounts, kInitial);
      });
  Xoshiro256 rng(7);
  SmrClient::Config client_config;
  client_config.pipeline = 8;
  deployment.add_client(client_config, [&rng] {
    const std::uint64_t from = rng.below(kAccounts);
    std::uint64_t to = rng.below(kAccounts);
    if (to == from) to = (to + 1) % kAccounts;
    if (rng.uniform() < 0.7) {
      return BankService::make_transfer(from, to, rng.below(50));
    }
    return BankService::make_balance(from);
  });

  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 500; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(deployment.total_client_completed(), 500u);
  for (SmrClient* client : deployment.clients()) client->drain(3000);

  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  // Stop (joining every replica thread) before reading service state
  // directly, so the reads cannot race with a straggling execution.
  deployment.stop();
  for (int i = 0; i < deployment.replica_count(); ++i) {
    const auto& bank =
        static_cast<const BankService&>(deployment.replica(i).service());
    EXPECT_EQ(bank.total_balance(), kAccounts * kInitial)
        << "money not conserved at replica " << i;
  }
}

TEST(SmrBank, TransfersConserveMoneyAcrossReplicas) {
  run_bank_conservation(SchedulerPolicy::kCosDag);
}

TEST(SmrBank, TransfersConserveMoneyUnderEarlyScheduling) {
  run_bank_conservation(SchedulerPolicy::kEarlyScheduling);
}

TEST(SmrKv, PerKeyConflictsStillLinearizePerKey) {
  Deployment deployment(make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4),
                        [] { return std::make_unique<KvService>(); });
  // Single client writing an increasing counter to one key; the replicas
  // must all end with the final value.
  KvService builder;  // only for command construction
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 1;  // strictly ordered per client
  deployment.add_client(client_config, [&] {
    const std::uint64_t v = next.fetch_add(1);
    return builder.make_put(42, v);
  });
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 200; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 200u);
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());
  // Stop (joining every replica thread) before touching the service
  // directly, so the probe get() cannot race with a straggling execution.
  deployment.stop();
  const auto& kv =
      static_cast<const KvService&>(deployment.replica(0).service());
  const Response r =
      const_cast<KvService&>(kv).execute(builder.make_get(42));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, deployment.total_client_completed() - 1)
      << "lost or reordered update on key 42";
}

TEST(SmrFaultTolerance, ServiceSurvivesLeaderCrash) {
  static constexpr std::size_t kListSize = 100;
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4),
      [] { return std::make_unique<LinkedListService>(kListSize); });
  Xoshiro256 rng(3);
  SmrClient::Config client_config;
  client_config.pipeline = 2;
  client_config.resend_timeout_ms = 400;
  deployment.add_client(client_config, [&rng] {
    const std::uint64_t v = rng.below(kListSize);
    return rng.uniform() < 0.2 ? LinkedListService::make_add(v)
                               : LinkedListService::make_contains(v);
  });
  deployment.start();

  for (int t = 0; t < 2000 && deployment.total_client_completed() < 100; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 100u);

  // Crash the leader (replica 0 in view 0).
  deployment.replica(0).crash();

  // The client stalls until the view change, then progresses again.
  const std::uint64_t before = deployment.total_client_completed();
  bool progressed = false;
  for (int t = 0; t < 4000; ++t) {
    if (deployment.total_client_completed() >= before + 100) {
      progressed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(progressed) << "no progress after leader crash";

  for (SmrClient* client : deployment.clients()) client->drain(3000);
  for (int t = 0; t < 600 && !deployment.states_converged(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(deployment.states_converged());  // survivors agree
  deployment.stop();
}

TEST(SmrStateTransfer, PartitionedReplicaCatchesUpViaCheckpoint) {
  // Partition replica 2 away from everyone, push the system far beyond the
  // broadcast log retention, heal the partition, and verify replica 2
  // catches up through a checkpoint (state transfer), converging to the
  // same state.
  static constexpr std::size_t kListSize = 100;
  Deployment::Config config = make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2);
  config.replica.broadcast.retained_slots = 16;  // small window for the test
  config.replica.broadcast.batch_max = 4;        // many slots
  config.replica.broadcast.leader_timeout_ms = 100000;  // replica 2 must not
                                                        // trigger view changes
  Deployment deployment(
      config, [] { return std::make_unique<LinkedListService>(0); });
  std::atomic<std::uint64_t> next{1};
  SmrClient::Config client_config;
  client_config.pipeline = 4;
  deployment.add_client(client_config, [&] {
    return LinkedListService::make_add(next.fetch_add(1) % kListSize);
  });
  deployment.start();

  // Cut replica 2 off.
  const NodeId lagging = deployment.replica(2).endpoint();
  deployment.net().set_link(deployment.replica(0).endpoint(), lagging, false);
  deployment.net().set_link(deployment.replica(1).endpoint(), lagging, false);

  // Run well past the retention window (16 slots * batch 4 = 64 commands).
  for (int t = 0; t < 4000 && deployment.total_client_completed() < 600; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), 600u);
  EXPECT_LT(deployment.replica(2).executed_count(), 100u);

  // Heal and wait for catch-up.
  deployment.net().set_link(deployment.replica(0).endpoint(), lagging, true);
  deployment.net().set_link(deployment.replica(1).endpoint(), lagging, true);

  bool transferred = false;
  for (int t = 0; t < 2000; ++t) {
    if (deployment.replica(2).state_transfers() > 0) {
      transferred = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(transferred) << "no state transfer happened";

  for (SmrClient* client : deployment.clients()) client->drain(3000);
  bool converged = false;
  for (int t = 0; t < 1000 && !converged; ++t) {
    converged = deployment.states_converged();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(converged) << "lagging replica did not converge after "
                            "state transfer";
  deployment.stop();
}

TEST(SmrClientTeardown, DestroyWithRepliesInFlightIsSafe) {
  // Regression test for a teardown race: destroying a client while replies
  // are still in flight used to leave its transport handler registered, so
  // a reply delivered mid-destruction ran handle_message on a dying object
  // (use-after-free, caught by ASan/TSan pre-fix). The destructor now
  // deregisters the endpoint first; the transport guarantees no handler is
  // running or will run once remove_endpoint returns.
  //
  // The network is deliberately slow: with a multi-ms one-way latency,
  // replies to the 8 pipelined commands keep arriving for milliseconds
  // after the destructor returns, so a still-registered handler would run
  // on freed memory.
  Deployment::Config config = make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 4);
  config.net.base_latency_us = 3000;
  config.net.jitter_us = 2000;
  Deployment deployment(config,
                        [] { return std::make_unique<KvService>(); });
  deployment.start();

  KvService builder;
  for (int round = 0; round < 5; ++round) {
    std::atomic<std::uint64_t> next{0};
    SmrClient::Config client_config;
    client_config.pipeline = 8;          // keep many replies in flight
    client_config.tick_interval_ms = 1;  // dtor joins the timer quickly
    std::vector<NodeId> replicas;
    for (int i = 0; i < deployment.replica_count(); ++i) {
      replicas.push_back(deployment.replica(i).endpoint());
    }
    auto client = std::make_unique<SmrClient>(
        deployment.net(), replicas, client_config,
        [&] { return builder.make_put(next.fetch_add(1) % 32, 1); });
    client->start();
    // Destroy mid-traffic — no stop(), no drain(): with 3 replicas each
    // answering 8 pipelined commands there are always replies in flight.
    for (int t = 0; t < 1000 && client->completed() < 20; ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(client->completed(), 20u);
    client.reset();
  }
  deployment.stop();
}

TEST(SmrClientTeardown, DestructorDoesNotWaitOutTimerTick) {
  // Regression test for shutdown latency: the timer thread used to sleep
  // for a full tick_interval_ms between resend scans, so the destructor
  // blocked on join() for up to one tick. It now waits on a condition
  // variable the destructor signals.
  Deployment deployment(make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
                        [] { return std::make_unique<KvService>(); });
  deployment.start();

  KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 2;
  client_config.tick_interval_ms = 3000;  // pre-fix: dtor stalls ~3 s
  std::vector<NodeId> replicas;
  for (int i = 0; i < deployment.replica_count(); ++i) {
    replicas.push_back(deployment.replica(i).endpoint());
  }
  auto client = std::make_unique<SmrClient>(
      deployment.net(), replicas, client_config,
      [&] { return builder.make_put(next.fetch_add(1) % 32, 1); });
  client->start();
  for (int t = 0; t < 1000 && client->completed() < 5; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(client->completed(), 5u);

  const std::uint64_t start_ns = now_ns();
  client.reset();
  const std::uint64_t elapsed_ms = (now_ns() - start_ns) / 1'000'000ull;
  EXPECT_LT(elapsed_ms, 1000u)
      << "client destructor waited out the timer tick";
  deployment.stop();
}

TEST(SmrDedup, RetransmissionsExecuteAtMostOnce) {
  // A pipeline-1 client with an aggressive resend timer: even when requests
  // are retransmitted (and re-answered from the reply cache), each add must
  // execute exactly once — otherwise the list size would drift.
  static constexpr std::size_t kListSize = 16;
  Deployment deployment(
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2),
      [] { return std::make_unique<LinkedListService>(0); });
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 1;
  client_config.resend_timeout_ms = 1;  // pathological: resend every tick
  client_config.tick_interval_ms = 1;
  deployment.add_client(client_config, [&] {
    return LinkedListService::make_add(next.fetch_add(1));
  });
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < kListSize;
       ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(deployment.total_client_completed(), kListSize);
  for (SmrClient* client : deployment.clients()) client->drain(3000);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const std::uint64_t issued = next.load();
  // Stop (joining every replica thread) before reading service state
  // directly, so the reads cannot race with a straggling retransmission.
  deployment.stop();
  for (int i = 0; i < deployment.replica_count(); ++i) {
    const auto& list = static_cast<const LinkedListService&>(
        deployment.replica(i).service());
    // Every add was of a distinct value: size == number of distinct adds
    // executed. With at-most-once this is <= issued and >= completed.
    EXPECT_LE(list.size(), issued);
    EXPECT_EQ(list.size(), deployment.replica(i).executed_count())
        << "duplicate execution at replica " << i;
  }
}

// A hand-driven client endpoint: sends requests with chosen client_seqs to
// every replica and records each reply it gets.
class RawClient {
 public:
  explicit RawClient(Deployment& deployment) : net_(deployment.net()) {
    for (int i = 0; i < deployment.replica_count(); ++i) {
      replicas_.push_back(deployment.replica(i).endpoint());
    }
    endpoint_ = net_.add_endpoint([this](NodeId /*from*/, MessagePtr m) {
      if (m->type != msg::kReply) return;
      const auto& reply = message_as<ReplyMsg>(m);
      std::lock_guard lock(mu_);
      replies_[reply.client_seq].push_back(reply.value);
    });
  }
  ~RawClient() { net_.remove_endpoint(endpoint_); }

  void send(std::vector<Command> cmds) {
    auto m = make_message<RequestMsg>(std::move(cmds));
    for (NodeId replica : replicas_) net_.send(endpoint_, replica, m);
  }

  std::vector<std::uint64_t> replies(std::uint64_t seq) {
    std::lock_guard lock(mu_);
    return replies_[seq];
  }

  bool wait_replies(std::uint64_t seq, std::size_t count) {
    for (int t = 0; t < 5000; ++t) {
      if (replies(seq).size() >= count) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  Transport& net_;
  std::vector<NodeId> replicas_;  // NOLINT(psmr-guarded-by-coverage) set in the constructor, before any traffic
  NodeId endpoint_ = -1;  // NOLINT(psmr-guarded-by-coverage) set in the constructor, before any traffic
  std::mutex mu_;  // NOLINT(psmr-raw-mutex) test client; guards replies_ only
  std::map<std::uint64_t, std::vector<std::uint64_t>> replies_;  // NOLINT(psmr-guarded-by-coverage) guarded by mu_ (test-local)
};

TEST(SmrDedup, ReplyCacheRingAnswersInWindowRetransmissions) {
  // One client runs more than two windows of commands, so every ring slot
  // is overwritten at least twice. All commands touch one key: odd seqs put
  // 10 * seq, even seqs get it, so a get's reply names the put before it.
  Deployment::Config config =
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2);
  config.replicas = 1;
  Deployment deployment(config, [] { return std::make_unique<KvService>(); });
  deployment.start();
  RawClient client(deployment);
  KvService builder;
  auto command = [&](std::uint64_t seq) {
    Command c = seq % 2 == 1 ? builder.make_put(7, 10 * seq)
                             : builder.make_get(7);
    c.client_seq = seq;
    return c;
  };
  constexpr std::uint64_t kCommands = 2 * Replica::kReplyCacheWindow + 100;
  constexpr std::uint64_t kChunk = 64;
  for (std::uint64_t first = 1; first <= kCommands; first += kChunk) {
    std::vector<Command> chunk;
    for (std::uint64_t seq = first;
         seq < first + kChunk && seq <= kCommands; ++seq) {
      chunk.push_back(command(seq));
    }
    client.send(std::move(chunk));
    ASSERT_TRUE(client.wait_replies(std::min(first + kChunk - 1, kCommands), 1));
  }
  Replica& replica = deployment.replica(0);
  ASSERT_EQ(replica.executed_count(), kCommands);
  Counter& cache_hits =
      MetricsRegistry::global().counter("replica.reply_cache_hits");

  // In window: answered from the cache with the original value (the key now
  // holds 10 * (kCommands - 1), which a re-execution would return).
  const std::uint64_t in_window = kCommands - 10;
  ASSERT_EQ(in_window % 2, 0u);
  const std::uint64_t hits_before = cache_hits.value();
  client.send({command(in_window)});
  ASSERT_TRUE(client.wait_replies(in_window, 2));
  EXPECT_EQ(client.replies(in_window)[1], 10 * (in_window - 1));
  EXPECT_EQ(client.replies(in_window)[0], client.replies(in_window)[1]);
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(cache_hits.value() - hits_before, 1u);
  }
  EXPECT_EQ(replica.executed_count(), kCommands);

  // Out of window: its slot holds a later seq, so the request is ordered
  // and dropped by the scheduler's dedup. A fresh command behind it on the
  // same link shows when it has been processed.
  const std::uint64_t out_of_window = 2;
  client.send({command(out_of_window)});
  client.send({command(kCommands + 1)});
  ASSERT_TRUE(client.wait_replies(kCommands + 1, 1));
  EXPECT_EQ(replica.executed_count(), kCommands + 1);
  EXPECT_EQ(client.replies(out_of_window).size(), 1u);
  deployment.stop();
}

// Forwards to a SimNetwork, except that the first Request carrying
// `lost_seq` on its way to `leader` is lost.
class LoseOneRequest final : public Transport {
 public:
  LoseOneRequest(SimNetwork::Config config, NodeId leader,
                 std::uint64_t lost_seq)
      : net_(config), leader_(leader), lost_seq_(lost_seq) {}

  NodeId add_endpoint(Handler handler) override {
    return net_.add_endpoint(std::move(handler));
  }
  void send(NodeId from, NodeId to, MessagePtr m) override {
    if (to == leader_ && m->type == msg::kRequest) {
      for (const Command& c : message_as<RequestMsg>(m).commands) {
        if (c.client_seq == lost_seq_ && !lost_.exchange(true)) return;
      }
    }
    net_.send(from, to, std::move(m));
  }
  void remove_endpoint(NodeId node) override { net_.remove_endpoint(node); }
  void shutdown() override { net_.shutdown(); }
  std::uint64_t messages_delivered() const override {
    return net_.messages_delivered();
  }
  std::uint64_t messages_dropped() const override {
    return net_.messages_dropped();
  }

 private:
  SimNetwork net_;
  const NodeId leader_;
  const std::uint64_t lost_seq_;
  std::atomic<bool> lost_{false};
};

TEST(SmrDedup, CommandWhoseFirstRequestWasLostStillExecutes) {
  // The leader never sees the first Request for seq 2 of a pipeline-4
  // client, so seqs 3..5 are ordered and inserted before it. The resent
  // seq 2 is below the client's high-water mark but was never inserted: it
  // must execute and be answered, not be dropped as a duplicate.
  Deployment::Config config =
      make_config(SchedulerPolicy::kCosDag, CosKind::kLockFree, 2);
  config.transport_factory = [net = config.net] {
    return std::make_unique<LoseOneRequest>(net, /*leader=*/0, /*lost_seq=*/2);
  };
  Deployment deployment(config, [] { return std::make_unique<KvService>(); });
  KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 4;
  client_config.resend_timeout_ms = 50;
  client_config.tick_interval_ms = 5;
  SmrClient& client = deployment.add_client(client_config, [&] {
    return builder.make_put(next.fetch_add(1) % 16, 1);
  });
  deployment.start();
  for (int t = 0; t < 1000 && client.completed() < 100; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(client.completed(), 100u);
  EXPECT_TRUE(client.drain(3000)) << "a command was never answered";
  const std::uint64_t completed = client.completed();
  EXPECT_EQ(completed, next.load());
  EXPECT_TRUE(wait_executed(deployment, completed));
  deployment.stop();
  for (int i = 0; i < deployment.replica_count(); ++i) {
    EXPECT_EQ(deployment.replica(i).executed_count(), completed)
        << "replica " << i;
  }
}

// Counts executed commands; the first execute() parks until the gate opens.
// Every command is a write, so executions never overlap.
class GatedCounterService final : public Service {
 public:
  GatedCounterService(std::atomic<bool>& gate, std::atomic<bool>& entered)
      : gate_(gate), entered_(entered) {}

  Response execute(const Command& c) override {
    if (executed_ == 0) {
      entered_.store(true);
      while (!gate_.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ++executed_;
    return {c.client, c.client_seq, executed_, true};
  }
  ConflictFn conflict() const override { return rw_conflict; }
  std::uint64_t state_digest() const override { return executed_; }
  std::vector<std::uint8_t> snapshot() const override { return {}; }
  bool restore(std::span<const std::uint8_t>) override { return false; }
  const char* name() const override { return "gated-counter"; }

 private:
  std::atomic<bool>& gate_;
  std::atomic<bool>& entered_;
  std::uint64_t executed_ = 0;
};

bool wait_until(const std::function<bool()>& done) {
  for (int t = 0; t < 5000 && !done(); ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

// The scheduler takes its whole queue at each wake-up. A control task
// drained together with deliveries queued before it must schedule those
// first and wait until they have executed. Command 1 parks in execute(),
// which holds the scheduler: in sequential mode it executes command 1
// itself; with a one-slot graph it parks inserting command 2. Commands
// 3..6 (2..6 in sequential mode) and then the digest request queue up
// behind it, and are drained together once the gate opens.
void ExpectDigestSeesDrainedDeliveries(SchedulerPolicy policy) {
  constexpr std::uint64_t kCommands = 6;
  const bool sequential = policy == SchedulerPolicy::kSequential;
  std::atomic<bool> gate{false};
  std::atomic<bool> entered{false};
  Deployment::Config config = make_config(policy, CosKind::kLockFree, 2);
  config.replicas = 1;
  config.replica.cos.capacity = 1;
  Deployment deployment(config, [&] {
    return std::make_unique<GatedCounterService>(gate, entered);
  });
  deployment.start();
  Replica& replica = deployment.replica(0);
  RawClient client(deployment);
  auto send = [&](std::uint64_t seq) {
    Command c;
    c.mode = AccessMode::kWrite;
    c.client_seq = seq;
    client.send({c});
  };
  const std::uint64_t insert_blocks =
      MetricsRegistry::global().counter("cos.insert_blocks").value();

  send(1);
  bool held = wait_until([&] { return entered.load(); });
  std::uint64_t seq = 2;
  if (!sequential) {
    send(seq++);
    held = held && wait_until([&] {
             return MetricsRegistry::global()
                        .counter("cos.insert_blocks")
                        .value() > insert_blocks;
           });
  }
  const std::size_t queued = kCommands - seq + 1;
  for (; seq <= kCommands; ++seq) send(seq);
  held = held &&
         wait_until([&] { return replica.queued_deliveries() == queued; });
  std::future<std::uint64_t> digest = std::async(
      std::launch::async, [&] { return replica.state_digest(); });
  held = held && wait_until([&] {
           return replica.queued_deliveries() == queued + 1;
         });
  gate.store(true);  // always, so nothing stays parked if a wait failed
  EXPECT_TRUE(held) << "the scheduler was not held with the queue filled";
  EXPECT_EQ(digest.get(), kCommands);
  EXPECT_TRUE(client.wait_replies(kCommands, 1));
  deployment.stop();
}

TEST(SmrScheduler, StateDigestBehindDrainedDeliveriesSeesThemSequential) {
  ExpectDigestSeesDrainedDeliveries(SchedulerPolicy::kSequential);
}

TEST(SmrScheduler, StateDigestBehindDrainedDeliveriesSeesThemCosDag) {
  if constexpr (!kMetricsEnabled) {
    GTEST_SKIP() << "needs cos.insert_blocks to see the scheduler parked";
  }
  ExpectDigestSeesDrainedDeliveries(SchedulerPolicy::kCosDag);
}

// Runs a 3-replica deployment under closed-loop load in this (forked)
// process, reports on `ready` once the load runs, waits on `resumed` while
// the parent stops and continues it three times, then runs on for a while.
// Returns 0 if no replica left view 0 and every client drained; otherwise
// exits the process at once with 1 (a client did not drain) or 2 (a replica
// changed view), leaving the deployment running.
int run_stalled_deployment(int ready, int resumed) {
  Deployment::Config config;
  config.replicas = 3;
  config.net = fast_net();
  config.replica.workers = 2;
  Deployment deployment(config, [] { return std::make_unique<KvService>(); });
  KvService builder;
  std::atomic<std::uint64_t> next{0};
  SmrClient::Config client_config;
  client_config.pipeline = 16;
  for (int c = 0; c < 8; ++c) {
    deployment.add_client(client_config, [&] {
      const std::uint64_t n = next.fetch_add(1);
      return n % 2 == 0 ? builder.make_put(n % 64, n) : builder.make_get(n % 64);
    });
  }
  deployment.start();
  for (int t = 0; t < 2000 && deployment.total_client_completed() < 2000; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  char byte = 1;
  if (write(ready, &byte, 1) != 1 || read(resumed, &byte, 1) != 1) return 3;
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  bool drained = true;
  const std::uint64_t deadline_ns = now_ns() + 5'000'000'000ull;
  for (SmrClient* client : deployment.clients()) {
    const std::uint64_t now = now_ns();
    const std::uint64_t left_ms =
        now < deadline_ns ? (deadline_ns - now) / 1'000'000 : 0;
    drained = client->drain(left_ms) && drained;
  }
  int code = drained ? 0 : 1;
  for (int i = 0; i < deployment.replica_count(); ++i) {
    if (deployment.replica(i).view() != 0) {
      std::fprintf(stderr, "replica %d moved to view %llu\n", i,
                   static_cast<unsigned long long>(deployment.replica(i).view()));
      code = 2;
    }
  }
  if (!drained) std::fprintf(stderr, "a client did not drain\n");
  if (code != 0) {
    std::fflush(stderr);
    _exit(code);  // skip the teardown: a wedged deployment may not stop
  }
  deployment.stop();
  return 0;
}

TEST(SmrStall, StoppedProcessDoesNotSuspectItsLeader) {
  // A stall of the whole process (SIGSTOP, a descheduled VM, paging) halts
  // the leader and its followers alike. When it ends, a follower's timer
  // must not read the silence as a dead leader before its dispatcher has
  // read the leader's messages waiting in the inbox.
  int ready[2];
  int resumed[2];
  ASSERT_EQ(pipe(ready), 0);
  ASSERT_EQ(pipe(resumed), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(ready[0]);
    close(resumed[1]);
    _exit(run_stalled_deployment(ready[1], resumed[0]));
  }
  close(ready[1]);
  close(resumed[0]);
  char byte = 0;
  const bool loaded = read(ready[0], &byte, 1) == 1;
  for (int stall = 0; loaded && stall < 3; ++stall) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(kill(child, SIGSTOP), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(kill(child, SIGCONT), 0);
  }
  EXPECT_EQ(write(resumed[1], &byte, 1), 1);
  close(ready[0]);
  close(resumed[1]);
  int status = 0;
  pid_t waited = 0;
  for (int t = 0; t < 6000 && waited == 0; ++t) {
    waited = waitpid(child, &status, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waited == 0) {
    kill(child, SIGKILL);
    waitpid(child, &status, 0);
  }
  ASSERT_EQ(waited, child) << "the child did not exit within 60 s";
  EXPECT_TRUE(loaded) << "the child never reported its load running";
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1: a client did not drain, 2: a replica changed view";
}

}  // namespace
}  // namespace psmr
