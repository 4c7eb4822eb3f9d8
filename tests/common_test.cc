#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/semaphore.h"
#include "common/spsc_ring.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

TEST(Semaphore, InitialPermitsAreConsumable) {
  Semaphore sem(3);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(Semaphore, ReleaseAddsPermits) {
  Semaphore sem(0);
  EXPECT_FALSE(sem.try_acquire());
  sem.release(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(Semaphore, ReleaseZeroOrNegativeIsNoop) {
  Semaphore sem(0);
  sem.release(0);
  sem.release(-5);
  EXPECT_FALSE(sem.try_acquire());
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, AcquireBlocksUntilRelease) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    EXPECT_TRUE(sem.acquire());
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  sem.release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Semaphore, CloseWakesBlockedAcquirers) {
  Semaphore sem(0);
  std::atomic<int> woken{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      EXPECT_FALSE(sem.acquire());
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sem.close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(woken.load(), 4);
}

TEST(Semaphore, CloseIsImmediateEvenWithPermits) {
  // Close is a shutdown signal, not a drain: COS implementations rely on
  // insert()/get() failing immediately after close() regardless of how many
  // space/ready permits are left.
  Semaphore sem(2);
  sem.close();
  EXPECT_FALSE(sem.acquire());
  EXPECT_FALSE(sem.try_acquire());
  EXPECT_TRUE(sem.closed());
}

TEST(Semaphore, ManyProducersManyConsumersConserved) {
  Semaphore sem(0);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) sem.release();
    });
  }
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      while (sem.acquire()) consumed.fetch_add(1);
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  // All permits must eventually be consumable.
  while (consumed.load() < kProducers * kPerProducer) {
    std::this_thread::yield();
  }
  sem.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

// Waits until `done()` holds or `timeout_ms` passes; returns done().
bool eventually(const std::function<bool()>& done, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return done();
}

TEST(Semaphore, StressEveryReleasedPermitIsAcquiredAndNoneWaitsUnseen) {
  // P producers release permits one at a time and in bursts while C
  // consumers take them through acquire() and try_acquire(). Every permit
  // released is acquired exactly once, and once the producers stop, the
  // consumers take what is left within a bounded wait: a parked consumer
  // that missed a release would leave permits behind.
  Semaphore sem(0);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 4;
  constexpr int kRounds = 3000;
  std::atomic<long long> released{0};
  std::atomic<long long> acquired{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Xoshiro256 rng(static_cast<std::uint64_t>(p) + 7);
      for (int i = 0; i < kRounds; ++i) {
        const auto n = static_cast<std::ptrdiff_t>(1 + rng.below(3));
        sem.release(n);
        released.fetch_add(n);
        if (rng.below(16) == 0) std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&, c] {
      while (true) {
        const bool got = c % 2 == 0 ? sem.acquire() : sem.try_acquire();
        if (got) {
          acquired.fetch_add(1);
        } else if (sem.closed()) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  const bool drained = eventually([&] {
    return acquired.load() == released.load() && sem.available() == 0;
  });
  sem.close();
  for (auto& t : consumers) t.join();
  EXPECT_TRUE(drained) << "permits left unconsumed: " << sem.available();
  EXPECT_EQ(acquired.load(), released.load());
  EXPECT_EQ(sem.available(), 0);
}

TEST(Semaphore, PingPongNeverLosesAWakeUp) {
  // Two threads hand one permit back and forth through two semaphores, so
  // nearly every acquire parks and every release must find its waiter. A
  // lost wake-up stalls the exchange; the bounded wait then closes both and
  // the test fails instead of hanging.
  Semaphore ping(0);
  Semaphore pong(0);
  constexpr int kRounds = 20000;
  std::atomic<int> rounds{0};
  std::thread echo([&] {
    while (ping.acquire()) pong.release();
  });
  std::thread pinger([&] {
    for (int i = 0; i < kRounds; ++i) {
      ping.release();
      if (!pong.acquire()) return;
      rounds.fetch_add(1);
    }
  });
  const bool finished = eventually([&] { return rounds.load() == kRounds; },
                                    60000);
  ping.close();
  pong.close();
  echo.join();
  pinger.join();
  EXPECT_TRUE(finished) << "stalled after " << rounds.load() << " rounds";
}

TEST(Semaphore, AcquireAfterCloseFailsWhilePermitsRemain) {
  Semaphore sem(0);
  sem.release(3);
  sem.close();
  sem.release(2);  // a release after close does not reopen it
  EXPECT_FALSE(sem.acquire());
  EXPECT_FALSE(sem.try_acquire());
  EXPECT_EQ(sem.available(), 5);
}

TEST(Semaphore, InstrumentCountsOnlyRealParks) {
  Counter blocks;
  Counter blocked_ns;
  Counter wakes;
  Counter wake_ns;
  Semaphore sem(4);
  sem.instrument(&blocks, &blocked_ns, &wakes, &wake_ns);
  // Permits are there: the fast path takes them without parking.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(sem.acquire());
  sem.release(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.acquire());
  EXPECT_EQ(blocks.value(), 0u);
  EXPECT_EQ(wakes.value(), 0u);
  // An empty acquire parks once and is woken by the release.
  std::atomic<bool> got{false};
  std::thread waiter([&] { got.store(sem.acquire()); });
  if constexpr (kMetricsEnabled) {
    EXPECT_TRUE(eventually([&] { return blocks.value() == 1; }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sem.release();
  waiter.join();
  EXPECT_TRUE(got.load());
  if constexpr (kMetricsEnabled) {
    EXPECT_EQ(blocks.value(), 1u);
    EXPECT_GT(blocked_ns.value(), 0u);
    EXPECT_EQ(wakes.value(), 1u);
    EXPECT_LE(wake_ns.value(), blocked_ns.value());
  } else {
    EXPECT_EQ(blocks.value(), 0u);
  }
}

// ---------------------------------------------------------------------------
// BlockingQueue
// ---------------------------------------------------------------------------

TEST(BlockingQueue, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueue, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread t([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BlockingQueue, ConcurrentProducersConsumersLoseNothing) {
  BlockingQueue<int> q;
  constexpr int kProducers = 3;
  constexpr int kItems = 5000;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kItems; ++i) q.push(p * kItems + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<size_t>(p)].join();
  while (count.load() < kProducers * kItems) std::this_thread::yield();
  q.close();
  for (size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const long long n = kProducers * kItems;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(BlockingQueue, PopAllTakesEverythingInOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push(i);
  std::deque<int> out{42};  // cleared first
  ASSERT_TRUE(q.pop_all(out));
  EXPECT_EQ(out, (std::deque<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 0u);
  q.push(5);
  q.push(6);
  ASSERT_TRUE(q.pop_all(out));
  EXPECT_EQ(out, (std::deque<int>{5, 6}));
}

TEST(BlockingQueue, PopAllDrainsAfterCloseThenReportsClosed) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  std::deque<int> out;
  ASSERT_TRUE(q.pop_all(out));
  EXPECT_EQ(out, (std::deque<int>{1, 2}));
  EXPECT_FALSE(q.pop_all(out));
  EXPECT_TRUE(out.empty());
}

TEST(BlockingQueue, PopAllBlocksUntilPushOrClose) {
  BlockingQueue<int> q;
  std::deque<int> out;
  std::thread t([&] {
    EXPECT_TRUE(q.pop_all(out));
    EXPECT_EQ(out, (std::deque<int>{7}));
    EXPECT_FALSE(q.pop_all(out));  // woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.push(7);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BlockingQueue, PopAllUnderConcurrentProducersLosesNothing) {
  BlockingQueue<int> q;
  constexpr int kProducers = 3;
  constexpr int kItems = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kItems; ++i) q.push(p * kItems + i);
    });
  }
  std::vector<int> last(kProducers, -1);
  int count = 0;
  std::thread consumer([&] {
    std::deque<int> out;
    while (q.pop_all(out)) {
      for (const int v : out) {
        // Each producer's items arrive in the order it pushed them.
        EXPECT_GT(v % kItems, last[static_cast<size_t>(v / kItems)]);
        last[static_cast<size_t>(v / kItems)] = v % kItems;
        ++count;
      }
    }
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();
  EXPECT_EQ(count, kProducers * kItems);
}

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundedToPowerOfTwo) {
  SpscRing<int> ring(100);
  EXPECT_EQ(ring.capacity(), 128u);
}

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_EQ(ring.try_pop().value(), 1);
  EXPECT_EQ(ring.try_pop().value(), 2);
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRing, FullRejectsPush) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.try_push(1));
  EXPECT_TRUE(ring.try_push(2));
  EXPECT_FALSE(ring.try_push(3));
  ring.try_pop();
  EXPECT_TRUE(ring.try_push(3));
}

TEST(SpscRing, ProducerConsumerTransfersInOrder) {
  SpscRing<int> ring(64);
  constexpr int kItems = 100000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, ExactSmallValues) {
  Histogram h;
  for (std::uint64_t v = 0; v < 64; ++v) h.record(v);
  EXPECT_EQ(h.count(), 64u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 63u);
  // Small values (< 64) are exact.
  EXPECT_EQ(h.percentile(50), 31u);
}

TEST(Histogram, PercentileWithinRelativePrecision) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record(1'000'000);  // 1 ms
  const std::uint64_t p99 = h.percentile(99);
  EXPECT_NEAR(static_cast<double>(p99), 1e6, 1e6 * 0.02);
}

TEST(Histogram, MeanIsExact) {
  Histogram h;
  h.record(100);
  h.record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, PercentilesMonotone) {
  Histogram h;
  Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) h.record(rng.below(10'000'000));
  std::uint64_t last = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    const std::uint64_t v = h.percentile(p);
    EXPECT_GE(v, last) << "p=" << p;
    last = v;
  }
}

// ---------------------------------------------------------------------------
// Xoshiro256
// ---------------------------------------------------------------------------

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Xoshiro, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, BelowRoughlyUniform) {
  Xoshiro256 rng(99);
  std::vector<int> buckets(10, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) buckets[rng.below(10)]++;
  for (int count : buckets) {
    EXPECT_NEAR(count, kSamples / 10, kSamples / 10 * 0.1);
  }
}

}  // namespace
}  // namespace psmr
