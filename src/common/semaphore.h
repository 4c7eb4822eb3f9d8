// Counting semaphore with close() semantics and a lock-free fast path.
//
// The paper's blocking layer (Alg. 5) uses two counting semaphores, `space`
// and `ready`, to park the scheduler when the dependency graph is full and to
// park worker threads when no command is ready. A plain counting semaphore
// has no way to wake parked threads at shutdown, so this one adds close():
// after close(), every pending and future acquire() returns false instead of
// blocking, which lets COS implementations drain their worker pools cleanly.
//
// Like Java's Semaphore, which the paper's implementation uses, the permit
// count is an atomic: acquire() and try_acquire() take a permit with a CAS
// while the count is positive, and release() adds to it. Only an acquire
// that finds no permit registers as a waiter and parks on mu_/cv_, and
// release() touches mu_ only when a waiter is registered. The waiter count
// and the permit count form a seq_cst Dekker pair: a parking acquirer
// increments waiters_ and then re-reads count_; a releaser adds to count_
// and then reads waiters_. In the single total order of those four
// operations one side sees the other's write, so either the acquirer finds
// the permit or the releaser finds the waiter and notifies under mu_, which
// the waiter holds from registration until it sleeps. No wake-up is lost.
//
// Locking: mu_ is a leaf in the COS layer — release() is called from deep
// inside the variants' remove/insert paths, so its rank sits below every
// graph lock (DESIGN.md "Lock hierarchy"). Only the slow path takes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/metrics.h"
#include "common/ranked_mutex.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"

namespace psmr {

class Semaphore {
 public:
  explicit Semaphore(std::ptrdiff_t initial = 0) : count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Optional block accounting: when set, each acquire() that actually parks
  // bumps `blocks` once and adds the time parked to `blocked_ns`. When
  // `wakes` is set too, a release() that finds a waiter stamps the time,
  // and each parked acquire() that returns with a permit bumps `wakes` and
  // adds the gap from that stamp to its own return to `wake_ns`: the wake
  // latency, as opposed to the time with no permit at all. Must be called
  // before the semaphore is shared between threads (COS variants do it in
  // their constructors); the fast path stays untouched.
  void instrument(Counter* blocks, Counter* blocked_ns,
                  Counter* wakes = nullptr, Counter* wake_ns = nullptr) {
    blocks_metric_ = blocks;
    blocked_ns_metric_ = blocked_ns;
    wakes_metric_ = wakes;
    wake_ns_metric_ = wake_ns;
  }

  // Blocks until a permit is available or the semaphore is closed.
  // Returns true if a permit was consumed, false if closed (close is
  // immediate: remaining permits are not drained).
  bool acquire() {
    if (closed_.load()) return false;
    if (take()) return true;
    return acquire_slow();
  }

  // Non-blocking acquire. Returns true iff a permit was consumed.
  bool try_acquire() { return !closed_.load() && take(); }

  void release(std::ptrdiff_t n = 1) {
    if (n <= 0) return;
    count_.fetch_add(n);
    if (waiters_.load() == 0) return;  // the Dekker read (see top of file)
    {
      // Taking mu_ orders this release after the waiter's last count check:
      // the waiter holds mu_ from registration until it sleeps.
      MutexLock lock(mu_);
      if constexpr (kMetricsEnabled) {
        if (wakes_metric_ != nullptr) wake_stamp_ns_ = now_ns();
      }
    }
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  // Wakes all waiters; subsequent acquire() calls return false even while
  // permits remain. Idempotent.
  void close() {
    closed_.store(true);
    { MutexLock lock(mu_); }  // a waiter between its check and its sleep
    cv_.notify_all();
  }

  bool closed() const { return closed_.load(); }

  std::ptrdiff_t available() const { return count_.load(); }

 private:
  // Takes a permit if one is there.
  bool take() {
    std::ptrdiff_t c = count_.load();
    while (c > 0) {
      if (count_.compare_exchange_weak(c, c - 1)) return true;
    }
    return false;
  }

  bool acquire_slow() {
    MutexLock lock(mu_);
    waiters_.fetch_add(1);  // the Dekker write (see top of file)
    bool acquired = false;
    bool parked = false;
    std::uint64_t t0 = 0;
    while (true) {
      if (closed_.load()) break;
      if (take()) {
        acquired = true;
        break;
      }
      if constexpr (kMetricsEnabled) {
        if (!parked && blocks_metric_ != nullptr) {
          blocks_metric_->inc();
          t0 = now_ns();
        }
      }
      parked = true;
      cv_.wait(mu_);
    }
    waiters_.fetch_sub(1);
    if constexpr (kMetricsEnabled) {
      if (parked && blocks_metric_ != nullptr) {
        const std::uint64_t t1 = now_ns();
        blocked_ns_metric_->inc(t1 - t0);
        if (acquired && wakes_metric_ != nullptr && wake_stamp_ns_ >= t0) {
          wakes_metric_->inc();
          wake_ns_metric_->inc(t1 - wake_stamp_ns_);
        }
      }
    }
    return acquired;
  }

  std::atomic<std::ptrdiff_t> count_;
  std::atomic<int> waiters_{0};  // acquirers registered in the slow path
  std::atomic<bool> closed_{false};
  mutable RankedMutex<lock_rank::kSemaphore> mu_;  // the slow path only
  CondVar cv_;
  // When the latest release() that found a waiter ran (instrumented only).
  std::uint64_t wake_stamp_ns_ PSMR_GUARDED_BY(mu_) = 0;
  // Set once before sharing (see instrument()).
  Counter* blocks_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
  Counter* blocked_ns_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
  Counter* wakes_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
  Counter* wake_ns_metric_ = nullptr;  // NOLINT(psmr-guarded-by-coverage) set once via instrument() before sharing
};

}  // namespace psmr
