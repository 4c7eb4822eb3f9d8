// Arithmetic of the end-to-end benchmark: percentiles that carry their
// sample count, span self time, and failure accounting. Kept free of any
// psmr dependency so arith_test.cc can pin it down in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace perfbench {

// Nearest-rank percentile over a sample (p in (0, 100]). A percentile is
// only as good as the samples behind it, so the count travels with it.
struct Percentile {
  double value = 0.0;
  std::uint64_t samples = 0;
};

inline Percentile percentile(std::vector<std::uint64_t> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  out.value = static_cast<double>(values[index]);
  return out;
}

// Latency histogram with 1 us buckets up to 200 ms plus an overflow count.
// Its memory is fixed whatever the sample count (pages are touched only
// where latencies land), so recording latencies does not move the peak RSS
// the benchmark reports.
class LatencyHistogram {
 public:
  static constexpr std::uint64_t kBucketNs = 1000;
  static constexpr std::size_t kBuckets = 200'000;

  LatencyHistogram() {
    if (!counts_) throw std::bad_alloc();
  }

  void record(std::uint64_t ns) {
    const std::uint64_t i = ns / kBucketNs;
    if (i >= kBuckets) {
      ++overflow_;
      overflow_max_ = std::max(overflow_max_, ns);
      return;
    }
    ++counts_[i];
    lo_ = std::min<std::size_t>(lo_, i);
    hi_ = std::max<std::size_t>(hi_, i + 1);
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = other.lo_; i < other.hi_; ++i) {
      if (other.counts_[i] != 0) {
        counts_[i] += other.counts_[i];
        lo_ = std::min(lo_, i);
        hi_ = std::max(hi_, i + 1);
      }
    }
    overflow_ += other.overflow_;
    overflow_max_ = std::max(overflow_max_, other.overflow_max_);
  }

  std::uint64_t count() const {
    std::uint64_t n = overflow_;
    for (std::size_t i = lo_; i < hi_; ++i) n += counts_[i];
    return n;
  }

  // Nearest-rank percentile in ns, read as the middle of its bucket; a rank
  // in the overflow reads as the largest overflowing sample.
  Percentile percentile(double p) const {
    Percentile out;
    out.samples = count();
    if (out.samples == 0) return out;
    const double rank = std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(out.samples)));
    std::uint64_t seen = 0;
    for (std::size_t i = lo_; i < hi_; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= rank) {
        out.value = (static_cast<double>(i) + 0.5) * static_cast<double>(kBucketNs);
        return out;
      }
    }
    out.value = static_cast<double>(overflow_max_);
    return out;
  }

 private:
  struct Free {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };
  // calloc: zero pages the kernel maps only when a bucket is first written.
  std::unique_ptr<std::uint32_t[], Free> counts_{
      static_cast<std::uint32_t*>(std::calloc(kBuckets, sizeof(std::uint32_t)))};
  std::size_t lo_ = kBuckets, hi_ = 0;  // touched bucket range
  std::uint64_t overflow_ = 0;
  std::uint64_t overflow_max_ = 0;
};

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // end < begin is treated as empty
};

// Self time of a span: its duration minus the part of it that the union of
// its children covers. Children may overlap each other or stick out of the
// parent; only their union clipped to the parent counts.
inline std::uint64_t self_time(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.begin) return 0;
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.begin;  // everything before is accounted for
  for (const Interval& c : children) {
    const std::uint64_t b = std::max(c.begin, cursor);
    const std::uint64_t e = std::min(c.end, parent.end);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return (parent.end - parent.begin) - covered;
}

// Outcome of one deployment's commands. A command fails when it was issued
// but never answered after the drain, or when its answer was wrong.
struct Outcome {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t wrong = 0;  // completed, but with a wrong reply

  std::uint64_t failed() const {
    const std::uint64_t unanswered = issued > completed ? issued - completed : 0;
    return unanswered + std::min(wrong, completed);
  }
  double failed_ratio() const {
    return issued == 0 ? 1.0
                       : static_cast<double>(failed()) / static_cast<double>(issued);
  }
};

}  // namespace perfbench
