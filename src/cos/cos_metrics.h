// Shared metric bundle for every COS variant.
//
// All variants funnel into the same process-wide counters ("cos.*"): the
// deployment runs one COS per replica but a single variant per process, so
// per-variant splits would only dilute the numbers the paper's figures
// need. Two gauges the paper cares about are derived at read time instead
// of being maintained with extra hot-path atomics:
//   window occupancy  = cos.inserts   - cos.removes
//   ready-set depth   = cos.ready_enq - cos.gets
// cos.get_block_ns splits into wake latency (cos.get_wake_ns: from the
// release that found the parked worker to its return) and the rest, the time
// with no ready command at all (Semaphore-based variants only).
#pragma once

#include "common/metrics.h"

namespace psmr {

struct CosMetrics {
  Counter& inserts;          // commands inserted into the window
  Counter& removes;          // commands removed after execution
  Counter& gets;             // commands handed to workers
  Counter& ready_enq;        // commands that became dependency-free
  Counter& insert_blocks;    // scheduler parked on a full window
  Counter& insert_block_ns;  // total ns parked on a full window
  Counter& get_blocks;       // worker parked on an empty ready set
  Counter& get_block_ns;     // total ns parked on an empty ready set
  Counter& get_wakes;        // parked gets woken with a ready command
  Counter& get_wake_ns;      // total ns from the waking release to return
};

inline CosMetrics& cos_metrics() {
  static CosMetrics m{
      MetricsRegistry::global().counter("cos.inserts"),
      MetricsRegistry::global().counter("cos.removes"),
      MetricsRegistry::global().counter("cos.gets"),
      MetricsRegistry::global().counter("cos.ready_enq"),
      MetricsRegistry::global().counter("cos.insert_blocks"),
      MetricsRegistry::global().counter("cos.insert_block_ns"),
      MetricsRegistry::global().counter("cos.get_blocks"),
      MetricsRegistry::global().counter("cos.get_block_ns"),
      MetricsRegistry::global().counter("cos.get_wakes"),
      MetricsRegistry::global().counter("cos.get_wake_ns"),
  };
  return m;
}

}  // namespace psmr
