// Turns the trace events of one run into spans along each traced command's
// blocking path (see README.md for the span tree).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seams.h"

namespace perfbench {

// Children of client.request in blocking-path order, then the separate
// client.on_reply span.
inline const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "client.request",   "net.request",    "replica.on_request",
      "broadcast.order",  "broadcast.commit", "replica.schedule",
      "app.execute",      "replica.reply",  "net.reply",
      "client.on_reply"};
  return names;
}

struct SpanReport {
  // Per span name (index into span_names()): durations and self times in
  // ns, one entry per traced command that has the span.
  std::vector<std::vector<std::uint64_t>> durations;
  std::vector<std::vector<std::uint64_t>> self;
  std::uint64_t commands = 0;  // traced commands with a complete path
  // Share of client.request time covered by its children, summed over
  // every traced command.
  double child_coverage = 0.0;
  // One JSON line per traced command (the first `keep`), for the trace file.
  std::vector<std::string> lines;
};

SpanReport build_spans(const std::vector<Event>& events, int replicas,
                       std::size_t keep);

}  // namespace perfbench
