#include "spans.h"

#include <array>
#include <limits>
#include <unordered_map>

#include "stats.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kUnset = std::numeric_limits<std::uint64_t>::max();
constexpr int kMaxReplicas = Probe::kMaxEndpoints;

enum SpanIndex {
  kRoot, kNetRequest, kOnRequest, kOrder, kCommit, kSchedule,
  kExecute, kReply, kNetReply, kOnReply, kSpanCount
};

struct Path {
  std::uint64_t client = 0, seq = 0;
  std::uint64_t req_send = kUnset, handled0 = kUnset, handled1 = kUnset;
  std::uint64_t accept = kUnset, bseq = 0;
  std::array<Interval, kMaxReplicas> exec{};
  std::array<std::uint64_t, kMaxReplicas> reply_send{};
  int replier = -1;
  std::uint64_t reply0 = 0, reply1 = 0;
};

std::uint64_t key_of(std::uint64_t client, std::uint64_t seq) {
  return client << 48 | seq;
}

}  // namespace

SpanReport build_spans(const std::vector<Event>& events, int replicas,
                       std::size_t keep) {
  std::unordered_map<std::uint64_t, Path> paths;
  std::unordered_map<std::uint64_t, std::uint64_t> commits;  // bseq -> first send
  for (const Event& e : events) {
    if (e.kind == Event::kCommit) {
      auto [it, fresh] = commits.try_emplace(e.bseq, e.t0);
      if (!fresh) it->second = std::min(it->second, e.t0);
      continue;
    }
    Path& p = paths[key_of(e.client, e.seq)];
    p.client = e.client;
    p.seq = e.seq;
    switch (e.kind) {
      case Event::kReqSend:
        p.req_send = e.t0;
        break;
      case Event::kReqHandled:
        p.handled0 = e.t0;
        p.handled1 = e.t1;
        break;
      case Event::kAccept:
        if (e.t0 < p.accept) {
          p.accept = e.t0;
          p.bseq = e.bseq;
        }
        break;
      case Event::kExec:
        if (e.node >= 0 && e.node < kMaxReplicas) p.exec[e.node] = {e.t0, e.t1};
        break;
      case Event::kReplySend:
        if (e.node >= 0 && e.node < kMaxReplicas) p.reply_send[e.node] = e.t0;
        break;
      case Event::kReplyHandled:
        p.replier = e.node;
        p.reply0 = e.t0;
        p.reply1 = e.t1;
        break;
      case Event::kCommit:
        break;
    }
  }

  SpanReport report;
  report.durations.resize(kSpanCount);
  report.self.resize(kSpanCount);
  std::uint64_t root_total = 0, root_self_total = 0;
  for (const auto& [key, p] : paths) {
    if (p.req_send == kUnset || p.handled0 == kUnset || p.replier < 0 ||
        p.replier >= kMaxReplicas || p.exec[p.replier].begin == 0 ||
        p.reply_send[p.replier] == 0) {
      continue;  // traced window cut the path, or the leader never saw it
    }
    std::uint64_t commit = 0;
    if (replicas > 1) {
      auto it = commits.find(p.bseq);
      if (p.accept == kUnset || it == commits.end()) continue;
      commit = it->second;
    }
    const Interval exec = p.exec[p.replier];
    std::array<Interval, kSpanCount> span{};
    std::array<bool, kSpanCount> present{};
    auto set = [&](int i, std::uint64_t b, std::uint64_t e) {
      span[i] = {b, e};
      present[i] = true;
    };
    set(kRoot, p.req_send, p.reply0);
    set(kNetRequest, p.req_send, p.handled0);
    set(kOnRequest, p.handled0, p.handled1);
    if (replicas > 1) {
      set(kOrder, p.handled1, p.accept);
      set(kCommit, p.accept, commit);
      set(kSchedule, commit, exec.begin);
    } else {
      // No ACCEPT on one replica: ordering runs straight into execution and
      // the two cannot be told apart at the program's public seams.
      set(kOrder, p.handled1, exec.begin);
    }
    set(kExecute, exec.begin, exec.end);
    set(kReply, exec.end, p.reply_send[p.replier]);
    set(kNetReply, p.reply_send[p.replier], p.reply0);
    set(kOnReply, p.reply0, p.reply1);

    std::vector<Interval> children;
    for (int i = kNetRequest; i <= kNetReply; ++i) {
      if (present[i]) children.push_back(span[i]);
    }
    const std::uint64_t root_self = self_time(span[kRoot], children);
    for (int i = 0; i < kSpanCount; ++i) {
      if (!present[i]) continue;
      const std::uint64_t d = span[i].end > span[i].begin ? span[i].end - span[i].begin : 0;
      report.durations[i].push_back(d);
      report.self[i].push_back(i == kRoot ? root_self : d);
    }
    root_total += report.durations[kRoot].back();
    root_self_total += root_self;
    ++report.commands;

    if (report.lines.size() < keep) {
      std::string line = "{\"client\":" + std::to_string(p.client) +
                         ",\"client_seq\":" + std::to_string(p.seq) +
                         ",\"replier\":" + std::to_string(p.replier) + ",\"spans\":[";
      bool first = true;
      for (int i = 0; i < kSpanCount; ++i) {
        if (!present[i]) continue;
        line += first ? "" : ",";
        first = false;
        line += "{\"name\":\"" + span_names()[static_cast<std::size_t>(i)] +
                "\",\"parent\":\"" + (i == kRoot || i == kOnReply ? "" : "client.request") +
                "\",\"start_ns\":" + std::to_string(span[i].begin) +
                ",\"end_ns\":" + std::to_string(span[i].end) + "}";
      }
      report.lines.push_back(line + "]}");
    }
  }
  report.child_coverage =
      root_total == 0 ? 0.0
                      : 1.0 - static_cast<double>(root_self_total) /
                                  static_cast<double>(root_total);
  return report;
}

}  // namespace perfbench
