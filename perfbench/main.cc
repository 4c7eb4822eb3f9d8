// End-to-end P-SMR benchmark: runs the in-process SMR stack
// (smr/deployment) with closed-loop clients on one workload and prints every
// metric by name with its unit. See README.md for the workloads, metrics
// and checks.
//
//   psmr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out FILE]
//
// The last line of standard output is the result object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The line before it records the host, the seed and the checks.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "net/sim_network.h"
#include "seams.h"
#include "smr/deployment.h"
#include "spans.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using psmr::now_ns;

// Fixed by the benchmark for every workload: 4 closed-loop clients, the
// lock-free DAG, the ordering settings of workload/smr_driver.cc and a
// 30 us +- 20 us one-way delay.
constexpr int kClients = 4;
constexpr std::size_t kBatchMax = 64;
constexpr std::uint64_t kBatchTimeoutUs = 200;
constexpr std::uint64_t kTickMs = 1;
constexpr std::uint64_t kNetLatencyUs = 30;
constexpr std::uint64_t kNetJitterUs = 20;
constexpr std::size_t kKvShards = 64;
constexpr std::uint64_t kKvKeys = 100'000;
constexpr double kZipfTheta = 0.99;
// setup_s is the median of this many deployments; the last one is measured.
constexpr int kSetups = 9;
constexpr double kWarmupS = 1.0;
constexpr std::size_t kTraceLinesKept = 2000;

struct Workload {
  const char* name;
  bool kv;  // KvService, else LinkedListService
  int replicas;
  int workers;
  int pipeline;
  std::size_t list_size;
  double write_pct;
};

constexpr Workload kWorkloads[] = {
    {"list-heavy-read", false, 1, 4, 16, 100'000, 0.0},
    // Pipeline 16, not 8: with 32 commands in flight the host's CPUs idle
    // enough that the 1-ms broadcast tick fires every ~1.6 ms in some runs
    // and every ~1.1 ms in others (README.md); 64 keep the period steady.
    {"list-light-mixed", false, 1, 4, 16, 1'000, 10.0},
    {"kv-zipf-3rep", true, 3, 2, 16, 0, 50.0},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psmr_perfbench: %s\nusage: psmr_perfbench --workload "
               "list-heavy-read|list-light-mixed|kv-zipf-3rep --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) usage("--workload is required");
  return args;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

ReplyCheck reply_check(const Workload& w) {
  if (w.kv) {
    // A put always succeeds; a get's answer depends on the order.
    return [](std::uint16_t op, const psmr::ReplyMsg& r) {
      return op != psmr::KvService::kPut || r.ok;
    };
  }
  // Values are drawn below the initial size, so every value is present:
  // contains() answers true and add() is a no-op.
  return [](std::uint16_t op, const psmr::ReplyMsg& r) {
    return op == psmr::LinkedListService::kContains ? r.ok : !r.ok;
  };
}

// Sequential replay of the committed ACCEPT batches on a fresh KvService,
// with the replica's at-most-once filter.
struct Shadow {
  psmr::KvService kv{kKvShards};
  std::unordered_map<std::uint64_t, std::uint64_t> max_seq;

  void apply(const psmr::AcceptMsg& accept) {
    for (const Command& c : accept.batch) {
      std::uint64_t& seen = max_seq[c.client];
      if (c.client != 0 && c.client_seq <= seen) continue;
      seen = c.client_seq;
      kv.execute(c);
    }
  }
};

// Inputs shared by every deployment of a run.
struct Inputs {
  const Workload& workload;
  std::uint64_t seed;
  psmr::KvService kv_builder{kKvShards};
  std::unique_ptr<psmr::ZipfGenerator> zipf;
};

// One deployment with its probe. The deployment is declared last, so it is
// destroyed first, while the probe its decorators use is still alive.
struct Rig {
  std::unique_ptr<Probe> probe;
  std::unique_ptr<Ledger> ledger;
  std::vector<std::unique_ptr<psmr::Xoshiro256>> rngs;
  std::unique_ptr<psmr::Deployment> deployment;
};

std::unique_ptr<Rig> make_rig(Inputs& in) {
  const Workload& w = in.workload;
  auto rig = std::make_unique<Rig>();
  rig->probe = std::make_unique<Probe>(w.replicas, reply_check(w));
  Probe& probe = *rig->probe;
  if (w.replicas > 1) {
    rig->ledger = std::make_unique<Ledger>();
    probe.ledger = rig->ledger.get();
  }

  psmr::Deployment::Config config;
  config.replicas = w.replicas;
  config.replica.workers = w.workers;
  config.replica.cos.kind = psmr::CosKind::kLockFree;
  config.replica.broadcast.batch_max = kBatchMax;
  config.replica.broadcast.batch_timeout_us = kBatchTimeoutUs;
  config.replica.broadcast.tick_interval_ms = kTickMs;
  config.net.base_latency_us = kNetLatencyUs;
  config.net.jitter_us = kNetJitterUs;
  config.net.seed = in.seed;
  config.transport_factory = [&probe, net = config.net] {
    return std::make_unique<TimingTransport>(std::make_unique<psmr::SimNetwork>(net),
                                             probe);
  };
  int next_replica = 0;
  rig->deployment = std::make_unique<psmr::Deployment>(config, [&] {
    std::unique_ptr<psmr::Service> service;
    if (w.kv) {
      service = std::make_unique<psmr::KvService>(kKvShards);
    } else {
      service = std::make_unique<psmr::LinkedListService>(w.list_size);
    }
    return std::make_unique<TimingService>(std::move(service), next_replica++, probe);
  });

  for (int c = 0; c < kClients; ++c) {
    rig->rngs.push_back(std::make_unique<psmr::Xoshiro256>(
        in.seed * 1000 + static_cast<std::uint64_t>(c)));
    psmr::Xoshiro256* rng = rig->rngs.back().get();
    psmr::SmrClient::Config client;
    client.pipeline = w.pipeline;
    std::function<Command()> next;
    if (w.kv) {
      next = [rng, zipf = in.zipf.get(), kv = &in.kv_builder, write = w.write_pct] {
        const std::uint64_t key = (*zipf)(*rng);
        return rng->uniform() * 100.0 < write ? kv->make_put(key, (*rng)())
                                              : kv->make_get(key);
      };
    } else {
      next = [rng, size = w.list_size, write = w.write_pct] {
        const std::uint64_t v = rng->below(size);
        return rng->uniform() * 100.0 < write ? psmr::LinkedListService::make_add(v)
                                              : psmr::LinkedListService::make_contains(v);
      };
    }
    rig->deployment->add_client(client, std::move(next));
  }
  return rig;
}

// Starts the rig and waits for its first reply.
bool start_rig(Rig& rig) {
  rig.deployment->start();
  const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  while (!rig.probe->first_reply.load()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

// A point of the measurement window's one-second slices.
struct Tick {
  std::uint64_t t_ns;
  std::uint64_t completed;
  double cpu_s;
};

constexpr std::uint64_t kSliceNs = 1'000'000'000;

// Sleeps for `seconds` while feeding committed batches to the shadow. With
// `ticks`, also records a Tick at the start, every kSliceNs and at the end.
void pump(Rig& rig, Shadow& shadow, double seconds, std::vector<Tick>* ticks = nullptr) {
  const Counter& completed = psmr::MetricsRegistry::global().counter("client.completed");
  auto tick = [&] {
    if (ticks) ticks->push_back({now_ns(), completed.value(), cpu_seconds()});
  };
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t next_tick = start + kSliceNs;
  tick();
  while (true) {
    if (rig.ledger) rig.ledger->drain([&](const psmr::AcceptMsg& a) { shadow.apply(a); });
    const std::uint64_t now = now_ns();
    if (now >= deadline) break;
    if (now >= next_tick) {
      // A slice shorter than half a second folds into the last one.
      if (deadline - now > kSliceNs / 2) tick();
      next_tick += kSliceNs;
    }
    const std::uint64_t wake = std::min({deadline, next_tick, now + 20'000'000});
    std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
  }
  tick();
}

struct Snap {
  std::uint64_t t_ns = 0;
  double cpu_s = 0.0;
  psmr::MetricsSnapshot reg;
  std::unordered_map<std::string, std::uint64_t> probe;
};

Snap take(Probe& p) {
  Snap s;
  s.t_ns = now_ns();
  s.cpu_s = cpu_seconds();
  s.reg = psmr::MetricsRegistry::global().snapshot();
  const std::pair<const char*, const Counter*> counters[] = {
      {"sends", &p.sends},
      {"request_msgs", &p.request_msgs},
      {"reply_msgs", &p.reply_msgs},
      {"commit_msgs", &p.commit_msgs},
      {"send_ns", &p.send_ns},
      {"replica_handler_ns", &p.replica_handler_ns},
      {"request_handler_ns", &p.request_handler_ns},
      {"requests_handled", &p.requests_handled},
      {"client_handler_ns", &p.client_handler_ns},
      {"replies_handled", &p.replies_handled},
      {"executes", &p.executes},
      {"execute_ns", &p.execute_ns},
  };
  for (const auto& [name, counter] : counters) s.probe[name] = counter->value();
  return s;
}

// Deltas between two snapshots.
struct Window {
  const Snap& a;
  const Snap& b;
  double seconds() const { return static_cast<double>(b.t_ns - a.t_ns) * 1e-9; }
  double reg(const char* name) const {
    return static_cast<double>(b.reg.counter(name) - a.reg.counter(name));
  }
  double probe(const char* name) const {
    return static_cast<double>(b.probe.at(name) - a.probe.at(name));
  }
  double completed() const { return reg("client.completed"); }
  double kops() const { return ratio(completed(), seconds()) / 1000.0; }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    results_.emplace_back(what, ok);
    if (!ok) std::fprintf(stderr, "psmr_perfbench: check failed: %s\n", what.c_str());
  }
  bool all() const {
    return std::all_of(results_.begin(), results_.end(),
                       [](const auto& r) { return r.second; });
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [what, ok] : results_) {
      if (out.size() > 1) out += ',';
      out += json_string(what);
      out += ok ? ":true" : ":false";
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  Inputs in{w, args.seed, psmr::KvService(kKvShards), nullptr};
  if (w.kv) in.zipf = std::make_unique<psmr::ZipfGenerator>(kKvKeys, kZipfTheta);
  const std::uint64_t expected_list_digest =
      w.kv ? 0 : psmr::LinkedListService(w.list_size).state_digest();
  Checks checks;

  // Set-up: construction to first reply, several times; the last
  // deployment stays up and is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  psmr::MetricsSnapshot before;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();
    if (i == kSetups - 1) before = psmr::MetricsRegistry::global().snapshot();
    const std::uint64_t t0 = now_ns();
    rig = make_rig(in);
    if (!start_rig(*rig)) {
      std::fprintf(stderr, "psmr_perfbench: no reply within 10 s of start\n");
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Probe& probe = *rig->probe;
  Shadow shadow;
  pump(*rig, shadow, kWarmupS);

  // Untraced window; the traced run measures half its time untraced and
  // half traced, and the difference is the tracing overhead.
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  probe.window = 1;
  const Snap a0 = take(probe);
  std::vector<Tick> ticks;
  pump(*rig, shadow, untraced_s, &ticks);
  const Snap a1 = take(probe);
  Snap b0, b1;
  if (args.trace) {
    probe.tracing = true;
    probe.window = 2;
    b0 = take(probe);
    pump(*rig, shadow, args.seconds - untraced_s);
    b1 = take(probe);
    probe.tracing = false;
  }
  probe.window = 0;

  // Drain, then wait until every replica executed every completed command
  // and the states agree.
  bool drained = true;
  for (psmr::SmrClient* client : rig->deployment->clients()) {
    drained = client->drain(5000) && drained;
  }
  checks.expect(drained, "clients drained");
  Probe::Totals totals = probe.totals();
  const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  bool quiet = false;
  while (now_ns() < deadline) {
    pump(*rig, shadow, 0.0);
    totals = probe.totals();
    quiet = probe.executes.value() == totals.completed * static_cast<std::uint64_t>(w.replicas) &&
            rig->deployment->states_converged();
    if (quiet) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pump(*rig, shadow, 0.0);
  const psmr::MetricsSnapshot after = psmr::MetricsRegistry::global().snapshot();
  auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };

  // Output checks.
  checks.expect(totals.wrong == 0, "every reply is correct");
  const std::uint64_t expected_digest = w.kv ? shadow.kv.state_digest() : expected_list_digest;
  for (int r = 0; r < w.replicas; ++r) {
    checks.expect(rig->deployment->replica(r).state_digest() == expected_digest,
                  "replica " + std::to_string(r) +
                      (w.kv ? " digest equals the sequential replay"
                            : " digest equals the initial list"));
  }
  if (rig->ledger) {
    checks.expect(rig->ledger->complete() && rig->ledger->accepted() > 0,
                  "every accepted batch committed and replayed");
  }
  // Self-checks: the decorators saw every call.
  const std::uint64_t replicas = static_cast<std::uint64_t>(w.replicas);
  checks.expect(quiet && probe.executes.value() == totals.completed * replicas,
                "app.executes == completed x replicas");
  checks.expect(probe.request_msgs.value() ==
                    (totals.issued + delta("client.resends")) * replicas,
                "net.request_msgs == (issued + resends) x replicas");
  checks.expect(totals.completed == delta("client.completed"),
                "decorator completed == registry client.completed");
  checks.expect(totals.issued == delta("client.issued"),
                "decorator issued == registry client.issued");
  checks.expect(delta("broadcast.view_changes") == 0, "no view changes");
  checks.expect(delta("net.sim.dropped") == 0, "no dropped messages");

  const Outcome outcome{totals.issued, totals.completed, totals.wrong};
  std::vector<Metric> metrics;
  std::uint64_t latency_samples = 0;
  std::string slices;  // per-slice throughput, for the record
  if (!args.trace) {
    // Rates are medians over the window's slices, so a short disturbance
    // of the host moves one slice rather than the whole run.
    std::vector<double> slice_kops, slice_cpu_us;
    for (std::size_t i = 1; i < ticks.size(); ++i) {
      const double n = static_cast<double>(ticks[i].completed - ticks[i - 1].completed);
      const double dt = static_cast<double>(ticks[i].t_ns - ticks[i - 1].t_ns) * 1e-9;
      slice_kops.push_back(ratio(n, dt) / 1000.0);
      slice_cpu_us.push_back(ratio((ticks[i].cpu_s - ticks[i - 1].cpu_s) * 1e6, n));
      if (i > 1) slices += ',';
      slices += json_number(slice_kops.back());
    }
    const LatencyHistogram lat = probe.latencies(1);
    const Percentile p50 = lat.percentile(50), p90 = lat.percentile(90);
    latency_samples = p50.samples;
    metrics = {
        {"throughput_kops", median(slice_kops), "kops/s"},
        {"latency_p50_ms", p50.value * 1e-6, "ms"},
        {"latency_p90_ms", p90.value * 1e-6, "ms"},
        {"cpu_us_per_cmd", median(slice_cpu_us), "us"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"success_ratio", 1.0 - outcome.failed_ratio(), "ratio"},
    };
  } else {
    const Window untraced{a0, a1};
    const Window win{b0, b1};
    rig->deployment->stop();  // joins every recording thread
    const SpanReport spans =
        build_spans(Tracer::global().collect(), w.replicas, kTraceLinesKept);
    auto span_p50_us = [&](const std::string& name) {
      const auto& names = span_names();
      const auto i = static_cast<std::size_t>(
          std::find(names.begin(), names.end(), name) - names.begin());
      return percentile(spans.durations[i], 50).value * 1e-3;
    };
    const LatencyHistogram lat = probe.latencies(2);
    latency_samples = lat.count();
    double population = 0.0;
    for (int r = 0; r < w.replicas; ++r) {
      population += rig->deployment->replica(r).mean_graph_population();
    }
    std::vector<std::uint64_t> net_waits = spans.durations[1];
    net_waits.insert(net_waits.end(), spans.durations[8].begin(), spans.durations[8].end());
    const double cmds = win.completed();
    const double dt = win.seconds();
    const double proposals = win.reg("broadcast.proposals");
    metrics = {
        {"app.execute_us", ratio(win.probe("execute_ns"), win.probe("executes")) * 1e-3, "us"},
        {"app.busy_cores", win.probe("execute_ns") * 1e-9 / dt, "cores"},
        {"app.executes_per_cmd", ratio(win.probe("executes"), cmds), "count"},
        {"cos.get_block_ratio", ratio(win.reg("cos.get_blocks"), win.reg("cos.gets")), "ratio"},
        {"cos.get_block_us",
         ratio(win.reg("cos.get_block_ns"), win.reg("cos.get_blocks")) * 1e-3, "us"},
        {"cos.insert_blocks", win.reg("cos.insert_blocks"), "count"},
        {"worker.stall_frac",
         ratio(win.reg("worker.stall_ns"),
               win.reg("worker.stall_ns") + win.reg("worker.exec_ns")),
         "ratio"},
        {"worker.busy_cores", win.reg("worker.exec_ns") * 1e-9 / dt, "cores"},
        {"replica.graph_population", population / w.replicas, "count"},
        {"replica.on_request_us",
         ratio(win.probe("request_handler_ns"), win.probe("requests_handled")) * 1e-3, "us"},
        {"replica.request_handler_busy",
         win.probe("replica_handler_ns") * 1e-9 / (dt * w.replicas), "ratio"},
        {"replica.schedule_us_p50", span_p50_us("replica.schedule"), "us"},
        {"replica.reply_us_p50", span_p50_us("replica.reply"), "us"},
        {"replica.dedup_hits", win.reg("scheduler.dedup_hits"), "count"},
        {"broadcast.cmds_per_batch",
         ratio(win.reg("broadcast.delivered_commands"), win.reg("broadcast.delivered_batches")),
         "count"},
        {"broadcast.batches_per_s", proposals / dt, "1/s"},
        {"broadcast.order_us_p50", span_p50_us("broadcast.order"), "us"},
        {"broadcast.commit_us_p50", span_p50_us("broadcast.commit"), "us"},
        {"broadcast.commit_msgs_per_batch", ratio(win.probe("commit_msgs"), proposals), "count"},
        {"broadcast.heartbeats_per_batch", ratio(win.reg("broadcast.heartbeats"), proposals),
         "count"},
        {"broadcast.view_changes", static_cast<double>(delta("broadcast.view_changes")), "count"},
        {"net.msgs_per_cmd", ratio(win.probe("sends"), cmds), "count"},
        {"net.request_msgs_per_cmd", ratio(win.probe("request_msgs"), cmds), "count"},
        {"net.reply_msgs_per_cmd", ratio(win.probe("reply_msgs"), cmds), "count"},
        {"net.send_us", ratio(win.probe("send_ns"), win.probe("sends")) * 1e-3, "us"},
        {"net.wait_us_p50", percentile(net_waits, 50).value * 1e-3, "us"},
        {"net.dropped", static_cast<double>(delta("net.sim.dropped")), "count"},
        {"client.reply_handler_us",
         ratio(win.probe("client_handler_ns"), win.probe("replies_handled")) * 1e-3, "us"},
        {"client.busy_cores", win.probe("client_handler_ns") * 1e-9 / dt, "cores"},
        {"client.latency_p99_ms", lat.percentile(99).value * 1e-6, "ms"},
        {"client.latency_samples", static_cast<double>(latency_samples), "count"},
        {"client.resends_per_kcmd", ratio(win.reg("client.resends") * 1000.0, cmds), "count"},
        {"client.duplicate_replies_per_cmd", ratio(win.reg("client.duplicate_replies"), cmds),
         "count"},
        {"trace.overhead_pct", (ratio(untraced.kops(), win.kops()) - 1.0) * 100.0, "%"},
        {"trace.commands", static_cast<double>(spans.commands), "count"},
        {"trace.child_coverage", spans.child_coverage, "ratio"},
        {"failed_ratio", outcome.failed_ratio(), "ratio"},
    };
    for (std::size_t i = 0; i < span_names().size(); ++i) {
      const std::string& name = span_names()[i];
      std::uint64_t self_sum = 0;
      for (std::uint64_t s : spans.self[i]) self_sum += s;
      metrics.push_back({"span." + name + ".p50_us",
                         percentile(spans.durations[i], 50).value * 1e-3, "us"});
      metrics.push_back({"span." + name + ".self_us",
                         ratio(static_cast<double>(self_sum),
                               static_cast<double>(spans.self[i].size())) * 1e-3,
                         "us"});
    }
    checks.expect(spans.commands > 0, "trace has complete command paths");
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      for (const std::string& line : spans.lines) out << line << '\n';
    }
  }
  rig.reset();

  std::printf("# perfbench {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
              "\"host\":{\"nproc\":%u,\"cpu\":%s,\"compiler\":%s,\"build_type\":%s},"
              "\"latency_samples\":%llu,\"slice_kops\":[%s],\"checks\":%s}\n",
              json_string(w.name).c_str(), static_cast<unsigned long long>(args.seed),
              json_number(args.seconds).c_str(), args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
              json_string(
#if defined(__clang__)
                  std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
                  std::string("gcc ") + __VERSION__
#else
                  "unknown"
#endif
                  ).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              static_cast<unsigned long long>(latency_samples), slices.c_str(),
              checks.json().c_str());
  std::string line = "{\"correct\":" + std::string(checks.all() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(std::max<std::uint64_t>(1, outcome.issued)) +
                     ",\"failed\":" + std::to_string(outcome.failed()) + ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ',';
    line += json_string(metrics[i].name) + ":{\"value\":" + json_number(metrics[i].value) +
            ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
