// Service phase: an in-process mmjoind (svc::Server on its unix socket)
// holding three resident relations — a small uniform class that fits in
// the last-level cache and a medium and a large class with the workload's
// skew — under an open-loop load at a fixed absolute arrival rate. Requests cycle the six
// drivers, "auto" and run_plan across the classes and all three
// priorities; each is timed from its due time, so a stall also delays the
// requests behind it.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "mmap/mm_relation.h"
#include "oracle.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"

namespace perfbench {
namespace {

namespace svc = mmjoin::svc;
namespace mm = mmjoin::mm;
using mmjoin::join::Algorithm;

// The size classes of the repository's own service load test
// (bench/service_load at its defaults): large = 65536 R objects, medium =
// 1/2, small = 1/8, every S side twice its R side; small uniform, the other
// two with the workload's S-pointer skew (service_load's Zipf 1.1 on the
// zipf workload).
struct SizeClass {
  const char* name;
  uint64_t r_objects;
  bool skewed;
};
constexpr SizeClass kClasses[] = {
    {"small", 8192, false},   // R 1 MiB + S 2 MiB: inside the LLC
    {"medium", 32768, true},  // R 4 MiB + S 8 MiB
    {"large", 65536, true},   // R 8 MiB + S 16 MiB
};
constexpr uint32_t kPartitions = 8;
constexpr uint64_t kSelfTestDivisor = 8;
constexpr Algorithm kDrivers[] = {
    Algorithm::kNestedLoops, Algorithm::kSortMerge, Algorithm::kMpsm,
    Algorithm::kGrace,       Algorithm::kHybridHash,
    Algorithm::kIndexNestedLoops,
};
// Class of each block of eight requests. service_load mixes the classes
// evenly; here five in six requests are small (the cheap interactive
// query), so that the small class alone has over 1000 samples and ten
// beyond its p99 in a 1200-request run.
constexpr int kClassPattern[] = {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2};
constexpr uint64_t kBlocks = std::size(kClassPattern);
constexpr int kKinds = 8;  // six drivers, auto, run_plan
constexpr uint64_t kCycle = kKinds * kBlocks * 3;  // x priorities
// At least 1000 samples, so >= 10 lie beyond the p99.
constexpr uint64_t kMinQueries = 1200;
constexpr int kClients = 4;

struct Sample {
  int cls = 0;
  bool ok = false;
  bool matches = false;
  double latency_ms = 0;  // due time -> reply
  double late_ms = 0;     // due time -> send
  double queue_ms = 0;    // server-reported admission wait
  double exec_ms = 0;     // server-reported execution
  double done_ms = 0;     // reply, from the start of the load
};

int ClassOf(uint64_t i) { return kClassPattern[(i / kKinds) % kBlocks]; }

svc::Request RequestFor(uint64_t i) {
  svc::Request req;
  const int kind = static_cast<int>(i % kKinds);
  req.name = kClasses[ClassOf(i)].name;
  req.priority =
      static_cast<mmjoin::exec::QueryPriority>((i / (kKinds * kBlocks)) % 3);
  if (kind < 6) {
    req.op = svc::RequestOp::kQuery;
    req.algorithm = kDrivers[kind];
  } else if (kind == 6) {
    req.op = svc::RequestOp::kQuery;
    req.algorithm_auto = true;
  } else {
    req.op = svc::RequestOp::kRunPlan;
    // Each block gets every plan once per cycle, at a different priority.
    req.plan = mmjoin::exec::op::kPlanNames[((i / kKinds) % kBlocks +
                                             i / (kKinds * kBlocks)) % 3];
  }
  return req;
}

struct Expected {
  uint64_t objects = 0;
  JoinExpectation join;
  std::map<std::string, PlanExpectation> plans;
};

bool ResponseMatches(const svc::Request& req, const svc::Response& resp,
                     const Expected& want) {
  if (req.op == svc::RequestOp::kQuery) {
    return resp.op == svc::ResponseOp::kResult &&
           resp.count == want.join.count &&
           resp.checksum == want.join.checksum && resp.count == want.objects;
  }
  if (resp.op != svc::ResponseOp::kPlanResult) return false;
  mmjoin::exec::op::PlanRunResult got;
  got.rows_scanned = resp.rows_scanned;
  got.rows_filtered = resp.rows_filtered;
  got.rows_joined = resp.rows_joined;
  got.output_rows = resp.count;
  got.checksum = resp.checksum;
  for (const svc::PlanGroupEntry& g : resp.groups) {
    got.groups.push_back({g.key, g.aggs});
  }
  return PlanMatches(want.plans.at(req.plan), got);
}

}  // namespace

void RunServicePhase(const RunConfig& cfg, double seconds, Report* report,
                     SpanLog* spans) {
  const uint64_t divisor = cfg.self_test ? kSelfTestDivisor : 1;
  auto config_for = [&](size_t c) {
    mmjoin::rel::RelationConfig rc;
    rc.r_objects = kClasses[c].r_objects / divisor;
    rc.s_objects = 2 * rc.r_objects;
    rc.num_partitions = kPartitions;
    rc.zipf_theta = kClasses[c].skewed ? cfg.zipf_theta : 0.0;
    rc.seed = cfg.seed * 3 + c;
    return rc;
  };

  // The expected results, from a local build of the same relations (the
  // same BuildMmWorkload call the server's register makes).
  std::vector<Expected> want(std::size(kClasses));
  {
    std::filesystem::create_directories(cfg.work_dir + "/local");
    mm::SegmentManager local(cfg.work_dir + "/local");
    for (size_t c = 0; c < std::size(kClasses); ++c) {
      const mmjoin::rel::RelationConfig rc = config_for(c);
      {
        mmjoin::StatusOr<mm::MmWorkload> w = mmjoin::Status::Internal("");
        {
          SpanLog::Scope span(spans, "mmap", "BuildMmWorkload");
          w = mm::BuildMmWorkload(&local, kClasses[c].name, rc);
        }
        if (!w.ok()) {
          report->Note("local build failed: " + w.status().ToString());
          report->Op(false);
          return;
        }
        want[c].objects = rc.r_objects;
        want[c].join = ExpectedJoin(*w);
        want[c].plans = ExpectedPlans(*w);
        report->Op(true, want[c].join.valid && want[c].join.count == rc.r_objects);
      }
      (void)mm::DeleteMmWorkload(&local, kClasses[c].name, kPartitions);
      if (cfg.self_test) {
        Corrupt(&want[c].join);
        Corrupt(&want[c].plans);
      }
    }
  }

  std::filesystem::create_directories(cfg.work_dir + "/svc");
  mm::SegmentManager manager(cfg.work_dir + "/svc");
  svc::ServerOptions so;
  so.socket_path = cfg.work_dir + "/mmjoind.sock";
  // The documented deployment (docs/OPERATIONS.md): 4 pool workers and the
  // default admission of 4 queries at once, 16 queued.
  so.workers = 4;
  svc::Server server(&manager, so);
  if (mmjoin::Status st = server.Start(); !st.ok()) {
    report->Note("server start failed: " + st.ToString());
    report->Op(false);
    return;
  }
  std::vector<svc::Client> clients(kClients);
  for (svc::Client& c : clients) {
    mmjoin::Status st = c.Connect(so.socket_path);
    if (st.ok()) st = c.Handshake();
    if (!st.ok()) {
      report->Note("client connect failed: " + st.ToString());
      report->Op(false);
      return;
    }
  }

  // Register the three classes: the server builds and maps them.
  const Clock::time_point reg = Clock::now();
  for (size_t c = 0; c < std::size(kClasses); ++c) {
    const mmjoin::rel::RelationConfig rc = config_for(c);
    svc::Request req;
    req.op = svc::RequestOp::kRegister;
    req.name = kClasses[c].name;
    req.r_objects = rc.r_objects;
    req.s_objects = rc.s_objects;
    req.partitions = rc.num_partitions;
    req.zipf_theta = rc.zipf_theta;
    req.seed = rc.seed;
    SpanLog::Scope span(spans, "service", "register");
    mmjoin::StatusOr<svc::Response> resp = clients[0].Call(req);
    report->Op(resp.ok() && resp->op == svc::ResponseOp::kRegistered);
    if (!resp.ok() || resp->op != svc::ResponseOp::kRegistered) {
      report->Note("register failed");
      return;
    }
  }
  report->Metric("service.register_ms", MsSince(reg), "ms", false);

  // Open loop: requests arrive in bursts of kClients, burst b due at
  // b * kClients / rate, so the mean rate is `rate`. A connection takes the
  // next request, sleeps until it is due and sends it; with every
  // connection busy the due time passes and the wait shows as latency and
  // lateness.
  const uint64_t wanted = static_cast<uint64_t>(cfg.rate_qps * seconds);
  const uint64_t n =
      cfg.self_test ? kCycle : std::max<uint64_t>(wanted, kMinQueries);
  std::vector<Sample> samples(n);
  std::atomic<uint64_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due_of = [&](uint64_t i) {
    const uint64_t burst = i / kClients;
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(burst * kClients) / cfg.rate_qps));
  };
  const double cpu0 = ProcessCpuMs();
  std::vector<std::thread> threads;
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      svc::Client& client = clients[k];
      for (uint64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        svc::Request req = RequestFor(i);
        req.id = i;
        const Clock::time_point due = due_of(i);
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        mmjoin::StatusOr<svc::Response> resp = mmjoin::Status::Internal("");
        {
          SpanLog::Scope span(spans, "service",
                              req.op == svc::RequestOp::kRunPlan ? req.plan
                              : req.algorithm_auto
                                  ? std::string("auto")
                                  : mmjoin::join::AlgorithmName(req.algorithm));
          resp = client.Call(req);
        }
        const Clock::time_point done = Clock::now();
        Sample& s = samples[i];
        s.cls = ClassOf(i);
        s.ok = resp.ok() && resp->op != svc::ResponseOp::kError;
        s.matches = s.ok && ResponseMatches(req, *resp, want[s.cls]);
        s.latency_ms = MsBetween(due, done);
        s.late_ms = MsBetween(due, sent);
        s.done_ms = MsBetween(t0, done);
        if (s.ok) {
          s.queue_ms = resp->queue_ms;
          s.exec_ms = resp->exec_ms;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double load_cpu_ms = ProcessCpuMs() - cpu0;

  uint64_t inflight_peak = 0;
  {
    svc::Request req;
    req.op = svc::RequestOp::kStats;
    mmjoin::StatusOr<svc::Response> resp = clients[0].Call(req);
    if (resp.ok()) {
      for (const svc::StatEntry& e : resp->stats) {
        if (e.name == "svc.inflight_peak") inflight_peak = e.value;
      }
    }
  }
  for (svc::Client& c : clients) c.Close();
  server.Drain();
  server.Stop();

  std::vector<double> latency, queue, exec, wire, late;
  std::vector<std::vector<double>> by_class(std::size(kClasses));
  double last_ms = 0;
  uint64_t completed = 0;
  for (const Sample& s : samples) {
    report->Op(s.ok, s.matches);
    late.push_back(s.late_ms);
    if (!s.ok) continue;
    ++completed;
    latency.push_back(s.latency_ms);
    by_class[s.cls].push_back(s.latency_ms);
    queue.push_back(s.queue_ms);
    exec.push_back(s.exec_ms);
    wire.push_back(s.latency_ms - s.late_ms - s.queue_ms - s.exec_ms);
    last_ms = std::max(last_ms, s.done_ms);
  }
  for (size_t c = 0; c < std::size(kClasses); ++c) {
    std::string ladder = std::string("latency ") + kClasses[c].name + " (n=" +
                         std::to_string(by_class[c].size()) + ") ms:";
    for (double p : {50.0, 90.0, 95.0, 98.0, 99.0, 100.0}) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " p%g=%.2f", p, Percentile(by_class[c], p));
      ladder += buf;
    }
    report->Note(ladder);
  }
  report->Note("service: " + std::to_string(completed) + " of " +
               std::to_string(n) + " queries completed at " +
               std::to_string(cfg.rate_qps) + " qps offered; small class " +
               std::to_string(by_class[0].size()) + " samples");
  // Latencies are reported with the traced run's layer metrics, without a
  // bound: on a shared virtual host they follow the CPU time the hypervisor
  // steals during the run (see README) more than the program.
  report->Metric("svc_p50_ms", Percentile(latency, 50), "ms", false);
  report->Metric("svc_p99_ms", Percentile(latency, 99), "ms", false);
  report->Metric("svc_small_p99_ms", Percentile(by_class[0], 99), "ms", false);
  // Steady under steal, which the process is not charged for; it moves
  // with the work the service does per query (execution, admission, the
  // pool, the wire on both ends), not with time spent waiting.
  report->Metric("svc_cpu_ms_per_query",
                 completed > 0 ? load_cpu_ms / static_cast<double>(completed) : 0,
                 "ms", true);
  // Reads the offered rate back unless the service falls behind it.
  report->Metric("svc_qps",
                 last_ms > 0 ? static_cast<double>(completed) / (last_ms / 1e3) : 0,
                 "queries/s", true);
  report->Metric("service.queue_ms.p50", Percentile(queue, 50), "ms", false);
  report->Metric("service.queue_ms.p99", Percentile(queue, 99), "ms", false);
  report->Metric("service.exec_ms.p50", Percentile(exec, 50), "ms", false);
  report->Metric("service.exec_ms.p99", Percentile(exec, 99), "ms", false);
  report->Metric("service.wire_ms.p50", Percentile(wire, 50), "ms", false);
  for (size_t c = 0; c < std::size(kClasses); ++c) {
    report->Metric(std::string("service.") + kClasses[c].name + ".p50_ms",
                   Percentile(by_class[c], 50), "ms", false);
  }
  report->Metric("service.samples", static_cast<double>(latency.size()),
                 "count", false);
  report->Metric("service.small.samples", static_cast<double>(by_class[0].size()),
                 "count", false);
  report->Metric("service.inflight_peak", static_cast<double>(inflight_peak),
                 "count", false);
  report->Metric("service.late_ms.max",
                 late.empty() ? 0 : *std::max_element(late.begin(), late.end()),
                 "ms", false);
}

}  // namespace perfbench
