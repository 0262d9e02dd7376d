// mmbench: the mmjoin benchmark driver. One process, one workload, one
// seed. A run builds one relation pair (the set-up), then measures three
// phases in turn: join rounds on the pair, store persist/reopen iterations
// on the same pair, and an in-process mmjoind under open-loop load. It
// prints every metric with its unit, the attempted/failed operation
// counts, and a final one-line JSON result. perfbench/run.py builds this
// binary and is the command to run (see perfbench/README.md).
//
//   mmbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --trace-dir DIR --rate QPS [--self-test]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "mmap/segment.h"

namespace {

constexpr char kUsage[] =
    "usage: mmbench --workload uniform|zipf\n"
    "               --seed N --seconds S --trace 0|1 --work-dir DIR\n"
    "               --trace-dir DIR --rate QPS [--self-test]\n";

namespace mm = mmjoin::mm;

// Zipf skew of the S-pointers on the zipf workload.
constexpr double kZipfTheta = 1.1;
constexpr uint64_t kObjects = 2'000'000;  // per side: 256 MiB per relation
constexpr uint64_t kSelfTestObjects = 16384;
constexpr uint32_t kPartitions = 8;
constexpr char kPrefix[] = "pair";
// Share of --seconds each phase measures.
constexpr double kJoinShare = 0.62;
constexpr double kStoreShare = 0.15;
constexpr double kServiceShare = 0.23;

void RunWorkload(const perfbench::RunConfig& cfg, perfbench::Report* report,
                 perfbench::SpanLog* spans) {
  const uint64_t objects = cfg.self_test ? kSelfTestObjects : kObjects;
  {
    const std::string dir = cfg.work_dir + "/pair";
    std::filesystem::create_directories(dir);
    mm::SegmentManager manager(dir);
    mmjoin::rel::RelationConfig rc;
    rc.r_objects = objects;
    rc.s_objects = objects;
    rc.num_partitions = kPartitions;
    rc.zipf_theta = cfg.zipf_theta;
    rc.seed = cfg.seed;
    mmjoin::StatusOr<mm::MmWorkload> built =
        perfbench::BuildForSetup(&manager, kPrefix, rc, report, spans);
    if (!built.ok()) return;

    perfbench::JoinExpectation want = perfbench::ExpectedJoin(*built);
    std::map<std::string, perfbench::PlanExpectation> want_plans =
        perfbench::ExpectedPlans(*built);
    // The pointer-join property: every R object has exactly one S partner.
    report->Op(true, want.valid && want.count == objects);
    if (cfg.self_test) {
      perfbench::Corrupt(&want);
      perfbench::Corrupt(&want_plans);
    }
    perfbench::RunJoinPhase(cfg, *built, want, want_plans,
                            cfg.seconds * kJoinShare, report, spans);
    perfbench::RunStorePhase(&manager, kPrefix, &*built, want,
                             cfg.seconds * kStoreShare, report, spans);
  }  // the pair is unmapped here; its files go with the work directory
  perfbench::RunServicePhase(cfg, cfg.seconds * kServiceShare, report, spans);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--self-test") {
      cfg.self_test = true;
      continue;
    }
    if (value == nullptr) {
      std::fprintf(stderr, "mmbench: %s needs a value\n%s", flag.c_str(), kUsage);
      return 2;
    }
    ++i;
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else if (flag == "--rate") {
      cfg.rate_qps = std::strtod(value, nullptr);
    } else {
      std::fprintf(stderr, "mmbench: unknown flag %s\n%s", flag.c_str(), kUsage);
      return 2;
    }
  }
  if (cfg.work_dir.empty() || cfg.trace_dir.empty() || !(cfg.seconds > 0) ||
      !(cfg.rate_qps > 0)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }

  const perfbench::CpuTicks cpu0 = perfbench::ReadCpuTicks();
  perfbench::Report report;
  perfbench::SpanLog spans(cfg.trace);
  if (cfg.workload == "uniform" || cfg.workload == "zipf") {
    cfg.zipf_theta = cfg.workload == "zipf" ? kZipfTheta : 0.0;
    RunWorkload(cfg, &report, &spans);
  } else {
    std::fprintf(stderr, "mmbench: unknown workload '%s'\n%s",
                 cfg.workload.c_str(), kUsage);
    return 2;
  }

  report.Metric("peak_rss_mib", perfbench::PeakRssMib(), "MiB", true);
  // Context for noisy runs: the share of the host's CPU time taken by the
  // hypervisor for other guests while this run was measuring.
  const perfbench::CpuTicks cpu1 = perfbench::ReadCpuTicks();
  report.Metric("host.steal_pct",
                cpu1.total > cpu0.total
                    ? 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                          static_cast<double>(cpu1.total - cpu0.total)
                    : 0.0,
                "%", false);
  if (cfg.trace) {
    for (const auto& [layer, ms] : spans.SelfMsByLayer()) {
      std::string name = "self_ms." + layer;
      std::replace(name.begin(), name.end(), '/', '.');  // exec/op
      report.Metric(name, ms, "ms", false);
    }
    spans.WriteChromeTrace(cfg.trace_dir + "/bench.trace.json");
  }
  report.Print(cfg.trace);
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}
