// Join phase: library use of the real-mmap joins. Each round runs the six
// explicit drivers, the default MmJoin() (the planner picks) and the
// built-in plans q1/q4/q6 on the run's relation pair, and checks every
// output against the benchmark's own computation.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "exec/scheduler.h"
#include "mmap/mmap_join.h"
#include "mmap/segment.h"
#include "obs/trace.h"
#include "opt/adaptive.h"
#include "oracle.h"

namespace perfbench {
namespace {

namespace mm = mmjoin::mm;
using mmjoin::StatusOr;

constexpr int kPlanCallsPerRound = 50;
constexpr int kAutoCallsPerRound = 3;
constexpr int kPlanRunsPerRound = 3;

using DriverFn = StatusOr<mm::MmJoinResult> (*)(const mm::MmWorkload&,
                                                const mm::MmJoinOptions&);
struct Driver {
  const char* name;
  DriverFn fn;
};
constexpr Driver kDrivers[] = {
    {"nested-loops", mm::MmNestedLoops}, {"sort-merge", mm::MmSortMerge},
    {"mpsm", mm::MmMpsm},                {"grace", mm::MmGrace},
    {"hybrid-hash", mm::MmHybridHash},   {"index-nl", mm::MmIndexNestedLoops},
};

// Per-driver samples, one per round.
struct DriverSamples {
  std::vector<double> call_ms, wall_ms, setup_ms, partition_ms, join_ms,
      faults;
};

// The planner step of a default MmJoin() call: the inputs derived as
// MmJoin derives them (src/mmap/mmap_join.cc, ToPlannerInputs: counts-matrix
// skew, a mincore residency probe of every mapped segment, the effective
// worker count), then one AdaptiveController::Plan.
mmjoin::opt::PlannerDecision PlanAsMmJoin(
    const mmjoin::opt::AdaptiveController& planner, const mm::MmWorkload& w,
    const mm::MmJoinOptions& options) {
  mmjoin::opt::PlannerInputs in;
  in.r_objects = w.config.r_objects;
  in.s_objects = w.config.s_objects;
  in.partitions = w.config.num_partitions;
  uint64_t hottest = 0;
  for (uint32_t j = 0; j < w.config.num_partitions; ++j) {
    uint64_t t = 0;
    for (const auto& row : w.counts) t += row[j];
    hottest = std::max(hottest, t);
  }
  in.skew = static_cast<double>(hottest) * w.config.num_partitions /
            static_cast<double>(w.config.r_objects);
  in.m_rproc_bytes = options.m_rproc_bytes;
  double resident_pages = 0, total_pages = 0;
  for (uint32_t i = 0; i < w.config.num_partitions; ++i) {
    for (const mm::Segment* seg : {&w.r_segs[i], &w.s_segs[i]}) {
      const double pages = static_cast<double>((seg->size() + 4095) / 4096);
      resident_pages += mm::ResidentFraction(seg->base(), seg->size()) * pages;
      total_pages += pages;
    }
  }
  in.residency = total_pages > 0 ? resident_pages / total_pages : 1.0;
  in.workers = mmjoin::exec::EffectiveWorkers(
      w.config.num_partitions, options.parallel, options.max_threads);
  in.numa_nodes = options.numa_nodes;
  return planner.Plan(in);
}

bool JoinMatches(const mm::MmJoinResult& r, const JoinExpectation& want,
                 uint64_t r_objects) {
  // Pointer join: every R object has exactly one S partner.
  return r.output_count == want.count && r.output_checksum == want.checksum &&
         r.output_count == r_objects;
}

}  // namespace

void RunJoinPhase(const RunConfig& cfg, const mm::MmWorkload& w,
                  const JoinExpectation& want,
                  const std::map<std::string, PlanExpectation>& want_plans,
                  double seconds, Report* report, SpanLog* spans) {
  const uint64_t objects = w.config.r_objects;
  mmjoin::obs::TraceRecorder recorder;
  mm::MmJoinOptions options;
  if (cfg.trace) options.trace = &recorder;

  std::map<std::string, DriverSamples> drivers;
  std::vector<double> auto_ms, plan_us, model_err, sched_idle, sched_steals,
      scatter_flushes;
  std::map<std::string, std::vector<double>> plan_ms;
  std::map<std::string, int> picks;
  int rounds = 0;
  const Clock::time_point loop = Clock::now();
  while (rounds == 0 || MsSince(loop) < seconds * 1000.0) {
    SpanLog::Scope round_span(spans, "bench", "round");
    double idle = 0, steals = 0, flushes = 0;
    for (const Driver& d : kDrivers) {
      const Clock::time_point t = Clock::now();
      StatusOr<mm::MmJoinResult> r = mmjoin::Status::Internal("");
      {
        SpanLog::Scope span(spans, "exec", d.name);
        r = d.fn(w, options);
      }
      const double ms = MsSince(t);
      report->Op(r.ok(), r.ok() && JoinMatches(*r, want, objects));
      if (!r.ok()) continue;
      idle += r->run.sched_idle_ms;
      steals += static_cast<double>(r->run.sched_steals);
      flushes += static_cast<double>(r->run.scatter_flushes);
      DriverSamples& s = drivers[d.name];
      double setup = 0, partition = 0, join = 0;
      for (const auto& p : r->run.passes) {
        if (p.label == "setup") {
          setup += p.elapsed_ms;
        } else if (p.label == "pass0" || p.label == "pass1") {
          partition += p.elapsed_ms;
        } else {
          join += p.elapsed_ms;
        }
      }
      s.call_ms.push_back(ms);
      s.wall_ms.push_back(r->wall_ms);
      s.setup_ms.push_back(setup);
      s.partition_ms.push_back(partition);
      s.join_ms.push_back(join);
      s.faults.push_back(static_cast<double>(r->run.faults));
    }
    sched_idle.push_back(idle);
    sched_steals.push_back(steals);
    scatter_flushes.push_back(flushes);

    // The planner step alone, from the state MmJoin() starts from.
    {
      SpanLog::Scope span(spans, "opt", "AdaptiveController::Plan");
      const mmjoin::opt::AdaptiveController planner;
      std::vector<double> calls;
      for (int k = 0; k < kPlanCallsPerRound; ++k) {
        const Clock::time_point t = Clock::now();
        const mmjoin::opt::PlannerDecision dec =
            PlanAsMmJoin(planner, w, options);
        calls.push_back(MsSince(t) * 1e3);
        if (dec.candidates.empty()) report->Note("planner ranked nothing");
      }
      plan_us.push_back(Median(calls));
    }

    // The default call as a process making it once sees it: fresh planner
    // state (host-default calibration, no learned corrections). Reusing the
    // process-wide state would let every run's feedback move the next pick,
    // so the figure would depend on how many calls a run fits in.
    for (int k = 0; k < kAutoCallsPerRound; ++k) {
      mmjoin::opt::AdaptiveController fresh;
      mm::MmJoinOptions auto_options = options;
      auto_options.planner = &fresh;
      const Clock::time_point t = Clock::now();
      StatusOr<mm::MmJoinResult> r = mmjoin::Status::Internal("");
      {
        SpanLog::Scope span(spans, "opt", "MmJoin(auto)");
        r = mm::MmJoin(w, auto_options);
      }
      const double ms = MsSince(t);
      report->Op(r.ok(), r.ok() && JoinMatches(*r, want, objects));
      if (r.ok()) {
        auto_ms.push_back(ms);
        ++picks[mmjoin::join::AlgorithmName(r->algorithm)];
        model_err.push_back(r->run.model_error_pct);
      }
    }

    for (int k = 0; k < kPlanRunsPerRound; ++k) {
      for (const char* q : mmjoin::exec::op::kPlanNames) {
        const Clock::time_point t = Clock::now();
        StatusOr<mm::MmPlanResult> r = mmjoin::Status::Internal("");
        {
          SpanLog::Scope span(spans, "exec/op", q);
          r = mm::MmRunPlan(w, *mmjoin::exec::op::FindPlan(q), options);
        }
        const double ms = MsSince(t);
        report->Op(r.ok(), r.ok() && PlanMatches(want_plans.at(q), r->plan));
        if (r.ok()) plan_ms[q].push_back(ms);
      }
    }
    ++rounds;
  }

  report->Note("join: " + std::to_string(rounds) + " rounds, " +
               std::to_string(objects) + " objects/side, D=" +
               std::to_string(w.config.num_partitions) + ", zipf " +
               std::to_string(w.config.zipf_theta));
  // Throughputs over one rotation (six drivers / three plans), each call
  // taken at its median over the run. Every driver outputs |R| tuples and
  // every plan scans |R| rows (checked above).
  double rotation_ms = 0, plans_ms = 0;
  for (const auto& [name, s] : drivers) rotation_ms += Median(s.call_ms);
  for (const auto& [q, ms] : plan_ms) plans_ms += Median(ms);
  report->Metric("auto_join_ms", Median(auto_ms), "ms", true);
  report->Metric("join_tuples_per_s",
                 static_cast<double>(objects * drivers.size()) /
                     (rotation_ms / 1e3),
                 "tuples/s", true);
  report->Metric("plan_rows_per_s",
                 static_cast<double>(objects * plan_ms.size()) /
                     (plans_ms / 1e3),
                 "rows/s", true);

  double best_ms = 0;
  std::string best;
  for (const auto& [name, s] : drivers) {
    const std::string p = "exec." + name + ".";
    report->Metric(p + "setup_ms", Median(s.setup_ms), "ms", false);
    report->Metric(p + "partition_ms", Median(s.partition_ms), "ms", false);
    report->Metric(p + "join_ms", Median(s.join_ms), "ms", false);
    report->Metric(p + "wall_ms", Median(s.wall_ms), "ms", false);
    report->Metric(p + "faults", Median(s.faults), "count", false);
    const double m = Median(s.call_ms);
    if (best.empty() || m < best_ms) {
      best_ms = m;
      best = name;
    }
  }
  report->Metric("exec.sched.idle_ms", Median(sched_idle), "ms", false);
  report->Metric("exec.sched.steals", Median(sched_steals), "count", false);
  report->Metric("exec.scatter.flushes", Median(scatter_flushes), "count",
                 false);
  report->Metric("opt.plan_us", Median(plan_us), "us", false);
  report->Metric("opt.model_error_pct", Median(model_err), "%", false);
  for (const Driver& d : kDrivers) {
    report->Metric(std::string("opt.pick.") + d.name, picks[d.name], "count",
                   false);
  }
  if (best_ms > 0 && !auto_ms.empty()) {
    report->Metric("opt.regret", Median(auto_ms) / best_ms, "ratio", false);
    report->Metric("opt.regret_base_ms", best_ms, "ms", false);
    report->Note("planner regret base: " + best + " median " +
                 std::to_string(best_ms) + " ms");
  }
  for (const auto& [q, ms] : plan_ms) {
    report->Metric("op." + q + "_ms", Median(ms), "ms", false);
  }
  if (cfg.trace) {
    const std::string path = cfg.trace_dir + "/program.trace.json";
    if (!recorder.WriteFile(path).ok()) report->Note("program trace not written");
  }
}

}  // namespace perfbench
