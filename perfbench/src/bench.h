// Shared pieces of the mmjoin benchmark: the run configuration, the report
// every workload fills in (metrics, attempted/failed operations), exact
// sample statistics, and the benchmark-side span recorder of traced runs.
#ifndef MMJOIN_PERFBENCH_BENCH_H_
#define MMJOIN_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mmap/mm_relation.h"
#include "oracle.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;
  /// Zipf skew of the S-pointers the workload draws (0 = uniform).
  double zipf_theta = 0;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for segment files and the service socket (emptied after).
  std::string work_dir;
  /// Directory the traced run writes its span files into.
  std::string trace_dir;
  /// Open-loop arrival rate of the service phase, queries per second.
  double rate_qps = 0;
  /// Shrinks every relation and corrupts every expected value, so each
  /// checked operation must be reported as a mismatch.
  bool self_test = false;
};

/// Exact order statistics over raw samples (never bucketed).
double Percentile(std::vector<double> samples, double p);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// Peak resident set of this process, MiB.
double PeakRssMib();
/// Minor + major page faults of this process so far.
uint64_t ProcessFaults();
/// User + system CPU time of this process so far, ms.
double ProcessCpuMs();

/// Host-wide CPU time counters from /proc/stat: steal (time the hypervisor
/// gave to other guests) and the total. Zero where unavailable.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// What one run reports. `correct` is false as soon as any checked output
/// disagrees with the independent computation; such an operation also
/// counts as failed. Operations that return an error (or are refused)
/// count as failed without making the run incorrect.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit,
              bool end_to_end);
  /// Records one attempted operation: `ok` false = error/refusal,
  /// `matches` false = wrong output.
  void Op(bool ok, bool matches = true);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return mismatches_ == 0; }
  uint64_t attempted() const { return attempted_; }

  /// Prints notes and every metric as "metric <name> <value> <unit>"
  /// lines, then the one-line JSON result carrying the metrics of the
  /// run's kind (end-to-end, or per-layer when traced).
  void Print(bool trace) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    bool end_to_end;
  };
  std::mutex mu_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// Benchmark-side spans around calls into the program, kept in memory and
/// written out when the run ends. Spans nest per thread; a span's self
/// time is its duration minus the time its direct children cover. Inactive
/// (every call a no-op) unless enabled, so untraced runs pay nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int64_t index_ = -1;
  };

  /// Self time summed per layer, ms.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Writes the spans as Chrome trace-event JSON (Perfetto-loadable).
  void WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string layer;
    std::string name;
    double start_ms = 0;
    double end_ms = -1;
    int64_t parent = -1;
    uint32_t tid = 0;
  };
  int64_t Begin(const char* layer, std::string name);
  void End(int64_t index);

  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Set-up of a run: builds the relation pair `prefix` nine times,
/// deleting all but the last build, and reports the median build time as
/// setup_s and mmap.build_ms. On failure it notes the error, counts a
/// failed operation and returns the error.
mmjoin::StatusOr<mmjoin::mm::MmWorkload> BuildForSetup(
    mmjoin::mm::SegmentManager* manager, const std::string& prefix,
    const mmjoin::rel::RelationConfig& config, Report* report,
    SpanLog* spans);

/// The phases of a run (one file each), each measuring for `seconds`: the
/// join and store phases in whole rounds, at least one; the service phase
/// sends rate x seconds requests, at least 1200. `want` and `want_plans`
/// are the benchmark's own expectations for the pair `w`.
void RunJoinPhase(const RunConfig& cfg, const mmjoin::mm::MmWorkload& w,
                  const JoinExpectation& want,
                  const std::map<std::string, PlanExpectation>& want_plans,
                  double seconds, Report* report, SpanLog* spans);
void RunStorePhase(mmjoin::mm::SegmentManager* manager,
                   const std::string& prefix, mmjoin::mm::MmWorkload* w,
                   const JoinExpectation& want, double seconds, Report* report,
                   SpanLog* spans);
void RunServicePhase(const RunConfig& cfg, double seconds, Report* report,
                     SpanLog* spans);

}  // namespace perfbench

#endif  // MMJOIN_PERFBENCH_BENCH_H_
