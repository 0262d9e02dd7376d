#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  // Linear interpolation between closest ranks (numpy's default), exact on
  // the raw samples.
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PeakRssMib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t ProcessFaults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<uint64_t>(u.ru_minflt) + static_cast<uint64_t>(u.ru_majflt);
}

double ProcessCpuMs() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(u.ru_utime) + ms(u.ru_stime);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (unsigned long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

mmjoin::StatusOr<mmjoin::mm::MmWorkload> BuildForSetup(
    mmjoin::mm::SegmentManager* manager, const std::string& prefix,
    const mmjoin::rel::RelationConfig& config, Report* report,
    SpanLog* spans) {
  constexpr int kBuilds = 9;
  std::vector<double> build_ms;
  mmjoin::StatusOr<mmjoin::mm::MmWorkload> built =
      mmjoin::Status::Internal("not built");
  for (int b = 0; b < kBuilds; ++b) {
    if (b > 0) {
      built = mmjoin::Status::Internal("rebuilding");  // unmaps the last build
      const mmjoin::Status st = mmjoin::mm::DeleteMmWorkload(
          manager, prefix, config.num_partitions);
      if (!st.ok()) {
        built = st;
        break;
      }
    }
    const Clock::time_point t = Clock::now();
    {
      SpanLog::Scope span(spans, "mmap", "BuildMmWorkload");
      built = mmjoin::mm::BuildMmWorkload(manager, prefix, config);
    }
    build_ms.push_back(MsSince(t));
    if (!built.ok()) break;
  }
  if (!built.ok()) {
    report->Note("build failed: " + built.status().ToString());
    report->Op(false);
    return built;
  }
  report->Metric("setup_s", Median(build_ms) / 1000.0, "s", true);
  report->Metric("mmap.build_ms", Median(build_ms), "ms", false);
  return built;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, bool end_to_end) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Entry{value, unit, end_to_end};
}

void Report::Op(bool ok, bool matches) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok || !matches) ++failed_;
  if (ok && !matches) ++mismatches_;
}

void Report::Print(bool trace) const {
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  for (const auto& [name, e] : metrics_) {
    std::printf("metric %-36s %14.6g %-10s %s\n", name.c_str(), e.value,
                e.unit.c_str(), e.end_to_end ? "end-to-end" : "per-layer");
  }
  std::printf("attempted %llu failed %llu mismatched %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(mismatches_));
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (e.end_to_end == trace) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            e.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

namespace {
// Innermost open span of the calling thread, per log (spans nest per
// thread; the service workload records from several client threads).
thread_local std::vector<int64_t> tls_stack;
uint32_t ThreadTrack() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1);
  return tid;
}
}  // namespace

int64_t SpanLog::Begin(const char* layer, std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.layer = layer;
  s.name = std::move(name);
  s.start_ms = MsSince(t0_);
  s.parent = tls_stack.empty() ? -1 : tls_stack.back();
  s.tid = ThreadTrack();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  tls_stack.push_back(index);
  return index;
}

void SpanLog::End(int64_t index) {
  if (index < 0) return;
  const double now = MsSince(t0_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = now;
  if (!tls_stack.empty() && tls_stack.back() == index) tls_stack.pop_back();
}

SpanLog::Scope::Scope(SpanLog* log, const char* layer, std::string name)
    : log_(log) {
  index_ = log_->Begin(layer, std::move(name));
}
SpanLog::Scope::~Scope() { log_->End(index_); }

std::map<std::string, double> SpanLog::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ms >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ms < 0) continue;
    out[s.layer] += std::max(0.0, s.end_ms - s.start_ms - child_ms[i]);
  }
  return out;
}

void SpanLog::WriteChromeTrace(const std::string& path) const {
  mmjoin::obs::TraceRecorder rec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec.SetProcessName(1, "perfbench");
    for (const Span& s : spans_) {
      if (s.end_ms < 0) continue;
      rec.Complete(1, s.tid, s.name, s.layer, s.start_ms, s.end_ms - s.start_ms);
    }
  }
  const mmjoin::Status st = rec.WriteFile(path);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: trace write failed: %s\n",
                 st.ToString().c_str());
  }
}

}  // namespace perfbench
