// Execution tracing in *simulated time*.
//
// TraceRecorder captures timestamped spans and events on (pid, tid) tracks
// and exports Chrome trace-event JSON (the format understood by
// chrome://tracing and https://ui.perfetto.dev). The simulator maps tracks
// as: pid = disk index (each Rproc_i/Sproc_i pair works against disk i),
// tid 1 = Rproc_i, tid 2 = Sproc_i. Timestamps are simulated milliseconds
// (stored as microseconds, the unit the trace viewers expect).
//
// Tracing is off by default and has zero cost when disabled: the recorder
// is attached to a SimEnv as a nullable pointer, and every emission site is
// guarded by a single null check. Recording never charges simulated time,
// so enabling it cannot perturb the numbers either — traced and untraced
// runs of the same workload are bit-identical.
#ifndef MMJOIN_OBS_TRACE_H_
#define MMJOIN_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace mmjoin::obs {

/// One key/value argument of a trace event. `value` is a pre-rendered JSON
/// value (string literal with quotes, or a bare number) — see the Arg()
/// helpers.
struct TraceArg {
  std::string key;
  std::string value;
};

TraceArg Arg(std::string key, uint64_t v);
TraceArg Arg(std::string key, double v);
TraceArg Arg(std::string key, std::string_view v);

/// Records trace events and serializes them as Chrome trace-event JSON.
/// Not thread-safe (the simulator is single-threaded).
class TraceRecorder {
 public:
  /// A complete span ("ph":"X"): [start_ms, start_ms + dur_ms) on one track.
  void Complete(uint32_t pid, uint32_t tid, std::string name, std::string cat,
                double start_ms, double dur_ms, std::vector<TraceArg> args = {});

  /// An instantaneous event ("ph":"i", thread scope).
  void Instant(uint32_t pid, uint32_t tid, std::string name, std::string cat,
               double ts_ms, std::vector<TraceArg> args = {});

  /// A counter sample ("ph":"C"): each arg becomes one series of the track.
  void Counter(uint32_t pid, std::string name, double ts_ms,
               std::vector<TraceArg> series);

  /// Begin/End spans ("ph":"B"/"E") with per-track nesting. EndSpan closes
  /// the innermost open span of the track; unmatched EndSpans are ignored.
  void BeginSpan(uint32_t pid, uint32_t tid, std::string name, std::string cat,
                 double ts_ms, std::vector<TraceArg> args = {});
  void EndSpan(uint32_t pid, uint32_t tid, double ts_ms,
               std::vector<TraceArg> args = {});

  /// Track naming ("ph":"M" metadata events).
  void SetProcessName(uint32_t pid, std::string name);
  void SetThreadName(uint32_t pid, uint32_t tid, std::string name);

  /// Open (begun, not yet ended) spans across all tracks.
  size_t open_spans() const;

  size_t size() const { return events_.size(); }
  void Clear();

  /// Events whose name equals `name` (metadata excluded). Used by tests to
  /// cross-check counts against simulator statistics.
  uint64_t CountEvents(std::string_view name) const;
  /// The args of every event whose name equals `name` (metadata excluded),
  /// in recording order — how tests read a span's work figures.
  std::vector<std::vector<TraceArg>> EventArgs(std::string_view name) const;

  /// Serializes as {"displayTimeUnit":"ms","traceEvents":[...]}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    char ph;  // 'X', 'i', 'C', 'B', 'E', 'M'
    uint32_t pid = 0;
    uint32_t tid = 0;
    double ts_us = 0;
    double dur_us = 0;  // 'X' only
    std::string name;
    std::string cat;
    std::vector<TraceArg> args;
  };

  void Push(Event e) { events_.push_back(std::move(e)); }

  std::vector<Event> events_;
  // Per-(pid, tid) count of open B spans, for nesting bookkeeping.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> open_;
};

}  // namespace mmjoin::obs

#endif  // MMJOIN_OBS_TRACE_H_
