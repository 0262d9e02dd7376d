#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"

namespace mmjoin::obs {

TraceArg Arg(std::string key, uint64_t v) {
  return TraceArg{std::move(key), std::to_string(v)};
}

TraceArg Arg(std::string key, double v) {
  return TraceArg{std::move(key), JsonNumber(v)};
}

TraceArg Arg(std::string key, std::string_view v) {
  return TraceArg{std::move(key), "\"" + JsonEscape(v) + "\""};
}

void TraceRecorder::Complete(uint32_t pid, uint32_t tid, std::string name,
                             std::string cat, double start_ms, double dur_ms,
                             std::vector<TraceArg> args) {
  Push(Event{'X', pid, tid, start_ms * 1000.0, dur_ms * 1000.0,
             std::move(name), std::move(cat), std::move(args)});
}

void TraceRecorder::Instant(uint32_t pid, uint32_t tid, std::string name,
                            std::string cat, double ts_ms,
                            std::vector<TraceArg> args) {
  Push(Event{'i', pid, tid, ts_ms * 1000.0, 0, std::move(name),
             std::move(cat), std::move(args)});
}

void TraceRecorder::Counter(uint32_t pid, std::string name, double ts_ms,
                            std::vector<TraceArg> series) {
  Push(Event{'C', pid, 0, ts_ms * 1000.0, 0, std::move(name), "counter",
             std::move(series)});
}

void TraceRecorder::BeginSpan(uint32_t pid, uint32_t tid, std::string name,
                              std::string cat, double ts_ms,
                              std::vector<TraceArg> args) {
  ++open_[{pid, tid}];
  Push(Event{'B', pid, tid, ts_ms * 1000.0, 0, std::move(name),
             std::move(cat), std::move(args)});
}

void TraceRecorder::EndSpan(uint32_t pid, uint32_t tid, double ts_ms,
                            std::vector<TraceArg> args) {
  auto it = open_.find({pid, tid});
  if (it == open_.end() || it->second == 0) return;  // unmatched End
  --it->second;
  Push(Event{'E', pid, tid, ts_ms * 1000.0, 0, "", "", std::move(args)});
}

void TraceRecorder::SetProcessName(uint32_t pid, std::string name) {
  Push(Event{'M', pid, 0, 0, 0, "process_name", "",
             {Arg("name", std::string_view(name))}});
}

void TraceRecorder::SetThreadName(uint32_t pid, uint32_t tid,
                                  std::string name) {
  Push(Event{'M', pid, tid, 0, 0, "thread_name", "",
             {Arg("name", std::string_view(name))}});
}

size_t TraceRecorder::open_spans() const {
  size_t n = 0;
  for (const auto& [track, count] : open_) n += count;
  return n;
}

void TraceRecorder::Clear() {
  events_.clear();
  open_.clear();
}

uint64_t TraceRecorder::CountEvents(std::string_view name) const {
  uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.ph != 'M' && e.name == name) ++n;
  }
  return n;
}

std::vector<std::vector<TraceArg>> TraceRecorder::EventArgs(
    std::string_view name) const {
  std::vector<std::vector<TraceArg>> out;
  for (const auto& e : events_) {
    if (e.ph != 'M' && e.name == name) out.push_back(e.args);
  }
  return out;
}

std::string TraceRecorder::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":" + std::to_string(e.pid);
    out += ",\"tid\":" + std::to_string(e.tid);
    out += ",\"ts\":" + JsonNumber(e.ts_us);
    if (e.ph == 'X') out += ",\"dur\":" + JsonNumber(e.dur_us);
    if (e.ph != 'E') out += ",\"name\":\"" + JsonEscape(e.name) + "\"";
    if (!e.cat.empty()) out += ",\"cat\":\"" + JsonEscape(e.cat) + "\"";
    if (e.ph == 'i') out += ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& a : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"" + JsonEscape(a.key) + "\":" + a.value;
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

Status TraceRecorder::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Status::IOError("cannot open " + path);
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace mmjoin::obs
