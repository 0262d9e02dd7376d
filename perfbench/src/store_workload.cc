// Store phase: the durable store's write and reattach path on the run's
// relation pair. Each iteration persists the pair (seal + checksum + bulk
// B+-tree + manifest), reopens it with checksum verification, attaches the
// index, runs a warm MmIndexProbe and deletes the store's manifest and
// index again. There is no partition pass anywhere in it.
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "mmap/btree.h"
#include "mmap/mmap_join.h"
#include "oracle.h"

namespace perfbench {
namespace {

namespace mm = mmjoin::mm;

// Held fixed so both sides of a comparison flush alike: no msync at seal
// time; the kernel writes back dirty pages when it chooses.
constexpr mm::MsyncPolicy kMsync = mm::MsyncPolicy::kNone;

bool SameJoin(const JoinExpectation& a, const JoinExpectation& b) {
  return a.valid && b.valid && a.count == b.count && a.checksum == b.checksum;
}

double StoreMib(const mm::SegmentManager& manager) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(manager.root_dir())) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

void RunStorePhase(mm::SegmentManager* manager, const std::string& prefix,
                   mm::MmWorkload* w, const JoinExpectation& want,
                   double seconds, Report* report, SpanLog* spans) {
  // The expectation was computed from the built bytes before the first
  // persist; after every reopen the same computation over the reopened
  // bytes must agree with it, and so must the index probe's output.
  const uint64_t objects = w->config.r_objects;
  std::vector<double> persist_ms, open_ms, attach_ms, probe_ms, store_mib,
      persist_faults, open_faults;
  int iterations = 0;
  const Clock::time_point loop = Clock::now();
  while (iterations == 0 || MsSince(loop) < seconds * 1000.0) {
    SpanLog::Scope iter_span(spans, "bench", "iteration");
    ++iterations;
    uint64_t faults = ProcessFaults();
    Clock::time_point t = Clock::now();
    mmjoin::Status st;
    {
      SpanLog::Scope span(spans, "mmap", "PersistMmWorkload");
      st = mm::PersistMmWorkload(manager, prefix, w, kMsync);
    }
    persist_ms.push_back(MsSince(t));
    persist_faults.push_back(static_cast<double>(ProcessFaults() - faults));
    report->Op(st.ok());
    if (!st.ok()) {
      report->Note("persist failed: " + st.ToString());
      break;
    }
    store_mib.push_back(StoreMib(*manager));
    {
      faults = ProcessFaults();
      t = Clock::now();
      mmjoin::StatusOr<mm::MmWorkload> opened = mmjoin::Status::Internal("");
      {
        SpanLog::Scope span(spans, "mmap", "OpenMmWorkload");
        opened = mm::OpenMmWorkload(manager, prefix);
      }
      open_ms.push_back(MsSince(t));
      open_faults.push_back(static_cast<double>(ProcessFaults() - faults));
      report->Op(opened.ok(), opened.ok() && SameJoin(ExpectedJoin(*opened), want));
      if (!opened.ok()) {
        report->Note("open failed: " + opened.status().ToString());
        break;
      }

      t = Clock::now();
      bool attached = false;
      {
        SpanLog::Scope span(spans, "mmap", "BTree::Attach");
        mmjoin::StatusOr<mm::Segment> seg =
            mm::OpenMmWorkloadIndexSegment(manager, prefix);
        attached = seg.ok() && mm::BTree::Attach(&*seg).ok();
      }
      attach_ms.push_back(MsSince(t));
      report->Op(attached);

      t = Clock::now();
      mmjoin::StatusOr<mm::MmJoinResult> r = mmjoin::Status::Internal("");
      {
        SpanLog::Scope span(spans, "mmap", "MmIndexProbe");
        r = mm::MmIndexProbe(manager, prefix, *opened);
      }
      probe_ms.push_back(MsSince(t));
      report->Op(r.ok(), r.ok() && r->output_count == want.count &&
                             r->output_checksum == want.checksum &&
                             r->output_count == objects);
    }
    {
      SpanLog::Scope span(spans, "mmap", "DeleteSegment");
      st = manager->DeleteSegment(prefix + "_meta");
      if (st.ok()) st = manager->DeleteSegment(prefix + "_ix");
    }
    report->Op(st.ok());
    if (!st.ok()) break;
  }

  report->Note("store: " + std::to_string(iterations) + " iterations, " +
               std::to_string(objects) + " objects/side, msync " +
               mm::MsyncPolicyName(kMsync));
  report->Metric("persist_ms", Median(persist_ms), "ms", true);
  report->Metric("open_ms", Median(open_ms), "ms", true);
  report->Metric("probe_ms", Median(probe_ms), "ms", true);
  report->Metric("store_mib", Median(store_mib), "MiB", true);
  report->Metric("mmap.persist.faults", Median(persist_faults), "count", false);
  report->Metric("mmap.open.faults", Median(open_faults), "count", false);
  report->Metric("mmap.index_attach_ms", Median(attach_ms), "ms", false);
}

}  // namespace perfbench
