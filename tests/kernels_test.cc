// The cache-conscious dereference kernels and the paging-policy layer:
// batched kernels are bit-identical to their scalar references, every
// kernel x paging x schedule x workers combination of the four real joins
// produces the identical verified count/checksum, the setup pass's
// chunked pre-fault and parallel bucket count run on the workers without
// changing a result, and segment advice reports errors without ever
// affecting results.
#include "exec/kernels.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "exec/numa.h"
#include "exec/op/stages.h"
#include "exec/real_backend.h"
#include "exec/scheduler.h"
#include "join/grace.h"
#include "join/sort_merge.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rel/relation.h"

namespace mmjoin::exec {
namespace {

// ---------------------------------------------------------------------------
// Kernel unit tests: pipelined == scalar, bit for bit.
// ---------------------------------------------------------------------------

/// Synthetic S partitions plus a ref stream covering them with repeats.
struct KernelFixture {
  std::vector<std::vector<rel::SObject>> parts;
  std::vector<const rel::SObject*> part_ptrs;
  std::vector<SRef> refs;
  std::vector<rel::RObject> objs;

  explicit KernelFixture(uint64_t n_refs, uint32_t n_parts = 3,
                         uint64_t part_objects = 257) {
    parts.resize(n_parts);
    for (uint32_t p = 0; p < n_parts; ++p) {
      parts[p].resize(part_objects);
      for (uint64_t k = 0; k < part_objects; ++k) {
        parts[p][k].id = k;
        parts[p][k].key = rel::SKeyFor(p, k);
      }
      part_ptrs.push_back(parts[p].data());
    }
    for (uint64_t k = 0; k < n_refs; ++k) {
      // Deterministic scatter with repeats — the kernels must not assume
      // distinct targets.
      const uint32_t p = static_cast<uint32_t>(rel::Mix64(k) % n_parts);
      const uint64_t idx = rel::Mix64(k * 31 + 7) % part_objects;
      const uint64_t sptr = rel::SPtr{p, idx}.Pack();
      refs.push_back(SRef{k, sptr});
      rel::RObject obj;
      obj.id = k;
      obj.sptr = sptr;
      objs.push_back(obj);
    }
  }
};

TEST(KernelsTest, ProbeRefsMatchesScalarAcrossDistances) {
  const KernelFixture f(10000);
  KernelTally scalar;
  ProbeRefsScalar(f.refs.data(), f.refs.size(), f.part_ptrs.data(), &scalar);
  EXPECT_EQ(scalar.count, f.refs.size());
  // 0 resolves to the default; oversized distances clamp.
  for (uint32_t distance : {0u, 1u, 7u, 32u, 256u, 100000u}) {
    KernelTally pipelined;
    ProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data(), distance,
              &pipelined);
    EXPECT_EQ(pipelined.count, scalar.count) << "distance=" << distance;
    EXPECT_EQ(pipelined.digest, scalar.digest) << "distance=" << distance;
    EXPECT_EQ(pipelined.requests, f.refs.size());
    EXPECT_EQ(pipelined.batches, 1u);
  }
}

TEST(KernelsTest, ProbeObjectsMatchesScalarAcrossDistances) {
  const KernelFixture f(10000);
  KernelTally scalar;
  ProbeObjectsScalar(f.objs.data(), f.objs.size(), f.part_ptrs.data(),
                     &scalar);
  EXPECT_EQ(scalar.count, f.objs.size());
  for (uint32_t distance : {0u, 1u, 7u, 32u, 256u, 100000u}) {
    KernelTally pipelined;
    ProbeObjects(f.objs.data(), f.objs.size(), f.part_ptrs.data(), distance,
                 &pipelined);
    EXPECT_EQ(pipelined.count, scalar.count) << "distance=" << distance;
    EXPECT_EQ(pipelined.digest, scalar.digest) << "distance=" << distance;
  }
}

TEST(KernelsTest, EmptyAndShorterThanDistanceBatches) {
  const KernelFixture f(5);
  KernelTally t;
  ProbeRefs(f.refs.data(), 0, f.part_ptrs.data(), 32, &t);
  EXPECT_EQ(t.count, 0u);
  EXPECT_EQ(t.digest, 0u);
  EXPECT_EQ(t.batches, 1u);
  // n < distance: the whole batch drains through the epilogue.
  KernelTally scalar, pipelined;
  ProbeRefsScalar(f.refs.data(), f.refs.size(), f.part_ptrs.data(), &scalar);
  ProbeRefs(f.refs.data(), f.refs.size(), f.part_ptrs.data(), 32, &pipelined);
  EXPECT_EQ(pipelined.count, scalar.count);
  EXPECT_EQ(pipelined.digest, scalar.digest);
  KernelTally o;
  ProbeObjects(f.objs.data(), 0, f.part_ptrs.data(), 32, &o);
  EXPECT_EQ(o.count, 0u);
}

TEST(KernelsTest, TalliesAccumulateAcrossBatches) {
  const KernelFixture f(1000);
  KernelTally t;
  ProbeRefs(f.refs.data(), 400, f.part_ptrs.data(), 16, &t);
  ProbeRefs(f.refs.data() + 400, 600, f.part_ptrs.data(), 16, &t);
  KernelTally whole;
  ProbeRefsScalar(f.refs.data(), 1000, f.part_ptrs.data(), &whole);
  EXPECT_EQ(t.count, whole.count);
  EXPECT_EQ(t.digest, whole.digest);
  EXPECT_EQ(t.requests, 1000u);
  EXPECT_EQ(t.batches, 2u);
}

// ---------------------------------------------------------------------------
// Identity across the real joins: every kernel x paging x schedule x
// workers combination must produce the same verified count/checksum.
// ---------------------------------------------------------------------------

class KernelJoinIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "kernels_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  mm::MmWorkload Build(double theta) {
    rel::RelationConfig rc;
    rc.r_objects = rc.s_objects = 8192;
    rc.num_partitions = 8;
    rc.zipf_theta = theta;
    auto w = mm::BuildMmWorkload(mgr_.get(), "w" + std::to_string(builds_++),
                                 rc);
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    return std::move(w).value();
  }

  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
  int builds_ = 0;
};

using MmJoinFn = StatusOr<mm::MmJoinResult> (*)(const mm::MmWorkload&,
                                                const mm::MmJoinOptions&);
constexpr MmJoinFn kJoins[] = {mm::MmNestedLoops, mm::MmSortMerge,
                               mm::MmGrace, mm::MmHybridHash};

TEST_F(KernelJoinIdentityTest, KernelScheduleWorkerMatrix) {
  for (double theta : {0.0, 1.1}) {
    const mm::MmWorkload w = Build(theta);
    for (MmJoinFn join : kJoins) {
      for (DerefKernel kernel : {DerefKernel::kScalar, DerefKernel::kPrefetch}) {
        for (Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
          for (uint32_t workers : {1u, 2u, 8u}) {
            mm::MmJoinOptions opt;
            opt.kernel = kernel;
            opt.schedule = schedule;
            opt.max_threads = workers;
            opt.paging = PagingMode::kAdvise;
            auto r = join(w, opt);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            // verified == matched the workload's expected count/checksum,
            // so every combination passing pins the identity.
            EXPECT_TRUE(r->verified)
                << "theta=" << theta << " kernel=" << KernelName(kernel)
                << " schedule=" << static_cast<int>(schedule)
                << " workers=" << workers;
            EXPECT_EQ(r->output_count, w.expected_output_count);
            EXPECT_EQ(r->output_checksum, w.expected_checksum);
            if (kernel == DerefKernel::kPrefetch) {
              EXPECT_GT(r->run.kernel_batches, 0u);
              EXPECT_GT(r->run.kernel_requests, 0u);
            } else {
              EXPECT_EQ(r->run.kernel_batches, 0u);
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelJoinIdentityTest, PagingModeSweep) {
  const mm::MmWorkload w = Build(1.1);
  for (MmJoinFn join : kJoins) {
    for (PagingMode paging : {PagingMode::kNone, PagingMode::kAdvise}) {
      mm::MmJoinOptions opt;
      opt.paging = paging;
      auto r = join(w, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->verified) << "paging=" << PagingModeName(paging);
      EXPECT_EQ(r->output_count, w.expected_output_count);
      EXPECT_EQ(r->output_checksum, w.expected_checksum);
      if (paging == PagingMode::kNone) {
        EXPECT_EQ(r->run.paging_advise_calls, 0u);
      } else if (paging == PagingMode::kAdvise) {
        EXPECT_GT(r->run.paging_advise_calls, 0u);
        EXPECT_TRUE(r->paging_status.ok())
            << r->paging_status.ToString();
      }
    }
  }
}

TEST_F(KernelJoinIdentityTest, PrefetchDistanceDoesNotChangeResults) {
  const mm::MmWorkload w = Build(0.0);
  for (uint32_t distance : {1u, 4u, 256u}) {
    mm::MmJoinOptions opt;
    opt.prefetch_distance = distance;
    auto r = mm::MmNestedLoops(w, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->verified) << "distance=" << distance;
  }
}

// ---------------------------------------------------------------------------
// The setup pass on the workers: chunked parallel pre-fault and parallel
// bucket counting.
// ---------------------------------------------------------------------------

// Sanitizer shadow memory takes a fault on the first access to the shadow
// of every page the program touches, so under a sanitizer the per-pass
// fault counts measure the sanitizer, not the join.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kFaultCountsAreTheJoins = false;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kFaultCountsAreTheJoins = false;
#else
constexpr bool kFaultCountsAreTheJoins = true;
#endif
#else
constexpr bool kFaultCountsAreTheJoins = true;
#endif

/// Whether this kernel has MADV_POPULATE_WRITE (5.14+). Before it a
/// populate is a documented OK no-op that pre-faults nothing, so the
/// checks of pre-faulted bytes hold only where it exists.
bool KernelPopulatesWrites() {
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  void* p = ::mmap(nullptr, page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return false;
  uint64_t advised = 0;
  const bool ok = mm::AdviseMappedRange(p, page, 0, page,
                                        AccessIntent::kPopulateWrite, &advised)
                      .ok();
  ::munmap(p, page);
  return ok && advised > 0;
}

struct NamedJoin {
  const char* name;
  MmJoinFn fn;
};
constexpr NamedJoin kAllJoins[] = {
    {"nested-loops", mm::MmNestedLoops}, {"sort-merge", mm::MmSortMerge},
    {"mpsm", mm::MmMpsm},                {"grace", mm::MmGrace},
    {"hybrid-hash", mm::MmHybridHash},   {"index-nl", mm::MmIndexNestedLoops},
};

/// Mapped (page-rounded) bytes of a temporary of `bytes` logical bytes.
uint64_t Mapped(uint64_t bytes) {
  const uint64_t page = sim::MachineConfig::SequentSymmetry1996().page_size;
  return std::max<uint64_t>(1, (bytes + page - 1) / page) * page;
}

/// The mapped bytes of the temporaries `driver` declares for the setup
/// pre-fault, derived from the workload alone: RP_i everywhere, RS_i for
/// the repartitioning drivers (hybrid-hash spills only the non-resident
/// objects), Merge_i only for a sort-merge plan with an intermediate merge
/// pass, IX_i for index-nl, the node bands for mpsm.
uint64_t DeclaredTemporaryBytes(const std::string& driver,
                                const mm::MmWorkload& w,
                                const join::JoinParams& params) {
  const uint64_t r = sizeof(rel::RObject);
  const uint32_t d = w.config.num_partitions;
  if (driver == "mpsm") {
    const uint32_t nodes = std::max<uint32_t>(1, std::min(DetectNumaNodes(), d));
    std::vector<uint64_t> band(nodes, 0);
    for (uint32_t i = 0; i < d; ++i) {
      for (uint32_t p = 0; p < d; ++p) band[p * nodes / d] += w.counts[i][p];
    }
    uint64_t total = 0;
    for (uint64_t b : band) total += Mapped(std::max<uint64_t>(b, 1) * r);
    return total;
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < d; ++i) {
    uint64_t rp = 0, rs = 0;
    for (uint32_t j = 0; j < d; ++j) {
      if (j != i) rp += w.counts[i][j];
      rs += w.counts[j][i];
    }
    total += Mapped(std::max<uint64_t>(rp, 1) * r);
    if (driver == "nested-loops") continue;
    uint64_t spilled = rs;
    if (driver == "hybrid-hash") {
      // Own-partition bucket-0 objects stay resident, never in RS_i.
      const rel::RObject* objs = w.RObjects(i);
      for (uint64_t k = 0; k < w.r_count[i]; ++k) {
        const rel::SPtr sp = rel::SPtr::Unpack(objs[k].sptr);
        if (sp.partition == i &&
            join::GraceBucketOf(sp.index, w.s_count[i], params.k_buckets) ==
                0) {
          --spilled;
        }
      }
    }
    total += Mapped(std::max<uint64_t>(spilled, 1) * r);
    if (driver == "sort-merge") {
      const join::SortMergePlan plan =
          join::PlanSortMerge(params.m_rproc_bytes, 4096, rs, params);
      if (plan.runs0 > plan.nrun_last) {
        total += Mapped(std::max<uint64_t>(rs, 1) * r);
      }
    }
    if (driver == "index-nl") {
      op::IndexLayout ix;
      ix.Plan(rs);
      total += Mapped(std::max<uint64_t>(ix.total_bytes(), 1));
    }
  }
  return total;
}

TEST_F(KernelJoinIdentityTest, SetupPrefaultRunsOnWorkersForEveryDriver) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = 65536;
  rc.num_partitions = 8;
  auto built = mm::BuildMmWorkload(mgr_.get(), "prefault", rc);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const mm::MmWorkload& w = *built;
  SharedWorkerPool pool(4);
  const bool populates = KernelPopulatesWrites();
  // 256 KiB of M_Rproc gives sort-merge an intermediate merge pass (so
  // Merge_i is declared); the default 4 MiB fits every RS_i in one run.
  for (uint64_t m_rproc : {uint64_t{0}, uint64_t{256} << 10}) {
    for (const NamedJoin& join : kAllJoins) {
      for (SharedWorkerPool* p : {static_cast<SharedWorkerPool*>(nullptr),
                                  &pool}) {
        for (Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
          mm::MmJoinOptions opt;
          opt.max_threads = 4;
          opt.schedule = schedule;
          opt.pool = p;
          opt.k_buckets = 4;
          opt.m_rproc_bytes = m_rproc;
          const std::string where =
              std::string(join.name) + " m_rproc=" + std::to_string(m_rproc) +
              (p ? " pool" : " own") + " " + ScheduleName(schedule);
          opt.paging = PagingMode::kNone;
          auto none = join.fn(w, opt);
          opt.paging = PagingMode::kAdvise;
          auto advise = join.fn(w, opt);
          ASSERT_TRUE(none.ok() && advise.ok()) << where;
          EXPECT_TRUE(advise->verified) << where;
          EXPECT_EQ(advise->output_count, none->output_count) << where;
          EXPECT_EQ(advise->output_checksum, none->output_checksum) << where;
          EXPECT_TRUE(advise->paging_status.ok()) << where;

          join::JoinParams params;
          if (m_rproc) params.m_rproc_bytes = m_rproc;
          params.k_buckets = 4;
          EXPECT_EQ(none->run.paging_prefault_bytes, 0u) << where;
          if (!populates) continue;
          EXPECT_EQ(advise->run.paging_prefault_bytes,
                    DeclaredTemporaryBytes(join.name, w, params))
              << where;

          // The pre-fault takes the temporaries' faults in setup: every
          // later pass together faults a small fraction of that. Checked
          // on the small-M_Rproc plans only: at the default 4 MiB the
          // heap scratch of one IRUN sort run (~4 MiB, not a temporary,
          // so never pre-faulted) rivals the temporaries of relations
          // this small.
          ASSERT_FALSE(advise->run.passes.empty());
          ASSERT_EQ(advise->run.passes[0].label, "setup");
          if (m_rproc == 0 || !kFaultCountsAreTheJoins) continue;
          uint64_t after = 0;
          for (size_t k = 1; k < advise->run.passes.size(); ++k) {
            after += advise->run.passes[k].faults;
          }
          EXPECT_LT(after * 4, advise->run.passes[0].faults)
              << where << ": setup " << advise->run.passes[0].faults
              << " faults, later passes " << after;
        }
      }
    }
  }
}

TEST_F(KernelJoinIdentityTest, SetupSpansOnTheDriverTrack) {
  const mm::MmWorkload w = Build(0.0);
  obs::TraceRecorder trace;
  mm::MmJoinOptions opt;
  opt.trace = &trace;
  auto r = mm::MmGrace(w, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(trace.CountEvents("setup.prefault"), 1u);
  EXPECT_EQ(trace.CountEvents("setup.count"), 1u);
  EXPECT_EQ(trace.CountEvents("setup"), 1u);  // still one setup pass
  if (KernelPopulatesWrites()) EXPECT_GT(r->run.paging_prefault_bytes, 0u);
  EXPECT_GE(r->run.paging_prefault_ms, 0.0);
  obs::MetricsRegistry reg;
  r->ExportMetrics(&reg);
  EXPECT_EQ(reg.counter("join.paging.prefault_bytes").value(),
            r->run.paging_prefault_bytes);
}

TEST_F(KernelJoinIdentityTest, PopulateDeclaredAfterSetupIsIssuedAtOnce) {
  if (!KernelPopulatesWrites()) GTEST_SKIP() << "no MADV_POPULATE_WRITE";
  const mm::MmWorkload w = Build(0.0);
  RealBackendOptions bo;
  bo.max_threads = 4;
  RealBackend backend(w, join::JoinParams{}, bo);
  auto before = backend.CreateSegment("before", 0, uint64_t{5} << 20);
  auto after = backend.CreateSegment("after", 0, uint64_t{3} << 20);
  ASSERT_TRUE(before.ok() && after.ok());
  backend.AdviseSegment(0, *before, AccessIntent::kPopulateWrite);
  backend.Prefault();
  backend.MarkPass("setup");
  // A pass that declares a populate after the setup pre-fault: nothing is
  // left queued, the range is issued and counted like any other hint.
  backend.AdviseSegment(0, *after, AccessIntent::kPopulateWrite);
  const join::JoinRunResult r = backend.Finish();
  EXPECT_EQ(r.paging_prefault_bytes,
            (*before)->map_bytes + (*after)->map_bytes);
  EXPECT_EQ(r.paging_advise_bytes, r.paging_prefault_bytes);
  // One advise call per declared range, however many 2 MiB chunks the
  // setup pre-fault cut the 5 MiB one into.
  EXPECT_EQ(r.paging_advise_calls, 2u);
  EXPECT_EQ(r.paging_advise_errors, 0u);
}

TEST_F(KernelJoinIdentityTest, PrefaultStaysOutOfTheJoinsSchedulerTelemetry) {
  // The pre-fault's chains are not the join's: a run whose only scheduled
  // work is the pre-fault reports no morsels, steals or idle time.
  if (!KernelPopulatesWrites()) GTEST_SKIP() << "no MADV_POPULATE_WRITE";
  const mm::MmWorkload w = Build(0.0);
  RealBackendOptions bo;
  bo.max_threads = 4;
  bo.schedule = Schedule::kStealing;
  RealBackend backend(w, join::JoinParams{}, bo);
  auto seg = backend.CreateSegment("temp", 0, uint64_t{16} << 20);
  ASSERT_TRUE(seg.ok());
  backend.AdviseSegment(0, *seg, AccessIntent::kPopulateWrite);
  backend.Prefault();
  backend.MarkPass("setup");
  const join::JoinRunResult r = backend.Finish();
  EXPECT_EQ(r.paging_prefault_bytes, (*seg)->map_bytes);
  EXPECT_EQ(r.sched_morsels, 0u);
  EXPECT_EQ(r.sched_steals, 0u);
  EXPECT_EQ(r.sched_idle_ms, 0.0);
}

/// The serial reference count of op::CountBuckets.
std::vector<std::vector<uint64_t>> SerialBucketCount(
    const mm::MmWorkload& w, uint32_t k, std::vector<uint64_t>* resident) {
  const uint32_t d = w.config.num_partitions;
  std::vector<std::vector<uint64_t>> count(d, std::vector<uint64_t>(k, 0));
  if (resident != nullptr) resident->assign(d, 0);
  for (uint32_t i = 0; i < d; ++i) {
    const rel::RObject* objs = w.RObjects(i);
    for (uint64_t n = 0; n < w.r_count[i]; ++n) {
      const rel::SPtr sp = rel::SPtr::Unpack(objs[n].sptr);
      const uint32_t b =
          join::GraceBucketOf(sp.index, w.s_count[sp.partition], k);
      if (resident != nullptr && b == 0 && sp.partition == i) {
        ++(*resident)[i];
      } else {
        ++count[sp.partition][b];
      }
    }
  }
  return count;
}

TEST_F(KernelJoinIdentityTest, ParallelCountBucketsEqualsSerialUnderZipf) {
  const mm::MmWorkload w = Build(1.1);
  SharedWorkerPool pool(4);
  for (uint32_t k : {1u, 7u, 64u}) {
    std::vector<uint64_t> want_resident;
    const auto want = SerialBucketCount(w, k, nullptr);
    const auto want_hybrid = SerialBucketCount(w, k, &want_resident);
    for (SharedWorkerPool* p : {static_cast<SharedWorkerPool*>(nullptr),
                                &pool}) {
      for (Schedule schedule : {Schedule::kStatic, Schedule::kStealing}) {
        RealBackendOptions bo;
        bo.max_threads = 4;
        bo.schedule = schedule;
        bo.pool = p;
        RealBackend backend(w, join::JoinParams{}, bo);
        EXPECT_EQ(op::CountBuckets(backend, k, nullptr), want) << "K=" << k;
        std::vector<uint64_t> resident;
        EXPECT_EQ(op::CountBuckets(backend, k, &resident), want_hybrid)
            << "K=" << k;
        EXPECT_EQ(resident, want_resident) << "K=" << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Segment-advice error paths.
// ---------------------------------------------------------------------------

TEST(SegmentAdviseTest, UnmappedBaseIsInvalidArgument) {
  const Status st =
      mm::AdviseMappedRange(nullptr, 4096, 0, 4096, AccessIntent::kRandom);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SegmentAdviseTest, OutOfRangeIsInvalidArgument) {
  alignas(4096) static char buf[4096];
  EXPECT_EQ(mm::AdviseMappedRange(buf, 4096, 4096, 1,
                                  AccessIntent::kSequential)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mm::AdviseMappedRange(buf, 4096, 0, 8192,
                                  AccessIntent::kSequential)
                .code(),
            StatusCode::kInvalidArgument);
  // Zero length is trivially fine.
  uint64_t advised = 42;
  EXPECT_TRUE(mm::AdviseMappedRange(buf, 4096, 100, 0,
                                    AccessIntent::kSequential, &advised)
                  .ok());
  EXPECT_EQ(advised, 0u);
}

class SegmentAdviseFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "advise_" + std::to_string(::getpid()) +
           "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  }
  std::string dir_;
};

TEST_F(SegmentAdviseFileTest, AdviseOnRealSegmentReportsBytes) {
  auto seg = mm::Segment::Create(dir_ + "/s", 1 << 20);
  ASSERT_TRUE(seg.ok()) << seg.status().ToString();
  uint64_t advised = 0;
  ASSERT_TRUE(seg->Advise(AccessIntent::kSequential, &advised).ok());
  EXPECT_GE(advised, uint64_t{1} << 20);
  advised = 0;
  ASSERT_TRUE(
      seg->AdviseRange(8192, 4096, AccessIntent::kWillNeed, &advised).ok());
  EXPECT_GT(advised, 0u);
  // A sub-page kDontNeed narrows inward to nothing rather than discarding a
  // boundary page a neighbor may still need.
  advised = 42;
  ASSERT_TRUE(
      seg->AdviseRange(100, 64, AccessIntent::kDontNeed, &advised).ok());
  EXPECT_EQ(advised, 0u);
  ASSERT_TRUE(seg->Close().ok());
  // Advice on a closed (unmapped) segment is an error, not a crash.
  EXPECT_EQ(seg->Advise(AccessIntent::kRandom).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(mm::Segment::Delete(dir_ + "/s").ok());
}

}  // namespace
}  // namespace mmjoin::exec
