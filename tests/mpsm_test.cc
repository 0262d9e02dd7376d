// MPSM identity matrix (EXT-9): the NUMA-affine massively-parallel
// sort-merge driver must produce the IDENTICAL join — same verified
// output_count, same order-independent output_checksum, same pass
// structure — as the shared-run sort-merge driver across every
// combination of schedule {static, stealing} x workers {1, 2, 8} x NUMA
// mode {none, interleave, local} on both a uniform and a Zipf-skewed
// workload. MPSM is a different decomposition of the same join (node
// bands, strictly node-local sorts, cross-band merge), so any divergence
// is a partitioning or merge bug, never acceptable drift.
//
// The forced-topology tests pin MmJoinOptions::numa_nodes: 1 exercises
// the documented single-node fallback (one band, zero remote slices) and
// >1 forces the multi-band control flow even on the single-node CI host
// (placement syscalls stay capped at the detected topology, so no mbind
// errors leak from the forcing).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/scheduler.h"
#include "obs/trace.h"
#include "join/join_common.h"
#include "join/mpsm.h"
#include "join/sort_merge.h"
#include "mmap/mm_relation.h"
#include "mmap/mmap_join.h"
#include "mmap/segment_manager.h"
#include "rel/generator.h"
#include "sim/sim_env.h"

namespace mmjoin {
namespace {

rel::RelationConfig Shape(uint64_t n, uint32_t d, double theta,
                          uint64_t seed) {
  rel::RelationConfig rc;
  rc.r_objects = rc.s_objects = n;
  rc.num_partitions = d;
  rc.zipf_theta = theta;
  rc.seed = seed;
  return rc;
}

class MpsmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : test_name) {
      if (c == '/') c = '_';
    }
    dir_ = ::testing::TempDir() + "mpsm_" + std::to_string(::getpid()) + "_" +
           test_name;
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    mgr_ = std::make_unique<mm::SegmentManager>(dir_);
  }

  std::string dir_;
  std::unique_ptr<mm::SegmentManager> mgr_;
};

/// Asserts one mpsm run against the sort-merge baseline on the same
/// workload: verified, bit-identical output, and the same pass labels
/// (both drivers report setup/pass0/pass1/sort+merge+join).
void ExpectSameJoin(const mm::MmJoinResult& sm, const mm::MmJoinResult& mp,
                    const std::string& what) {
  EXPECT_TRUE(sm.verified) << what;
  EXPECT_TRUE(mp.verified) << what;
  EXPECT_EQ(sm.output_count, mp.output_count) << what;
  EXPECT_EQ(sm.output_checksum, mp.output_checksum) << what;
  ASSERT_EQ(sm.run.passes.size(), mp.run.passes.size()) << what;
  for (size_t p = 0; p < sm.run.passes.size(); ++p) {
    EXPECT_EQ(sm.run.passes[p].label, mp.run.passes[p].label) << what;
  }
}

TEST_F(MpsmTest, IdentityMatrixUniform) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.0, 20260809);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "u", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  const exec::Schedule schedules[] = {exec::Schedule::kStatic,
                                      exec::Schedule::kStealing};
  const uint32_t worker_counts[] = {1, 2, 8};
  const exec::NumaMode numa_modes[] = {exec::NumaMode::kNone,
                                       exec::NumaMode::kInterleave,
                                       exec::NumaMode::kLocal};
  for (exec::Schedule sched : schedules) {
    for (uint32_t workers : worker_counts) {
      for (exec::NumaMode numa : numa_modes) {
        mm::MmJoinOptions opt;
        opt.schedule = sched;
        opt.max_threads = workers;
        opt.numa = numa;
        auto mp = mm::MmMpsm(*workload, opt);
        ASSERT_TRUE(mp.ok()) << mp.status().ToString();
        const std::string what =
            "schedule=" +
            std::to_string(static_cast<int>(sched)) +
            " workers=" + std::to_string(workers) +
            " numa=" + std::to_string(static_cast<int>(numa));
        ExpectSameJoin(*sm, *mp, what);
        // The driver always reports its band shape, fallback included.
        EXPECT_GE(mp->run.mpsm_nodes, 1u) << what;
        EXPECT_GE(mp->run.mpsm_runs, 1u) << what;
      }
    }
  }
}

TEST_F(MpsmTest, IdentityMatrixZipfSkew) {
  const rel::RelationConfig rc = Shape(8192, 4, 0.9, 991);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "z", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  const exec::Schedule schedules[] = {exec::Schedule::kStatic,
                                      exec::Schedule::kStealing};
  const uint32_t worker_counts[] = {1, 2, 8};
  for (exec::Schedule sched : schedules) {
    for (uint32_t workers : worker_counts) {
      mm::MmJoinOptions opt;
      opt.schedule = sched;
      opt.max_threads = workers;
      opt.numa = exec::NumaMode::kLocal;
      auto mp = mm::MmMpsm(*workload, opt);
      ASSERT_TRUE(mp.ok()) << mp.status().ToString();
      ExpectSameJoin(*sm, *mp,
                     "zipf schedule=" +
                         std::to_string(static_cast<int>(sched)) +
                         " workers=" + std::to_string(workers));
    }
  }
}

TEST_F(MpsmTest, SortMergeRunMorselsOnZipf) {
  // Sort-merge's pass 2 sorts every IRUN run as a morsel of its own, then
  // merges per partition. On Zipf 1.1 at 4 workers, with an M_Rproc that
  // gives the hot partition dozens of runs and intermediate merge passes,
  // every schedule — static, stealing, the shared pool — joins exactly
  // like the simulator, and every sort morsel sorts one run.
  const rel::RelationConfig rc = Shape(24000, 4, 1.1, 2026'10'20);
  join::JoinParams params;
  params.m_rproc_bytes = params.m_sproc_bytes = 64 << 10;

  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto sim_workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(sim_workload.ok()) << sim_workload.status().ToString();
  auto sim = join::RunSortMerge(&env, *sim_workload, params);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE(sim->verified);
  ASSERT_GT(sim->npass, 1u);  // the hot partition needs merge passes

  auto workload = mm::BuildMmWorkload(mgr_.get(), "zipf", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  exec::SharedWorkerPool pool(4);
  const struct {
    const char* name;
    exec::Schedule schedule;
    exec::SharedWorkerPool* pool;
  } configs[] = {{"static", exec::Schedule::kStatic, nullptr},
                 {"stealing", exec::Schedule::kStealing, nullptr},
                 {"pool", exec::Schedule::kStealing, &pool}};
  for (const auto& config : configs) {
    SCOPED_TRACE(config.name);
    obs::TraceRecorder trace;
    mm::MmJoinOptions opt;
    opt.m_rproc_bytes = params.m_rproc_bytes;
    opt.max_threads = 4;
    opt.schedule = config.schedule;
    opt.pool = config.pool;
    opt.trace = &trace;
    auto sm = mm::MmSortMerge(*workload, opt);
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    EXPECT_TRUE(sm->verified);
    EXPECT_EQ(sm->output_count, sim->output_count);
    EXPECT_EQ(sm->output_checksum, sim->output_checksum);
    EXPECT_EQ(sm->run.npass, sim->npass);

    const auto sorts = trace.EventArgs("sort-runs");
    EXPECT_GT(sorts.size(), rc.num_partitions);
    for (const auto& args : sorts) {
      for (const obs::TraceArg& a : args) {
        if (a.key == "runs") {
          EXPECT_EQ(a.value, "1");
        } else if (a.key == "irun") {
          EXPECT_EQ(a.value, std::to_string(sm->run.irun));
        }
      }
    }
  }
}

TEST_F(MpsmTest, SimBackendMatchesSortMerge) {
  // The same template runs on the simulated backend: identical output
  // and pass labels there too (and deterministically, since simulated
  // time has no scheduling noise).
  const rel::RelationConfig rc = Shape(6000, 3, 0.5, 1234);
  sim::MachineConfig mc = sim::MachineConfig::SequentSymmetry1996();
  mc.num_disks = rc.num_partitions;
  sim::SimEnv env(mc);
  auto workload = rel::BuildWorkload(&env, rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  auto sm = join::RunSortMerge(&env, *workload, join::JoinParams{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();
  auto mp = join::RunMpsm(&env, *workload, join::JoinParams{});
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();

  EXPECT_TRUE(sm->verified && mp->verified);
  EXPECT_EQ(sm->output_count, mp->output_count);
  EXPECT_EQ(sm->output_checksum, mp->output_checksum);
  ASSERT_EQ(sm->passes.size(), mp->passes.size());
  for (size_t p = 0; p < sm->passes.size(); ++p) {
    EXPECT_EQ(sm->passes[p].label, mp->passes[p].label);
  }
  EXPECT_GE(mp->mpsm_nodes, 1u);
}

TEST_F(MpsmTest, ForcedSingleNodeFallback) {
  // numa_nodes=1 pins the documented fallback: one band, every merge
  // slice is home-band local, and the join is still bit-identical.
  const rel::RelationConfig rc = Shape(4096, 4, 0.0, 555);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "f1", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  mm::MmJoinOptions opt;
  opt.numa = exec::NumaMode::kLocal;
  opt.numa_nodes = 1;
  auto mp = mm::MmMpsm(*workload, opt);
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();
  ExpectSameJoin(*sm, *mp, "forced single node");
  EXPECT_EQ(mp->run.mpsm_nodes, 1u);
  EXPECT_EQ(mp->run.mpsm_remote_slices, 0u);
}

TEST_F(MpsmTest, ForcedMultiBandOnAnyHost) {
  // numa_nodes=4 forces the multi-band control flow regardless of the
  // host's real topology — band partitioning, node-local sorts and the
  // per-partition slice merge all engage (this is how a single-node CI
  // host exercises the interesting path). Placement syscalls stay capped
  // at the DETECTED topology, so forcing must not surface mbind errors.
  const rel::RelationConfig rc = Shape(8192, 8, 0.9, 777);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "f4", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  mm::MmJoinOptions opt;
  opt.numa = exec::NumaMode::kLocal;
  opt.numa_nodes = 4;
  opt.max_threads = 8;
  auto mp = mm::MmMpsm(*workload, opt);
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();
  ExpectSameJoin(*sm, *mp, "forced 4 bands");
  EXPECT_EQ(mp->run.mpsm_nodes, 4u);
  // Every partition found at least one home-band slice...
  EXPECT_GE(mp->run.mpsm_local_slices, rc.num_partitions);
  // ...and NONE came from a remote band: pass 0's key-range banding
  // localizes every partition's merge inputs by construction (all
  // cross-node traffic rides the pass-0 scatter), so the remote counter
  // is a misalignment guard that must stay zero.
  EXPECT_EQ(mp->run.mpsm_remote_slices, 0u);
  EXPECT_TRUE(mp->numa_status.ok()) << mp->numa_status.ToString();
}

TEST_F(MpsmTest, ForcedBandsNeverExceedPartitions) {
  // More forced nodes than partitions: the driver clamps bands to D (a
  // band with no source partitions would sort nothing and merge nothing).
  const rel::RelationConfig rc = Shape(2048, 2, 0.0, 31);
  auto workload = mm::BuildMmWorkload(mgr_.get(), "clamp", rc);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  auto sm = mm::MmSortMerge(*workload, mm::MmJoinOptions{});
  ASSERT_TRUE(sm.ok()) << sm.status().ToString();

  mm::MmJoinOptions opt;
  opt.numa = exec::NumaMode::kLocal;
  opt.numa_nodes = 16;
  auto mp = mm::MmMpsm(*workload, opt);
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();
  ExpectSameJoin(*sm, *mp, "clamped bands");
  EXPECT_LE(mp->run.mpsm_nodes, rc.num_partitions);
}

}  // namespace
}  // namespace mmjoin
