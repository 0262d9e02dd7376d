#include "heap/merge_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace mmjoin {
namespace {

TEST(MergeHeapTest, InsertDeleteMinOrders) {
  MergeHeap heap(8);
  for (uint64_t k : {5ull, 1ull, 9ull, 3ull, 7ull}) {
    heap.Insert(MergeEntry{k, 0});
  }
  std::vector<uint64_t> out;
  while (!heap.empty()) out.push_back(heap.DeleteMin().key);
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 3, 5, 7, 9}));
}

TEST(MergeHeapTest, DeleteInsertReplacesRoot) {
  MergeHeap heap(4);
  heap.Insert(MergeEntry{10, 0});
  heap.Insert(MergeEntry{20, 1});
  heap.Insert(MergeEntry{30, 2});
  const MergeEntry popped = heap.DeleteInsert(MergeEntry{25, 0});
  EXPECT_EQ(popped.key, 10u);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.Min().key, 20u);
}

TEST(MergeHeapTest, RunIdsTravelWithKeys) {
  MergeHeap heap(4);
  heap.Insert(MergeEntry{3, 7});
  heap.Insert(MergeEntry{1, 9});
  EXPECT_EQ(heap.DeleteMin().run, 9u);
  EXPECT_EQ(heap.DeleteMin().run, 7u);
}

TEST(MergeHeapTest, TieOrdersEqualKeys) {
  // Equal keys pop in tie order, whatever the run ids and insert order.
  MergeHeap heap(4);
  heap.Insert(MergeEntry{5, 0, 30});
  heap.Insert(MergeEntry{5, 1, 10});
  heap.Insert(MergeEntry{4, 2, 99});
  heap.Insert(MergeEntry{5, 3, 20});
  std::vector<uint64_t> ties;
  while (!heap.empty()) ties.push_back(heap.DeleteMin().tie);
  EXPECT_EQ(ties, (std::vector<uint64_t>{99, 10, 20, 30}));
}

TEST(MergeHeapTest, ZeroTieKeepsKeyOnlyCosts) {
  // With every tie at 0 the heap compares keys exactly as a key-only heap
  // does: a run of equal keys costs what it always cost (the simulator's
  // merge charges depend on it).
  MergeHeap heap(4);
  for (uint32_t g = 0; g < 4; ++g) heap.Insert(MergeEntry{7, g});
  for (int k = 0; k < 8; ++k) heap.DeleteInsert(MergeEntry{7, 0});
  EXPECT_EQ(heap.cost().compares, 19u);
  EXPECT_EQ(heap.cost().swaps, 0u);
}

// Full k-way merge property: merging k sorted runs through the heap yields
// the globally sorted sequence.
class KWayMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(KWayMergeTest, MergesSortedRuns) {
  const int k = GetParam();
  Rng rng(k * 31 + 1);
  std::vector<std::vector<uint64_t>> runs(k);
  std::vector<uint64_t> all;
  for (auto& run : runs) {
    const size_t len = rng.Uniform(200);
    run.resize(len);
    for (auto& x : run) x = rng.Uniform(10000);
    std::sort(run.begin(), run.end());
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());

  MergeHeap heap(k);
  std::vector<size_t> cursor(k, 0);
  for (int g = 0; g < k; ++g) {
    if (!runs[g].empty()) {
      heap.Insert(MergeEntry{runs[g][0], static_cast<uint32_t>(g)});
      cursor[g] = 1;
    }
  }
  std::vector<uint64_t> merged;
  while (!heap.empty()) {
    const uint32_t g = heap.Min().run;
    if (cursor[g] < runs[g].size()) {
      merged.push_back(heap.DeleteInsert(
                               MergeEntry{runs[g][cursor[g]], g})
                           .key);
      ++cursor[g];
    } else {
      merged.push_back(heap.DeleteMin().key);
    }
  }
  EXPECT_EQ(merged, all);
}

INSTANTIATE_TEST_SUITE_P(FanIn, KWayMergeTest,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

TEST(MergeHeapTest, CostCountersAdvance) {
  MergeHeap heap(16);
  for (uint64_t i = 16; i > 0; --i) heap.Insert(MergeEntry{i, 0});
  const HeapCost after_insert = heap.cost();
  EXPECT_GT(after_insert.compares, 0u);
  EXPECT_EQ(after_insert.transfers, 16u);
  heap.DeleteInsert(MergeEntry{100, 0});
  EXPECT_GT(heap.cost().compares, after_insert.compares);
  heap.ResetCost();
  EXPECT_EQ(heap.cost().compares, 0u);
}

TEST(MergeHeapTest, DeleteInsertCheaperThanDeletePlusInsert) {
  Rng rng(3);
  MergeHeap a(64), b(64);
  for (int i = 0; i < 64; ++i) {
    const uint64_t k = rng.Uniform(1000);
    a.Insert(MergeEntry{k, 0});
    b.Insert(MergeEntry{k, 0});
  }
  a.ResetCost();
  b.ResetCost();
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.Uniform(1000);
    a.DeleteInsert(MergeEntry{k, 0});
    b.DeleteMin();
    b.Insert(MergeEntry{k, 0});
  }
  EXPECT_LT(a.cost().compares, b.cost().compares);
}

TEST(MergeHeapTest, ModelLevelsMonotoneInHeapSize) {
  double prev = 0;
  for (uint64_t h : {2ull, 4ull, 16ull, 64ull, 256ull, 1024ull}) {
    const double levels = MergeHeap::ModelDeleteInsertLevels(h);
    EXPECT_GT(levels, prev);
    prev = levels;
  }
  EXPECT_EQ(MergeHeap::ModelDeleteInsertLevels(1), 0.0);
}

}  // namespace
}  // namespace mmjoin
