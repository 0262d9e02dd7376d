// Delete-insert merge heap used by the merging passes of the parallel
// sort-merge join (section 6.1): a min-heap of NRUN cursors, one per sorted
// input run. The heap always holds the next unprocessed element of each run;
// DeleteInsert pops the minimum and inserts its successor from the same run
// in a single combined sift (the classic replacement-selection primitive,
// Gonnet & Baeza-Yates p.214).
#ifndef MMJOIN_HEAP_MERGE_HEAP_H_
#define MMJOIN_HEAP_MERGE_HEAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "heap/heap_cost.h"

namespace mmjoin {

/// An entry in the merge heap: a sort key plus the id of the run it came
/// from (so the consumer can advance the right cursor). `tie` orders
/// entries of equal key — the index build's (sptr, r_id) leaf order; left
/// at 0 it changes nothing, so the key alone orders the heap. `tie` sits
/// next to `key` so (key, tie) compares as one 128-bit value.
struct MergeEntry {
  MergeEntry() = default;
  MergeEntry(uint64_t k, uint32_t r, uint64_t t = 0) : key(k), tie(t), run(r) {}

  uint64_t key = 0;
  uint64_t tie = 0;
  uint32_t run = 0;
};

/// Min-heap over MergeEntry keyed on (`key`, `tie`), with counted
/// operations (one compare per entry pair, whichever fields it reads).
class MergeHeap {
 public:
  /// Constructs an empty heap with capacity for `capacity` entries.
  explicit MergeHeap(size_t capacity);

  /// Inserts an entry (used while priming the heap).
  void Insert(const MergeEntry& e);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Returns the minimum entry without removing it. Heap must be non-empty.
  const MergeEntry& Min() const { return heap_[0]; }

  /// Removes and returns the minimum. Heap must be non-empty.
  MergeEntry DeleteMin();

  /// Combined delete-min + insert: replaces the root with `next` and sifts
  /// once. Strictly cheaper than DeleteMin() followed by Insert().
  /// Returns the removed minimum.
  MergeEntry DeleteInsert(const MergeEntry& next);

  const HeapCost& cost() const { return cost_; }
  void ResetCost() { cost_ = HeapCost{}; }

  /// Analytical per-operation cost g(h) of a delete-insert on a heap of h
  /// elements per the paper:
  ///   g(h) = (2*compare + swap) * ((k*(h+1) - 2^k) / h),  k = ceil(log2 h)+1
  /// expressed here as the expected number of (compare, swap) pairs.
  static double ModelDeleteInsertLevels(uint64_t h);

 private:
  static bool Less(const MergeEntry& a, const MergeEntry& b) {
    using u128 = unsigned __int128;
    return (u128{a.key} << 64 | a.tie) < (u128{b.key} << 64 | b.tie);
  }
  void SiftDown(size_t i);
  void SiftUp(size_t i);

  std::vector<MergeEntry> heap_;
  HeapCost cost_;
};

}  // namespace mmjoin

#endif  // MMJOIN_HEAP_MERGE_HEAP_H_
