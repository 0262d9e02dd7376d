#include "heap/merge_heap.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace mmjoin {

MergeHeap::MergeHeap(size_t capacity) { heap_.reserve(capacity); }

void MergeHeap::Insert(const MergeEntry& e) {
  heap_.push_back(e);
  ++cost_.transfers;
  SiftUp(heap_.size() - 1);
}

MergeEntry MergeHeap::DeleteMin() {
  assert(!heap_.empty());
  MergeEntry min = heap_[0];
  ++cost_.transfers;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  return min;
}

MergeEntry MergeHeap::DeleteInsert(const MergeEntry& next) {
  assert(!heap_.empty());
  MergeEntry min = heap_[0];
  heap_[0] = next;
  cost_.transfers += 2;  // one element out, one element in
  SiftDown(0);
  return min;
}

void MergeHeap::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    size_t smallest = i;
    const size_t l = 2 * i + 1;
    const size_t r = 2 * i + 2;
    if (l < n) {
      ++cost_.compares;
      if (Less(heap_[l], heap_[smallest])) smallest = l;
    }
    if (r < n) {
      ++cost_.compares;
      if (Less(heap_[r], heap_[smallest])) smallest = r;
    }
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    ++cost_.swaps;
    i = smallest;
  }
}

void MergeHeap::SiftUp(size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    ++cost_.compares;
    if (!Less(heap_[i], heap_[parent])) return;
    std::swap(heap_[i], heap_[parent]);
    ++cost_.swaps;
    i = parent;
  }
}

double MergeHeap::ModelDeleteInsertLevels(uint64_t h) {
  if (h <= 1) return 0.0;
  const double k = std::ceil(std::log2(static_cast<double>(h))) + 1.0;
  const double hh = static_cast<double>(h);
  return (k * (hh + 1.0) - std::pow(2.0, k)) / hh;
}

}  // namespace mmjoin
