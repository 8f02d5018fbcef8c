/// \file util/mutable_heap.h
/// \brief Addressable binary max-heap with decrease/increase-key.
///
/// Backs the per-target heaps of the PJ-i enumerator (paper Sec VI-D,
/// join2/incremental.h): F and the residual heap order targets by a DHT
/// upper bound that must be updatable in place when a backward walk
/// tightens it or a pair is returned. Keys are located through a
/// caller-supplied handle returned at push time.

#ifndef DHTJOIN_UTIL_MUTABLE_HEAP_H_
#define DHTJOIN_UTIL_MUTABLE_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dhtjoin {

/// Max-heap over (priority, payload) pairs with stable handles.
///
/// Handles are dense integers recycled through a free list. All
/// operations are O(log n) except Top/Get/size which are O(1).
///
/// \tparam T payload type.
template <typename T>
class MutableHeap {
 public:
  using Handle = std::size_t;
  static constexpr std::size_t kInvalidPos = static_cast<std::size_t>(-1);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Inserts an entry; returns a handle valid until Erase/Pop of it.
  Handle Push(double priority, T payload) {
    Handle h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
      nodes_[h] = Node{priority, std::move(payload), heap_.size()};
    } else {
      h = nodes_.size();
      nodes_.push_back(Node{priority, std::move(payload), heap_.size()});
    }
    heap_.push_back(h);
    SiftUp(heap_.size() - 1);
    return h;
  }

  /// Priority of the maximum entry. Heap must be non-empty.
  double TopPriority() const {
    DHTJOIN_CHECK(!heap_.empty());
    return nodes_[heap_[0]].priority;
  }

  /// Handle of the maximum entry. Heap must be non-empty.
  Handle TopHandle() const {
    DHTJOIN_CHECK(!heap_.empty());
    return heap_[0];
  }

  /// Second-highest priority (the larger root child), or -infinity when
  /// fewer than two entries are held.
  double SecondPriority() const {
    if (heap_.size() < 2) {
      return -std::numeric_limits<double>::infinity();
    }
    double second = nodes_[heap_[1]].priority;
    if (heap_.size() >= 3) {
      second = std::max(second, nodes_[heap_[2]].priority);
    }
    return second;
  }

  const T& Get(Handle h) const {
    DHTJOIN_DCHECK(IsLive(h));
    return nodes_[h].payload;
  }
  T& GetMutable(Handle h) {
    DHTJOIN_DCHECK(IsLive(h));
    return nodes_[h].payload;
  }
  double Priority(Handle h) const {
    DHTJOIN_DCHECK(IsLive(h));
    return nodes_[h].priority;
  }

  /// Changes the priority of a live entry (any direction).
  void Update(Handle h, double priority) {
    DHTJOIN_DCHECK(IsLive(h));
    double old = nodes_[h].priority;
    nodes_[h].priority = priority;
    if (priority > old) {
      SiftUp(nodes_[h].pos);
    } else if (priority < old) {
      SiftDown(nodes_[h].pos);
    }
  }

  /// Removes and returns the payload of the maximum entry.
  T Pop() {
    DHTJOIN_CHECK(!heap_.empty());
    Handle h = heap_[0];
    T out = std::move(nodes_[h].payload);
    Erase(h);
    return out;
  }

  /// Removes a live entry by handle.
  void Erase(Handle h) {
    DHTJOIN_DCHECK(IsLive(h));
    std::size_t pos = nodes_[h].pos;
    Handle last = heap_.back();
    heap_.pop_back();
    nodes_[h].pos = kInvalidPos;
    free_.push_back(h);
    if (pos < heap_.size()) {
      heap_[pos] = last;
      nodes_[last].pos = pos;
      // The displaced entry may need to move either way.
      SiftUp(pos);
      SiftDown(nodes_[last].pos);
    }
  }

  void Clear() {
    heap_.clear();
    nodes_.clear();
    free_.clear();
  }

 private:
  struct Node {
    double priority;
    T payload;
    std::size_t pos;  // index into heap_, or kInvalidPos when free
  };

  bool IsLive(Handle h) const {
    return h < nodes_.size() && nodes_[h].pos != kInvalidPos;
  }

  void SiftUp(std::size_t pos) {
    Handle h = heap_[pos];
    double pri = nodes_[h].priority;
    while (pos > 0) {
      std::size_t parent = (pos - 1) / 2;
      if (nodes_[heap_[parent]].priority >= pri) break;
      heap_[pos] = heap_[parent];
      nodes_[heap_[pos]].pos = pos;
      pos = parent;
    }
    heap_[pos] = h;
    nodes_[h].pos = pos;
  }

  void SiftDown(std::size_t pos) {
    Handle h = heap_[pos];
    double pri = nodes_[h].priority;
    const std::size_t n = heap_.size();
    while (true) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && nodes_[heap_[child + 1]].priority >
                               nodes_[heap_[child]].priority) {
        ++child;
      }
      if (nodes_[heap_[child]].priority <= pri) break;
      heap_[pos] = heap_[child];
      nodes_[heap_[pos]].pos = pos;
      pos = child;
    }
    heap_[pos] = h;
    nodes_[h].pos = pos;
  }

  std::vector<Node> nodes_;
  std::vector<Handle> heap_;   // heap of handles
  std::vector<Handle> free_;   // recycled handles
};

}  // namespace dhtjoin

#endif  // DHTJOIN_UTIL_MUTABLE_HEAP_H_
