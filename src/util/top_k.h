/// \file util/top_k.h
/// \brief Fixed-capacity top-k selection heap.

#ifndef DHTJOIN_UTIL_TOP_K_H_
#define DHTJOIN_UTIL_TOP_K_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace dhtjoin {

/// Default tie policy: no item preference, so the first arrival among
/// equal keys is retained (the pre-tie-break behaviour).
template <typename T>
struct KeepFirstTie {
  bool operator()(const T& /*a*/, const T& /*b*/) const { return false; }
};

/// Keeps the k items with the LARGEST keys seen so far.
///
/// Internally a size-bounded min-heap on the key: the root is the current
/// k-th largest key, which is exactly the pruning threshold `T_k` used by
/// the IDJ family of algorithms (paper Sec V-B / VI-B).
///
/// \tparam T item type (copyable).
/// \tparam Prefer strict weak order over items used ONLY to break key
///   ties: Prefer(a, b) == true means `a` outranks `b` at equal key, so
///   the retained set (and thus the k-th boundary) is deterministic no
///   matter in which order equal-keyed items arrive. The joins pass the
///   library-wide (p, q)-ascending order here so every algorithm returns
///   the same pairs on tied scores (see join2/two_way_join.h).
template <typename T, typename Prefer = KeepFirstTie<T>>
class TopK {
 public:
  struct Entry {
    double key;
    T item;
  };

  /// \param k capacity; must be positive.
  explicit TopK(std::size_t k) : k_(k) { DHTJOIN_CHECK_GT(k, 0u); }

  /// True when Offer(key, item) would discard the item: the heap is
  /// full and `key` is below the k-th key, or equal to it without
  /// `probe` outranking the worst retained item under Prefer. `probe` is
  /// the item itself, or anything Prefer can rank against a T (a tuple's
  /// node vector, say), so a caller can test a candidate before paying
  /// to build it. Offer applies this same test: a rejected offer never
  /// changes the heap.
  template <typename Probe>
  bool Rejects(double key, const Probe& probe) const {
    if (heap_.size() < k_) return false;
    const Entry& worst = heap_.front();
    return key < worst.key ||
           (key == worst.key && !Prefer()(probe, worst.item));
  }

  /// Offers an item; keeps it only if it ranks among the k largest
  /// (key-descending, ties broken by Prefer). Returns true when the
  /// item was retained.
  bool Offer(double key, T item) {
    if (Rejects(key, item)) return false;
    if (heap_.size() < k_) {
      heap_.push_back(Entry{key, std::move(item)});
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), MinFirst);
      heap_.back() = Entry{key, std::move(item)};
    }
    std::push_heap(heap_.begin(), heap_.end(), MinFirst);
    return true;
  }

  /// Current k-th largest key; -inf while fewer than k items are held.
  /// This is the threshold below which no new item can enter.
  double Threshold() const {
    if (heap_.size() < k_) return -std::numeric_limits<double>::infinity();
    return heap_.front().key;
  }

  /// Smallest retained key; -inf when empty.
  double MinKey() const {
    if (heap_.empty()) return -std::numeric_limits<double>::infinity();
    return heap_.front().key;
  }

  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  std::size_t capacity() const { return k_; }
  void Clear() { heap_.clear(); }

  /// Extracts all retained entries in DESCENDING key order (ties in
  /// Prefer order).
  std::vector<Entry> TakeSortedDescending() {
    std::sort(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) {
      if (a.key != b.key) return a.key > b.key;
      return Prefer()(a.item, b.item);
    });
    return std::move(heap_);
  }

  /// Read-only access to the (unordered) retained entries.
  const std::vector<Entry>& entries() const { return heap_; }

 private:
  /// std heap is a max-heap; this comparator inverts it so the WORST
  /// retained entry (smallest key; among equals, the one Prefer ranks
  /// lowest) sits at the root, ready to be displaced.
  static bool MinFirst(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key > b.key;
    return Prefer()(a.item, b.item);
  }

  std::size_t k_;
  std::vector<Entry> heap_;
};

}  // namespace dhtjoin

#endif  // DHTJOIN_UTIL_TOP_K_H_
