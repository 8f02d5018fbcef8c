/// \file rankjoin/candidate_buffer.h
/// \brief Per-query-edge buffer of pulled node pairs (paper Alg. 1, C).
///
/// Every pair pulled from a 2-way join stream is remembered here so that
/// getCandidate can join a newly arrived pair against all compatible
/// pairs of the other edges. Supports lookup by left endpoint, by right
/// endpoint, and by exact pair. (The paper describes C as a dense
/// |R_i| x |R_j| array. Only pulled pairs are ever probed, so the
/// buffer keeps just those, in pull order, behind three flat
/// open-addressed indexes: pair -> entry, and left id / right id -> the
/// head, tail and length of that id's pull-order chain. An insert costs
/// a few probes and no allocation beyond amortized growth.)

// dhtlint: allow-file(raw-id-param): the buffer indexes ScoredPair
// endpoints, which stay raw external ids by the join-output
// convention (DESIGN.md §10).

#ifndef DHTJOIN_RANKJOIN_CANDIDATE_BUFFER_H_
#define DHTJOIN_RANKJOIN_CANDIDATE_BUFFER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "join2/two_way_join.h"

namespace dhtjoin {

/// Flat-indexed set of scored pairs for one query edge, in pull order.
class CandidateBuffer {
 public:
  /// A buffered pair and the next entries of its left id's and right
  /// id's chains (kEnd at a chain's tail).
  struct Entry {
    ScoredPair pair;
    uint32_t next[2];
  };
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// The buffered pairs sharing one endpoint, in pull order. A view: it
  /// stays valid until the next Insert.
  class Chain {
   public:
    class Iterator {
     public:
      const ScoredPair& operator*() const { return entries_[index_].pair; }
      Iterator& operator++() {
        index_ = entries_[index_].next[side_];
        return *this;
      }
      bool operator!=(const Iterator& other) const {
        return index_ != other.index_;
      }

     private:
      friend class Chain;
      Iterator(const Entry* entries, uint32_t index, int side)
          : entries_(entries), index_(index), side_(side) {}
      const Entry* entries_;
      uint32_t index_;
      int side_;
    };

    Iterator begin() const { return Iterator(entries_, head_, side_); }
    Iterator end() const { return Iterator(entries_, kEnd, side_); }
    std::size_t size() const { return size_; }

   private:
    friend class CandidateBuffer;
    Chain(const Entry* entries, uint32_t head, uint32_t size, int side)
        : entries_(entries), head_(head), size_(size), side_(side) {}
    const Entry* entries_;
    uint32_t head_;
    uint32_t size_;
    int side_;
  };

  /// Buffers a pulled pair. Returns false, and buffers nothing, when
  /// (left, right) is already buffered. Neither id may be kInvalidNode.
  bool Insert(NodeId left, NodeId right, double score);

  /// Score of (left, right) when buffered.
  std::optional<double> Lookup(NodeId left, NodeId right) const;

  /// All buffered pairs with the given left endpoint (empty if none).
  Chain ByLeft(NodeId left) const { return Find(0, left); }

  /// All buffered pairs with the given right endpoint.
  Chain ByRight(NodeId right) const { return Find(1, right); }

  /// Every buffered entry, in pull order.
  const std::vector<Entry>& All() const { return entries_; }

  std::size_t size() const { return entries_.size(); }

 private:
  /// One slot of an open-addressed index (linear probing, power-of-two
  /// capacity, at most half full). A slot is empty while its key is
  /// the index's empty key.
  template <typename Key, typename Value>
  struct Slot {
    Key key;
    Value value;
  };
  /// A chain's ends and length, the value of the by-left and by-right
  /// indexes.
  struct ChainHead {
    uint32_t head;
    uint32_t tail;
    uint32_t size;
  };
  using PairSlot = Slot<uint64_t, uint32_t>;
  using IdSlot = Slot<NodeId, ChainHead>;

  Chain Find(int side, NodeId id) const;

  std::vector<Entry> entries_;
  std::vector<PairSlot> by_pair_;     // PairKey -> entry index
  std::vector<IdSlot> by_id_[2];      // left id / right id -> chain
  std::size_t id_count_[2] = {0, 0};  // distinct ids in by_id_
};

}  // namespace dhtjoin

#endif  // DHTJOIN_RANKJOIN_CANDIDATE_BUFFER_H_
