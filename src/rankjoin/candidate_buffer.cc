#include "rankjoin/candidate_buffer.h"

#include <algorithm>
#include <bit>

namespace dhtjoin {

namespace {

/// PairKey(kInvalidNode, kInvalidNode): no buffered pair has it.
constexpr uint64_t kEmptyPair = ~uint64_t{0};
constexpr std::size_t kInitialSlots = 16;

uint64_t KeyBits(uint64_t key) { return key; }
uint64_t KeyBits(NodeId id) { return static_cast<uint32_t>(id); }

/// Index of `key`'s slot in a power-of-two table, or of the empty slot
/// where it would go. The home slot is the top bits of the Fibonacci
/// product, so neighbouring ids spread out.
template <typename Slots, typename Key>
std::size_t Probe(const Slots& slots, Key key, Key empty) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (KeyBits(key) * 0x9E3779B97F4A7C15ull) >>
      (64 - std::countr_zero(slots.size())));
  while (slots[i].key != key && slots[i].key != empty) i = (i + 1) & mask;
  return i;
}

/// Makes room for one more key in a table holding `used`: doubles it
/// (re-placing every key) when it would be more than half full.
template <typename Slots, typename Key>
void Reserve(Slots& slots, std::size_t used, Key empty) {
  using Slot = typename Slots::value_type;
  if (2 * (used + 1) <= slots.size()) return;
  Slots old(std::max(kInitialSlots, 2 * slots.size()), Slot{empty, {}});
  old.swap(slots);
  for (const Slot& s : old) {
    if (s.key != empty) slots[Probe(slots, s.key, empty)] = s;
  }
}

}  // namespace

bool CandidateBuffer::Insert(NodeId left, NodeId right, double score) {
  DHTJOIN_DCHECK(left != kInvalidNode && right != kInvalidNode);
  DHTJOIN_DCHECK(entries_.size() < kEnd);
  const uint64_t key = PairKey(left, right);
  Reserve(by_pair_, entries_.size(), kEmptyPair);
  PairSlot& slot = by_pair_[Probe(by_pair_, key, kEmptyPair)];
  if (slot.key == key) return false;
  const auto index = static_cast<uint32_t>(entries_.size());
  slot = PairSlot{key, index};
  entries_.push_back(Entry{ScoredPair{left, right, score}, {kEnd, kEnd}});

  const NodeId ids[2] = {left, right};
  for (int side = 0; side < 2; ++side) {
    std::vector<IdSlot>& slots = by_id_[side];
    Reserve(slots, id_count_[side], kInvalidNode);
    IdSlot& s = slots[Probe(slots, ids[side], kInvalidNode)];
    if (s.key == kInvalidNode) {
      s = IdSlot{ids[side], ChainHead{index, index, 1}};
      ++id_count_[side];
    } else {
      entries_[s.value.tail].next[side] = index;
      s.value.tail = index;
      ++s.value.size;
    }
  }
  return true;
}

std::optional<double> CandidateBuffer::Lookup(NodeId left,
                                              NodeId right) const {
  if (by_pair_.empty()) return std::nullopt;
  const PairSlot& slot =
      by_pair_[Probe(by_pair_, PairKey(left, right), kEmptyPair)];
  if (slot.key == kEmptyPair) return std::nullopt;
  return entries_[slot.value].pair.score;
}

CandidateBuffer::Chain CandidateBuffer::Find(int side, NodeId id) const {
  const std::vector<IdSlot>& slots = by_id_[side];
  if (!slots.empty()) {
    const IdSlot& s = slots[Probe(slots, id, kInvalidNode)];
    if (s.key != kInvalidNode) {
      return Chain(entries_.data(), s.value.head, s.value.size, side);
    }
  }
  return Chain(entries_.data(), kEnd, 0, side);
}

}  // namespace dhtjoin
