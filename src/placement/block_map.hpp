// Flat open-addressing tables keyed by placement block.
//
// Every access of every engine asks the placement for its block's home,
// so the block -> home map sits on the simulator's hottest path.  A
// node-based std::unordered_map costs a 64-bit modulo by a prime bucket
// count plus a pointer chase per probe; this table is one contiguous
// array of {block, value} slots instead:
//   - power-of-two capacity, kept at least twice the entry count;
//   - multiplicative (Fibonacci) hashing: the slot is the top bits of
//     block * 2^64/phi, so nearby blocks scatter across the table;
//   - linear probing, so a miss walks adjacent slots of one cache line.
// A slot whose key is kEmptyBlock is free.  That one key therefore cannot
// be stored; inserting it fails a named assertion instead of aliasing a
// free slot.  Blocks are byte addresses shifted right by log2(line size),
// so no trace with lines of two bytes or more can produce it.
//
// There is no erase: placements and the trace profiles built from them
// only ever grow.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace em2 {

template <typename V>
class BlockMap {
 public:
  /// The free-slot marker: the one block key the table cannot hold.
  static constexpr Addr kEmptyBlock = ~Addr{0};

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return slots_.size(); }

  /// The value stored for `block`, or nullptr if it has none.
  const V* find(Addr block) const noexcept {
    if (slots_.empty()) {
      return nullptr;
    }
    for (std::size_t i = slot_of(block);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.block == block) {
        // A lookup of the free-slot key lands on a free slot: absent.
        return block != kEmptyBlock ? &s.value : nullptr;
      }
      if (s.block == kEmptyBlock) {
        return nullptr;
      }
    }
  }
  V* find(Addr block) noexcept {
    return const_cast<V*>(std::as_const(*this).find(block));
  }

  bool contains(Addr block) const noexcept { return find(block) != nullptr; }

  /// Inserts {block, value} unless `block` is present.  Returns the
  /// stored value and whether this call inserted it.  The pointer is
  /// valid until the next insertion.
  std::pair<V*, bool> try_emplace(Addr block, const V& value) {
    EM2_ASSERT(block != kEmptyBlock,
               "BlockMap: the free-slot sentinel block cannot be a key");
    if (2 * (size_ + 1) > slots_.size()) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    for (std::size_t i = slot_of(block);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.block == block) {
        return {&s.value, false};
      }
      if (s.block == kEmptyBlock) {
        s.block = block;
        s.value = value;
        ++size_;
        return {&s.value, true};
      }
    }
  }

  /// The value for `block`, value-initialized on first use.
  V& operator[](Addr block) { return *try_emplace(block, V{}).first; }

  /// Sizes the table for `n` entries without a later rehash.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap < 2 * n) {
      cap *= 2;
    }
    if (cap > slots_.size()) {
      rehash(cap);
    }
  }

  /// Empties the table, keeping its capacity.
  void clear() noexcept {
    for (Slot& s : slots_) {
      s.block = kEmptyBlock;
    }
    size_ = 0;
  }

  /// Calls f(block, value) for every entry, in slot order.  Slot order
  /// depends on the insertion history, so a caller must not let it reach
  /// a result: each use states why its result is order-insensitive.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.block != kEmptyBlock) {
        f(s.block, s.value);
      }
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::uint64_t kFibonacci = 0x9e3779b97f4a7c15ull;

  struct Slot {
    Addr block = kEmptyBlock;
    V value{};
  };

  std::size_t slot_of(Addr block) const noexcept {
    return static_cast<std::size_t>((block * kFibonacci) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (Slot& s : old) {
      if (s.block != kEmptyBlock) {
        std::size_t i = slot_of(s.block);
        while (slots_[i].block != kEmptyBlock) {
          i = (i + 1) & mask_;
        }
        slots_[i] = std::move(s);
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

/// A set of placement blocks on the same flat table.
class BlockSet {
 public:
  /// Returns true if `block` was not yet a member.
  bool insert(Addr block) { return map_.try_emplace(block, {}).second; }
  bool contains(Addr block) const noexcept { return map_.contains(block); }
  std::size_t size() const noexcept { return map_.size(); }

 private:
  struct Member {};
  BlockMap<Member> map_;
};

}  // namespace em2
