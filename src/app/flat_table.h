// Flat open-addressing hash map from 64-bit keys to 64-bit values.
//
// Keys and values live inline in one power-of-two array of 16-byte slots;
// lookups probe linearly from the key's home slot, and erase shifts the
// rest of the probe run back into the hole (no tombstones, so a table that
// churns never fills with dead slots). The load stays at most 3/4. The
// key kFree marks an unused slot; the one user key equal to it is kept
// beside the array. Not synchronized.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace psmr {

class FlatTable {
 public:
  // Pointer to the value of `key`, or nullptr.
  const std::uint64_t* find(std::uint64_t key) const {
    if (key == kFree) return has_free_key_ ? &free_key_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[probe(key)];
    return slot.key == key ? &slot.value : nullptr;
  }

  // Inserts or overwrites.
  void put(std::uint64_t key, std::uint64_t value) {
    if (key == kFree) {
      has_free_key_ = true;
      free_key_value_ = value;
      return;
    }
    std::size_t i = slots_.empty() ? 0 : probe(key);
    if (!slots_.empty() && slots_[i].key == key) {
      slots_[i].value = value;
      return;
    }
    if ((used_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = probe(key);
    }
    slots_[i] = {key, value};
    ++used_;
  }

  // True if `key` was present.
  bool erase(std::uint64_t key) {
    if (key == kFree) return std::exchange(has_free_key_, false);
    if (slots_.empty()) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    // Walk the rest of the probe run; an entry moves back into the hole
    // unless its home lies cyclically in (hole, j], where it must stay to
    // remain reachable.
    for (std::size_t j = next(hole); slots_[j].key != kFree; j = next(j)) {
      if (((j - home_slot(slots_[j].key)) & mask()) >=
          ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --used_;
    return true;
  }

  std::size_t size() const { return used_ + (has_free_key_ ? 1 : 0); }
  std::size_t capacity() const { return slots_.size(); }

  // Slot a key's probe run starts at (Fibonacci hashing: the top bits of
  // key * 2^64/phi). Exposed so tests can build probe chains; only
  // meaningful once the table has slots (capacity() > 0).
  std::size_t home_slot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  // Calls fn(key, value) for every entry, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (has_free_key_) fn(kFree, free_key_value_);
    for (const Slot& slot : slots_) {
      if (slot.key != kFree) fn(slot.key, slot.value);
    }
  }

 private:
  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = kFree;
    std::uint64_t value = 0;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  // Slot holding `key`, or the free slot that ends its probe run.
  std::size_t probe(std::uint64_t key) const {
    std::size_t i = home_slot(key);
    while (slots_[i].key != key && slots_[i].key != kFree) i = next(i);
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max(kMinCapacity, old.size() * 2), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.key != kFree) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;  // empty until the first put
  std::size_t used_ = 0;     // occupied slots
  int shift_ = 64;           // 64 - log2(capacity)
  bool has_free_key_ = false;
  std::uint64_t free_key_value_ = 0;
};

}  // namespace psmr
