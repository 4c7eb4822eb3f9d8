// The paper's evaluation application (§7.2): a sorted integer linked list
// exposing contains(i) — a read — and add(i) — a write. The whole list is
// one shared variable, so reads are mutually independent and writes conflict
// with everything (rw_conflict). Execution cost is governed by the list
// length: the paper initializes it with 1k, 10k and 100k entries for light,
// moderate and heavy per-command cost, and every operation traverses from
// the head.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/service.h"

namespace psmr {

// Paper cost classes and their initial list sizes.
enum class ExecCost { kLight, kModerate, kHeavy };

inline constexpr std::size_t exec_cost_list_size(ExecCost cost) {
  switch (cost) {
    case ExecCost::kLight:
      return 1'000;
    case ExecCost::kModerate:
      return 10'000;
    case ExecCost::kHeavy:
      return 100'000;
  }
  return 0;
}

inline constexpr const char* exec_cost_name(ExecCost cost) {
  switch (cost) {
    case ExecCost::kLight:
      return "light";
    case ExecCost::kModerate:
      return "moderate";
    case ExecCost::kHeavy:
      return "heavy";
  }
  return "?";
}

class LinkedListService final : public Service {
 public:
  enum Op : std::uint16_t { kContains = 1, kAdd = 2 };

  // Initializes the list with values 0 .. initial_size-1, as in the paper.
  explicit LinkedListService(std::size_t initial_size);
  ~LinkedListService() override;

  Response execute(const Command& c) override;
  ConflictFn conflict() const override { return rw_conflict; }
  // Early scheduling: reads spread round-robin; every write is a barrier.
  ClassMapFn class_map() const override { return rw_class_map; }
  std::uint64_t state_digest() const override;
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;
  const char* name() const override { return "linked-list"; }

  std::size_t size() const { return size_; }

  // Test hook: the address of every node, in list order.
  std::vector<const void*> node_addresses() const;

  // Command builders (the workload generator and clients use these).
  static Command make_contains(std::uint64_t value);
  static Command make_add(std::uint64_t value);

 private:
  struct ListNode {
    std::uint64_t value;
    ListNode* next;
  };

  bool contains(std::uint64_t value) const;
  bool add(std::uint64_t value);
  // Replaces the list with `values` (ascending), built in list order in one
  // fresh arena.
  void build(const std::vector<std::uint64_t>& values);
  bool in_arena(const ListNode* node) const;
  void free_nodes();

  // The initial nodes and those restore() builds sit in one contiguous
  // array, in ascending list order, like the bump allocation of the paper's
  // JVM: a walk reads memory front to back, whatever the allocator did
  // before. Only add() of a new value allocates a node on its own.
  std::unique_ptr<ListNode[]> arena_;
  std::size_t arena_size_ = 0;
  ListNode* head_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace psmr
