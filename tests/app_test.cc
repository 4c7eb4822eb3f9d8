#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "app/bank_service.h"
#include "app/flat_table.h"
#include "app/kv_service.h"
#include "app/linked_list_service.h"
#include "common/rng.h"

namespace psmr {
namespace {

// ---------------------------------------------------------------------------
// LinkedListService
// ---------------------------------------------------------------------------

TEST(LinkedList, InitializedWithRange) {
  LinkedListService service(100);
  EXPECT_EQ(service.size(), 100u);
  for (std::uint64_t v : {0ull, 1ull, 50ull, 99ull}) {
    const Response r = service.execute(LinkedListService::make_contains(v));
    EXPECT_TRUE(r.ok) << v;
  }
  EXPECT_FALSE(service.execute(LinkedListService::make_contains(100)).ok);
}

TEST(LinkedList, AddNewValue) {
  LinkedListService service(10);
  EXPECT_TRUE(service.execute(LinkedListService::make_add(500)).ok);
  EXPECT_EQ(service.size(), 11u);
  EXPECT_TRUE(service.execute(LinkedListService::make_contains(500)).ok);
}

TEST(LinkedList, AddDuplicateReturnsFalse) {
  LinkedListService service(10);
  EXPECT_FALSE(service.execute(LinkedListService::make_add(5)).ok);
  EXPECT_EQ(service.size(), 10u);
}

TEST(LinkedList, AddAtFront) {
  LinkedListService service(0);
  EXPECT_TRUE(service.execute(LinkedListService::make_add(7)).ok);
  EXPECT_TRUE(service.execute(LinkedListService::make_add(3)).ok);  // front
  EXPECT_TRUE(service.execute(LinkedListService::make_contains(3)).ok);
  EXPECT_TRUE(service.execute(LinkedListService::make_contains(7)).ok);
  EXPECT_EQ(service.size(), 2u);
}

TEST(LinkedList, SortedOrderPreservedUnderMixedAdds) {
  LinkedListService service(0);
  for (std::uint64_t v : {5ull, 1ull, 9ull, 3ull, 7ull}) {
    EXPECT_TRUE(service.execute(LinkedListService::make_add(v)).ok);
  }
  LinkedListService reference(0);
  for (std::uint64_t v : {1ull, 3ull, 5ull, 7ull, 9ull}) {
    reference.execute(LinkedListService::make_add(v));
  }
  // Sorted insertion => digests independent of insertion order.
  EXPECT_EQ(service.state_digest(), reference.state_digest());
}

TEST(LinkedList, DigestDiffersForDifferentStates) {
  LinkedListService a(10), b(10);
  b.execute(LinkedListService::make_add(1000));
  EXPECT_NE(a.state_digest(), b.state_digest());
}

TEST(LinkedList, CommandBuildersSetModes) {
  const Command read = LinkedListService::make_contains(1);
  const Command write = LinkedListService::make_add(1);
  EXPECT_EQ(read.mode, AccessMode::kRead);
  EXPECT_EQ(write.mode, AccessMode::kWrite);
  EXPECT_FALSE(rw_conflict(read, read));
  EXPECT_TRUE(rw_conflict(read, write));
  EXPECT_TRUE(rw_conflict(write, write));
}

// Every node of a list built from a range or restored from a snapshot lies
// in one array, in ascending list order, whatever the allocator did before:
// node i of the walk sits exactly i nodes past the head.
void ExpectContiguousInListOrder(const LinkedListService& service,
                                 std::size_t nodes) {
  const std::vector<const void*> addresses = service.node_addresses();
  ASSERT_EQ(addresses.size(), nodes);
  const auto* head = static_cast<const char*>(addresses.front());
  const std::size_t stride =
      nodes > 1 ? static_cast<std::size_t>(
                      static_cast<const char*>(addresses[1]) - head)
                : 0;
  ASSERT_GT(stride, 0u);
  for (std::size_t i = 0; i < nodes; ++i) {
    ASSERT_EQ(static_cast<const char*>(addresses[i]), head + i * stride)
        << "node " << i;
  }
}

TEST(LinkedList, InitialNodesAreContiguousInListOrder) {
  // Fragment the heap first, so a node-by-node build would interleave.
  std::vector<std::unique_ptr<std::uint64_t[]>> holes;
  for (int i = 0; i < 1000; ++i) {
    holes.push_back(std::make_unique<std::uint64_t[]>(2));
    if (i % 2 == 0) holes.back().reset();
  }
  LinkedListService service(10'000);
  ExpectContiguousInListOrder(service, 10'000);
}

TEST(LinkedList, RestoredNodesAreContiguousAndAddsLinkOutside) {
  LinkedListService source(100);
  ASSERT_TRUE(source.execute(LinkedListService::make_add(1000)).ok);
  LinkedListService copy(3);
  ASSERT_TRUE(copy.execute(LinkedListService::make_add(50)).ok);
  ASSERT_TRUE(copy.restore(source.snapshot()));
  EXPECT_EQ(copy.state_digest(), source.state_digest());
  ExpectContiguousInListOrder(copy, 101);
  // A new value gets a node of its own, linked in order; the destructor
  // frees it and leaves the arena nodes to the arena.
  ASSERT_TRUE(copy.execute(LinkedListService::make_add(500)).ok);
  ASSERT_TRUE(copy.execute(LinkedListService::make_contains(500)).ok);
  EXPECT_EQ(copy.size(), 102u);
}

TEST(LinkedList, ExecCostSizesMatchPaper) {
  EXPECT_EQ(exec_cost_list_size(ExecCost::kLight), 1000u);
  EXPECT_EQ(exec_cost_list_size(ExecCost::kModerate), 10000u);
  EXPECT_EQ(exec_cost_list_size(ExecCost::kHeavy), 100000u);
}

// ---------------------------------------------------------------------------
// KvService
// ---------------------------------------------------------------------------

TEST(Kv, GetMissingReturnsNotOk) {
  KvService service;
  EXPECT_FALSE(service.execute(service.make_get(42)).ok);
}

TEST(Kv, PutThenGet) {
  KvService service;
  EXPECT_TRUE(service.execute(service.make_put(42, 7)).ok);
  const Response r = service.execute(service.make_get(42));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 7u);
}

TEST(Kv, DeleteRemoves) {
  KvService service;
  service.execute(service.make_put(1, 2));
  EXPECT_TRUE(service.execute(service.make_del(1)).ok);
  EXPECT_FALSE(service.execute(service.make_get(1)).ok);
  EXPECT_FALSE(service.execute(service.make_del(1)).ok);
}

TEST(Kv, SizeCountsEntries) {
  KvService service;
  for (std::uint64_t k = 0; k < 100; ++k) {
    service.execute(service.make_put(k, k));
  }
  EXPECT_EQ(service.size(), 100u);
}

TEST(Kv, ConflictsFollowShards) {
  KvService service(8);
  const Command get1 = service.make_get(1);
  const Command put1 = service.make_put(1, 9);
  const Command get2 = service.make_get(2);
  EXPECT_TRUE(keyset_rw_conflict(get1, put1));   // same key
  EXPECT_FALSE(keyset_rw_conflict(get1, get2));  // reads never conflict
}

TEST(Kv, DigestIsOrderIndependent) {
  KvService a, b;
  a.execute(a.make_put(1, 10));
  a.execute(a.make_put(2, 20));
  b.execute(b.make_put(2, 20));
  b.execute(b.make_put(1, 10));
  EXPECT_EQ(a.state_digest(), b.state_digest());
}

TEST(Kv, OverwriteKeepsOneEntry) {
  KvService service;
  service.execute(service.make_put(5, 1));
  service.execute(service.make_put(5, 2));
  EXPECT_EQ(service.size(), 1u);
  EXPECT_EQ(service.execute(service.make_get(5)).value, 2u);
}

TEST(Kv, SnapshotRoundTripRestoresEveryEntry) {
  KvService a(8);
  for (std::uint64_t k = 0; k < 500; ++k) a.execute(a.make_put(k, 3 * k));
  for (std::uint64_t k = 0; k < 500; k += 7) a.execute(a.make_del(k));
  a.execute(a.make_put(~std::uint64_t{0}, 9));  // the table's free-slot key
  KvService b(8);
  ASSERT_TRUE(b.restore(a.snapshot()));
  EXPECT_EQ(b.size(), a.size());
  EXPECT_EQ(b.state_digest(), a.state_digest());
  for (std::uint64_t k = 0; k < 500; ++k) {
    const Response r = b.execute(b.make_get(k));
    EXPECT_EQ(r.ok, k % 7 != 0) << k;
    if (r.ok) {
      EXPECT_EQ(r.value, 3 * k);
    }
  }
  EXPECT_EQ(b.execute(b.make_get(~std::uint64_t{0})).value, 9u);
}

// ---------------------------------------------------------------------------
// FlatTable (the KvService shard table)
// ---------------------------------------------------------------------------

// The first `n` keys from `from` upward whose probe runs start at `slot` of
// `table`'s current array.
std::vector<std::uint64_t> keys_homed_at(const FlatTable& table,
                                         std::size_t slot, std::size_t n,
                                         std::uint64_t from = 0) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = from; keys.size() < n; ++k) {
    if (table.home_slot(k) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(FlatTable, PutOverwriteFind) {
  FlatTable table;
  EXPECT_EQ(table.find(1), nullptr);
  table.put(1, 10);
  table.put(2, 20);
  table.put(1, 11);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(1), nullptr);
  EXPECT_EQ(*table.find(1), 11u);
  EXPECT_EQ(*table.find(2), 20u);
  EXPECT_EQ(table.find(3), nullptr);
  EXPECT_FALSE(table.erase(3));
}

TEST(FlatTable, EraseInsideAProbeChainKeepsTheRestReachable) {
  FlatTable table;
  table.put(0, 0);  // allocates the first array
  const std::size_t capacity = table.capacity();
  // Three keys homed at the last slot form a chain that wraps to slot 0
  // and 1; a key homed at slot 1 is pushed further along behind them.
  const std::size_t last = capacity - 1;
  const auto chain = keys_homed_at(table, last, 3, 1);
  const auto behind = keys_homed_at(table, 1, 1, 1);
  ASSERT_TRUE(table.erase(0));
  for (std::uint64_t k : chain) table.put(k, k + 100);
  table.put(behind[0], 7);
  ASSERT_EQ(table.capacity(), capacity);  // no growth: same chain layout
  // Erase the head, then the middle of what is left: each later entry must
  // still be found from its home.
  ASSERT_TRUE(table.erase(chain[0]));
  EXPECT_EQ(table.find(chain[0]), nullptr);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    ASSERT_NE(table.find(chain[i]), nullptr) << i;
    EXPECT_EQ(*table.find(chain[i]), chain[i] + 100);
  }
  ASSERT_NE(table.find(behind[0]), nullptr);
  ASSERT_TRUE(table.erase(chain[1]));
  ASSERT_NE(table.find(chain[2]), nullptr);
  EXPECT_EQ(*table.find(chain[2]), chain[2] + 100);
  ASSERT_NE(table.find(behind[0]), nullptr);
  EXPECT_EQ(*table.find(behind[0]), 7u);
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTable, GrowsAndMatchesAReferenceMapUnderChurn) {
  FlatTable table;
  std::map<std::uint64_t, std::uint64_t> reference;
  Xoshiro256 rng(5);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.below(700);
    if (rng.uniform() < 0.4) {
      EXPECT_EQ(table.erase(key), reference.erase(key) > 0);
    } else {
      table.put(key, op);
      reference[key] = static_cast<std::uint64_t>(op);
    }
  }
  ASSERT_EQ(table.size(), reference.size());
  EXPECT_GE(table.capacity() * 3, table.size() * 4);  // load <= 3/4
  for (std::uint64_t key = 0; key < 700; ++key) {
    const auto it = reference.find(key);
    const std::uint64_t* value = table.find(key);
    ASSERT_EQ(value != nullptr, it != reference.end()) << key;
    if (value != nullptr) {
      EXPECT_EQ(*value, it->second);
    }
  }
  std::size_t visited = 0;
  table.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    EXPECT_EQ(reference.at(key), value);
  });
  EXPECT_EQ(visited, reference.size());
}

TEST(FlatTable, FreeSlotKeyIsAnOrdinaryKey) {
  FlatTable table;
  const std::uint64_t max = ~std::uint64_t{0};
  EXPECT_EQ(table.find(max), nullptr);
  table.put(max, 1);
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.find(max), nullptr);
  EXPECT_EQ(*table.find(max), 1u);
  EXPECT_TRUE(table.erase(max));
  EXPECT_FALSE(table.erase(max));
  EXPECT_EQ(table.size(), 0u);
}

// ---------------------------------------------------------------------------
// BankService
// ---------------------------------------------------------------------------

TEST(Bank, InitialBalances) {
  BankService bank(10, 100);
  EXPECT_EQ(bank.total_balance(), 1000u);
  const Response r = bank.execute(BankService::make_balance(3));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 100u);
}

TEST(Bank, DepositIncreases) {
  BankService bank(2, 50);
  const Response r = bank.execute(BankService::make_deposit(0, 25));
  EXPECT_EQ(r.value, 75u);
  EXPECT_EQ(bank.total_balance(), 125u);
}

TEST(Bank, TransferMovesMoney) {
  BankService bank(2, 100);
  const Response r = bank.execute(BankService::make_transfer(0, 1, 30));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(bank.balance(0), 70u);
  EXPECT_EQ(bank.balance(1), 130u);
  EXPECT_EQ(bank.total_balance(), 200u);
}

TEST(Bank, TransferCapsAtBalance) {
  BankService bank(2, 10);
  const Response r = bank.execute(BankService::make_transfer(0, 1, 100));
  EXPECT_FALSE(r.ok);  // only partial amount moved
  EXPECT_EQ(r.value, 10u);
  EXPECT_EQ(bank.balance(0), 0u);
  EXPECT_EQ(bank.balance(1), 20u);
  EXPECT_EQ(bank.total_balance(), 20u);
}

TEST(Bank, ConflictSemantics) {
  const Command t01 = BankService::make_transfer(0, 1, 5);
  const Command t12 = BankService::make_transfer(1, 2, 5);
  const Command t23 = BankService::make_transfer(2, 3, 5);
  const Command bal0 = BankService::make_balance(0);
  const Command bal9 = BankService::make_balance(9);
  EXPECT_TRUE(keyset_rw_conflict(t01, t12));   // share account 1
  EXPECT_FALSE(keyset_rw_conflict(t01, t23));  // disjoint
  EXPECT_TRUE(keyset_rw_conflict(t01, bal0));  // read vs write on account 0
  EXPECT_FALSE(keyset_rw_conflict(t01, bal9));
  EXPECT_FALSE(keyset_rw_conflict(bal0, bal9));
  EXPECT_FALSE(keyset_rw_conflict(bal0, bal0));  // reads never conflict
}

TEST(Bank, DigestSensitiveToDistribution) {
  BankService a(4, 100), b(4, 100);
  a.execute(BankService::make_transfer(0, 1, 10));
  EXPECT_EQ(a.total_balance(), b.total_balance());
  EXPECT_NE(a.state_digest(), b.state_digest());
}

}  // namespace
}  // namespace psmr
