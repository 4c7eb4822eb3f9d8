// Key-value store service with per-key conflicts.
//
// Unlike the paper's linked list (one shared variable), each key is its own
// variable: GETs are independent of everything except PUT/DEL on the same
// key. This exercises the keyset conflict relation and produces much sparser
// dependency graphs — the regime where parallel SMR shines.
//
// Concurrency model: the key space is statically sharded; commands on
// different shards never conflict, commands on the same shard conflict if
// one writes. A shard is a plain (unsynchronized) hash table — the COS
// discipline guarantees a writer is alone on its shard.
//
// The shard table is flat (app/flat_table.h): a replica keeps every key
// ever put, so the per-entry footprint sets the service's memory — 16
// bytes per slot inline, against a heap node plus a bucket pointer per
// entry for a node-based map.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/flat_table.h"
#include "app/service.h"

namespace psmr {

class KvService final : public Service {
 public:
  enum Op : std::uint16_t { kGet = 1, kPut = 2, kDel = 3 };

  explicit KvService(std::size_t shard_count = 64);

  Response execute(const Command& c) override;
  ConflictFn conflict() const override { return keyset_rw_conflict; }
  // Early scheduling: one class per shard group (shard id mod workers).
  ClassMapFn class_map() const override { return keyed_class_map; }
  std::uint64_t state_digest() const override;
  std::vector<std::uint8_t> snapshot() const override;
  bool restore(std::span<const std::uint8_t> bytes) override;
  const char* name() const override { return "kv-store"; }

  std::size_t size() const;
  std::size_t shard_count() const { return shards_.size(); }

  // Command builders. The conflict key is the *shard* of the user key, so
  // the declared conflict relation is (slightly conservatively) aligned with
  // the shard-level synchronization contract.
  Command make_get(std::uint64_t key) const;
  Command make_put(std::uint64_t key, std::uint64_t value) const;
  Command make_del(std::uint64_t key) const;

 private:
  std::uint64_t shard_of(std::uint64_t key) const {
    // splitmix-style mix so adjacent keys spread across shards.
    std::uint64_t z = key + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    return (z ^ (z >> 27)) % shards_.size();
  }

  std::vector<FlatTable> shards_;
};

}  // namespace psmr
