#include "app/kv_service.h"

#include "codec/codec.h"

namespace psmr {

KvService::KvService(std::size_t shard_count) : shards_(shard_count) {}

Response KvService::execute(const Command& c) {
  Response r{c.client, c.client_seq, 0, false};
  // keys[0] is the conflict key (the shard); keys[1] carries the user key
  // and is excluded from conflict detection (nkeys == 1).
  auto& shard = shards_[c.keys[0]];
  const std::uint64_t user_key = c.keys[1];
  switch (c.op) {
    case kGet:
      if (const std::uint64_t* value = shard.find(user_key)) {
        r.value = *value;
        r.ok = true;
      }
      break;
    case kPut:
      shard.put(user_key, c.arg);
      r.ok = true;
      break;
    case kDel:
      r.ok = shard.erase(user_key);
      break;
    default:
      break;
  }
  return r;
}

std::uint64_t KvService::state_digest() const {
  // Order-independent: XOR of per-entry mixes, so iteration order of the
  // hash tables does not matter.
  std::uint64_t h = 0;
  for (const auto& shard : shards_) {
    shard.for_each([&h](std::uint64_t key, std::uint64_t value) {
      std::uint64_t z = key * 0x9E3779B97F4A7C15ull + value;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      h ^= z ^ (z >> 27);
    });
  }
  return h;
}

std::size_t KvService::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.size();
  return n;
}

std::vector<std::uint8_t> KvService::snapshot() const {
  ByteWriter out;
  out.put_varint(shards_.size());
  for (const auto& shard : shards_) {
    out.put_varint(shard.size());
    shard.for_each([&out](std::uint64_t key, std::uint64_t value) {
      out.put_varint(key);
      out.put_varint(value);
    });
  }
  return out.take();
}

bool KvService::restore(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint64_t shard_count = in.get_varint();
  if (!in.ok() || shard_count == 0 || shard_count > 1 << 20) return false;
  std::vector<FlatTable> shards(shard_count);
  for (auto& shard : shards) {
    const std::uint64_t entries = in.get_varint();
    if (!in.ok() || entries > in.remaining() + 1) return false;
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::uint64_t key = in.get_varint();
      const std::uint64_t value = in.get_varint();
      shard.put(key, value);
    }
  }
  if (!in.ok()) return false;
  shards_ = std::move(shards);
  return true;
}

Command KvService::make_get(std::uint64_t key) const {
  Command c;
  c.op = kGet;
  c.mode = AccessMode::kRead;
  c.nkeys = 1;
  c.keys[0] = shard_of(key);
  c.keys[1] = key;
  debug_assert_sorted_keys(c);
  return c;
}

Command KvService::make_put(std::uint64_t key, std::uint64_t value) const {
  Command c;
  c.op = kPut;
  c.mode = AccessMode::kWrite;
  c.nkeys = 1;
  c.keys[0] = shard_of(key);
  c.keys[1] = key;
  c.arg = value;
  debug_assert_sorted_keys(c);
  return c;
}

Command KvService::make_del(std::uint64_t key) const {
  Command c;
  c.op = kDel;
  c.mode = AccessMode::kWrite;
  c.nkeys = 1;
  c.keys[0] = shard_of(key);
  c.keys[1] = key;
  debug_assert_sorted_keys(c);
  return c;
}

}  // namespace psmr
