#include "app/linked_list_service.h"

#include <functional>

#include "codec/codec.h"

namespace psmr {

LinkedListService::LinkedListService(std::size_t initial_size) {
  // The sorted list 0..initial_size-1, as in the paper.
  std::vector<std::uint64_t> values(initial_size);
  for (std::size_t i = 0; i < initial_size; ++i) values[i] = i;
  build(values);
}

LinkedListService::~LinkedListService() { free_nodes(); }

bool LinkedListService::in_arena(const ListNode* node) const {
  const std::less<const ListNode*> before;
  return !before(node, arena_.get()) &&
         before(node, arena_.get() + arena_size_);
}

void LinkedListService::free_nodes() {
  ListNode* node = head_;
  while (node != nullptr) {
    ListNode* next = node->next;
    if (!in_arena(node)) delete node;
    node = next;
  }
  head_ = nullptr;
  arena_.reset();
  arena_size_ = 0;
  size_ = 0;
}

void LinkedListService::build(const std::vector<std::uint64_t>& values) {
  free_nodes();
  if (values.empty()) return;
  arena_ = std::make_unique_for_overwrite<ListNode[]>(values.size());
  arena_size_ = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    arena_[i] = {values[i], i + 1 < values.size() ? &arena_[i + 1] : nullptr};
  }
  head_ = arena_.get();
  size_ = values.size();
}

std::vector<const void*> LinkedListService::node_addresses() const {
  std::vector<const void*> addresses;
  addresses.reserve(size_);
  for (const ListNode* node = head_; node != nullptr; node = node->next) {
    addresses.push_back(node);
  }
  return addresses;
}

Response LinkedListService::execute(const Command& c) {
  Response r{c.client, c.client_seq, 0, false};
  switch (c.op) {
    case kContains:
      r.ok = contains(c.arg);
      break;
    case kAdd:
      r.ok = add(c.arg);
      break;
    default:
      break;
  }
  return r;
}

bool LinkedListService::contains(std::uint64_t value) const {
  const ListNode* node = head_;
  while (node != nullptr && node->value < value) node = node->next;
  return node != nullptr && node->value == value;
}

bool LinkedListService::add(std::uint64_t value) {
  if (head_ == nullptr || head_->value > value) {
    head_ = new ListNode{value, head_};
    ++size_;
    return true;
  }
  ListNode* node = head_;
  while (node->next != nullptr && node->next->value < value) node = node->next;
  if (node->value == value ||
      (node->next != nullptr && node->next->value == value)) {
    return false;  // already present
  }
  node->next = new ListNode{value, node->next};
  ++size_;
  return true;
}

std::uint64_t LinkedListService::state_digest() const {
  // Order-sensitive FNV-style fold; identical lists => identical digests.
  std::uint64_t h = 1469598103934665603ull;
  for (const ListNode* node = head_; node != nullptr; node = node->next) {
    h ^= node->value;
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::uint8_t> LinkedListService::snapshot() const {
  // Sorted ascending => delta encoding keeps most entries to 1 byte.
  ByteWriter out;
  out.put_varint(size_);
  std::uint64_t previous = 0;
  for (const ListNode* node = head_; node != nullptr; node = node->next) {
    out.put_varint(node->value - previous);
    previous = node->value;
  }
  return out.take();
}

bool LinkedListService::restore(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  const std::uint64_t count = in.get_varint();
  if (!in.ok() || count > in.remaining() * 10) return false;  // sanity bound
  std::vector<std::uint64_t> values;
  values.reserve(count);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    previous += in.get_varint();
    values.push_back(previous);
  }
  if (!in.ok()) return false;
  build(values);
  return true;
}

Command LinkedListService::make_contains(std::uint64_t value) {
  Command c;
  c.op = kContains;
  c.mode = AccessMode::kRead;
  c.arg = value;
  return c;
}

Command LinkedListService::make_add(std::uint64_t value) {
  Command c;
  c.op = kAdd;
  c.mode = AccessMode::kWrite;
  c.arg = value;
  return c;
}

}  // namespace psmr
