// Open-addressed hash map with 64-bit keys for hot-path lookups.
//
// std::unordered_map pays a node allocation per insert and a pointer chase
// per lookup. DenseMap64 stores keys and values in flat parallel arrays
// with linear probing and a power-of-two capacity, pre-sizable so a known
// key count never rehashes. Erase is deliberately not provided: the
// EvalService cache it backs drops a whole shard at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wave::common {

/// Flat hash map keyed by uint64 (the all-ones key is reserved as the
/// empty sentinel). V must be default-constructible and movable.
template <typename V>
class DenseMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// Pre-sizes so `keys` entries fit below the 2/3 load factor.
  void reserve_keys(std::size_t keys) {
    std::size_t want = 16;
    while (want * 2 < keys * 3) want *= 2;
    if (want > buckets()) rehash(want);
  }

  /// Value for `key`, default-constructed on first access.
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 3 > buckets() * 2)
      rehash(buckets() ? buckets() * 2 : 16);
    std::size_t i = mix(key) & mask_;
    while (true) {
      if (keys_[i] == key) return values_[i];
      if (keys_[i] == kEmptyKey) {
        keys_[i] = key;
        ++size_;
        return values_[i];
      }
      i = (i + 1) & mask_;
    }
  }

  /// Value for `key`, or nullptr — never inserts.
  V* find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    std::size_t i = mix(key) & mask_;
    while (true) {
      if (keys_[i] == key) return &values_[i];
      if (keys_[i] == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  const V* find(std::uint64_t key) const {
    return const_cast<DenseMap64*>(this)->find(key);
  }

  std::size_t size() const { return size_; }
  std::size_t buckets() const { return keys_.size(); }

  /// Calls fn(key, value) for every entry, in unspecified (bucket) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i)
      if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
  }

 private:
  /// splitmix64 finalizer — avalanches the packed (src, dst) rank pairs.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void rehash(std::size_t cap) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(cap, kEmptyKey);
    values_.clear();
    values_.resize(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmptyKey) continue;
      std::size_t j = mix(old_keys[i]) & mask_;
      while (keys_[j] != kEmptyKey) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = std::move(old_values[i]);
    }
  }

  std::vector<std::uint64_t> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace wave::common
