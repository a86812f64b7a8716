// A from-scratch open-addressing hash table with robin-hood probing.
//
// Used by LMergeR2's per-Vs payload set, the payload ledger, and the serde
// dictionaries.  Linear probing with robin-hood displacement keeps probe
// sequences short at high load factors; deletion uses backward-shift (no
// tombstones), which keeps iteration and memory accounting simple.  A slot
// is the key, its probe distance and the value as separate members (distance
// -1 marks an empty slot), so a pointer -> u32 slot is 16 bytes.

#ifndef LMERGE_CONTAINER_HASH_TABLE_H_
#define LMERGE_CONTAINER_HASH_TABLE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace lmerge {

template <typename Key, typename T, typename Hash, typename Eq = std::equal_to<Key>>
class HashTable {
 public:
  explicit HashTable(int64_t initial_capacity = 8) {
    int64_t cap = 8;
    while (cap < initial_capacity) cap <<= 1;
    slots_.resize(static_cast<size_t>(cap));
  }

  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int64_t capacity() const { return static_cast<int64_t>(slots_.size()); }

  // Approximate heap bytes held by the table's slot array.
  int64_t SlotBytes() const {
    return capacity() * static_cast<int64_t>(sizeof(Slot));
  }

  // Inserts (key, value) if absent; returns pointer to the stored value and
  // whether an insertion happened.
  std::pair<T*, bool> Insert(Key key, T value) {
    if ((size_ + 1) * 8 > capacity() * 7) Grow();
    return InsertNoGrow(std::move(key), std::move(value));
  }

  // Returns the value for `key`, or nullptr.
  T* Find(const Key& key) {
    const int64_t cap = capacity();
    int64_t idx = Bucket(key);
    int64_t distance = 0;
    while (true) {
      Slot& slot = slots_[static_cast<size_t>(idx)];
      // Empty (-1) or richer than the probe: robin-hood early out.
      if (slot.distance < distance) return nullptr;
      if (eq_(slot.key, key)) return &slot.value;
      idx = (idx + 1) & (cap - 1);
      ++distance;
    }
  }
  const T* Find(const Key& key) const {
    return const_cast<HashTable*>(this)->Find(key);
  }

  bool Contains(const Key& key) const { return Find(key) != nullptr; }

  // Returns existing value or default-inserts one.
  T& operator[](const Key& key) {
    if (T* v = Find(key)) return *v;
    return *Insert(key, T{}).first;
  }

  // Erases `key`; returns whether it was present.  Backward-shift deletion.
  bool Erase(const Key& key) {
    const int64_t cap = capacity();
    int64_t idx = Bucket(key);
    int64_t distance = 0;
    while (true) {
      Slot& slot = slots_[static_cast<size_t>(idx)];
      if (slot.distance < distance) return false;
      if (eq_(slot.key, key)) break;
      idx = (idx + 1) & (cap - 1);
      ++distance;
    }
    // Shift the following cluster back by one.
    int64_t hole = idx;
    while (true) {
      const int64_t next = (hole + 1) & (cap - 1);
      Slot& next_slot = slots_[static_cast<size_t>(next)];
      if (next_slot.distance <= 0) break;  // empty, or at its home bucket
      Slot& hole_slot = slots_[static_cast<size_t>(hole)];
      hole_slot.key = std::move(next_slot.key);
      hole_slot.value = std::move(next_slot.value);
      hole_slot.distance = next_slot.distance - 1;
      hole = next;
    }
    slots_[static_cast<size_t>(hole)] = Slot{};
    --size_;
    return true;
  }

  void Clear() {
    for (Slot& slot : slots_) slot = Slot{};
    size_ = 0;
  }

  // Invokes fn(key, value) for every entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.distance >= 0) fn(slot.key, slot.value);
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (Slot& slot : slots_) {
      if (slot.distance >= 0) fn(slot.key, slot.value);
    }
  }

 private:
  struct Slot {
    Key key{};
    int32_t distance = -1;  // probe distance from the home bucket; -1 = empty
    T value{};
  };

  int64_t Bucket(const Key& key) const {
    return static_cast<int64_t>(hash_(key)) & (capacity() - 1);
  }

  std::pair<T*, bool> InsertNoGrow(Key key, T value) {
    const int64_t cap = capacity();
    int64_t idx = Bucket(key);
    int32_t distance = 0;
    T* result = nullptr;
    while (true) {
      Slot& slot = slots_[static_cast<size_t>(idx)];
      if (slot.distance < 0) {
        slot.key = std::move(key);
        slot.value = std::move(value);
        slot.distance = distance;
        ++size_;
        return {result != nullptr ? result : &slot.value, true};
      }
      if (result == nullptr && slot.distance >= distance &&
          eq_(slot.key, key)) {
        return {&slot.value, false};
      }
      if (slot.distance < distance) {
        // Robin-hood: displace the richer resident and keep probing with it.
        std::swap(slot.key, key);
        std::swap(slot.value, value);
        std::swap(slot.distance, distance);
        if (result == nullptr) {
          // The displaced position holds the element we inserted.
          result = &slot.value;
        }
      }
      idx = (idx + 1) & (cap - 1);
      ++distance;
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2);
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.distance >= 0) {
        InsertNoGrow(std::move(slot.key), std::move(slot.value));
      }
    }
  }

  std::vector<Slot> slots_;
  int64_t size_ = 0;
  Hash hash_;
  Eq eq_;
};

}  // namespace lmerge

#endif  // LMERGE_CONTAINER_HASH_TABLE_H_
