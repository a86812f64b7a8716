// A flat small map: up to N entries stored inline, found by linear scan.
//
// This is the bottom tier of in2t/in3t (stream id -> that stream's Ve state
// for one event, plus the distinguished output entry).  An R3/R4 merge of k
// inputs holds at most k + 1 entries per event, so with N = 4 a merge of up
// to three inputs never touches the heap: the entries live in the index's
// tree node itself.  Wider merges spill the entries past N into one heap
// vector behind a single pointer, so the inline footprint does not grow with
// the spill.
//
// Inline slots are filled front to back and an unused slot holds the key
// `kVacant`, which therefore can never be inserted; no separate size field
// is stored.  Entries are never erased (the merge algorithms only insert and
// update), and iteration visits them in insertion order.  Pointers to inline
// values stay valid for the map's lifetime; pointers into the spill are
// invalidated by an Insert that grows it.

#ifndef LMERGE_CONTAINER_SMALL_MAP_H_
#define LMERGE_CONTAINER_SMALL_MAP_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace lmerge {

template <typename Key, typename T, int N, Key kVacant>
class SmallMap {
  static_assert(N > 0, "at least one inline slot");

 public:
  SmallMap() {
    for (Key& key : keys_) key = kVacant;
  }

  int64_t size() const {
    return InlineSize() +
           (spill_ == nullptr ? 0 : static_cast<int64_t>(spill_->size()));
  }

  // Inserts (key, value) if absent; returns a pointer to the stored value
  // and whether an insertion happened.  An existing value is left as is.
  std::pair<T*, bool> Insert(Key key, T value) {
    LM_DCHECK(key != kVacant);
    if (T* existing = Find(key)) return {existing, false};
    const int n = InlineSize();
    if (n < N) {
      keys_[n] = key;
      values_[n] = std::move(value);
      return {&values_[n], true};
    }
    if (spill_ == nullptr) {
      spill_ = std::make_unique<std::vector<std::pair<Key, T>>>();
      spill_->reserve(N);
    }
    spill_->emplace_back(key, std::move(value));
    return {&spill_->back().second, true};
  }

  // Returns the value for `key`, or nullptr.
  T* Find(Key key) {
    for (int i = 0; i < N && keys_[i] != kVacant; ++i) {
      if (keys_[i] == key) return &values_[i];
    }
    if (spill_ != nullptr) {
      for (auto& [k, v] : *spill_) {
        if (k == key) return &v;
      }
    }
    return nullptr;
  }
  const T* Find(Key key) const {
    return const_cast<SmallMap*>(this)->Find(key);
  }

  // Returns the existing value or default-inserts one.
  T& operator[](Key key) {
    if (T* v = Find(key)) return *v;
    return *Insert(key, T{}).first;
  }

  // Invokes fn(key, value) for every entry, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int i = 0; i < N && keys_[i] != kVacant; ++i) fn(keys_[i], values_[i]);
    if (spill_ != nullptr) {
      for (const auto& [k, v] : *spill_) fn(k, v);
    }
  }

  // Heap bytes held by the spill (0 while every entry is inline); O(1).
  // Heap storage owned by the values themselves is not included.
  int64_t HeapBytes() const {
    if (spill_ == nullptr) return 0;
    return static_cast<int64_t>(sizeof(*spill_) +
                                spill_->capacity() *
                                    sizeof(std::pair<Key, T>));
  }

 private:
  int InlineSize() const {
    int n = 0;
    while (n < N && keys_[n] != kVacant) ++n;
    return n;
  }

  Key keys_[N];
  T values_[N]{};
  std::unique_ptr<std::vector<std::pair<Key, T>>> spill_;
};

}  // namespace lmerge

#endif  // LMERGE_CONTAINER_SMALL_MAP_H_
