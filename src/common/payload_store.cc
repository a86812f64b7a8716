#include "common/payload_store.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/check.h"
#include "common/mutex.h"

namespace lmerge {

PayloadStore::PayloadStore(Options options) {
  int count = 1;
  while (count < options.shard_count) count <<= 1;
  shard_count_ = count;
  shard_mask_ = static_cast<size_t>(count - 1);
  shards_ = std::vector<Shard>(static_cast<size_t>(count));
}

PayloadStore::~PayloadStore() {
  // Entries still present are owned by live handles; orphan them so their
  // last Release does not touch the dead store.  (The global store is
  // leaked and never gets here; per-test stores destroy after their rows.)
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    for (auto& [hash, rep] : shard.map) rep->store = nullptr;
    shard.map.clear();
  }
}

PayloadStore& PayloadStore::Global() {
  static PayloadStore* store = new PayloadStore();
  return *store;
}

RowRep* PayloadStore::NewRep(std::span<const Value> fields, uint64_t hash,
                             PayloadStore* store) {
  size_t bytes = sizeof(RowRep) + fields.size() * sizeof(Value);
  for (const Value& v : fields) {
    if (v.type() == ValueType::kString) bytes += v.AsString().size();
  }
  LM_CHECK(bytes <= std::numeric_limits<uint32_t>::max());
  RowRep* rep =
      std::construct_at(static_cast<RowRep*>(::operator new(bytes)));
  rep->hash = hash;
  rep->store = store;
  rep->field_count = static_cast<uint32_t>(fields.size());
  rep->deep_bytes = static_cast<uint32_t>(bytes);
  auto* out = reinterpret_cast<Value*>(rep + 1);
  char* tail = reinterpret_cast<char*>(out + fields.size());
  for (const Value& v : fields) {
    if (v.type() == ValueType::kString) {
      const std::string_view s = v.AsString();
      if (!s.empty()) std::memcpy(tail, s.data(), s.size());
      std::construct_at(out++, Value::Borrowed({tail, s.size()}));
      tail += s.size();
    } else {
      std::construct_at(out++, v);  // scalars copy without allocating
    }
  }
  return rep;
}

void PayloadStore::DeleteRep(RowRep* rep) {
  // The fields are borrowed Values and free nothing; end the lifetimes of
  // everything in the block, then return it.
  std::destroy_n(reinterpret_cast<Value*>(rep + 1), rep->field_count);
  rep->~RowRep();
  ::operator delete(static_cast<void*>(rep));
}

RowRep* PayloadStore::Intern(std::span<const Value> fields, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  ++shard.intern_calls;
  auto [begin, end] = shard.map.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    RowRep* rep = it->second;
    if (std::ranges::equal(rep->fields(), fields)) {
      // Revival is safe: eviction decrements under this same lock, so a rep
      // reachable from the map has not been deleted and an in-flight
      // evictor will observe the revived count and back off.
      rep->refs.fetch_add(1, std::memory_order_relaxed);
      ++shard.hits;
      shard.bytes_saved += rep->deep_bytes;
      return rep;
    }
  }
  RowRep* rep = NewRep(fields, hash, this);
  shard.map.emplace(hash, rep);
  shard.payload_bytes += rep->deep_bytes;
  return rep;
}

RowRep* PayloadStore::MakePrivate(std::span<const Value> fields,
                                  uint64_t hash) {
  return NewRep(fields, hash, nullptr);
}

void PayloadStore::Release(RowRep* rep) {
  if (rep == nullptr) return;
  // Fast path: not the last reference — decrement without any lock.  The
  // CAS never lets the count cross 1 -> 0 here, so the slow path below is
  // the only place a rep can die.
  int64_t current = rep->refs.load(std::memory_order_relaxed);
  while (current > 1) {
    if (rep->refs.compare_exchange_weak(current, current - 1,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
      return;
    }
  }
  PayloadStore* store = rep->store;
  if (store == nullptr) {
    // Private rep: plain shared-ptr-style teardown.
    if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) DeleteRep(rep);
    return;
  }
  store->ReleaseMaybeLast(rep);
}

void PayloadStore::ReleaseMaybeLast(RowRep* rep) {
  Shard& shard = ShardFor(rep->hash);
  MutexLock lock(shard.mu);
  if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // The count hit zero while we hold the shard lock; Intern revives under
  // the same lock, so nobody can resurrect this rep anymore — unlink it.
  auto [begin, end] = shard.map.equal_range(rep->hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rep) {
      shard.map.erase(it);
      break;
    }
  }
  shard.payload_bytes -= rep->deep_bytes;
  lock.Unlock();
  DeleteRep(rep);
}

PayloadStore::Stats PayloadStore::GetStats() const {
  Stats stats;
  stats.shard_count = shard_count_;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    stats.entries += static_cast<int64_t>(shard.map.size());
    stats.payload_bytes += shard.payload_bytes;
    stats.intern_calls += shard.intern_calls;
    stats.hits += shard.hits;
    stats.bytes_saved += shard.bytes_saved;
    for (const auto& [hash, rep] : shard.map) {
      const int64_t refs = rep->refs.load(std::memory_order_relaxed);
      stats.live_refs += refs;
      stats.deep_bytes_if_copied += rep->deep_bytes * refs;
    }
  }
  return stats;
}

}  // namespace lmerge
