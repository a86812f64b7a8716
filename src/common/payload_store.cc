#include "common/payload_store.h"

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

int64_t PayloadStore::RepDeepBytes(const std::vector<Value>& fields) {
  int64_t bytes = static_cast<int64_t>(sizeof(RowRep)) +
                  static_cast<int64_t>(fields.capacity() * sizeof(Value));
  for (const Value& v : fields) {
    bytes += v.DeepSizeBytes() - static_cast<int64_t>(sizeof(Value));
  }
  return bytes;
}

RowRep* PayloadStore::Intern(std::vector<Value> fields, uint64_t hash) {
  Shard& shard = ShardFor(hash);
  MutexLock lock(shard.mu);
  ++shard.intern_calls;
  auto [begin, end] = shard.map.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    RowRep* rep = it->second;
    if (rep->fields == fields) {
      // Revival is safe: eviction decrements under this same lock, so a rep
      // reachable from the map has not been deleted and an in-flight
      // evictor will observe the revived count and back off.
      rep->refs.fetch_add(1, std::memory_order_relaxed);
      ++shard.hits;
      shard.bytes_saved += rep->deep_bytes;
      return rep;
    }
  }
  RowRep* rep = new RowRep();
  rep->fields = std::move(fields);
  rep->hash = hash;
  rep->deep_bytes = RepDeepBytes(rep->fields);
  rep->store = this;
  shard.map.emplace(hash, rep);
  shard.payload_bytes += rep->deep_bytes;
  return rep;
}

RowRep* PayloadStore::MakePrivate(std::vector<Value> fields, uint64_t hash) {
  RowRep* rep = new RowRep();
  rep->fields = std::move(fields);
  rep->hash = hash;
  rep->deep_bytes = RepDeepBytes(rep->fields);
  rep->store = nullptr;
  return rep;
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
    if (rep->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete rep;
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
  delete rep;
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
