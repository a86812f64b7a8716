// PayloadStore: the process-wide interning arena behind Row handles.
//
// The paper's central memory argument (Sec. IV, Fig. 8) is that the R3/R4
// indexes store each payload once across all inputs while the LMR3- baseline
// duplicates it per input.  PayloadStore extends that idea to the whole
// process: every payload is an immutable, ref-counted RowRep owned by a
// sharded intern table, and a Row is just a pointer-sized handle.  Decoding
// the same payload from N redundant publishers, enqueueing it into N rings,
// indexing it, and fanning it out to M subscribers all reference one
// allocation instead of materializing O(inputs x layers) deep copies.
//
// Layout: a rep is ONE flat allocation — a 32-byte RowRep header, then its
// field_count 16-byte Values, then the bytes of every string field.  The
// string fields point into that tail and own nothing, so a 48-byte string
// plus an int costs 32 + 2x16 + 48 = 112 bytes, and `deep_bytes` is exactly
// the size of the block.
//
// Concurrency: interning and eviction are guarded by per-shard mutexes
// (shard chosen by payload hash; compile-time enforced via LM_GUARDED_BY,
// see common/thread_annotations.h); reference counts are atomics, so handle
// copies between the session threads, the merge thread, and the fan-out
// path never take a lock.  The last release of an interned rep evicts it
// from its shard.  A rep can also live *outside* the store (store == null):
// that is a private deep copy, used by the LMR3- baseline to keep the
// paper's per-input duplication honest (see Row::DeepCopy).
//
// Tuning: shard count is fixed at construction (default 16, power of two).
// More shards reduce intern contention with many publisher threads; the
// per-shard maps grow on demand and shrink as payloads are evicted.

#ifndef LMERGE_COMMON_PAYLOAD_STORE_H_
#define LMERGE_COMMON_PAYLOAD_STORE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/value.h"

namespace lmerge {

class PayloadStore;

// One immutable payload: the header of a flat block that continues with the
// fields and their string bytes.  Never mutated after construction (only
// `refs` moves), so concurrent readers need no synchronization.  Made only by
// PayloadStore::Intern/MakePrivate and freed by the last Release.
struct RowRep {
  uint64_t hash = 0;
  // Owning store, or null for a private (non-interned) deep copy.
  PayloadStore* store = nullptr;
  std::atomic<int64_t> refs{1};
  uint32_t field_count = 0;
  // Size of the whole block (header, fields, string bytes); accounting
  // paths charge it without walking the fields.
  uint32_t deep_bytes = 0;

  std::span<const Value> fields() const {
    return {reinterpret_cast<const Value*>(this + 1), field_count};
  }
};

static_assert(sizeof(RowRep) == 32, "the flat rep header is 32 bytes");
static_assert(alignof(Value) <= alignof(RowRep),
              "the field array starts right after the header");

class PayloadStore {
 public:
  struct Options {
    // Number of intern shards; rounded up to a power of two.
    int shard_count = 16;
  };

  // Snapshot of the store's contents and lifetime counters.
  struct Stats {
    int64_t entries = 0;        // live interned payloads
    int64_t live_refs = 0;      // sum of live entries' reference counts
    int64_t payload_bytes = 0;  // deep bytes held, once per entry
    // Deep bytes the live references would hold as private copies:
    // sum of deep_bytes x refs over live entries.
    int64_t deep_bytes_if_copied = 0;
    int64_t intern_calls = 0;   // lifetime Intern() calls
    int64_t hits = 0;           // calls resolved to an existing entry
    int64_t bytes_saved = 0;    // cumulative deep bytes avoided via hits
    int shard_count = 0;

    double DedupRatio() const {
      return intern_calls == 0
                 ? 1.0
                 : static_cast<double>(intern_calls) /
                       static_cast<double>(intern_calls - hits == 0
                                               ? 1
                                               : intern_calls - hits);
    }
  };

  PayloadStore() : PayloadStore(Options{}) {}
  explicit PayloadStore(Options options);
  ~PayloadStore();

  PayloadStore(const PayloadStore&) = delete;
  PayloadStore& operator=(const PayloadStore&) = delete;

  // The process-wide store every Row interns into by default.  Leaked on
  // purpose: handles held by statics may be released during teardown.
  static PayloadStore& Global();

  // Interns `fields` (whose combined hash is `hash`): returns the unique
  // live rep with this content, creating it if needed by copying the fields
  // into a new flat block.  The returned rep carries one reference owned by
  // the caller.
  RowRep* Intern(std::span<const Value> fields, uint64_t hash);

  // Creates a private rep that is NOT in any store: equal content compares
  // equal to interned reps but shares no storage and dies with its last
  // handle.  The deep-copy escape hatch for the LMR3- baseline; same flat
  // layout as an interned rep.
  static RowRep* MakePrivate(std::span<const Value> fields, uint64_t hash);

  Stats GetStats() const;

  // Invokes fn(const RowRep&, int64_t refs) for every live entry, shard by
  // shard (each shard locked while visited).  Order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (int i = 0; i < shard_count_; ++i) {
      const Shard& shard = shards_[static_cast<size_t>(i)];
      MutexLock lock(shard.mu);
      for (const auto& [hash, rep] : shard.map) {
        fn(static_cast<const RowRep&>(*rep),
           rep->refs.load(std::memory_order_relaxed));
      }
    }
  }

  // --- Handle reference counting (used by Row) ---

  static void AddRef(RowRep* rep) {
    if (rep != nullptr) rep->refs.fetch_add(1, std::memory_order_relaxed);
  }

  // Drops one reference; the last release of an interned rep evicts it from
  // its store, the last release of a private rep deletes it.
  static void Release(RowRep* rep);

 private:
  struct Shard {
    mutable Mutex mu;
    // hash -> rep; a multimap tolerates hash collisions between distinct
    // payloads (content is compared on every probe).
    std::unordered_multimap<uint64_t, RowRep*> map LM_GUARDED_BY(mu);
    int64_t payload_bytes LM_GUARDED_BY(mu) = 0;
    int64_t intern_calls LM_GUARDED_BY(mu) = 0;
    int64_t hits LM_GUARDED_BY(mu) = 0;
    int64_t bytes_saved LM_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(uint64_t hash) {
    return shards_[static_cast<size_t>(hash) & shard_mask_];
  }

  // Slow path of Release: the caller observed a count of 1, so this may be
  // the last reference.  The decrement happens under the shard lock, which
  // is what makes eviction race-free against concurrent revival by Intern.
  void ReleaseMaybeLast(RowRep* rep);

  // Allocates and fills one flat block holding a copy of `fields`.
  static RowRep* NewRep(std::span<const Value> fields, uint64_t hash,
                        PayloadStore* store);
  static void DeleteRep(RowRep* rep);

  std::vector<Shard> shards_;
  size_t shard_mask_ = 0;
  int shard_count_ = 0;
};

}  // namespace lmerge

#endif  // LMERGE_COMMON_PAYLOAD_STORE_H_
