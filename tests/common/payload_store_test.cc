#include "common/payload_store.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/payload_ledger.h"
#include "common/row.h"
#include "core/in2t.h"
#include "core/in3t.h"

// Records the sizes handed to operator new while a test asks for it, so
// the flat-rep test can see that a rep is one block of exactly deep_bytes.
namespace {
std::atomic<bool> g_record_allocations{false};
std::atomic<int> g_allocation_count{0};
size_t g_allocation_sizes[8];
}  // namespace

void* operator new(std::size_t size) {
  if (g_record_allocations.load(std::memory_order_relaxed)) {
    const int i = g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (i < 8) g_allocation_sizes[i] = size;
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
// GCC cannot see that these pair with the malloc-based operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#pragma GCC diagnostic pop

namespace lmerge {
namespace {

// The allocations made by fn(), in order.
template <typename Fn>
std::vector<size_t> AllocationsOf(Fn&& fn) {
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_record_allocations.store(true, std::memory_order_relaxed);
  fn();
  g_record_allocations.store(false, std::memory_order_relaxed);
  const int count = g_allocation_count.load(std::memory_order_relaxed);
  return std::vector<size_t>(g_allocation_sizes,
                             g_allocation_sizes + (count < 8 ? count : 8));
}

TEST(PayloadStoreTest, RepIsOneFlatBlockOfDeepBytes) {
  // The e2ebench payload shape: a 32-byte header, two 16-byte Values and
  // the 48 string bytes.
  const Row row = Row::OfIntAndString(7, std::string(48, 'p'));
  EXPECT_EQ(row.SharedSizeBytes(), 112);
  EXPECT_EQ(sizeof(RowRep), 32u);

  const std::vector<Value> fields = {Value(int64_t{7}),
                                     Value(std::string(48, 'q')),
                                     Value(""), Value(2.5)};
  RowRep* rep = nullptr;
  const std::vector<size_t> sizes =
      AllocationsOf([&] { rep = PayloadStore::MakePrivate(fields, 1); });
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->deep_bytes, 32u + 4 * 16 + 48);
  ASSERT_EQ(sizes.size(), 1u);  // header, fields and bytes in one block
  EXPECT_EQ(sizes[0], rep->deep_bytes);
  // The fields point into the block itself.
  const char* block = reinterpret_cast<const char*>(rep);
  const std::string_view text = rep->fields()[1].AsString();
  EXPECT_EQ(text, std::string(48, 'q'));
  EXPECT_GE(text.data(), block + 32 + 4 * 16);
  EXPECT_LE(text.data() + text.size(), block + rep->deep_bytes);
  PayloadStore::Release(rep);

  // Interning allocates the same block (plus the shard map's node).
  PayloadStore store;
  const std::vector<size_t> interned =
      AllocationsOf([&] { rep = store.Intern(fields, 2); });
  EXPECT_EQ(interned.front(), rep->deep_bytes);
  EXPECT_EQ(store.GetStats().payload_bytes, rep->deep_bytes);
  PayloadStore::Release(rep);
}

TEST(PayloadStoreTest, EqualContentSharesOneRep) {
  const Row a = Row::OfIntAndString(7, "shared-blob");
  const Row b = Row::OfIntAndString(7, "shared-blob");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.identity(), b.identity());
  EXPECT_TRUE(a.interned());
}

TEST(PayloadStoreTest, DifferentContentDifferentReps) {
  const Row a = Row::OfString("one");
  const Row b = Row::OfString("two");
  EXPECT_NE(a, b);
  EXPECT_NE(a.identity(), b.identity());
}

TEST(PayloadStoreTest, EmptyRowIsNullHandle) {
  const Row empty;
  EXPECT_EQ(empty.identity(), nullptr);
  EXPECT_FALSE(empty.interned());
  EXPECT_EQ(empty.SharedSizeBytes(), 0);
  EXPECT_EQ(empty.field_count(), 0);
  EXPECT_EQ(empty, Row(std::vector<Value>{}));
}

TEST(PayloadStoreTest, CopyAndMoveShareTheRep) {
  const Row a = Row::OfString("move-me");
  Row copy = a;
  EXPECT_EQ(copy.identity(), a.identity());
  Row moved = std::move(copy);
  EXPECT_EQ(moved.identity(), a.identity());
  EXPECT_EQ(copy.identity(), nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(PayloadStoreTest, LastReleaseEvictsFromStore) {
  PayloadStore store;
  std::vector<Value> fields = {Value(std::string("transient"))};
  RowRep* rep = store.Intern(std::move(fields), 123);
  EXPECT_EQ(store.GetStats().entries, 1);
  PayloadStore::Release(rep);
  const PayloadStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.payload_bytes, 0);
}

TEST(PayloadStoreTest, ReinternAfterEvictionWorks) {
  PayloadStore store;
  RowRep* rep = store.Intern(std::vector<Value>{Value(int64_t{5})}, 99);
  PayloadStore::Release(rep);
  RowRep* again = store.Intern(std::vector<Value>{Value(int64_t{5})}, 99);
  EXPECT_EQ(store.GetStats().entries, 1);
  // The first rep was evicted, so this was a fresh intern, not a hit.
  EXPECT_EQ(store.GetStats().hits, 0);
  PayloadStore::Release(again);
}

TEST(PayloadStoreTest, HitCountersAndBytesSaved) {
  PayloadStore store;
  RowRep* first = store.Intern(std::vector<Value>{Value(std::string("popular"))}, 7);
  RowRep* second = store.Intern(std::vector<Value>{Value(std::string("popular"))}, 7);
  EXPECT_EQ(first, second);
  const PayloadStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.live_refs, 2);
  EXPECT_EQ(stats.intern_calls, 2);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.bytes_saved, first->deep_bytes);
  EXPECT_DOUBLE_EQ(stats.DedupRatio(), 2.0);
  PayloadStore::Release(first);
  PayloadStore::Release(second);
}

TEST(PayloadStoreTest, DeepCopyIsPrivateButEqual) {
  const Row original = Row::OfIntAndString(1, "copied");
  const Row copy = original.DeepCopy();
  EXPECT_EQ(copy, original);
  EXPECT_NE(copy.identity(), original.identity());
  EXPECT_FALSE(copy.interned());
  EXPECT_TRUE(original.interned());
  EXPECT_EQ(copy.hash(), original.hash());
}

TEST(PayloadStoreTest, HashMatchesAcrossPrivateAndInterned) {
  // RowHash drives the (Vs, payload) indexes; private copies must land in
  // the same buckets as their interned twins.
  const Row interned = Row::OfString("hash-me");
  const Row copied = interned.DeepCopy();
  EXPECT_EQ(RowHash()(interned), RowHash()(copied));
}

TEST(PayloadStoreTest, ConcurrentInternAndReleaseChurn) {
  // TSan target: many threads interning/releasing the same small key space
  // exercises the revive-vs-evict protocol under the shard locks.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  PayloadStore store;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &start, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kIters; ++i) {
        const int64_t key = (t + i) % 5;
        RowRep* rep = store.Intern(std::vector<Value>{Value(key)}, static_cast<uint64_t>(key));
        if (i % 3 == 0) PayloadStore::AddRef(rep), PayloadStore::Release(rep);
        PayloadStore::Release(rep);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const PayloadStore::Stats stats = store.GetStats();
  EXPECT_EQ(stats.live_refs, 0);
  EXPECT_EQ(stats.entries, 0);
  EXPECT_EQ(stats.payload_bytes, 0);
}

TEST(SharedPayloadLedgerTest, ChargesOncePerDistinctRep) {
  SharedPayloadLedger ledger;
  const Row shared = Row::OfString("ledger-shared");
  const Row other = Row::OfString("ledger-other");
  EXPECT_EQ(ledger.AddRef(shared), shared.SharedSizeBytes());
  EXPECT_EQ(ledger.AddRef(shared), 0);  // second ref: already charged
  EXPECT_EQ(ledger.AddRef(other), other.SharedSizeBytes());
  EXPECT_EQ(ledger.bytes(), shared.SharedSizeBytes() + other.SharedSizeBytes());
  EXPECT_EQ(ledger.distinct(), 2);
  EXPECT_EQ(ledger.Release(shared), 0);  // one ref remains
  EXPECT_EQ(ledger.Release(shared), shared.SharedSizeBytes());
  EXPECT_EQ(ledger.Release(other), other.SharedSizeBytes());
  EXPECT_EQ(ledger.bytes(), 0);
  EXPECT_EQ(ledger.distinct(), 0);
  EXPECT_EQ(ledger.OverheadBytes(), 0);
}

TEST(SharedPayloadLedgerTest, EmptyRowIsFree) {
  SharedPayloadLedger ledger;
  EXPECT_EQ(ledger.AddRef(Row()), 0);
  EXPECT_EQ(ledger.Release(Row()), 0);
  EXPECT_EQ(ledger.bytes(), 0);
}

// The satellite regression: with interned payloads, an index referencing
// one rep from many nodes must charge its bytes once per store entry — not
// once per node, as the pre-interning per-node model did.
TEST(In2tAccountingTest, SharedPayloadChargedOncePerEntry) {
  In2t index;
  const Row shared = Row::OfIntAndString(3, std::string(1000, 'x'));
  constexpr int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) index.AddNode(i, shared);

  EXPECT_EQ(index.distinct_payloads(), 1);
  // Unshared (per-node) accounting grows linearly with nodes; the real
  // StateBytes holds one payload charge no matter how many nodes share it.
  const int64_t shared_term = shared.SharedSizeBytes();
  const int64_t unshared_term = kNodes * shared.DeepSizeBytes();
  EXPECT_GE(index.StateBytesUnshared() - index.StateBytes(),
            unshared_term - shared_term -
                1024);  // slack for ledger overhead bytes
  // Deleting all but one node keeps the single charge...
  for (int i = 0; i < kNodes - 1; ++i) index.DeleteNode(index.begin());
  EXPECT_EQ(index.distinct_payloads(), 1);
  // ...and deleting the last releases it.
  index.DeleteNode(index.begin());
  EXPECT_EQ(index.distinct_payloads(), 0);
  EXPECT_EQ(index.StateBytes(), 0);
  EXPECT_EQ(index.StateBytesUnshared(), 0);
}

TEST(In3tAccountingTest, SharedPayloadChargedOncePerEntry) {
  In3t index;
  const Row shared = Row::OfIntAndString(4, std::string(1000, 'y'));
  constexpr int kNodes = 8;
  for (int i = 0; i < kNodes; ++i) index.AddNode(i, shared);

  EXPECT_EQ(index.distinct_payloads(), 1);
  EXPECT_LT(index.StateBytes(),
            index.StateBytesUnshared());  // sharing must be cheaper
  for (int i = 0; i < kNodes; ++i) index.DeleteNode(index.begin());
  EXPECT_EQ(index.distinct_payloads(), 0);
  EXPECT_EQ(index.StateBytes(), 0);
}

}  // namespace
}  // namespace lmerge
