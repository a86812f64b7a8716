#include "container/hash_table.h"

#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/row.h"

namespace lmerge {
namespace {

struct IntHash {
  uint64_t operator()(int64_t v) const {
    uint64_t x = static_cast<uint64_t>(v);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  }
};

TEST(HashTableTest, InsertFindBasic) {
  HashTable<int64_t, int64_t, IntHash> table;
  EXPECT_TRUE(table.empty());
  EXPECT_TRUE(table.Insert(1, 10).second);
  EXPECT_FALSE(table.Insert(1, 99).second);  // duplicate keeps old value
  ASSERT_NE(table.Find(1), nullptr);
  EXPECT_EQ(*table.Find(1), 10);
  EXPECT_EQ(table.Find(2), nullptr);
  EXPECT_EQ(table.size(), 1);
}

TEST(HashTableTest, InsertReturnsPointerToStoredValue) {
  HashTable<int64_t, int64_t, IntHash> table;
  auto [ptr, inserted] = table.Insert(7, 70);
  ASSERT_TRUE(inserted);
  *ptr = 71;
  EXPECT_EQ(*table.Find(7), 71);
}

TEST(HashTableTest, SubscriptDefaultInserts) {
  HashTable<int64_t, int64_t, IntHash> table;
  EXPECT_EQ(table[5], 0);
  table[5] = 55;
  EXPECT_EQ(*table.Find(5), 55);
}

TEST(HashTableTest, EraseBackwardShiftKeepsOthersFindable) {
  HashTable<int64_t, int64_t, IntHash> table;
  for (int64_t k = 0; k < 64; ++k) table.Insert(k, k * 2);
  for (int64_t k = 0; k < 64; k += 2) EXPECT_TRUE(table.Erase(k));
  EXPECT_FALSE(table.Erase(0));
  EXPECT_EQ(table.size(), 32);
  for (int64_t k = 1; k < 64; k += 2) {
    ASSERT_NE(table.Find(k), nullptr) << k;
    EXPECT_EQ(*table.Find(k), k * 2);
  }
  for (int64_t k = 0; k < 64; k += 2) EXPECT_EQ(table.Find(k), nullptr);
}

TEST(HashTableTest, GrowsPastInitialCapacity) {
  HashTable<int64_t, int64_t, IntHash> table(8);
  for (int64_t k = 0; k < 1000; ++k) table.Insert(k, k);
  EXPECT_EQ(table.size(), 1000);
  EXPECT_GE(table.capacity(), 1024);
  for (int64_t k = 0; k < 1000; ++k) {
    ASSERT_NE(table.Find(k), nullptr);
    EXPECT_EQ(*table.Find(k), k);
  }
}

TEST(HashTableTest, ForEachVisitsEveryEntry) {
  HashTable<int64_t, int64_t, IntHash> table;
  for (int64_t k = 0; k < 20; ++k) table.Insert(k, k);
  int64_t sum = 0;
  int64_t count = 0;
  table.ForEach([&](int64_t key, int64_t value) {
    EXPECT_EQ(key, value);
    sum += value;
    ++count;
  });
  EXPECT_EQ(count, 20);
  EXPECT_EQ(sum, 190);
}

TEST(HashTableTest, ClearResets) {
  HashTable<int64_t, int64_t, IntHash> table;
  for (int64_t k = 0; k < 20; ++k) table.Insert(k, k);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.Find(3), nullptr);
  table.Insert(3, 33);
  EXPECT_EQ(*table.Find(3), 33);
}

TEST(HashTableTest, RowKeys) {
  HashTable<Row, int64_t, RowHash> table;
  table.Insert(Row::OfIntAndString(1, "a"), 1);
  table.Insert(Row::OfIntAndString(2, "b"), 2);
  ASSERT_NE(table.Find(Row::OfIntAndString(1, "a")), nullptr);
  EXPECT_EQ(*table.Find(Row::OfIntAndString(1, "a")), 1);
  EXPECT_EQ(table.Find(Row::OfIntAndString(1, "b")), nullptr);
}

TEST(HashTableTest, SlotBytesTracksCapacity) {
  HashTable<int64_t, int64_t, IntHash> table(8);
  const int64_t before = table.SlotBytes();
  for (int64_t k = 0; k < 100; ++k) table.Insert(k, k);
  EXPECT_GT(table.SlotBytes(), before);
}

TEST(HashTableTest, PointerToU32SlotIsSixteenBytes) {
  // The payload ledger's and the dictionaries' shape: key, probe distance
  // and value packed with no occupancy flag.
  HashTable<const void*, uint32_t, PointerIdentityHash> table;
  EXPECT_EQ(table.SlotBytes(), 16 * table.capacity());
  int anchors[100];
  for (int i = 0; i < 100; ++i) table.Insert(&anchors[i], i);
  EXPECT_EQ(table.SlotBytes(), 16 * table.capacity());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(*table.Find(&anchors[i]), i);
}

class HashTableRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashTableRandomizedTest, MatchesUnorderedMap) {
  Rng rng(GetParam());
  HashTable<int64_t, int64_t, IntHash> table;
  std::unordered_map<int64_t, int64_t> reference;
  for (int step = 0; step < 20000; ++step) {
    const int64_t key = rng.UniformInt(0, 700);
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1: {
        const bool inserted = table.Insert(key, step).second;
        EXPECT_EQ(inserted, reference.emplace(key, step).second);
        break;
      }
      case 2: {
        EXPECT_EQ(table.Erase(key), reference.erase(key) > 0);
        break;
      }
      default: {
        const int64_t* mine = table.Find(key);
        auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(mine, nullptr);
        } else {
          ASSERT_NE(mine, nullptr);
          EXPECT_EQ(*mine, it->second);
        }
      }
    }
  }
  EXPECT_EQ(table.size(), static_cast<int64_t>(reference.size()));
  int64_t visited = 0;
  table.ForEach([&](int64_t key, int64_t value) {
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
    ++visited;
  });
  EXPECT_EQ(visited, table.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashTableRandomizedTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace lmerge
