#include "container/small_map.h"

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace lmerge {
namespace {

constexpr int32_t kVacant = std::numeric_limits<int32_t>::min();
using Map = SmallMap<int32_t, int64_t, 4, kVacant>;

std::vector<std::pair<int32_t, int64_t>> Entries(const Map& map) {
  std::vector<std::pair<int32_t, int64_t>> out;
  map.ForEach([&out](int32_t k, int64_t v) { out.emplace_back(k, v); });
  return out;
}

TEST(SmallMapTest, InsertFindBasic) {
  Map map;
  EXPECT_EQ(map.size(), 0);
  EXPECT_TRUE(map.Insert(1, 10).second);
  EXPECT_FALSE(map.Insert(1, 99).second);  // duplicate keeps old value
  ASSERT_NE(map.Find(1), nullptr);
  EXPECT_EQ(*map.Find(1), 10);
  EXPECT_EQ(map.Find(2), nullptr);
  EXPECT_EQ(map.size(), 1);
}

TEST(SmallMapTest, UpdateInPlaceThroughInsertPointer) {
  // The in2t idiom: *Insert(k, v).first = v both inserts and overwrites.
  Map map;
  *map.Insert(-1, 100).first = 100;
  *map.Insert(-1, 200).first = 200;
  EXPECT_EQ(map.size(), 1);
  EXPECT_EQ(*map.Find(-1), 200);
  *map.Find(-1) = 300;
  EXPECT_EQ(*map.Find(-1), 300);
}

TEST(SmallMapTest, SubscriptDefaultInserts) {
  Map map;
  EXPECT_EQ(map[5], 0);
  map[5] = 55;
  EXPECT_EQ(*map.Find(5), 55);
  EXPECT_EQ(map.size(), 1);
}

TEST(SmallMapTest, ForEachVisitsInInsertionOrder) {
  Map map;
  map.Insert(2, 20);
  map.Insert(-1, 5);
  map.Insert(0, 0);
  map.Insert(7, 70);
  map.Insert(1, 10);  // spills
  map.Insert(3, 30);  // spills
  EXPECT_EQ(Entries(map),
            (std::vector<std::pair<int32_t, int64_t>>{
                {2, 20}, {-1, 5}, {0, 0}, {7, 70}, {1, 10}, {3, 30}}));
}

TEST(SmallMapTest, NoHeapBytesWhileInline) {
  Map map;
  for (int32_t k = -1; k < 3; ++k) map.Insert(k, k * 10);
  EXPECT_EQ(map.size(), 4);
  EXPECT_EQ(map.HeapBytes(), 0);
}

TEST(SmallMapTest, SpillPastInlineCapacity) {
  Map map;
  for (int32_t k = 0; k < 10; ++k) map.Insert(k, 100 + k);
  EXPECT_EQ(map.size(), 10);
  EXPECT_GT(map.HeapBytes(), 0);
  for (int32_t k = 0; k < 10; ++k) {
    ASSERT_NE(map.Find(k), nullptr) << k;
    EXPECT_EQ(*map.Find(k), 100 + k);
  }
  EXPECT_EQ(map.Find(10), nullptr);
  // A spilled key updates in place like an inline one.
  EXPECT_FALSE(map.Insert(8, 0).second);
  *map.Find(8) = 808;
  EXPECT_EQ(*map.Find(8), 808);
  EXPECT_EQ(map.size(), 10);
}

TEST(SmallMapTest, HeapBytesCoverSpillCapacity) {
  Map map;
  for (int32_t k = 0; k < 4; ++k) map.Insert(k, k);
  map.Insert(4, 4);
  const int64_t one_spilled = map.HeapBytes();
  // At least the spilled entry itself is charged.
  EXPECT_GE(one_spilled,
            static_cast<int64_t>(sizeof(std::pair<int32_t, int64_t>)));
  for (int32_t k = 5; k < 40; ++k) map.Insert(k, k);
  EXPECT_GE(map.HeapBytes(),
            36 * static_cast<int64_t>(sizeof(std::pair<int32_t, int64_t>)));
}

TEST(SmallMapTest, InlinePointersSurviveSpillGrowth) {
  Map map;
  int64_t* first = map.Insert(0, 1).first;
  for (int32_t k = 1; k < 64; ++k) map.Insert(k, k);
  EXPECT_EQ(first, map.Find(0));
  EXPECT_EQ(*first, 1);
}

TEST(SmallMapTest, MoveCarriesInlineAndSpill) {
  Map map;
  for (int32_t k = 0; k < 7; ++k) map.Insert(k, k * 3);
  const int64_t heap = map.HeapBytes();
  Map moved(std::move(map));
  EXPECT_EQ(moved.size(), 7);
  EXPECT_EQ(moved.HeapBytes(), heap);
  for (int32_t k = 0; k < 7; ++k) EXPECT_EQ(*moved.Find(k), k * 3);
  Map assigned;
  assigned.Insert(99, 1);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 7);
  EXPECT_EQ(assigned.Find(99), nullptr);
}

TEST(SmallMapTest, NonTrivialValues) {
  SmallMap<int32_t, std::vector<int>, 2, kVacant> map;
  map[0].push_back(1);
  map[1].push_back(2);
  map[2].push_back(3);  // spills
  map[2].push_back(4);
  EXPECT_EQ(map.size(), 3);
  EXPECT_EQ(*map.Find(2), (std::vector<int>{3, 4}));
  EXPECT_EQ(*map.Find(0), (std::vector<int>{1}));
}

TEST(SmallMapTest, RandomizedAgainstStdMap) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    Map map;
    std::map<int32_t, int64_t> ref;
    const int ops = 1 + static_cast<int>(rng.UniformInt(0, 29));
    for (int i = 0; i < ops; ++i) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(0, 11)) - 1;
      const int64_t value = rng.UniformInt(0, 999);
      *map.Insert(key, value).first = value;
      ref[key] = value;
    }
    ASSERT_EQ(map.size(), static_cast<int64_t>(ref.size()));
    for (const auto& [k, v] : ref) {
      ASSERT_NE(map.Find(k), nullptr);
      EXPECT_EQ(*map.Find(k), v);
    }
    EXPECT_EQ(map.HeapBytes() == 0, ref.size() <= 4);
  }
}

}  // namespace
}  // namespace lmerge
