#include "core/in2t.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lmerge {
namespace {

TEST(In2tTest, AddFindDelete) {
  In2t index;
  EXPECT_TRUE(index.empty());
  auto it = index.AddNode(5, Row::OfString("A"));
  EXPECT_EQ(index.node_count(), 1);
  EXPECT_NE(index.SameVsPayload(5, Row::OfString("A")), index.end());
  EXPECT_EQ(index.SameVsPayload(5, Row::OfString("B")), index.end());
  EXPECT_EQ(index.SameVsPayload(6, Row::OfString("A")), index.end());
  index.DeleteNode(it);
  EXPECT_TRUE(index.empty());
}

TEST(In2tTest, OrderedByVsThenPayload) {
  In2t index;
  index.AddNode(7, Row::OfString("B"));
  index.AddNode(5, Row::OfString("Z"));
  index.AddNode(7, Row::OfString("A"));
  index.AddNode(6, Row::OfString("M"));
  std::vector<Timestamp> vs_order;
  for (auto it = index.begin(); it != index.end(); ++it) {
    vs_order.push_back(it.key().vs);
  }
  EXPECT_EQ(vs_order, (std::vector<Timestamp>{5, 6, 7, 7}));
  // Equal Vs ties broken by payload.
  auto it = index.begin();
  ++it;
  ++it;
  EXPECT_EQ(it.key().payload, Row::OfString("A"));
}

TEST(In2tTest, EndTableTracksPerStreamEnds) {
  In2t index;
  auto it = index.AddNode(5, Row::OfString("A"));
  In2t::EndTable& ends = it.value();
  ends.Insert(0, 100);
  ends.Insert(1, 200);
  ends.Insert(kOutputStream, 100);
  EXPECT_EQ(*ends.Find(0), 100);
  EXPECT_EQ(*ends.Find(1), 200);
  EXPECT_EQ(*ends.Find(kOutputStream), 100);
  EXPECT_EQ(ends.Find(2), nullptr);
}

TEST(In2tTest, HalfFrozenScanIsVsPrefix) {
  In2t index;
  for (Timestamp vs = 10; vs < 20; ++vs) {
    index.AddNode(vs, Row::OfInt(vs));
  }
  // Nodes with Vs < 15 form the prefix the stable(15) walk visits.
  int visited = 0;
  for (auto it = index.begin(); it != index.end() && it.key().vs < 15;
       ++it) {
    ++visited;
  }
  EXPECT_EQ(visited, 5);
}

TEST(In2tTest, StateBytesIncludesPayloadOnce) {
  In2t index;
  const std::string blob(1000, 'q');
  auto it = index.AddNode(5, Row::OfIntAndString(1, blob));
  const int64_t one_stream_before = index.StateBytes();
  // Registering ten streams adds hash entries, not payload copies.
  for (int s = 0; s < 10; ++s) it.value().Insert(s, 100 + s);
  const int64_t ten_streams = index.StateBytes();
  EXPECT_LT(ten_streams - one_stream_before, 1000);
  index.DeleteNode(index.begin());
  EXPECT_LT(index.StateBytes(), one_stream_before);
}

TEST(In2tTest, InlineBottomTierChargesNoHeapBytes) {
  // Three inputs plus the output entry fit inline in the tree node: the
  // bottom tier adds nothing beyond the node itself.
  In2t index;
  auto it = index.AddNode(5, Row::OfString("A"));
  const int64_t empty_node = index.StateBytes();
  for (int s = 0; s < 3; ++s) it.value().Insert(s, 100 + s);
  it.value().Insert(kOutputStream, 100);
  index.SyncTableBytes(it);
  EXPECT_EQ(it.value().size(), 4);
  EXPECT_EQ(it.value().HeapBytes(), 0);
  EXPECT_EQ(index.StateBytes(), empty_node);
}

TEST(In2tTest, WideMergeChargesItsSpill) {
  In2t index;
  auto it = index.AddNode(5, Row::OfString("A"));
  const int64_t empty_node = index.StateBytes();
  for (int s = 0; s < 10; ++s) it.value().Insert(s, 100 + s);
  index.SyncTableBytes(it);
  const int64_t spill = it.value().HeapBytes();
  // Six of the ten entries spilled; every spilled byte is charged.
  EXPECT_GE(spill, 6 * static_cast<int64_t>(sizeof(int32_t) +
                                            sizeof(Timestamp)));
  EXPECT_EQ(index.StateBytes(), empty_node + spill);
  // Re-syncing an unchanged node is idempotent, and deleting the node
  // releases the spill along with everything else.
  index.SyncTableBytes(it);
  EXPECT_EQ(index.StateBytes(), empty_node + spill);
  index.DeleteNode(it);
  EXPECT_EQ(index.StateBytes(), 0);
}

TEST(In2tTest, ThreeInputNodesWith48BytePayloadsStaySmall) {
  // The e2ebench shape: 4,000 live nodes, each with its own 48-byte
  // payload and three input entries plus the output entry (all inline).
  // Per node: the tree node, one flat 112-byte rep and a 16-byte ledger
  // slot at <= 7/8 load.  Before flat reps this was 378 B.
  constexpr int kNodes = 4000;
  In2t index;
  std::vector<Row> payloads;
  payloads.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    std::string blob(48, 'a');
    blob.replace(0, std::to_string(i).size(), std::to_string(i));
    payloads.push_back(Row::OfIntAndString(i % 401, blob));
    auto it = index.AddNode(i, payloads.back());
    for (int s = 0; s < 3; ++s) it.value().Insert(s, 1000 + i);
    it.value().Insert(kOutputStream, 1000 + i);
    index.SyncTableBytes(it);
  }
  ASSERT_EQ(index.distinct_payloads(), kNodes);
  const int64_t per_node = index.StateBytes() / kNodes;
  EXPECT_LE(per_node, 280);
  RecordProperty("state_bytes_per_node", static_cast<int>(per_node));
}

}  // namespace
}  // namespace lmerge
