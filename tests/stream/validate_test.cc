#include "stream/validate.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace lmerge {
namespace {

using ::lmerge::testing_util::Adj;
using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::P;
using ::lmerge::testing_util::Stb;

TEST(ValidateTest, AcceptsWellFormedStream) {
  StreamValidator v;
  EXPECT_TRUE(v.ConsumeAll({Ins("A", 1, 10), Ins("B", 2, kInfinity),
                            Adj("B", 2, kInfinity, 8), Stb(5), Ins("C", 5, 9)})
                  .ok());
  EXPECT_EQ(v.element_count(), 5);
  EXPECT_EQ(v.tdb().EventCount(), 3);
}

TEST(ValidateTest, RejectsInsertBehindStable) {
  StreamValidator v;
  ASSERT_TRUE(v.Consume(Stb(100)).ok());
  EXPECT_FALSE(v.Consume(Ins("A", 99, 200)).ok());
  // State unchanged: the good insert still works.
  EXPECT_TRUE(v.Consume(Ins("A", 100, 200)).ok());
}

TEST(ValidateTest, RejectsAdjustOfMissingEvent) {
  StreamValidator v;
  EXPECT_FALSE(v.Consume(Adj("A", 1, 5, 7)).ok());
}

TEST(ValidateTest, OrderedPropertyEnforced) {
  StreamProperties props;
  props.ordered = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.Consume(Ins("A", 10, 20)).ok());
  ASSERT_TRUE(v.Consume(Ins("B", 10, 20)).ok());  // equal Vs fine
  EXPECT_FALSE(v.Consume(Ins("C", 9, 20)).ok());
}

TEST(ValidateTest, StrictlyIncreasingRejectsTies) {
  StreamProperties props;
  props.strictly_increasing = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.Consume(Ins("A", 10, 20)).ok());
  EXPECT_FALSE(v.Consume(Ins("B", 10, 20)).ok());
  EXPECT_TRUE(v.Consume(Ins("B", 11, 20)).ok());
}

TEST(ValidateTest, InsertOnlyRejectsAdjust) {
  StreamProperties props;
  props.insert_only = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.Consume(Ins("A", 1, 10)).ok());
  EXPECT_FALSE(v.Consume(Adj("A", 1, 10, 12)).ok());
}

TEST(ValidateTest, KeyPropertyRejectsDuplicateVsPayload) {
  StreamProperties props;
  props.vs_payload_key = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.Consume(Ins("A", 1, 10)).ok());
  ASSERT_TRUE(v.Consume(Ins("A", 2, 10)).ok());  // different Vs, fine
  EXPECT_FALSE(v.Consume(Ins("A", 1, 12)).ok());
  EXPECT_EQ(v.tdb().EventCount(), 2);  // rejected insert rolled back
}

TEST(ValidateTest, TracksMaxVs) {
  StreamValidator v;
  ASSERT_TRUE(v.ConsumeAll({Ins("A", 5, 10), Ins("B", 3, 10)}).ok());
  EXPECT_EQ(v.max_vs(), 5);
}

TEST(ValidateTest, ConsumeAllStopsAtFirstError) {
  StreamValidator v;
  const Status status = v.ConsumeAll(
      {Ins("A", 1, 10), Adj("B", 1, 5, 7), Ins("C", 2, 10)});
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(v.element_count(), 1);  // C never consumed
}

TEST(ValidateTest, RejectedElementLeavesStateUnchanged) {
  StreamProperties props;
  props.vs_payload_key = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.ConsumeAll({Ins("A", 10, 50), Ins("B", 20, 60),
                            Adj("B", 20, 60, 70), Stb(15)})
                  .ok());
  const Tdb before = v.tdb();
  const int64_t count = v.element_count();
  const Timestamp max_vs = v.max_vs();
  const ElementSequence rejected = {
      Ins("C", 14, 40),          // insert behind the stable point
      Ins("A", 10, 90),          // (Vs,payload) key violation
      Ins("D", 30, 25),          // Ve < Vs
      Adj("B", 20, 60, 80),      // adjust of a stale end time
      Adj("E", 30, 40, 50),      // adjust of an absent event
      Adj("A", 10, 50, 12),      // new end time behind the stable point
      Adj("A", 10, 50, 10),      // removes an event whose Vs is stable
  };
  for (const StreamElement& e : rejected) {
    EXPECT_FALSE(v.Consume(e).ok()) << e.ToString();
    EXPECT_TRUE(v.tdb().Equals(before)) << e.ToString();
    EXPECT_EQ(v.tdb().stable_point(), before.stable_point());
    EXPECT_EQ(v.element_count(), count);
    EXPECT_EQ(v.max_vs(), max_vs);
  }
  // The old state still accepts what it accepted before.
  EXPECT_TRUE(v.Consume(Adj("B", 20, 70, 80)).ok());
  EXPECT_TRUE(v.Consume(Ins("C", 15, 40)).ok());
}

TEST(ValidateTest, KeyPropertyAllowsEmptyLifetimeRepeat) {
  // An empty-lifetime insert contributes nothing, so it cannot break the
  // key, and a key freed by a retraction can be used again.
  StreamProperties props;
  props.vs_payload_key = true;
  StreamValidator v(props);
  ASSERT_TRUE(v.Consume(Ins("A", 1, 10)).ok());
  EXPECT_TRUE(v.Consume(Ins("A", 1, 1)).ok());
  ASSERT_TRUE(v.Consume(Adj("A", 1, 10, 1)).ok());
  EXPECT_TRUE(v.Consume(Ins("A", 1, 12)).ok());
  EXPECT_EQ(v.tdb().EventCount(), 1);
}

TEST(ValidateTest, LongGeneratedStreamValidates) {
  // A long keyed stream of inserts, lifetime revisions and stables.  Every
  // event stays in the TDB, so a per-element copy of the TDB would make
  // this quadratic; the validator must stay linear in the stream length.
  StreamProperties props;
  props.vs_payload_key = true;
  StreamValidator v(props);
  constexpr int64_t kEvents = 40000;
  int64_t elements = 0;
  for (int64_t i = 0; i < kEvents; ++i) {
    ASSERT_TRUE(v.Consume(StreamElement::Insert(P(i % 97), i, i + 100)).ok())
        << i;
    ++elements;
    if (i % 3 == 0) {
      ASSERT_TRUE(
          v.Consume(StreamElement::Adjust(P(i % 97), i, i + 100, i + 150))
              .ok())
          << i;
      ++elements;
    }
    if (i % 64 == 63) {
      ASSERT_TRUE(v.Consume(Stb(i - 10)).ok()) << i;
      ++elements;
    }
  }
  EXPECT_EQ(v.element_count(), elements);
  EXPECT_EQ(v.tdb().EventCount(), kEvents);
  EXPECT_EQ(v.max_vs(), kEvents - 1);
}

}  // namespace
}  // namespace lmerge
