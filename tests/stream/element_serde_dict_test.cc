// Dictionary-coded element layout (stream/element_serde.h): round trips of
// the edge cases the varint/delta coding must survive, and a size bound
// that pins the layout's compactness.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "stream/element_serde.h"
#include "test_util.h"

namespace lmerge {
namespace {

using ::lmerge::testing_util::Adj;
using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

using Defs = std::vector<std::pair<uint32_t, Row>>;

// One direction of a session: the sender's dictionary and the receiver's,
// kept in step through PAYLOAD_DEF payloads like the wire does.
class DictSession {
 public:
  explicit DictSession(uint32_t capacity = kDefaultPayloadDictCapacity)
      : sender_(capacity), receiver_(capacity) {}

  // Encodes `batch`, ships every new def through its own PAYLOAD_DEF
  // payload, then decodes the body.  Returns the body size in bytes.
  size_t RoundTrip(const ElementSequence& batch, ElementSequence* out) {
    Defs defs;
    Encoder body;
    EncodeSequenceDict(batch, &sender_, &defs, &body);
    for (const auto& [id, payload] : defs) {
      Encoder def;
      EncodePayloadDef(id, payload, &def);
      const std::string bytes = def.TakeBytes();
      Decoder decoder(bytes);
      uint32_t got_id = 0;
      Row got_payload;
      EXPECT_TRUE(DecodePayloadDef(&decoder, &got_id, &got_payload).ok());
      EXPECT_TRUE(decoder.AtEnd());
      EXPECT_EQ(got_id, id);
      EXPECT_TRUE(receiver_.Define(got_id, std::move(got_payload)).ok());
    }
    const std::string bytes = body.TakeBytes();
    Decoder decoder(bytes);
    EXPECT_TRUE(DecodeSequenceDict(&decoder, receiver_, out).ok());
    EXPECT_TRUE(decoder.AtEnd());
    return bytes.size();
  }

  void ExpectRoundTrip(const ElementSequence& batch) {
    ElementSequence got;
    RoundTrip(batch, &got);
    EXPECT_EQ(got, batch);
  }

  PayloadDictEncoder& sender() { return sender_; }

 private:
  PayloadDictEncoder sender_;
  PayloadDictDecoder receiver_;
};

TEST(ElementSerdeDictTest, ExtremeTimestampsRoundTrip) {
  DictSession session;
  session.ExpectRoundTrip({
      Ins("a", 5, kInfinity),
      Ins("b", kMinTimestamp, kInfinity),
      Ins("c", kInfinity, kMinTimestamp),
      Adj("a", 5, kInfinity, kMinTimestamp),
      Adj("b", kMinTimestamp, kInfinity, kMinTimestamp),
      Stb(kMinTimestamp),
      Stb(kInfinity),
      Ins("d", 0, 0),
  });
}

TEST(ElementSerdeDictTest, NegativeAndNonMonotoneVsRoundTrip) {
  DictSession session;
  session.ExpectRoundTrip({
      Ins("a", -5, 10),
      Ins("b", 100, 50),  // Ve before Vs: a negative offset
      Ins("c", -1000000, -999000),
      Ins("a", 3, 4),
      Adj("c", -1000000, -999000, -2000000),
      Ins("d", 3, 3),
  });
}

TEST(ElementSerdeDictTest, StablesBetweenInsertsRoundTrip) {
  DictSession session;
  session.ExpectRoundTrip({
      Stb(1000), Ins("a", 900, 2000), Stb(950),  Ins("b", 1200, 1300),
      Stb(-7),   Adj("a", 900, 2000, 1500),     Stb(1600), Stb(1600),
  });
}

TEST(ElementSerdeDictTest, AdjustsOfPayloadsDefinedManyFramesEarlier) {
  DictSession session;
  // Fifty frames each define two new payloads...
  for (int frame = 0; frame < 50; ++frame) {
    const std::string a = "early-" + std::to_string(2 * frame);
    const std::string b = "early-" + std::to_string(2 * frame + 1);
    session.ExpectRoundTrip(
        {Ins(a, frame * 10, frame * 10 + 500),
         Ins(b, frame * 10 + 1, frame * 10 + 600), Stb(frame * 10)});
  }
  // ...then one frame revises payloads from the first, middle and last
  // frames in descending and ascending id order (negative and positive id
  // deltas), and references a brand-new payload between them.
  session.ExpectRoundTrip({
      Adj("early-0", 0, 500, 700),
      Adj("early-99", 491, 1091, 800),
      Ins("late", 600, 900),
      Adj("early-1", 1, 601, 650),
      Adj("early-50", 250, 750, 760),
  });
}

TEST(ElementSerdeDictTest, EmptyRowEscapesInline) {
  DictSession session;
  const StreamElement empty_insert = StreamElement::Insert(Row(), 10, 20);
  const StreamElement empty_adjust =
      StreamElement::Adjust(Row(), 10, 20, 30);
  ElementSequence got;
  session.RoundTrip({Ins("a", 1, 2), empty_insert, Ins("a", 3, 4),
                     empty_adjust, Ins("b", 5, 6)},
                    &got);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[1], empty_insert);
  EXPECT_EQ(got[3], empty_adjust);
  EXPECT_EQ(got[1].payload().field_count(), 0);
  // The escape neither defined an id nor disturbed the id deltas around it.
  EXPECT_EQ(session.sender().entries(), 2);
  EXPECT_EQ(got[4], Ins("b", 5, 6));
}

TEST(ElementSerdeDictTest, DictionaryAtCapacityGoesInline) {
  DictSession session(/*capacity=*/2);
  session.ExpectRoundTrip({Ins("a", 1, 10), Ins("b", 2, 20)});
  // The dictionary is full: "c" and "d" escape inline in every later frame
  // while "a" and "b" keep their ids.
  session.ExpectRoundTrip({Ins("c", 3, 30), Ins("a", 4, 40),
                           Adj("c", 3, 30, 35), Ins("d", 5, 50),
                           Ins("b", 6, 60)});
  session.ExpectRoundTrip({Adj("d", 5, 50, 55), Adj("b", 6, 60, 65)});
  EXPECT_EQ(session.sender().entries(), 2);
}

TEST(ElementSerdeDictTest, CompactRowsRoundTripEveryValueType) {
  const Row row({Value::Null(), Value(true), Value(false),
                 Value(int64_t{0}), Value(int64_t{-1}),
                 Value(std::numeric_limits<int64_t>::min()),
                 Value(std::numeric_limits<int64_t>::max()), Value(2.5),
                 Value(std::string()), Value(std::string(300, 'x'))});
  Encoder encoder;
  EncodePayloadDef(kInlinePayloadId - 1, row, &encoder);
  const std::string bytes = encoder.TakeBytes();
  Decoder decoder(bytes);
  uint32_t id = 0;
  Row got;
  ASSERT_TRUE(DecodePayloadDef(&decoder, &id, &got).ok());
  EXPECT_TRUE(decoder.AtEnd());
  EXPECT_EQ(id, kInlinePayloadId - 1);
  EXPECT_EQ(got, row);
}

// Pins the layout's gain: in-window deltas (inter-arrival gap up to 1 ms,
// lifetime about 2 s, in microsecond ticks, payloads among the 64 most
// recently defined of a warm 50k-entry dictionary) cost at most 10 bytes
// per element, the batch's first absolute Vs included.  The fixed-width
// layout this replaced spent 21 bytes on every insert.
TEST(ElementSerdeDictTest, InWindowInsertBatchIsAtMostTenBytesPerElement) {
  PayloadDictEncoder sender;
  Defs defs;
  std::vector<Row> payloads;
  for (int i = 0; i < 50000; ++i) {
    payloads.push_back(Row::OfIntAndString(i % 400, "payload-" +
                                                        std::to_string(i)));
    sender.Intern(payloads.back(), &defs);
  }
  ASSERT_EQ(defs.size(), payloads.size());
  ElementSequence batch;
  Timestamp vs = 1'700'000'000'000'000;  // an absolute microsecond clock
  for (int i = 0; i < 64; ++i) {
    vs += (i * 397) % 1001;  // gaps of 0..1000 us
    // Ids out of order within the window: both signs of id delta.
    const size_t which = static_cast<size_t>(50000 - 64 + (i * 37) % 64);
    batch.push_back(StreamElement::Insert(payloads[which], vs,
                                          vs + 2'000'000 + i % 50));
  }
  Encoder body;
  Defs no_defs;
  EncodeSequenceDict(batch, &sender, &no_defs, &body);
  EXPECT_TRUE(no_defs.empty());
  EXPECT_LE(body.bytes().size(), batch.size() * 10)
      << "ELEMENTS_DICT body grew to " << body.bytes().size()
      << " bytes for " << batch.size() << " inserts";

  PayloadDictDecoder receiver;
  for (const auto& [id, payload] : defs) {
    ASSERT_TRUE(receiver.Define(id, payload).ok());
  }
  const std::string bytes = body.TakeBytes();
  Decoder decoder(bytes);
  ElementSequence got;
  ASSERT_TRUE(DecodeSequenceDict(&decoder, receiver, &got).ok());
  EXPECT_EQ(got, batch);
}

}  // namespace
}  // namespace lmerge
