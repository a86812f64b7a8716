// Framing robustness: partial feeds, batched feeds, oversize and unknown
// headers — complete frames come out intact, malformed streams poison the
// assembler with a Status error, never a crash.

#include "net/frame.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace lmerge::net {
namespace {

TEST(FrameTest, RoundTripSingleFrame) {
  const std::string encoded = EncodeFrame(FrameType::kElements, "payload!");
  EXPECT_EQ(encoded.size(), kFrameHeaderBytes + 8);
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(encoded).ok());
  Frame frame;
  ASSERT_TRUE(assembler.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kElements);
  EXPECT_EQ(frame.payload, "payload!");
  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(FrameTest, EmptyPayloadFrame) {
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(EncodeFrame(FrameType::kBye, "")).ok());
  Frame frame;
  ASSERT_TRUE(assembler.Next(&frame));
  EXPECT_EQ(frame.type, FrameType::kBye);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, ByteAtATimeDelivery) {
  std::string wire;
  AppendFrame(FrameType::kHello, "hello-payload", &wire);
  AppendFrame(FrameType::kFeedback, "fb", &wire);
  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (const char c : wire) {
    ASSERT_TRUE(assembler.Feed(&c, 1).ok());
    Frame frame;
    while (assembler.Next(&frame)) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].payload, "hello-payload");
  EXPECT_EQ(frames[1].type, FrameType::kFeedback);
  EXPECT_EQ(frames[1].payload, "fb");
}

TEST(FrameTest, ManyFramesInOneChunk) {
  std::string wire;
  for (int i = 0; i < 100; ++i) {
    AppendFrame(FrameType::kElements, std::string(static_cast<size_t>(i), 'x'),
                &wire);
  }
  FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(wire).ok());
  Frame frame;
  int count = 0;
  while (assembler.Next(&frame)) {
    EXPECT_EQ(frame.payload.size(), static_cast<size_t>(count));
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(FrameTest, OversizeLengthPrefixRejectedEagerly) {
  // 0xffffffff length: a hostile prefix must fail at Feed time, not leave
  // the reader waiting for 4 GiB.
  const std::string bytes = "\xff\xff\xff\xff\x03";
  FrameAssembler assembler;
  const Status status = assembler.Feed(bytes);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(assembler.poisoned());
  Frame frame;
  EXPECT_FALSE(assembler.Next(&frame));
}

TEST(FrameTest, ConfigurableLimitEnforced) {
  FrameAssembler assembler(/*max_payload=*/16);
  EXPECT_TRUE(
      assembler.Feed(EncodeFrame(FrameType::kElements, std::string(16, 'a')))
          .ok());
  Frame frame;
  EXPECT_TRUE(assembler.Next(&frame));
  EXPECT_FALSE(
      assembler.Feed(EncodeFrame(FrameType::kElements, std::string(17, 'a')))
          .ok());
}

TEST(FrameTest, UnknownFrameTypeRejected) {
  // 0x63 is past the known range; 3 (the retired single-ELEMENT frame) and
  // 7 (the retired PAYLOAD_DEF frame) lie inside it but are never accepted.
  for (const char tag : {'\x63', '\x03', '\x07'}) {
    FrameAssembler assembler;
    const std::string bytes = std::string("\x00\x00\x00\x00", 4) + tag;
    EXPECT_FALSE(assembler.Feed(bytes).ok()) << static_cast<int>(tag);
    EXPECT_TRUE(assembler.poisoned());
  }
  EXPECT_FALSE(IsKnownFrameType(3));
  EXPECT_FALSE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kPayloadDef)));
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kElementsDict)));
}

TEST(FrameTest, GarbageAfterValidFramePoisonsOnConsumption) {
  std::string wire = EncodeFrame(FrameType::kBye, "ok");
  wire += std::string("\xff\xff\xff\x7f\x01", 5);  // oversize second header
  FrameAssembler assembler;
  // The bad header is not at the front yet, so the feed may succeed...
  (void)assembler.Feed(wire);
  Frame frame;
  // ...but consuming the good frame must expose the poison.
  if (assembler.Next(&frame)) {
    EXPECT_EQ(frame.payload, "ok");
    EXPECT_TRUE(assembler.poisoned());
    EXPECT_FALSE(assembler.Next(&frame));
  } else {
    EXPECT_TRUE(assembler.poisoned());
  }
}

TEST(FrameTest, PoisonedAssemblerRefusesFurtherFeeds) {
  FrameAssembler assembler;
  ASSERT_FALSE(assembler.Feed("\xff\xff\xff\xff\x03").ok());
  EXPECT_FALSE(assembler.Feed(EncodeFrame(FrameType::kBye, "")).ok());
}

TEST(FrameTest, RandomGarbageNeverCrashes) {
  Rng rng(2012);
  for (int round = 0; round < 200; ++round) {
    FrameAssembler assembler;
    std::string bytes;
    const int64_t len = rng.UniformInt(0, 256);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    if (!assembler.Feed(bytes).ok()) continue;
    Frame frame;
    while (assembler.Next(&frame)) {
      // Frames that happen to parse must be well-formed.
      EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(frame.type)));
      EXPECT_LE(frame.payload.size(), kMaxFramePayload);
    }
  }
}

}  // namespace
}  // namespace lmerge::net
