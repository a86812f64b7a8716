// Wire-protocol messages: every frame type round-trips; truncated and
// mutated payloads fail with a Status error, never a crash (the style of
// tests/common/serde_fuzz_test.cc applied to the network layer).

#include "net/protocol.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace lmerge::net {
namespace {

using ::lmerge::testing_util::Adj;
using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

// Strips the frame header, returning the payload for the Decode* helpers.
std::string PayloadOf(const std::string& frame_bytes) {
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.Feed(frame_bytes).ok());
  Frame frame;
  EXPECT_TRUE(assembler.Next(&frame));
  return frame.payload;
}

TEST(ProtocolTest, PropertiesBitsRoundTrip) {
  const StreamProperties cases[] = {
      StreamProperties::None(), StreamProperties::Strongest(),
      [] {
        StreamProperties p;
        p.insert_only = true;
        p.ordered = true;
        return p.Normalized();
      }(),
  };
  for (const StreamProperties& p : cases) {
    EXPECT_TRUE(PropertiesFromBits(PropertiesToBits(p)).Equals(p))
        << p.ToString();
  }
}

TEST(ProtocolTest, HelloRoundTrip) {
  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
  hello.properties = StreamProperties::Strongest();
  hello.join_time = 12345;
  hello.peer_name = "replica-a";
  HelloMessage decoded;
  ASSERT_TRUE(
      DecodeHello(PayloadOf(EncodeHelloFrame(hello)), &decoded).ok());
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.role, PeerRole::kPublisher);
  EXPECT_TRUE(decoded.properties.Equals(hello.properties));
  EXPECT_EQ(decoded.join_time, 12345);
  EXPECT_EQ(decoded.peer_name, "replica-a");
}

TEST(ProtocolTest, WelcomeRoundTrip) {
  WelcomeMessage welcome;
  welcome.stream_id = 7;
  welcome.algorithm_case = 3;
  welcome.output_stable = -42;
  WelcomeMessage decoded;
  ASSERT_TRUE(
      DecodeWelcome(PayloadOf(EncodeWelcomeFrame(welcome)), &decoded).ok());
  EXPECT_EQ(decoded.stream_id, 7);
  EXPECT_EQ(decoded.algorithm_case, 3);
  EXPECT_EQ(decoded.output_stable, -42);
}

TEST(ProtocolTest, SubscriberWelcomeCarriesMinusOne) {
  WelcomeMessage welcome;
  welcome.stream_id = -1;
  WelcomeMessage decoded;
  ASSERT_TRUE(
      DecodeWelcome(PayloadOf(EncodeWelcomeFrame(welcome)), &decoded).ok());
  EXPECT_EQ(decoded.stream_id, -1);
}

// A single element travels as a batch of one: every element kind
// round-trips through both batch frames.
TEST(ProtocolTest, BatchesOfOneRoundTrip) {
  const StreamElement cases[] = {
      Ins("payload", 10, 500),
      Adj("payload", 10, 500, 700),
      StreamElement::Insert(Row::OfIntAndString(9, "x"), 3, kInfinity),
      Stb(30),
  };
  PayloadDictEncoder encoder;
  PayloadDictDecoder decoder_dict;
  for (const StreamElement& element : cases) {
    ElementSequence decoded;
    int64_t origin_us = 0;
    ASSERT_TRUE(DecodeElementsPayload(
                    PayloadOf(EncodeElementsFrame({element}, 5)), &decoded,
                    &origin_us)
                    .ok());
    EXPECT_EQ(decoded, ElementSequence{element});
    EXPECT_EQ(origin_us, 5);

    decoded.clear();
    ASSERT_TRUE(DecodeElementsDictPayload(
                    PayloadOf(EncodeElementsDictFrame({element}, &encoder, 6)),
                    decoder_dict, &decoded, &origin_us)
                    .ok());
    EXPECT_EQ(decoded, ElementSequence{element});
    EXPECT_EQ(origin_us, 6);
  }
}

TEST(ProtocolTest, FeedbackAndByeRoundTrip) {
  FeedbackMessage feedback;
  feedback.horizon = 777;
  FeedbackMessage feedback_decoded;
  ASSERT_TRUE(DecodeFeedback(PayloadOf(EncodeFeedbackFrame(feedback)),
                             &feedback_decoded)
                  .ok());
  EXPECT_EQ(feedback_decoded.horizon, 777);

  ByeMessage bye;
  bye.reason = "tape complete";
  ByeMessage bye_decoded;
  ASSERT_TRUE(DecodeBye(PayloadOf(EncodeByeFrame(bye)), &bye_decoded).ok());
  EXPECT_EQ(bye_decoded.reason, "tape complete");
}

TEST(ProtocolTest, TrailingBytesRejectedOnEveryMessage) {
  HelloMessage hello;
  EXPECT_FALSE(
      DecodeHello(PayloadOf(EncodeHelloFrame(hello)) + "x", &hello).ok());
  WelcomeMessage welcome;
  EXPECT_FALSE(
      DecodeWelcome(PayloadOf(EncodeWelcomeFrame(welcome)) + "x", &welcome)
          .ok());
  ElementSequence elements;
  int64_t origin_us = 0;
  EXPECT_FALSE(
      DecodeElementsPayload(PayloadOf(EncodeElementsFrame({Stb(1)}, 1)) + "x",
                            &elements, &origin_us)
          .ok());
  FeedbackMessage feedback;
  EXPECT_FALSE(
      DecodeFeedback(PayloadOf(EncodeFeedbackFrame(feedback)) + "x",
                     &feedback)
          .ok());
  ByeMessage bye;
  EXPECT_FALSE(DecodeBye(PayloadOf(EncodeByeFrame(bye)) + "x", &bye).ok());
}

TEST(ProtocolTest, BadRoleRejected) {
  HelloMessage hello;
  std::string payload = PayloadOf(EncodeHelloFrame(hello));
  payload[4] = '\x07';  // role byte (after u32 version)
  EXPECT_FALSE(DecodeHello(payload, &hello).ok());
}

// Every strict prefix of a valid payload must fail cleanly.
TEST(ProtocolTest, TruncationsFailCleanly) {
  HelloMessage hello;
  hello.peer_name = "truncation-victim";
  const std::string payloads[] = {
      PayloadOf(EncodeHelloFrame(hello)),
      PayloadOf(EncodeWelcomeFrame(WelcomeMessage())),
      PayloadOf(EncodeElementsFrame({Ins("abc", 1, 99)}, 7)),
      PayloadOf(EncodeElementsFrame({Ins("a", 1, 5), Stb(2)}, 7)),
      PayloadOf(EncodeFeedbackFrame(FeedbackMessage())),
      PayloadOf(EncodeByeFrame(ByeMessage{"reason"})),
  };
  for (const std::string& payload : payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string prefix = payload.substr(0, cut);
      HelloMessage h;
      WelcomeMessage w;
      ElementSequence es;
      int64_t origin_us = 0;
      FeedbackMessage f;
      ByeMessage b;
      (void)DecodeHello(prefix, &h);
      (void)DecodeWelcome(prefix, &w);
      (void)DecodeElementsPayload(prefix, &es, &origin_us);
      (void)DecodeFeedback(prefix, &f);
      (void)DecodeBye(prefix, &b);
    }
  }
}

// Every frame in `bytes`, which must all be ELEMENTS_DICT.
std::vector<std::string> DictPayloadsOf(const std::string& bytes) {
  FrameAssembler assembler;
  EXPECT_TRUE(assembler.Feed(bytes).ok());
  std::vector<std::string> payloads;
  Frame frame;
  while (assembler.Next(&frame)) {
    EXPECT_EQ(frame.type, FrameType::kElementsDict);
    payloads.push_back(frame.payload);
  }
  return payloads;
}

// A batch that defines k payloads and then references them: one frame,
// whose defs section takes the receiver's next ids, so a second batch
// references them without defining anything.
TEST(ProtocolTest, BatchDefinesItsPayloadsThenReferencesThem) {
  constexpr int kDefs = 5;
  ElementSequence batch;
  for (int i = 0; i < kDefs; ++i) {
    batch.push_back(Ins("def-" + std::to_string(i), i, 100 + i));
  }
  for (int i = kDefs - 1; i >= 0; --i) {
    batch.push_back(Adj("def-" + std::to_string(i), i, 100 + i, 200));
  }
  batch.push_back(Stb(kDefs));
  PayloadDictEncoder encoder;
  const DictBatchParts parts = EncodeDictBatchParts(batch, &encoder);
  EXPECT_EQ(encoder.entries(), kDefs);
  EXPECT_EQ(static_cast<uint8_t>(parts.defs[0]), kDefs);  // varint count
  const std::string frame = AssembleElementsDictFrame(parts, 77);
  EXPECT_EQ(frame.size(), kFrameHeaderBytes + parts.defs.size() +
                              parts.body.size() + 8);
  const std::vector<std::string> payloads = DictPayloadsOf(frame);
  ASSERT_EQ(payloads.size(), 1u);

  PayloadDictDecoder dict;
  ElementSequence decoded;
  int64_t origin_us = 0;
  ASSERT_TRUE(
      DecodeElementsDictPayload(payloads[0], dict, &decoded, &origin_us).ok());
  EXPECT_EQ(decoded, batch);
  EXPECT_EQ(origin_us, 77);
  ASSERT_EQ(dict.entries(), kDefs);
  for (int i = 0; i < kDefs; ++i) {
    Row row;
    ASSERT_TRUE(dict.Resolve(static_cast<uint32_t>(i), &row).ok());
    EXPECT_EQ(row, Row::OfString("def-" + std::to_string(i)));
  }
  // Same payloads again: an empty defs section, references only.
  const DictBatchParts again = EncodeDictBatchParts(batch, &encoder);
  EXPECT_EQ(again.defs, std::string(1, '\0'));
  ASSERT_TRUE(DecodeElementsDictPayload(
                  PayloadOf(AssembleElementsDictFrame(again, 78)), dict,
                  &decoded, &origin_us)
                  .ok());
  EXPECT_EQ(decoded, batch);
  EXPECT_EQ(dict.entries(), kDefs);
}

// The dictionary path must be byte-equivalent to the inline path after one
// full encode -> frame -> assemble -> decode cycle, including the defs the
// first referencing batch carries.
TEST(ProtocolTest, ElementsDictFrameRoundTripMatchesInline) {
  const ElementSequence batch1 = {Ins("hot", 1, 10), Ins("cold", 2, 20),
                                  Adj("hot", 1, 10, 30), Stb(3)};
  const ElementSequence batch2 = {Ins("hot", 4, 40), Ins("hot", 5, 50)};

  PayloadDictEncoder encoder;
  PayloadDictDecoder decoder_dict;
  ElementSequence got;
  int dict_frames = 0;
  for (const ElementSequence* batch : {&batch1, &batch2}) {
    for (const std::string& payload :
         DictPayloadsOf(EncodeElementsDictFrame(*batch, &encoder, 1))) {
      ++dict_frames;
      ElementSequence decoded;
      int64_t origin_us = 0;
      ASSERT_TRUE(DecodeElementsDictPayload(payload, decoder_dict, &decoded,
                                            &origin_us)
                      .ok());
      got.insert(got.end(), decoded.begin(), decoded.end());
    }
  }
  // Two distinct payloads -> two defs, carried exactly once despite "hot"
  // recurring in both batches; one ELEMENTS_DICT frame per batch.
  EXPECT_EQ(decoder_dict.entries(), 2);
  EXPECT_EQ(dict_frames, 2);
  ElementSequence expected = batch1;
  expected.insert(expected.end(), batch2.begin(), batch2.end());
  EXPECT_EQ(got, expected);
  // Interned payloads mean the decoded handles share reps with the
  // originals — the whole point of the end-to-end refactor.
  EXPECT_EQ(got[0].payload().identity(), batch1[0].payload().identity());
}

TEST(ProtocolTest, ElementsDictPayloadWithUnknownIdFails) {
  // The first batch defines the payload; decoding only the second, which
  // references it, against an empty dictionary finds the id undefined.
  PayloadDictEncoder encoder;
  const ElementSequence batch = {Ins("known-only-to-sender", 1, 10),
                                 Ins("known-only-to-sender", 2, 20)};
  (void)EncodeElementsDictFrame(batch, &encoder, 1);
  const std::string dict_payload =
      PayloadOf(EncodeElementsDictFrame(batch, &encoder, 1));
  PayloadDictDecoder empty_dict;
  ElementSequence decoded;
  int64_t origin_us = 0;
  const Status status = DecodeElementsDictPayload(dict_payload, empty_dict,
                                                  &decoded, &origin_us);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("undefined payload id"),
            std::string::npos);
}

// The varint layout behind the frame decoders: hostile payloads (trailing
// stamp present) fail with a Status, never a crash.
TEST(ProtocolTest, HostileDictPayloadsFailCleanly) {
  PayloadDictDecoder dict;
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  // An empty defs section, `body`, then the stamp.
  const auto stamped = [](const std::string& body) {
    Encoder encoder;
    encoder.WriteI64(42);
    return std::string(1, '\0') + body + encoder.TakeBytes();
  };
  const auto fails = [&](const std::string& payload) {
    PayloadDictDecoder scratch = dict;
    ElementSequence decoded;
    int64_t origin_us = 0;
    return !DecodeElementsDictPayload(payload, scratch, &decoded, &origin_us)
                .ok();
  };
  const std::string eleven(10, '\x80');
  // 11-byte varint count.
  EXPECT_TRUE(fails(stamped(eleven + std::string(1, '\0'))));
  // 11-byte varint def count.
  EXPECT_TRUE(fails(eleven + stamped(std::string("\x00", 1))));
  // Count 5 with one element's bytes (the stamp must not count as
  // elements).
  EXPECT_TRUE(fails(stamped(std::string("\x05\x02\x00", 3))));
  // Insert whose id delta (+2 from -1) lands on undefined id 1.
  EXPECT_TRUE(fails(stamped(std::string("\x01\x00\x04\x00\x02", 5))));
  // Insert whose id delta lands on the reserved inline id.
  {
    Encoder body;
    body.WriteVarU64(1);
    body.WriteU8(0);
    body.WriteVarI64(static_cast<int64_t>(kInlinePayloadId) + 1);
    body.WriteVarI64(0);
    body.WriteVarI64(1);
    EXPECT_TRUE(fails(stamped(body.TakeBytes())));
  }
  // A stable carrying the inline escape bit.
  EXPECT_TRUE(fails(stamped(std::string("\x01\x82\x00", 3))));
  // Sanity: the well-formed one-stable body decodes.
  EXPECT_FALSE(fails(stamped(std::string("\x01\x02\x00", 3))));

  // Every strict prefix of a real stamped payload fails, whether the cut
  // lands in the defs section, in the stamp or in a varint of the body.
  PayloadDictEncoder encoder;
  const ElementSequence batch = {Ins("p", kMinTimestamp, kInfinity),
                                 Adj("p", kMinTimestamp, kInfinity, 7),
                                 Ins("q", 3, 9), Stb(kInfinity)};
  const std::string payload =
      PayloadOf(EncodeElementsDictFrame(batch, &encoder, 99));
  ASSERT_EQ(payload[0], '\x02');  // defines "p" and "q"
  {
    PayloadDictDecoder session_dict;
    ElementSequence decoded;
    int64_t origin_us = 0;
    ASSERT_TRUE(
        DecodeElementsDictPayload(payload, session_dict, &decoded, &origin_us)
            .ok());
    EXPECT_EQ(decoded, batch);
    EXPECT_EQ(origin_us, 99);
  }
  for (size_t len = 0; len < payload.size(); ++len) {
    PayloadDictDecoder session_dict;
    ElementSequence cut;
    int64_t origin_us = 0;
    EXPECT_FALSE(DecodeElementsDictPayload(payload.substr(0, len),
                                           session_dict, &cut, &origin_us)
                     .ok())
        << "prefix " << len;
  }
}

// A def count larger than the bytes left, or past the receiver's capacity,
// is refused before anything is allocated or defined.
TEST(ProtocolTest, OversizedDefCountsAreRefused) {
  Encoder stamp;
  stamp.WriteI64(1);
  // Three one-field rows, the empty sequence, the stamp.
  std::string rows;
  for (const char* tag : {"a", "b", "c"}) {
    Encoder row;
    row.WriteCompactRow(Row::OfString(tag));
    rows += row.bytes();
  }
  const auto payload_with_count = [&](uint64_t count) {
    Encoder head;
    head.WriteVarU64(count);
    return head.bytes() + rows + std::string(1, '\0') + stamp.bytes();
  };
  const auto decode = [&](const std::string& payload,
                          PayloadDictDecoder* dict) {
    ElementSequence decoded;
    int64_t origin_us = 0;
    return DecodeElementsDictPayload(payload, *dict, &decoded, &origin_us);
  };
  {
    PayloadDictDecoder dict;
    ASSERT_TRUE(decode(payload_with_count(3), &dict).ok());
    EXPECT_EQ(dict.entries(), 3);
  }
  // Counts the remaining bytes cannot hold, up to the largest 32-bit one.
  for (const uint64_t count :
       {uint64_t{1000}, uint64_t{1} << 31, uint64_t{0xffffffff}}) {
    PayloadDictDecoder dict;
    const Status status = decode(payload_with_count(count), &dict);
    EXPECT_FALSE(status.ok()) << count;
    EXPECT_NE(status.ToString().find("exceeds buffer"), std::string::npos);
    EXPECT_EQ(dict.entries(), 0);
  }
  // Past 32 bits.
  {
    PayloadDictDecoder dict;
    EXPECT_FALSE(decode(payload_with_count(uint64_t{1} << 40), &dict).ok());
    EXPECT_EQ(dict.entries(), 0);
  }
  // Three defs into a capacity-2 dictionary, and into one with a single
  // free slot left: refused as a whole, nothing defined.
  {
    PayloadDictDecoder dict(/*capacity=*/2);
    const Status status = decode(payload_with_count(3), &dict);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("overflow the dictionary"),
              std::string::npos);
    EXPECT_EQ(dict.entries(), 0);
  }
  {
    PayloadDictDecoder dict(/*capacity=*/3);
    ASSERT_TRUE(dict.Define(0, Row::OfString("first")).ok());
    EXPECT_FALSE(decode(payload_with_count(3), &dict).ok());
    EXPECT_EQ(dict.entries(), 1);
  }
}

// A late joiner's catch-up: zero-element, stamp-0 frames of at most
// kCheckpointChunkBytes that define a dictionary's rows in id order.
TEST(ProtocolTest, CatchUpFramesRebuildTheDictionary) {
  EXPECT_TRUE(EncodeCatchUpFrames({}).empty());
  PayloadDictEncoder encoder;
  ElementSequence batch;
  for (int i = 0; i < 1200; ++i) {
    batch.push_back(Ins(std::string(500, 'x') + std::to_string(i), i, i + 1));
  }
  // One row larger than a whole chunk rides alone.
  batch.push_back(Ins(std::string(kCheckpointChunkBytes + 10, 'y'), 1, 2));
  batch.push_back(Ins("tail", 1, 2));
  (void)EncodeDictBatchParts(batch, &encoder);
  const std::vector<std::string> payloads =
      DictPayloadsOf(EncodeCatchUpFrames(encoder.rows()));
  ASSERT_GE(payloads.size(), 4u);
  PayloadDictDecoder dict;
  for (const std::string& payload : payloads) {
    if (payload.size() <= kCheckpointChunkBytes) {
      EXPECT_LE(kFrameHeaderBytes + payload.size(), kCheckpointChunkBytes);
    } else {
      EXPECT_EQ(payload[0], '\x01');  // the oversized row alone
    }
    ElementSequence none;
    int64_t origin_us = -1;
    ASSERT_TRUE(
        DecodeElementsDictPayload(payload, dict, &none, &origin_us).ok());
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(origin_us, 0);
  }
  ASSERT_EQ(dict.entries(), encoder.entries());
  for (uint32_t id = 0; id < encoder.rows().size(); ++id) {
    Row row;
    ASSERT_TRUE(dict.Resolve(id, &row).ok());
    EXPECT_EQ(row, encoder.rows()[id]);
  }
  // From that state the sender's next batch decodes.
  const ElementSequence next = {Ins("tail", 5, 6), Ins("fresh", 7, 8)};
  ElementSequence decoded;
  int64_t origin_us = 0;
  ASSERT_TRUE(DecodeElementsDictPayload(
                  PayloadOf(EncodeElementsDictFrame(next, &encoder, 3)), dict,
                  &decoded, &origin_us)
                  .ok());
  EXPECT_EQ(decoded, next);
}

TEST(ProtocolTest, HandshakeCarriesAnyVersionVerbatim) {
  // The wire preserves whatever version the sender claims — the exact-match
  // check belongs to the receiver, so decode must not clamp or reject.
  HelloMessage hello;
  hello.version = 99;
  HelloMessage decoded;
  ASSERT_TRUE(
      DecodeHello(PayloadOf(EncodeHelloFrame(hello)), &decoded).ok());
  EXPECT_EQ(decoded.version, 99u);
  WelcomeMessage welcome;
  welcome.version = 1;
  WelcomeMessage welcome_decoded;
  ASSERT_TRUE(DecodeWelcome(PayloadOf(EncodeWelcomeFrame(welcome)),
                            &welcome_decoded)
                  .ok());
  EXPECT_EQ(welcome_decoded.version, 1u);
  // Default-constructed handshake messages carry the compiled-in version.
  EXPECT_EQ(HelloMessage().version, kProtocolVersion);
  EXPECT_EQ(WelcomeMessage().version, kProtocolVersion);
}

// The HELLO and WELCOME layouts never change, so a build at any protocol
// version can read the other side's version and the rejection.
TEST(ProtocolTest, HandshakeLayoutsAreFrozen) {
  HelloMessage hello;
  hello.version = 0x01020304;
  hello.role = PeerRole::kSubscriber;
  hello.join_time = 0x0a;
  hello.peer_name = "ab";
  EXPECT_EQ(EncodeHelloFrame(hello),
            std::string("\x14\x00\x00\x00\x01"      // header: 20 B, HELLO
                        "\x04\x03\x02\x01"          // u32 version
                        "\x01"                      // u8 role
                        "\x00"                      // u8 property bits
                        "\x0a\x00\x00\x00\x00\x00\x00\x00"  // i64 join_time
                        "\x02\x00\x00\x00"          // string length
                        "ab",
                        25));
  WelcomeMessage welcome;
  welcome.version = 0x01020304;
  welcome.stream_id = -1;
  welcome.algorithm_case = 2;
  welcome.output_stable = 0x0b;
  EXPECT_EQ(EncodeWelcomeFrame(welcome),
            std::string("\x11\x00\x00\x00\x02"      // header: 17 B, WELCOME
                        "\x04\x03\x02\x01"          // u32 version
                        "\xff\xff\xff\xff"          // i32 stream_id
                        "\x02"                      // u8 algorithm_case
                        "\x0b\x00\x00\x00\x00\x00\x00\x00",  // i64 stable
                        22));
}

TEST(ProtocolTest, StatsRequestIsEmptyAndStrict) {
  ASSERT_TRUE(DecodeStatsRequest(PayloadOf(EncodeStatsRequestFrame())).ok());
  EXPECT_FALSE(DecodeStatsRequest("x").ok());
}

StatsResponseMessage SampleStats() {
  StatsResponseMessage stats;
  stats.algorithm_case = 3;
  stats.output_stable = 777;
  stats.output_inserts = 1000;
  stats.output_adjusts = 12;
  stats.publishers = 3;
  stats.subscribers = 2;
  for (int s = 0; s < 3; ++s) {
    StatsInputRow row;
    row.stream_id = s;
    row.peer_name = s == 2 ? "" : "replica-" + std::to_string(s);
    row.connected = s != 2;
    row.active = true;
    row.inserts_in = 400 + s;
    row.adjusts_in = 5 * s;
    row.stables_in = 40;
    row.dropped = s;
    row.contributed = 333 + s;
    row.stable_point = 700 + s;
    stats.inputs.push_back(std::move(row));
  }
  obs::MetricValue metric;
  metric.name = "net.rx.frames";
  metric.kind = obs::InstrumentKind::kCounter;
  metric.value = 9001;
  stats.metrics.entries.push_back(std::move(metric));
  return stats;
}

TEST(ProtocolTest, StatsResponseRoundTrip) {
  const StatsResponseMessage stats = SampleStats();
  StatsResponseMessage decoded;
  ASSERT_TRUE(DecodeStatsResponse(PayloadOf(EncodeStatsResponseFrame(stats)),
                                  &decoded)
                  .ok());
  EXPECT_EQ(decoded.algorithm_case, 3);
  EXPECT_EQ(decoded.output_stable, 777);
  EXPECT_EQ(decoded.output_inserts, 1000);
  EXPECT_EQ(decoded.output_adjusts, 12);
  EXPECT_EQ(decoded.publishers, 3);
  EXPECT_EQ(decoded.subscribers, 2);
  ASSERT_EQ(decoded.inputs.size(), 3u);
  EXPECT_EQ(decoded.inputs[0].peer_name, "replica-0");
  EXPECT_TRUE(decoded.inputs[0].connected);
  EXPECT_FALSE(decoded.inputs[2].connected);
  EXPECT_TRUE(decoded.inputs[2].active);
  EXPECT_EQ(decoded.inputs[1].inserts_in, 401);
  EXPECT_EQ(decoded.inputs[1].contributed, 334);
  EXPECT_EQ(decoded.inputs[2].stable_point, 702);
  EXPECT_EQ(decoded.metrics.Value("net.rx.frames"), 9001);
}

TEST(ProtocolTest, StatsResponseTruncationsFailCleanly) {
  const std::string payload =
      PayloadOf(EncodeStatsResponseFrame(SampleStats()));
  // The capture-timestamp tail is mandatory: even cutting exactly the tail
  // fails.
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::string prefix = payload.substr(0, len);
    StatsResponseMessage decoded;
    EXPECT_FALSE(DecodeStatsResponse(prefix, &decoded).ok())
        << "truncated to " << len;
  }
}

TEST(ProtocolTest, StatsResponseHostileRowCountRejected) {
  // A count the buffer cannot possibly hold must fail before any
  // allocation, not OOM (same bound style as the serde decoders).
  Encoder encoder;
  encoder.WriteU8(0);
  encoder.WriteI64(0);
  encoder.WriteI64(0);
  encoder.WriteI64(0);
  encoder.WriteU32(0);
  encoder.WriteU32(0);
  encoder.WriteU32(0x7fffffff);  // claimed input rows
  StatsResponseMessage decoded;
  const Status status = DecodeStatsResponse(encoder.bytes(), &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("row count"), std::string::npos);
}

TEST(ProtocolTest, StatsFrameAndRoleNames) {
  EXPECT_STREQ(FrameTypeName(FrameType::kStatsRequest), "STATS_REQUEST");
  EXPECT_STREQ(FrameTypeName(FrameType::kStatsResponse), "STATS_RESPONSE");
  EXPECT_STREQ(PeerRoleName(PeerRole::kMonitor), "monitor");
}

class ProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzzTest, MutatedPayloadsNeverCrashDecoders) {
  Rng rng(GetParam() * 17 + 5);
  HelloMessage hello;
  hello.peer_name = "fuzz-me";
  const std::string valid_payloads[] = {
      PayloadOf(EncodeHelloFrame(hello)),
      PayloadOf(EncodeWelcomeFrame(WelcomeMessage())),
      PayloadOf(EncodeElementsFrame({Ins("payload-string", 10, 500)}, 3)),
      PayloadOf(EncodeElementsFrame({Ins("a", 1, 5), Adj("a", 1, 5, 9)}, 3)),
      PayloadOf(EncodeByeFrame(ByeMessage{"bye-bye"})),
      PayloadOf(EncodeStatsResponseFrame(SampleStats())),
  };
  for (int round = 0; round < 200; ++round) {
    for (const std::string& valid : valid_payloads) {
      std::string mutated = valid;
      if (mutated.empty()) continue;
      const int mutations = static_cast<int>(rng.UniformInt(1, 4));
      for (int m = 0; m < mutations; ++m) {
        const size_t pos = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
      }
      HelloMessage h;
      WelcomeMessage w;
      ElementSequence es;
      int64_t origin_us = 0;
      FeedbackMessage f;
      ByeMessage b;
      StatsResponseMessage sr;
      (void)DecodeHello(mutated, &h);
      (void)DecodeWelcome(mutated, &w);
      (void)DecodeElementsPayload(mutated, &es, &origin_us);
      (void)DecodeFeedback(mutated, &f);
      (void)DecodeBye(mutated, &b);
      (void)DecodeStatsResponse(mutated, &sr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Replication frames (CHECKPOINT_REQUEST / CHECKPOINT_CHUNK /
// CUT_CERT) ---

replica::CutCertificate SampleCert() {
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR4;
  cert.policy = MergePolicy::Conservative();
  cert.output_stable = 777;
  cert.elements_sent_at_cut = 31;
  cert.inputs.push_back({0, true, 700, 120});
  cert.inputs.push_back({2, false, kMinTimestamp, 5});
  return cert;
}

TEST(ProtocolTest, CheckpointRequestIsEmptyAndStrict) {
  EXPECT_TRUE(
      DecodeCheckpointRequest(PayloadOf(EncodeCheckpointRequestFrame()))
          .ok());
  EXPECT_FALSE(DecodeCheckpointRequest("x").ok());
}

TEST(ProtocolTest, CheckpointChunkRoundTrip) {
  CheckpointChunkMessage chunk;
  chunk.index = 3;
  chunk.bytes = std::string("blob-bytes\x00with-nul", 19);
  CheckpointChunkMessage decoded;
  ASSERT_TRUE(DecodeCheckpointChunk(
                  PayloadOf(EncodeCheckpointChunkFrame(chunk)), &decoded)
                  .ok());
  EXPECT_EQ(decoded.index, 3u);
  EXPECT_EQ(decoded.bytes, chunk.bytes);
  EXPECT_FALSE(DecodeCheckpointChunk(
                   PayloadOf(EncodeCheckpointChunkFrame(chunk)) + "x",
                   &decoded)
                   .ok());
}

TEST(ProtocolTest, CutCertFrameRoundTrip) {
  CutCertMessage cut;
  cut.has_state = true;
  cut.checkpoint_bytes = 1000;
  cut.chunk_count = 4;
  cut.cert = SampleCert();
  CutCertMessage decoded;
  ASSERT_TRUE(
      DecodeCutCert(PayloadOf(EncodeCutCertFrame(cut)), &decoded).ok());
  EXPECT_TRUE(decoded.has_state);
  EXPECT_EQ(decoded.checkpoint_bytes, 1000u);
  EXPECT_EQ(decoded.chunk_count, 4u);
  EXPECT_EQ(decoded.cert.variant, MergeVariant::kLMR4);
  EXPECT_EQ(decoded.cert.output_stable, 777);
  EXPECT_EQ(decoded.cert.elements_sent_at_cut, 31);
  ASSERT_EQ(decoded.cert.inputs.size(), 2u);
  EXPECT_EQ(decoded.cert.inputs[0].elements_in, 120);
  EXPECT_EQ(decoded.cert.inputs[1].stream_id, 2);
  EXPECT_FALSE(decoded.cert.inputs[1].active);
  EXPECT_FALSE(
      DecodeCutCert(PayloadOf(EncodeCutCertFrame(cut)) + "x", &decoded)
          .ok());
}

TEST(ProtocolTest, CutCertFramingValidated) {
  // No state but chunks announced: inconsistent.
  CutCertMessage cut;
  cut.has_state = false;
  cut.chunk_count = 2;
  CutCertMessage decoded;
  EXPECT_FALSE(
      DecodeCutCert(PayloadOf(EncodeCutCertFrame(cut)), &decoded).ok());
  // More bytes than the chunks could possibly carry: inconsistent.
  cut.has_state = true;
  cut.chunk_count = 1;
  cut.checkpoint_bytes = static_cast<uint64_t>(kMaxFramePayload) + 1;
  EXPECT_FALSE(
      DecodeCutCert(PayloadOf(EncodeCutCertFrame(cut)), &decoded).ok());
}

TEST(ProtocolTest, ReplicationTruncationsFailCleanly) {
  CheckpointChunkMessage chunk;
  chunk.index = 1;
  chunk.bytes = "chunk-payload-bytes";
  CutCertMessage cut;
  cut.has_state = true;
  cut.checkpoint_bytes = 64;
  cut.chunk_count = 1;
  cut.cert = SampleCert();
  const std::string chunk_payload =
      PayloadOf(EncodeCheckpointChunkFrame(chunk));
  for (size_t len = 0; len < chunk_payload.size(); ++len) {
    CheckpointChunkMessage c;
    EXPECT_FALSE(DecodeCheckpointChunk(chunk_payload.substr(0, len), &c).ok())
        << "prefix length " << len;
  }
  const std::string cut_payload = PayloadOf(EncodeCutCertFrame(cut));
  for (size_t len = 0; len < cut_payload.size(); ++len) {
    CutCertMessage m;
    EXPECT_FALSE(DecodeCutCert(cut_payload.substr(0, len), &m).ok())
        << "prefix length " << len;
  }
}

TEST(ProtocolTest, ReplicationFrameAndRoleNames) {
  EXPECT_TRUE(IsKnownFrameType(
      static_cast<uint8_t>(FrameType::kCheckpointRequest)));
  EXPECT_TRUE(
      IsKnownFrameType(static_cast<uint8_t>(FrameType::kCheckpointChunk)));
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kCutCert)));
  EXPECT_STREQ(FrameTypeName(FrameType::kCutCert), "CUT_CERT");
  EXPECT_STREQ(FrameTypeName(FrameType::kCheckpointRequest),
               "CHECKPOINT_REQUEST");
  EXPECT_STREQ(FrameTypeName(FrameType::kCheckpointChunk),
               "CHECKPOINT_CHUNK");
  EXPECT_STREQ(PeerRoleName(PeerRole::kStandby), "standby");
}

TEST(ProtocolTest, StampedElementsRoundTrip) {
  const ElementSequence batch = {Ins("a", 1, 5), Adj("a", 1, 5, 9), Stb(3)};
  ElementSequence decoded;
  int64_t origin_us = 0;
  ASSERT_TRUE(DecodeElementsPayload(
                  PayloadOf(EncodeElementsFrame(batch, /*origin_us=*/123456)),
                  &decoded, &origin_us)
                  .ok());
  EXPECT_EQ(decoded, batch);
  EXPECT_EQ(origin_us, 123456);
}

TEST(ProtocolTest, StampedElementsDictRoundTrip) {
  const ElementSequence batch = {Ins("hot", 1, 10), Ins("hot", 2, 20)};
  PayloadDictEncoder encoder;
  PayloadDictDecoder decoder_dict;
  const std::vector<std::string> payloads = DictPayloadsOf(
      EncodeElementsDictFrame(batch, &encoder, /*origin_us=*/987654));
  ASSERT_EQ(payloads.size(), 1u);
  ElementSequence decoded;
  int64_t origin_us = 0;
  ASSERT_TRUE(DecodeElementsDictPayload(payloads[0], decoder_dict, &decoded,
                                        &origin_us)
                  .ok());
  EXPECT_EQ(decoded, batch);
  EXPECT_EQ(origin_us, 987654);
}

TEST(ProtocolTest, DecodersRejectUnstampedPayloads) {
  // The trailing stamp is mandatory: a payload that ends at the last
  // element fails cleanly in both batch decoders.
  const ElementSequence batch = {Ins("a", 1, 5), Stb(3)};
  Encoder inline_body;
  EncodeSequence(batch, &inline_body);
  ElementSequence decoded;
  int64_t origin_us = 0;
  EXPECT_FALSE(
      DecodeElementsPayload(inline_body.bytes(), &decoded, &origin_us).ok());
  PayloadDictEncoder encoder;
  const DictBatchParts parts = EncodeDictBatchParts(batch, &encoder);
  PayloadDictDecoder unstamped_dict;
  EXPECT_FALSE(DecodeElementsDictPayload(parts.defs + parts.body,
                                         unstamped_dict, &decoded, &origin_us)
                   .ok());
  PayloadDictDecoder decoder_dict;
  EXPECT_TRUE(DecodeElementsDictPayload(
                  parts.defs + parts.body + std::string(8, '\0'),
                  decoder_dict, &decoded, &origin_us)
                  .ok());
  EXPECT_EQ(decoded, batch);
}

TEST(ProtocolTest, StampedElementsTruncationsFailCleanly) {
  const std::string payload = PayloadOf(
      EncodeElementsFrame({Ins("a", 1, 5), Stb(3)}, /*origin_us=*/4242));
  for (size_t len = 0; len < payload.size(); ++len) {
    ElementSequence decoded;
    int64_t origin_us = 0;
    EXPECT_FALSE(DecodeElementsPayload(payload.substr(0, len), &decoded,
                                       &origin_us)
                     .ok())
        << "truncated to " << len;
  }
}

TEST(ProtocolTest, StatsResponseCarriesCaptureTimestamps) {
  StatsResponseMessage stats = SampleStats();
  stats.metrics.captured_wall_ms = 1700000000123;
  stats.metrics.captured_mono_us = 55667788;
  StatsResponseMessage decoded;
  ASSERT_TRUE(DecodeStatsResponse(PayloadOf(EncodeStatsResponseFrame(stats)),
                                  &decoded)
                  .ok());
  EXPECT_EQ(decoded.metrics.captured_wall_ms, 1700000000123);
  EXPECT_EQ(decoded.metrics.captured_mono_us, 55667788);
}

}  // namespace
}  // namespace lmerge::net
