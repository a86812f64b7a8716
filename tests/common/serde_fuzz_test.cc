// Decoder robustness: random and mutated byte buffers must never crash the
// decoders — every malformed input yields a Status error.

#include <gtest/gtest.h>

#include <limits>

#include "common/checkpoint.h"
#include "common/random.h"
#include "common/serde.h"
#include "core/lmerge_r3.h"
#include "core/lmerge_r4.h"
#include "net/protocol.h"
#include "replica/cut_certificate.h"
#include "stream/element_serde.h"
#include "test_util.h"

namespace lmerge {
namespace {

using ::lmerge::testing_util::Adj;
using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

class SerdeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

// The ELEMENTS_DICT payload of `elements` encoded against `encoder`: the
// defs section of the payloads first seen here, the sequence, the stamp.
std::string DictPayload(const ElementSequence& elements,
                        PayloadDictEncoder* encoder) {
  const net::DictBatchParts parts = net::EncodeDictBatchParts(elements, encoder);
  Encoder stamp;
  stamp.WriteI64(5);
  return parts.defs + parts.body + stamp.bytes();
}

// Decodes an ELEMENTS_DICT payload against a copy of `dict`, so every
// attempt starts from the same dictionary state.
Status DecodeDictPayload(const std::string& payload, PayloadDictDecoder dict,
                         ElementSequence* elements) {
  int64_t origin_us = 0;
  return net::DecodeElementsDictPayload(payload, dict, elements, &origin_us);
}

// A receiver holding every definition `sender` made, in id order.
PayloadDictDecoder ReceiverOf(const PayloadDictEncoder& sender,
                              uint32_t capacity = kDefaultPayloadDictCapacity) {
  PayloadDictDecoder receiver(capacity);
  for (const Row& row : sender.rows()) {
    LM_CHECK(receiver.Define(static_cast<uint32_t>(receiver.entries()), row)
                 .ok());
  }
  return receiver;
}

TEST_P(SerdeFuzzTest, RandomBytesNeverCrashRowDecoder) {
  Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    const int64_t len = rng.UniformInt(0, 64);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    Decoder decoder(bytes);
    Row row;
    // May succeed or fail; must not crash or read out of bounds.
    (void)decoder.ReadRow(&row);
  }
}

TEST_P(SerdeFuzzTest, RandomBytesNeverCrashSequenceDecoder) {
  Rng rng(GetParam() * 31 + 1);
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    const int64_t len = rng.UniformInt(0, 128);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    ElementSequence elements;
    (void)DeserializeSequence(bytes, &elements);
  }
}

TEST_P(SerdeFuzzTest, MutatedValidBuffersFailCleanly) {
  Rng rng(GetParam() * 7 + 3);
  const ElementSequence original = {
      Ins("payload-string", 10, 500),
      Adj("payload-string", 10, 500, 700),
      StreamElement::Insert(Row::OfIntAndString(42, "x"), 20, kInfinity),
      Stb(30),
  };
  const std::string valid = SerializeSequence(original);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    ElementSequence elements;
    const Status status = DeserializeSequence(mutated, &elements);
    if (status.ok()) {
      // A mutation that keeps the buffer well-formed must still produce
      // elements the library can at least print.
      for (const StreamElement& e : elements) (void)e.ToString();
    }
  }
}

TEST_P(SerdeFuzzTest, RandomBytesNeverCrashDictDecoders) {
  Rng rng(GetParam() * 131 + 17);
  PayloadDictDecoder dict;
  // Pre-define a few ids so some random buffers can resolve references.
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  ASSERT_TRUE(dict.Define(1, Row::OfInt(1)).ok());
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    const int64_t len = rng.UniformInt(0, 128);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    {
      Decoder decoder(bytes);
      PayloadDictDecoder scratch = dict;
      (void)DecodeDictDefs(&decoder, &scratch);
    }
    {
      Decoder decoder(bytes);
      ElementSequence elements;
      (void)DecodeSequenceDict(&decoder, dict, &elements);
    }
    {
      ElementSequence elements;
      (void)DecodeDictPayload(bytes, dict, &elements);
    }
  }
}

TEST_P(SerdeFuzzTest, MutatedDictBuffersFailCleanly) {
  Rng rng(GetParam() * 1009 + 7);
  // Build a valid ELEMENTS_DICT payload with repeats (so it actually
  // carries ids) plus an inline escape (the empty payload of Stb); its
  // defs section defines both payloads, so a fresh receiver decodes it.
  PayloadDictEncoder encoder;
  const ElementSequence original = {
      Ins("dict-payload", 10, 500),   Adj("dict-payload", 10, 500, 700),
      Ins("dict-payload", 20, 600),   Ins("other", 30, 700),
      Stb(40),
  };
  const std::string valid = DictPayload(original, &encoder);
  ASSERT_EQ(valid[0], '\x02');  // two definitions
  const PayloadDictDecoder fresh;
  {
    // Sanity: the unmutated buffer round-trips.
    ElementSequence elements;
    ASSERT_TRUE(DecodeDictPayload(valid, fresh, &elements).ok());
    EXPECT_EQ(elements, original);
  }

  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    ElementSequence elements;
    const Status status = DecodeDictPayload(mutated, fresh, &elements);
    if (status.ok()) {
      for (const StreamElement& e : elements) (void)e.ToString();
    }
  }
}

TEST_P(SerdeFuzzTest, TruncatedDictBuffersReturnStatus) {
  PayloadDictEncoder encoder;
  const ElementSequence original = {Ins("trunc-me", 1, 10),
                                    Ins("trunc-me", 2, 20),
                                    StreamElement::Insert(
                                        Row::OfIntAndString(9, "def"), 3, 4),
                                    Stb(3)};
  const std::string valid = DictPayload(original, &encoder);
  const PayloadDictDecoder fresh;
  // Every strict prefix must fail with a Status (count mismatch or short
  // read), never crash and never succeed, whether the cut lands in the
  // defs section, the sequence or the stamp.
  for (size_t len = 0; len < valid.size(); ++len) {
    ElementSequence elements;
    // A prefix may decode fewer elements without error only if the decoder
    // cannot tell (it can: the counts are explicit), so require failure.
    EXPECT_FALSE(DecodeDictPayload(valid.substr(0, len), fresh, &elements)
                     .ok())
        << "prefix length " << len;
  }
}

// Hostile inputs against the varint/delta layout: each is a Status error.

// A hand-built ELEMENTS_DICT body: varint count, then raw bytes.
std::string DictBody(uint64_t count, const std::string& elements) {
  Encoder encoder;
  encoder.WriteVarU64(count);
  return encoder.TakeBytes() + elements;
}

Status DecodeDictBody(const std::string& bytes,
                      const PayloadDictDecoder& dict) {
  Decoder decoder(bytes);
  ElementSequence elements;
  return DecodeSequenceDict(&decoder, dict, &elements);
}

TEST(VarintHostileTest, TruncatedAtEveryByteFails) {
  for (const uint64_t value :
       {uint64_t{128}, uint64_t{1} << 35, ~uint64_t{0},
        Encoder::ZigZagEncode(std::numeric_limits<int64_t>::min())}) {
    Encoder encoder;
    encoder.WriteVarU64(value);
    const std::string whole = encoder.TakeBytes();
    {
      Decoder decoder(whole);
      uint64_t got = 0;
      ASSERT_TRUE(decoder.ReadVarU64(&got).ok());
      EXPECT_EQ(got, value);
      EXPECT_TRUE(decoder.AtEnd());
    }
    for (size_t len = 0; len < whole.size(); ++len) {
      const std::string prefix = whole.substr(0, len);
      Decoder decoder(prefix);
      uint64_t got = 0;
      EXPECT_FALSE(decoder.ReadVarU64(&got).ok())
          << value << " cut to " << len << " bytes";
    }
  }
}

TEST(VarintHostileTest, ElevenByteAndOverflowingVarintsFail) {
  // Ten continuation bytes, then a terminator: one byte too long.
  const std::string eleven = std::string(10, '\x80') + std::string(1, '\0');
  Decoder long_decoder(eleven);
  uint64_t got = 0;
  const Status too_long = long_decoder.ReadVarU64(&got);
  EXPECT_FALSE(too_long.ok());
  EXPECT_NE(too_long.ToString().find("longer than 10 bytes"),
            std::string::npos);
  // Ten bytes whose last carries more than bit 63.
  const std::string overflow =
      std::string(9, '\xff') + std::string(1, '\x02');
  Decoder overflow_decoder(overflow);
  EXPECT_FALSE(overflow_decoder.ReadVarU64(&got).ok());
  // A 33-bit value where a 32-bit one (id, field count) is required.
  Encoder wide;
  wide.WriteVarU64(uint64_t{1} << 32);
  const std::string wide_bytes = wide.TakeBytes();
  Decoder wide_decoder(wide_bytes);
  uint32_t narrow = 0;
  EXPECT_FALSE(wide_decoder.ReadVarU32(&narrow).ok());
  // The same shapes inside the payloads.
  PayloadDictDecoder dict;
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  EXPECT_FALSE(DecodeDictBody(eleven, dict).ok());
  EXPECT_FALSE(DecodeDictBody(DictBody(1, std::string(1, '\0') + eleven),
                              dict)
                   .ok());
  // ...and as a defs section's count.
  for (const std::string& count : {eleven, wide_bytes}) {
    Decoder def_decoder(count);
    PayloadDictDecoder receiver;
    EXPECT_FALSE(DecodeDictDefs(&def_decoder, &receiver).ok());
    EXPECT_EQ(receiver.entries(), 0);
  }
}

TEST(VarintHostileTest, CountLargerThanBytesLeftFails) {
  PayloadDictDecoder dict;
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  // One valid stable (tag 2, delta 0), but a count of 1000.
  const std::string one_stable("\x02\x00", 2);
  EXPECT_FALSE(DecodeDictBody(DictBody(1000, one_stable), dict).ok());
  EXPECT_FALSE(DecodeDictBody(DictBody(~uint64_t{0}, one_stable), dict).ok());
  // A row field count larger than the bytes left, in a defs section.
  Encoder def;
  def.WriteVarU64(1);       // def count
  def.WriteVarU64(100000);  // field count
  def.WriteU8(0);
  const std::string def_bytes = def.TakeBytes();
  Decoder decoder(def_bytes);
  EXPECT_FALSE(DecodeDictDefs(&decoder, &dict).ok());
  EXPECT_EQ(dict.entries(), 1);
}

TEST(VarintHostileTest, IdDeltaLandingOnUndefinedOrReservedIdFails) {
  PayloadDictDecoder dict;
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  ASSERT_TRUE(dict.Define(1, Row::OfString("one")).ok());
  // An insert (tag 0) with the given id delta, Vs delta 0, Ve offset 1.
  const auto insert_with_delta = [](int64_t id_delta) {
    Encoder encoder;
    encoder.WriteU8(0);
    encoder.WriteVarI64(id_delta);
    encoder.WriteVarI64(0);
    encoder.WriteVarI64(1);
    return encoder.TakeBytes();
  };
  // Sanity: from the start value -1, +1 lands on id 0, then +1 on id 1.
  EXPECT_TRUE(DecodeDictBody(DictBody(2, insert_with_delta(1) +
                                             insert_with_delta(1)),
                             dict)
                  .ok());
  // Undefined id 5.
  Status status = DecodeDictBody(DictBody(1, insert_with_delta(6)), dict);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("undefined payload id"),
            std::string::npos);
  // The reserved inline id, reached by a delta from id 0.
  status = DecodeDictBody(
      DictBody(2, insert_with_delta(1) +
                      insert_with_delta(static_cast<int64_t>(
                          kInlinePayloadId))),
      dict);
  EXPECT_FALSE(status.ok());
  // Below zero, and past 32 bits: among them 2^32 and -2^32, which a
  // decoder truncating to 32 bits would misread as the defined id 0.
  EXPECT_FALSE(DecodeDictBody(DictBody(1, insert_with_delta(-1)), dict).ok());
  EXPECT_FALSE(
      DecodeDictBody(DictBody(1, insert_with_delta(int64_t{1} << 40)), dict)
          .ok());
  EXPECT_FALSE(DecodeDictBody(
                   DictBody(1, insert_with_delta((int64_t{1} << 32) + 1)),
                   dict)
                   .ok());
  EXPECT_FALSE(DecodeDictBody(
                   DictBody(1, insert_with_delta(-(int64_t{1} << 32) + 1)),
                   dict)
                   .ok());
  EXPECT_FALSE(DecodeDictBody(
                   DictBody(1, insert_with_delta(
                                   std::numeric_limits<int64_t>::min())),
                   dict)
                   .ok());
}

TEST(VarintHostileTest, UnknownTagWithEscapeBitFails) {
  PayloadDictDecoder dict;
  ASSERT_TRUE(dict.Define(0, Row::OfString("zero")).ok());
  // 0x82 is a stable with the inline bit (a stable has no payload); 0x83
  // and 0xff name no element kind at all; 0x03 is unknown without the bit.
  for (const char tag : {'\x82', '\x83', '\xff', '\x03'}) {
    const std::string body =
        DictBody(1, std::string(1, tag) + std::string(2, '\0'));
    const Status status = DecodeDictBody(body, dict);
    EXPECT_FALSE(status.ok())
        << "tag " << static_cast<int>(static_cast<uint8_t>(tag));
    EXPECT_NE(status.ToString().find("unknown element tag"),
              std::string::npos);
  }
}

TEST(VarintHostileTest, ExtremeTimesTruncatedAtEveryByteFail) {
  // Ve = kInfinity and Vs = kMinTimestamp take the longest varints; every
  // strict prefix of the body must still fail.
  // Capacity 1: the second payload escapes inline.
  PayloadDictEncoder encoder(/*capacity=*/1);
  const ElementSequence original = {
      Ins("far", kMinTimestamp, kInfinity), Stb(kInfinity),
      Adj("far", kMinTimestamp, kInfinity, 0),
      StreamElement::Insert(Row::OfIntAndString(-9, "inline"), 1, 2)};
  Encoder body;
  EncodeSequenceDict(original, &encoder, &body);
  const std::string valid = body.TakeBytes();
  const PayloadDictDecoder dict = ReceiverOf(encoder);
  {
    Decoder decoder(valid);
    ElementSequence elements;
    ASSERT_TRUE(DecodeSequenceDict(&decoder, dict, &elements).ok());
    EXPECT_EQ(elements, original);
  }
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(DecodeDictBody(valid.substr(0, len), dict).ok())
        << "prefix length " << len;
  }
}

TEST(PayloadDictTest, UnknownIdIsAnErrorNotACrash) {
  PayloadDictDecoder dict;
  Row out;
  const Status status = dict.Resolve(12345, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("12345"), std::string::npos);
}

TEST(PayloadDictTest, DuplicateReservedAndSkippedDefsRejected) {
  PayloadDictDecoder dict;
  for (uint32_t id = 0; id < 3; ++id) {
    ASSERT_TRUE(dict.Define(id, Row::OfInt(id)).ok());
  }
  ASSERT_TRUE(dict.Define(3, Row::OfString("first")).ok());
  EXPECT_FALSE(dict.Define(3, Row::OfString("second")).ok());
  EXPECT_FALSE(dict.Define(kInlinePayloadId, Row::OfString("nope")).ok());
  // Ids arrive densely, in order: id 5 before id 4 is refused.
  const Status skipped = dict.Define(5, Row::OfString("skips 4"));
  EXPECT_FALSE(skipped.ok());
  EXPECT_NE(skipped.ToString().find("skips id 4"), std::string::npos);
  EXPECT_EQ(dict.entries(), 4);
  // The original binding survives the rejected redefinition.
  Row out;
  ASSERT_TRUE(dict.Resolve(3, &out).ok());
  EXPECT_EQ(out, Row::OfString("first"));
}

TEST(PayloadDictTest, CapacityOverflowFallsBackToInline) {
  // A capacity-2 encoder interns two payloads, then escapes the third
  // inline; the decoder side needs no entry for inline payloads.
  PayloadDictEncoder encoder(/*capacity=*/2);
  const ElementSequence elements = {Ins("a", 1, 10), Ins("b", 2, 20),
                                    Ins("c", 3, 30), Ins("a", 4, 40)};
  Encoder body;
  EncodeSequenceDict(elements, &encoder, &body);
  EXPECT_EQ(encoder.entries(), 2);  // "c" overflowed to inline
  const PayloadDictDecoder dict = ReceiverOf(encoder, /*capacity=*/2);
  const std::string bytes = body.TakeBytes();
  Decoder decoder(bytes);
  ElementSequence got;
  ASSERT_TRUE(DecodeSequenceDict(&decoder, dict, &got).ok());
  EXPECT_EQ(got, elements);
}

TEST_P(SerdeFuzzTest, RandomBytesNeverCrashReplicationDecoders) {
  // Replication payloads (CHECKPOINT_CHUNK, CUT_CERT) and the bare cut
  // certificate: random buffers must yield a Status, never a crash.
  Rng rng(GetParam() * 257 + 11);
  for (int round = 0; round < 200; ++round) {
    std::string bytes;
    const int64_t len = rng.UniformInt(0, 128);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    net::CheckpointChunkMessage chunk;
    (void)net::DecodeCheckpointChunk(bytes, &chunk);
    net::CutCertMessage cut;
    (void)net::DecodeCutCert(bytes, &cut);
    replica::CutCertificate cert;
    (void)replica::ParseCutCertificate(bytes, &cert);
  }
}

TEST_P(SerdeFuzzTest, MutatedReplicationBuffersFailCleanly) {
  Rng rng(GetParam() * 8191 + 5);
  net::CutCertMessage cut;
  cut.has_state = true;
  cut.checkpoint_bytes = 96;
  cut.chunk_count = 1;
  cut.cert.variant = MergeVariant::kLMR3Plus;
  cut.cert.output_stable = 55;
  cut.cert.elements_sent_at_cut = 9;
  cut.cert.inputs.push_back({0, true, 50, 40});
  cut.cert.inputs.push_back({1, true, 45, 38});
  // Strip the frame header to get the payload the decoder sees.
  const std::string framed = net::EncodeCutCertFrame(cut);
  net::FrameAssembler assembler;
  ASSERT_TRUE(assembler.Feed(framed).ok());
  net::Frame frame;
  ASSERT_TRUE(assembler.Next(&frame));
  const std::string valid = frame.payload;
  {
    net::CutCertMessage decoded;
    ASSERT_TRUE(net::DecodeCutCert(valid, &decoded).ok());
  }
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    net::CutCertMessage decoded;
    // May succeed (benign mutation) or fail; must never crash.  A success
    // must still satisfy the framing invariants the decoder enforces.
    const Status status = net::DecodeCutCert(mutated, &decoded);
    if (status.ok() && decoded.has_state) {
      EXPECT_LE(decoded.checkpoint_bytes,
                static_cast<uint64_t>(decoded.chunk_count) *
                    net::kMaxFramePayload);
    }
  }
}

// A checkpoint of `Merge` mid-merge: several nodes, divergent Ve values,
// an identity-less (inline) payload, and an embedded cut certificate.  The
// pooled payloads `dict` defines are written as its ids.
template <typename Merge>
std::string CheckpointBlob(const PayloadIdLookup* dict = nullptr) {
  CollectingSink sink;
  Merge merge(3, &sink);
  for (int i = 0; i < 12; ++i) {
    const Timestamp vs = 1000 + i * 250;
    const std::string payload = "key-" + std::to_string(i % 5);
    LM_CHECK(merge.OnElement(0, Ins(payload, vs, vs + 2000)).ok());
    LM_CHECK(merge.OnElement(1, Ins(payload, vs, vs + 2000 + i)).ok());
    if (i % 3 == 0) {
      LM_CHECK(merge.OnElement(2, Ins(payload, vs, kInfinity)).ok());
    }
  }
  LM_CHECK(merge.OnElement(2, StreamElement::Insert(Row(), 4000, 4100)).ok());
  LM_CHECK(merge.OnElement(0, Stb(1600)).ok());
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR3Plus;
  cert.output_stable = merge.max_stable();
  cert.inputs.push_back({0, true, 1600, 13});
  return SaveCheckpoint(merge, replica::SerializeCutCertificate(cert), dict);
}

// A sender's and a receiver's dictionary that both define the payloads
// key-0 .. key-2 of CheckpointBlob (key-3 and key-4 stay rows).
struct SharedDictionary {
  PayloadDictEncoder sender;
  PayloadDictDecoder receiver;

  SharedDictionary() {
    for (int i = 0; i < 3; ++i) {
      (void)sender.Intern(Row::OfString("key-" + std::to_string(i)));
    }
    receiver = ReceiverOf(sender);
  }
};

template <typename Merge>
void FlipBytesAndLoad(uint64_t seed, const SharedDictionary* dict = nullptr) {
  Rng rng(seed);
  const std::string valid = CheckpointBlob<Merge>(
      dict == nullptr ? nullptr : &dict->sender);
  const PayloadIdResolver* resolver =
      dict == nullptr ? nullptr : &dict->receiver;
  CollectingSink sink;
  {
    Merge sanity(1, &sink);
    ASSERT_TRUE(LoadCheckpoint(valid, &sanity, nullptr, resolver).ok());
  }
  for (int round = 0; round < 300; ++round) {
    std::string mutated = valid;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
      mutated[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    // May succeed (a benign flip) or fail; must never crash, read out of
    // bounds or size an allocation by a corrupt count.
    Merge target(1, &sink);
    (void)LoadCheckpoint(mutated, &target, nullptr, resolver);
    CheckpointInfo info;
    (void)InspectCheckpoint(mutated, &info);
  }
}

TEST_P(SerdeFuzzTest, MutatedCheckpointBlobsFailCleanly) {
  FlipBytesAndLoad<LMergeR3>(GetParam() * 65537 + 13);
  FlipBytesAndLoad<LMergeR4>(GetParam() * 524287 + 29);
  const SharedDictionary dict;
  FlipBytesAndLoad<LMergeR3>(GetParam() * 8191 + 7, &dict);
  FlipBytesAndLoad<LMergeR4>(GetParam() * 131071 + 3, &dict);
}

// Dictionary references in a checkpoint's pool (format v4).

TEST(CheckpointReferenceTest, ReferencesNeedTheirDictionary) {
  const SharedDictionary dict;
  const std::string blob = CheckpointBlob<LMergeR3>(&dict.sender);
  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_EQ(info.pool_refs, 3u);
  EXPECT_EQ(info.pool_rows, 2u);
  EXPECT_LT(blob.size(), CheckpointBlob<LMergeR3>().size());

  CollectingSink sink;
  LMergeR3 resolved(1, &sink);
  ASSERT_TRUE(LoadCheckpoint(blob, &resolved, nullptr, &dict.receiver).ok());
  LMergeR3 plain(1, &sink);
  ASSERT_TRUE(LoadCheckpoint(CheckpointBlob<LMergeR3>(), &plain).ok());
  EXPECT_EQ(resolved.index_node_count(), plain.index_node_count());
  EXPECT_EQ(resolved.StateBytes(), plain.StateBytes());

  // With no dictionary, or one that does not define the ids.
  LMergeR3 target(1, &sink);
  Status status = LoadCheckpoint(blob, &target);
  EXPECT_NE(status.message().find("no dictionary"), std::string::npos)
      << status.ToString();
  const PayloadDictDecoder empty;
  status = LoadCheckpoint(blob, &target, nullptr, &empty);
  EXPECT_NE(status.message().find("undefined payload id"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointReferenceTest, ReferenceIdsPast32BitsFail) {
  // Ids are deltas from the previous reference's, the first from 0: one
  // that lands past 2^32 - 1 or below 0, in one step or in two, fails.
  const SharedDictionary dict;
  const std::vector<int64_t> too_far[] = {
      {int64_t{1} << 32},
      {-1},
      {std::numeric_limits<int64_t>::max()},
      {std::numeric_limits<int64_t>::min()},
      {1, (int64_t{1} << 32) - 1},
  };
  for (const std::vector<int64_t>& deltas : too_far) {
    Encoder pool;
    pool.WriteVarU64(deltas.size());
    for (const int64_t delta : deltas) {
      pool.WriteVarU64(0);  // a reference
      pool.WriteVarI64(delta);
    }
    RowPoolDecoder decoder;
    Decoder reader(pool.bytes());
    const Status status = decoder.DecodeFrom(&reader, &dict.receiver);
    EXPECT_NE(status.message().find("exceeds 32 bits"), std::string::npos)
        << status.ToString();
  }
}

template <typename Merge>
void ExpectEveryProperPrefixFails() {
  const SharedDictionary dict;
  const std::string blob = CheckpointBlob<Merge>(&dict.sender);
  CollectingSink sink;
  Merge whole(1, &sink);
  ASSERT_TRUE(LoadCheckpoint(blob, &whole, nullptr, &dict.receiver).ok());
  for (size_t len = 0; len < blob.size(); ++len) {
    Merge target(1, &sink);
    EXPECT_FALSE(
        LoadCheckpoint(blob.substr(0, len), &target, nullptr, &dict.receiver)
            .ok())
        << len;
    CheckpointInfo info;
    EXPECT_FALSE(InspectCheckpoint(blob.substr(0, len), &info).ok()) << len;
  }
}

TEST(CheckpointReferenceTest, EveryProperPrefixOfAReferencingBlobFails) {
  ExpectEveryProperPrefixFails<LMergeR3>();
  ExpectEveryProperPrefixFails<LMergeR4>();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace lmerge
