// Checkpoint/restore of operator state — the machinery behind query
// jumpstart and cutover (Sec. II-4/5).

#include "common/checkpoint.h"

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/lmerge_operator.h"
#include "core/lmerge_r0.h"
#include "core/lmerge_r1.h"
#include "core/lmerge_r2.h"
#include "core/lmerge_r3.h"
#include "core/lmerge_r4.h"
#include "operators/aggregate.h"
#include "replica/cut_certificate.h"
#include "temporal/tdb.h"
#include "test_util.h"
#include "workload/generator.h"

namespace lmerge {
namespace {

using ::lmerge::testing_util::Adj;
using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

TEST(CheckpointTest, LMergeR3MidMergeRoundTrip) {
  // Run one merge straight through; run a second one with a checkpoint/
  // restore into a brand-new instance at the halfway point.  The output
  // suffixes must be identical.
  workload::GeneratorConfig config;
  config.num_inserts = 300;
  config.stable_freq = 0.05;
  config.event_duration = 500;
  config.max_gap = 15;
  config.payload_string_bytes = 8;
  config.seed = 21;
  workload::LogicalHistory history = workload::GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);

  std::vector<ElementSequence> inputs;
  for (uint64_t v = 0; v < 2; ++v) {
    workload::VariantOptions options;
    options.disorder_fraction = 0.3;
    options.split_probability = 0.3;
    options.seed = 60 + v;
    inputs.push_back(GeneratePhysicalVariant(history, options));
  }

  // Reference: uninterrupted run, strict alternation.
  CollectingSink reference;
  LMergeR3 uninterrupted(2, &reference);
  const size_t n = std::max(inputs[0].size(), inputs[1].size());
  for (size_t i = 0; i < n; ++i) {
    if (i < inputs[0].size()) {
      ASSERT_TRUE(uninterrupted.OnElement(0, inputs[0][i]).ok());
    }
    if (i < inputs[1].size()) {
      ASSERT_TRUE(uninterrupted.OnElement(1, inputs[1][i]).ok());
    }
  }

  // Interrupted run: checkpoint at the halfway point, restore elsewhere.
  CollectingSink first_half;
  LMergeR3 original(2, &first_half);
  const size_t half = n / 2;
  for (size_t i = 0; i < half; ++i) {
    if (i < inputs[0].size()) {
      ASSERT_TRUE(original.OnElement(0, inputs[0][i]).ok());
    }
    if (i < inputs[1].size()) {
      ASSERT_TRUE(original.OnElement(1, inputs[1][i]).ok());
    }
  }
  const std::string blob = SaveCheckpoint(original);

  CollectingSink second_half;
  LMergeR3 restored(2, &second_half);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.max_stable(), original.max_stable());
  EXPECT_EQ(restored.index_node_count(), original.index_node_count());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());
  for (size_t i = half; i < n; ++i) {
    if (i < inputs[0].size()) {
      ASSERT_TRUE(restored.OnElement(0, inputs[0][i]).ok());
    }
    if (i < inputs[1].size()) {
      ASSERT_TRUE(restored.OnElement(1, inputs[1][i]).ok());
    }
  }

  // The concatenated output is exactly the uninterrupted output.
  ElementSequence combined = first_half.elements();
  for (const StreamElement& e : second_half.elements()) {
    combined.push_back(e);
  }
  EXPECT_EQ(combined, reference.elements());
}

TEST(CheckpointTest, AggregateMidWindowRoundTrip) {
  AggregateConfig config;
  config.window_size = 100;
  config.group_column = 0;
  config.mode = AggregateMode::kAggressive;

  GroupedAggregate original("agg", config);
  CollectingSink sink_a;
  original.AddSink(&sink_a);
  original.Consume(0, StreamElement::Insert(Row::OfInt(1), 10, 20));
  original.Consume(0, StreamElement::Insert(Row::OfInt(1), 30, 40));
  original.Consume(0, StreamElement::Insert(Row::OfInt(2), 50, 60));
  const std::string blob = SaveCheckpoint(original);

  GroupedAggregate restored("agg2", config);
  CollectingSink sink_b;
  restored.AddSink(&sink_b);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());

  // Both continue identically.
  original.Consume(0, StreamElement::Insert(Row::OfInt(1), 70, 80));
  restored.Consume(0, StreamElement::Insert(Row::OfInt(1), 70, 80));
  original.Consume(0, Stb(200));
  restored.Consume(0, Stb(200));
  ASSERT_GE(sink_a.elements().size(), sink_b.elements().size());
  const size_t tail = sink_b.elements().size();
  // Compare the post-checkpoint suffix of the original with the restored
  // instance's full output.
  ElementSequence suffix(sink_a.elements().end() - static_cast<int64_t>(tail),
                         sink_a.elements().end());
  EXPECT_EQ(suffix, sink_b.elements());
}

TEST(CheckpointTest, LMergeR4MidMergeRoundTrip) {
  // R4 multiset state (duplicate keys, several end times per stream)
  // survives a snapshot and the restored instance continues identically.
  auto feed_prefix = [](LMergeR4* merge) {
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 50)).ok());   // duplicate
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 80)).ok());   // same key
    LM_CHECK(merge->OnElement(1, Ins("A", 5, 60)).ok());
    LM_CHECK(merge->OnElement(1, Ins("B", 7, kInfinity)).ok());
    LM_CHECK(merge->OnElement(0, Stb(10)).ok());
  };
  auto feed_suffix = [](LMergeR4* merge) {
    LM_CHECK(merge->OnElement(1, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(1, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(1, Adj("B", 7, kInfinity, 90)).ok());
    LM_CHECK(merge->OnElement(1, Stb(200)).ok());
  };

  CollectingSink reference;
  LMergeR4 uninterrupted(2, &reference);
  feed_prefix(&uninterrupted);
  feed_suffix(&uninterrupted);

  CollectingSink first_half;
  LMergeR4 original(2, &first_half);
  feed_prefix(&original);
  const std::string blob = SaveCheckpoint(original);
  CollectingSink second_half;
  LMergeR4 restored(2, &second_half);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.index_node_count(), original.index_node_count());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());
  feed_suffix(&restored);

  ElementSequence combined = first_half.elements();
  for (const StreamElement& e : second_half.elements()) {
    combined.push_back(e);
  }
  EXPECT_EQ(combined, reference.elements());
}

TEST(CheckpointTest, OperatorLevelMigration) {
  // Checkpoint the whole LMergeOperator (attach registry + merge state),
  // restore it "on another machine", and keep going — the cutover flow.
  LMergeOperator original("lm", 2, MergeVariant::kLMR3Plus);
  CollectingSink out_a;
  original.AddSink(&out_a);
  ASSERT_TRUE(original.SupportsCheckpoint());
  original.Consume(0, Ins("A", 5, 50));
  original.Consume(1, Ins("A", 5, 50));
  original.DetachInput(1);
  original.Consume(0, Stb(10));
  const int late = original.AttachInput(/*join_time=*/100);
  const std::string blob = SaveCheckpoint(original);

  LMergeOperator migrated("lm2", 1, MergeVariant::kLMR3Plus);
  CollectingSink out_b;
  migrated.AddSink(&out_b);
  ASSERT_TRUE(LoadCheckpoint(blob, &migrated).ok());
  EXPECT_EQ(migrated.input_count(), 3);
  EXPECT_FALSE(migrated.InputActive(1));   // detach flag survived
  EXPECT_FALSE(migrated.InputJoined(late));  // pending join survived
  EXPECT_EQ(migrated.algorithm().max_stable(), 10);

  // The migrated operator continues the merge: A's end revision and the
  // final stable behave exactly as on the original.
  migrated.Consume(0, StreamElement::Adjust(Row::OfString("A"), 5, 50, 70));
  migrated.Consume(0, Stb(200));
  ElementSequence consumer_view = out_a.elements();
  for (const StreamElement& e : out_b.elements()) consumer_view.push_back(e);
  const Tdb tdb = Tdb::Reconstitute(consumer_view);
  EXPECT_EQ(tdb.CountOf(Event(Row::OfString("A"), 5, 70)), 1);
  EXPECT_EQ(tdb.stable_point(), 200);
}

TEST(CheckpointTest, OperatorRejectsNonCheckpointableVariant) {
  LMergeOperator lm("lm", 2, MergeVariant::kCounting);
  EXPECT_FALSE(lm.SupportsCheckpoint());
  // RestoreState must fail cleanly rather than crash.
  Encoder encoder;
  encoder.WriteVarU64(0);  // inputs
  encoder.WriteTimeDelta(kMinTimestamp, 0);
  Decoder payload(encoder.bytes());
  EXPECT_FALSE(lm.RestoreState(&payload).ok());
}

// A poolless R3 state body for two streams holding one node whose bottom
// tier has a single entry, written as `stream_plus_one` (0 = the output).
std::string R3StateWithEntryFor(uint64_t stream_plus_one) {
  Encoder encoder;
  encoder.WriteTimeDelta(kMinTimestamp, 0);  // max stable
  encoder.WriteVarU64(2);                    // streams
  encoder.WriteTimeDelta(kMinTimestamp, kMinTimestamp);
  encoder.WriteTimeDelta(kMinTimestamp, kMinTimestamp);
  encoder.WriteVarU64(1);        // nodes
  encoder.WriteTimeDelta(5, 0);  // Vs
  encoder.WriteRowRef(Row::OfString("A"));
  encoder.WriteVarU64(1);  // entries
  encoder.WriteVarU64(stream_plus_one);
  encoder.WriteTimeDelta(50, 5);
  return encoder.TakeBytes();
}

TEST(CheckpointTest, R3RestoreRejectsEntryForUnknownStream) {
  CollectingSink sink;
  for (const uint64_t stream_plus_one : {0u, 1u, 2u}) {
    LMergeR3 merge(2, &sink);
    const std::string blob = R3StateWithEntryFor(stream_plus_one);
    Decoder decoder(blob);
    EXPECT_TRUE(merge.RestoreState(&decoder).ok()) << stream_plus_one;
  }
  // Stream 2 does not exist; 0x80000001 would alias the bottom tier's
  // vacant-slot marker once narrowed to 32 bits, and 2^40 overflows them.
  for (const uint64_t stream_plus_one :
       {uint64_t{3}, uint64_t{0x80000001u}, uint64_t{1} << 40}) {
    LMergeR3 merge(2, &sink);
    const std::string blob = R3StateWithEntryFor(stream_plus_one);
    Decoder decoder(blob);
    EXPECT_FALSE(merge.RestoreState(&decoder).ok()) << stream_plus_one;
  }
}

TEST(CheckpointTest, R4RestoreRejectsEntryForUnknownStream) {
  CollectingSink sink;
  // (stream + 1, multiplicity) -> restores?  Non-positive multiplicities
  // are refused too.
  const struct {
    uint64_t stream_plus_one;
    uint64_t count;
    bool ok;
  } cases[] = {{2, 1, true},  {3, 1, false}, {2, 0, false},
               {0, 7, true},  {1, uint64_t{1} << 63, false}};
  for (const auto& c : cases) {
    Encoder encoder;
    encoder.WriteTimeDelta(kMinTimestamp, 0);  // max stable
    encoder.WriteVarI64(0);                    // inconsistencies
    encoder.WriteVarU64(2);                    // streams
    encoder.WriteVarU64(1);                    // nodes
    encoder.WriteTimeDelta(5, 0);
    encoder.WriteRowRef(Row::OfString("A"));
    encoder.WriteVarU64(1);  // entries
    encoder.WriteVarU64(c.stream_plus_one);
    encoder.WriteVarU64(1);  // distinct Ve
    encoder.WriteTimeDelta(50, 5);
    encoder.WriteVarU64(c.count);
    LMergeR4 merge(2, &sink);
    Decoder decoder(encoder.bytes());
    EXPECT_EQ(merge.RestoreState(&decoder).ok(), c.ok)
        << c.stream_plus_one << " x" << c.count;
  }
}

TEST(CheckpointTest, BadMagicRejected) {
  CollectingSink sink;
  LMergeR3 merge(2, &sink);
  std::string blob = SaveCheckpoint(merge);
  blob[0] = 'X';
  LMergeR3 target(2, &sink);
  const Status status = LoadCheckpoint(blob, &target);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(CheckpointTest, TruncatedCheckpointRejected) {
  CollectingSink sink;
  LMergeR3 merge(2, &sink);
  ASSERT_TRUE(merge.OnElement(0, Ins("A", 5, 50)).ok());
  const std::string blob = SaveCheckpoint(merge);
  LMergeR3 target(2, &sink);
  EXPECT_FALSE(
      LoadCheckpoint(blob.substr(0, blob.size() - 3), &target).ok());
}

TEST(CheckpointTest, RestoreGrowsStreamRegistry) {
  CollectingSink sink;
  LMergeR3 merge(4, &sink);
  ASSERT_TRUE(merge.OnElement(3, Ins("A", 5, 50)).ok());
  const std::string blob = SaveCheckpoint(merge);
  CollectingSink sink2;
  LMergeR3 restored(1, &sink2);  // fewer streams than the snapshot had
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.stream_count(), 4);
  // Stream 3's state survived: its duplicate is absorbed.
  ASSERT_TRUE(restored.OnElement(3, Ins("A", 5, 50)).ok());
  EXPECT_EQ(testing_util::CountKinds(sink2.elements()).inserts, 0);
}

TEST(CheckpointTest, JumpstartSeedsFromCheckpointBlob) {
  // The Sec. II-4 flow: a running merge checkpoints; a new query instance
  // restores the blob and continues against the live stream.
  CollectingSink running;
  LMergeR3 live(1, &running);
  ASSERT_TRUE(live.OnElement(0, Ins("proc-1", 100, kInfinity)).ok());
  ASSERT_TRUE(live.OnElement(0, Stb(5000)).ok());
  const std::string blob = SaveCheckpoint(live);

  CollectingSink resumed;
  LMergeR3 fresh(1, &resumed);
  ASSERT_TRUE(LoadCheckpoint(blob, &fresh).ok());
  ASSERT_TRUE(
      fresh.OnElement(0, Adj("proc-1", 100, kInfinity, 9000)).ok());
  ASSERT_TRUE(fresh.OnElement(0, Stb(10000)).ok());
  // The long-lived process ends correctly even though the fresh instance
  // never saw its original insert element.  The consumer's view is the
  // original output followed by the resumed instance's output.
  ElementSequence consumer_view = running.elements();
  for (const StreamElement& e : resumed.elements()) {
    consumer_view.push_back(e);
  }
  const Tdb out = Tdb::Reconstitute(consumer_view);
  EXPECT_EQ(out.CountOf(Event(Row::OfString("proc-1"), 100, 9000)), 1);
}

TEST(CheckpointTest, PoolSharesPayloadsAtLeastTwiceSmaller) {
  // Many index entries sharing one interned payload: the checkpoint writes
  // the rep once in the pool section and a short reference per entry,
  // while the same SaveState into a pool-less Encoder writes the full row
  // per entry.  The pooled blob must be at least 2x smaller.
  CollectingSink sink;
  LMergeR3 merge(2, &sink);
  const std::string payload(64, 'p');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        merge.OnElement(0, Ins(payload, i + 1, i + 100000)).ok());
  }
  const std::string pooled = SaveCheckpoint(merge);
  Encoder inline_rows;
  merge.SaveState(&inline_rows);
  EXPECT_GE(inline_rows.bytes().size(), 2 * pooled.size())
      << "inline=" << inline_rows.bytes().size() << " bytes, pooled="
      << pooled.size() << " bytes";

  CollectingSink sink_pooled;
  LMergeR3 from_pooled(2, &sink_pooled);
  ASSERT_TRUE(LoadCheckpoint(pooled, &from_pooled).ok());
  EXPECT_EQ(from_pooled.index_node_count(), merge.index_node_count());
  EXPECT_EQ(from_pooled.StateBytes(), merge.StateBytes());
}

TEST(CheckpointTest, R3BodyCostsAtMost24BytesPerLiveNode) {
  // The shape of a live LMR3+ merge: three inputs, microsecond timestamps
  // about a millisecond apart, ~2 s lifetimes, every input agreeing on most
  // events.  v3 writes each node as small deltas (v2 spent 64 B on one).
  CollectingSink sink;
  LMergeR3 merge(3, &sink);
  const Timestamp base = 1'700'000'000'000'000;  // µs since the epoch
  constexpr int kNodes = 1200;
  for (int i = 0; i < kNodes; ++i) {
    const Timestamp vs = base + i * 1000 + (i * 37) % 400;
    const Timestamp ve = vs + 2'000'000 + (i % 5) * 1000;
    const std::string payload = "event-" + std::to_string(i);
    for (int stream = 0; stream < 3; ++stream) {
      // Every seventh event is still open on the last input.
      const Timestamp stream_ve = stream == 2 && i % 7 == 0 ? ve + 500 : ve;
      ASSERT_TRUE(merge.OnElement(stream, Ins(payload, vs, stream_ve)).ok());
    }
  }
  ASSERT_EQ(merge.index_node_count(), kNodes);
  const std::string blob = SaveCheckpoint(merge);
  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_LE(info.body_bytes, 24u * kNodes)
      << static_cast<double>(info.body_bytes) / kNodes << " B/node";

  CollectingSink restored_sink;
  LMergeR3 restored(3, &restored_sink);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.index_node_count(), merge.index_node_count());
  EXPECT_EQ(restored.StateBytes(), merge.StateBytes());
}

TEST(CheckpointTest, EmbeddedCutCertificateRoundTrips) {
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR3Plus;
  cert.policy = MergePolicy::Eager();
  cert.output_stable = 123;
  cert.elements_sent_at_cut = 42;
  cert.inputs.push_back({0, true, 100, 17});
  cert.inputs.push_back({1, false, kMinTimestamp, 0});

  CollectingSink sink;
  LMergeR3 merge(2, &sink);
  ASSERT_TRUE(merge.OnElement(0, Ins("A", 5, 50)).ok());
  const std::string blob =
      SaveCheckpoint(merge, replica::SerializeCutCertificate(cert));

  CollectingSink sink2;
  LMergeR3 restored(2, &sink2);
  std::string embedded;
  ASSERT_TRUE(LoadCheckpoint(blob, &restored, &embedded).ok());
  replica::CutCertificate parsed;
  ASSERT_TRUE(replica::ParseCutCertificate(embedded, &parsed).ok());
  EXPECT_EQ(parsed.variant, MergeVariant::kLMR3Plus);
  EXPECT_EQ(parsed.policy.adjust_policy, AdjustPolicy::kEager);
  EXPECT_EQ(parsed.output_stable, 123);
  EXPECT_EQ(parsed.elements_sent_at_cut, 42);
  ASSERT_EQ(parsed.inputs.size(), 2u);
  EXPECT_EQ(parsed.inputs[0].stream_id, 0);
  EXPECT_TRUE(parsed.inputs[0].active);
  EXPECT_EQ(parsed.inputs[0].stable_point, 100);
  EXPECT_EQ(parsed.inputs[0].elements_in, 17);
  EXPECT_FALSE(parsed.inputs[1].active);
}

TEST(CheckpointTest, InspectReportsSectionsWithoutRestoring) {
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR3Plus;
  cert.output_stable = 10;
  CollectingSink sink;
  LMergeR3 merge(1, &sink);
  ASSERT_TRUE(merge.OnElement(0, Ins("A", 5, 50)).ok());
  ASSERT_TRUE(merge.OnElement(0, Ins("B", 6, 60)).ok());
  const std::string blob =
      SaveCheckpoint(merge, replica::SerializeCutCertificate(cert));

  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.flags, kCheckpointFlagCutCertificate);
  EXPECT_EQ(info.total_bytes, blob.size());
  EXPECT_EQ(info.pool_entries, 2u);
  EXPECT_EQ(info.pool_refs, 0u);
  EXPECT_EQ(info.pool_rows, 2u);
  EXPECT_GT(info.pool_bytes, 0u);
  EXPECT_GT(info.body_bytes, 0u);
  replica::CutCertificate parsed;
  ASSERT_TRUE(
      replica::ParseCutCertificate(info.cut_certificate, &parsed).ok());
  EXPECT_EQ(parsed.output_stable, 10);

  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_FALSE(InspectCheckpoint(bad, &info).ok());
  // The retired dictionary-less v3, fixed-width v2 and inline-payload v1
  // formats are refused, not misread.
  for (const char retired : {'\x01', '\x02', '\x03'}) {
    std::string old_version = blob;
    old_version[4] = retired;
    const Status inspect = InspectCheckpoint(old_version, &info);
    EXPECT_FALSE(inspect.ok());
    EXPECT_NE(inspect.message().find("unsupported checkpoint version"),
              std::string::npos);
    LMergeR3 restored(1, &sink);
    EXPECT_FALSE(LoadCheckpoint(old_version, &restored).ok());
  }
}

TEST(CheckpointTest, DictionarylessBlobIsTheV3LayoutBesidesItsVersion) {
  // Saved with no dictionary, a v4 blob is the v3 layout byte for byte
  // except the version word: header, varstring certificate, then the pool
  // section (varint count, each rep as a compact row in first-reference
  // order) and the body, whose row references are pool id + 1.
  CollectingSink sink;
  LMergeR3 merge(1, &sink);
  ASSERT_TRUE(merge.OnElement(0, Ins("A", 5, 50)).ok());
  ASSERT_TRUE(merge.OnElement(0, Ins("B", 6, 60)).ok());
  ASSERT_TRUE(merge.OnElement(0, Ins("A", 7, 70)).ok());
  const std::string cert = "cert";

  Encoder pool;
  pool.WriteVarU64(2);
  pool.WriteCompactRow(Row::OfString("A"));
  pool.WriteCompactRow(Row::OfString("B"));
  Encoder body;
  body.WriteTimeDelta(merge.max_stable(), 0);
  body.WriteVarU64(1);  // streams
  body.WriteTimeDelta(kMinTimestamp, merge.max_stable());
  body.WriteVarU64(3);  // nodes, in Vs order
  const struct {
    Timestamp vs, ve;
    uint64_t ref;
  } nodes[] = {{5, 50, 1}, {6, 60, 2}, {7, 70, 1}};
  Timestamp prev_vs = 0;
  for (const auto& node : nodes) {
    body.WriteTimeDelta(node.vs, prev_vs);
    prev_vs = node.vs;
    body.WriteVarU64(node.ref);
    body.WriteVarU64(2);  // entries: stream 0's and the output's
    body.WriteVarU64(1);  // stream 0 (stream id + 1)
    body.WriteTimeDelta(node.ve, node.vs);
    body.WriteVarU64(0);  // the output
    body.WriteTimeDelta(node.ve, node.ve);
  }
  Encoder v3;
  v3.WriteU32(kCheckpointMagic);
  v3.WriteU32(3);
  v3.WriteU8(kCheckpointFlagCutCertificate);
  v3.WriteVarString(cert);
  v3.WriteVarString(pool.bytes());
  v3.WriteVarString(body.bytes());

  std::string expected = v3.TakeBytes();
  expected[4] = static_cast<char>(kCheckpointVersion);
  EXPECT_EQ(SaveCheckpoint(merge, cert), expected);
}

TEST(CheckpointTest, LMergeR0MidMergeRoundTrip) {
  auto feed_prefix = [](LMergeR0* merge) {
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(1, Ins("B", 7, 70)).ok());
    LM_CHECK(merge->OnElement(0, Stb(10)).ok());
  };
  auto feed_suffix = [](LMergeR0* merge) {
    LM_CHECK(merge->OnElement(1, Ins("C", 12, 80)).ok());
    LM_CHECK(merge->OnElement(1, Stb(20)).ok());
    LM_CHECK(merge->OnElement(0, Stb(30)).ok());
  };
  CollectingSink reference;
  LMergeR0 uninterrupted(2, &reference);
  feed_prefix(&uninterrupted);
  feed_suffix(&uninterrupted);

  CollectingSink first_half;
  LMergeR0 original(2, &first_half);
  feed_prefix(&original);
  const std::string blob = SaveCheckpoint(original);
  CollectingSink second_half;
  LMergeR0 restored(2, &second_half);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.max_stable(), original.max_stable());
  feed_suffix(&restored);

  ElementSequence combined = first_half.elements();
  for (const StreamElement& e : second_half.elements()) {
    combined.push_back(e);
  }
  EXPECT_EQ(combined, reference.elements());
}

TEST(CheckpointTest, LMergeR1MidMergeRoundTrip) {
  // R1's per-stream same-Vs counters must survive: the duplicate in the
  // suffix is only absorbed if the restored counters match.
  auto feed_prefix = [](LMergeR1* merge) {
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(0, Ins("B", 5, 60)).ok());
    LM_CHECK(merge->OnElement(1, Ins("A", 5, 50)).ok());
  };
  auto feed_suffix = [](LMergeR1* merge) {
    LM_CHECK(merge->OnElement(1, Ins("B", 5, 60)).ok());
    LM_CHECK(merge->OnElement(0, Stb(100)).ok());
    LM_CHECK(merge->OnElement(1, Stb(100)).ok());
  };
  CollectingSink reference;
  LMergeR1 uninterrupted(2, &reference);
  feed_prefix(&uninterrupted);
  feed_suffix(&uninterrupted);

  CollectingSink first_half;
  LMergeR1 original(2, &first_half);
  feed_prefix(&original);
  const std::string blob = SaveCheckpoint(original);
  CollectingSink second_half;
  LMergeR1 restored(2, &second_half);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  feed_suffix(&restored);

  ElementSequence combined = first_half.elements();
  for (const StreamElement& e : second_half.elements()) {
    combined.push_back(e);
  }
  EXPECT_EQ(combined, reference.elements());
}

TEST(CheckpointTest, LMergeR2MidMergeRoundTrip) {
  // R2's seen-set (with pooled payload rows) must survive: the
  // suffix replays prefix payloads, which only dedup against restored state.
  auto feed_prefix = [](LMergeR2* merge) {
    LM_CHECK(merge->OnElement(0, Ins("A", 5, 50)).ok());
    LM_CHECK(merge->OnElement(0, Ins("B", 7, 70)).ok());
    LM_CHECK(merge->OnElement(1, Ins("A", 5, 50)).ok());
  };
  auto feed_suffix = [](LMergeR2* merge) {
    LM_CHECK(merge->OnElement(1, Ins("B", 7, 70)).ok());
    LM_CHECK(merge->OnElement(1, Ins("C", 9, 90)).ok());
    LM_CHECK(merge->OnElement(0, Stb(100)).ok());
    LM_CHECK(merge->OnElement(1, Stb(100)).ok());
  };
  CollectingSink reference;
  LMergeR2 uninterrupted(2, &reference);
  feed_prefix(&uninterrupted);
  feed_suffix(&uninterrupted);

  CollectingSink first_half;
  LMergeR2 original(2, &first_half);
  feed_prefix(&original);
  const std::string blob = SaveCheckpoint(original);
  CollectingSink second_half;
  LMergeR2 restored(2, &second_half);
  ASSERT_TRUE(LoadCheckpoint(blob, &restored).ok());
  EXPECT_EQ(restored.StateBytes(), original.StateBytes());
  feed_suffix(&restored);

  ElementSequence combined = first_half.elements();
  for (const StreamElement& e : second_half.elements()) {
    combined.push_back(e);
  }
  EXPECT_EQ(combined, reference.elements());
}

// ---------------------------------------------------------------------------
// Hostile blobs: each must fail LoadCheckpoint with a Status, never crash
// or allocate by a corrupt count.

// A blob around hand-built pool and body sections.
std::string BlobWithSections(const std::string& pool,
                             const std::string& body) {
  Encoder out;
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  out.WriteU8(0);
  out.WriteVarString(pool);
  out.WriteVarString(body);
  return out.TakeBytes();
}

// A pool section declaring `count` entries and holding one compact row.
std::string PoolSection(uint64_t count) {
  Encoder pool;
  pool.WriteVarU64(count);
  pool.WriteCompactRow(Row::OfString("A"));
  return pool.TakeBytes();
}

// An R3 body for two streams: `nodes` declared, one written, whose payload
// is the pool reference `ref` and whose bottom tier declares `entries` and
// holds one output entry.
std::string R3Body(uint64_t nodes, uint64_t ref, uint64_t entries) {
  Encoder body;
  body.WriteTimeDelta(0, 0);  // max stable
  body.WriteVarU64(2);        // streams
  body.WriteTimeDelta(0, 0);
  body.WriteTimeDelta(0, 0);
  body.WriteVarU64(nodes);
  body.WriteTimeDelta(5, 0);
  body.WriteVarU64(ref);
  body.WriteVarU64(entries);
  body.WriteVarU64(0);  // the output entry
  body.WriteTimeDelta(50, 5);
  return body.TakeBytes();
}

Status LoadR3(const std::string& blob) {
  CollectingSink sink;
  LMergeR3 target(2, &sink);
  return LoadCheckpoint(blob, &target);
}

TEST(CheckpointHostileTest, HandBuiltBlobSanityLoads) {
  // The builders above produce a loadable blob when nothing is corrupt.
  ASSERT_TRUE(LoadR3(BlobWithSections(PoolSection(1), R3Body(1, 1, 1))).ok());
  // Reference 0 reads an inline compact row instead of a pool entry.
  Encoder inline_ref;
  inline_ref.WriteVarU64(0);
  inline_ref.WriteCompactRow(Row::OfString("B"));
  std::string body = R3Body(1, 0, 1);
  const size_t ref_at = 6;  // after max stable, streams, 2 stables, nodes, Vs
  body.replace(ref_at, 1, inline_ref.bytes());
  ASSERT_TRUE(LoadR3(BlobWithSections(PoolSection(1), body)).ok());
}

TEST(CheckpointHostileTest, OverlongAndOverflowingVarintsFail) {
  const std::string eleven = std::string(10, '\x80') + std::string(1, '\0');
  const std::string overflow =
      std::string(9, '\xff') + std::string(1, '\x02');
  for (const std::string& bad : {eleven, overflow}) {
    // As the pool count, as the node count, and as a section length.
    EXPECT_FALSE(LoadR3(BlobWithSections(bad, R3Body(1, 1, 1))).ok());
    std::string body = R3Body(1, 1, 1);
    body.replace(4, 1, bad);  // the node count
    EXPECT_FALSE(LoadR3(BlobWithSections(PoolSection(1), body)).ok());
    Encoder header;
    header.WriteU32(kCheckpointMagic);
    header.WriteU32(kCheckpointVersion);
    header.WriteU8(0);
    EXPECT_FALSE(LoadR3(header.TakeBytes() + bad).ok());
  }
}

TEST(CheckpointHostileTest, CountsPastTheBufferFail) {
  const std::string pool = PoolSection(1);
  EXPECT_FALSE(LoadR3(BlobWithSections(PoolSection(1000), R3Body(1, 1, 1)))
                   .ok());
  EXPECT_FALSE(
      LoadR3(BlobWithSections(PoolSection(~uint64_t{0} >> 32), R3Body(1, 1, 1)))
          .ok());
  EXPECT_FALSE(LoadR3(BlobWithSections(pool, R3Body(1000, 1, 1))).ok());
  EXPECT_FALSE(LoadR3(BlobWithSections(pool, R3Body(1, 1, 1000))).ok());
  // A section length past the end of the blob.
  std::string blob = BlobWithSections(pool, R3Body(1, 1, 1));
  blob[9] = '\x7f';  // the pool section's one-byte length
  EXPECT_FALSE(LoadR3(blob).ok());

  // R2's seen set and R4's distinct-Ve count.
  Encoder r2;
  r2.WriteVarU64(2);  // streams
  r2.WriteTimeDelta(0, 0);
  r2.WriteTimeDelta(0, 0);
  r2.WriteVarU64(1000);  // seen payloads
  r2.WriteVarU64(1);
  CollectingSink sink;
  LMergeR2 r2_target(2, &sink);
  EXPECT_FALSE(
      LoadCheckpoint(BlobWithSections(pool, r2.TakeBytes()), &r2_target).ok());
  Encoder r4;
  r4.WriteTimeDelta(0, 0);  // max stable
  r4.WriteVarI64(0);        // inconsistencies
  r4.WriteVarU64(2);        // streams
  r4.WriteVarU64(1);        // nodes
  r4.WriteTimeDelta(5, 0);
  r4.WriteVarU64(1);  // payload: pool id 0
  r4.WriteVarU64(1);  // entries
  r4.WriteVarU64(1);  // stream 0
  r4.WriteVarU64(1000);  // distinct Ve
  r4.WriteTimeDelta(50, 5);
  r4.WriteVarU64(1);
  LMergeR4 r4_target(2, &sink);
  EXPECT_FALSE(
      LoadCheckpoint(BlobWithSections(pool, r4.TakeBytes()), &r4_target).ok());
}

TEST(CheckpointHostileTest, PoolReferenceOnePastThePoolFails) {
  const std::string pool = PoolSection(1);
  ASSERT_TRUE(LoadR3(BlobWithSections(pool, R3Body(1, 1, 1))).ok());
  const Status status = LoadR3(BlobWithSections(pool, R3Body(1, 2, 1)));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(CheckpointHostileTest, EntryNamingAnUnknownStreamFails) {
  std::string body = R3Body(1, 1, 1);
  body[body.size() - 2] = '\x03';  // stream + 1 = 3: stream 2 of 2
  const Status status = LoadR3(BlobWithSections(PoolSection(1), body));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown stream 2"), std::string::npos);
}

TEST(CheckpointHostileTest, RepeatedIndexNodeFails) {
  // Two nodes with the same (Vs, payload): the second Vs delta is 0.
  Encoder body;
  body.WriteTimeDelta(0, 0);
  body.WriteVarU64(1);  // streams
  body.WriteTimeDelta(0, 0);
  body.WriteVarU64(2);  // nodes
  for (int n = 0; n < 2; ++n) {
    body.WriteTimeDelta(5, n == 0 ? 0 : 5);
    body.WriteVarU64(1);  // pool id 0
    body.WriteVarU64(0);  // no entries
  }
  EXPECT_FALSE(LoadR3(BlobWithSections(PoolSection(1), body.TakeBytes())).ok());
}

// Real R3 and R4 states with an inline (identity-less) payload and a cut
// certificate, for the prefix and byte-flip checks.
std::string CutCertificateBytes() {
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR3Plus;
  cert.output_stable = 10;
  cert.inputs.push_back({0, true, 10, 4});
  cert.inputs.push_back({1, true, 9, 3});
  return replica::SerializeCutCertificate(cert);
}

template <typename Merge>
std::string RealBlob() {
  CollectingSink sink;
  Merge merge(2, &sink);
  LM_CHECK(merge.OnElement(0, Ins("A", 5, 50)).ok());
  LM_CHECK(merge.OnElement(1, Ins("A", 5, 60)).ok());
  LM_CHECK(merge.OnElement(0, Ins("B", 7, kInfinity)).ok());
  LM_CHECK(merge.OnElement(1, Ins("B", 7, kInfinity)).ok());
  LM_CHECK(merge.OnElement(1, StreamElement::Insert(Row(), 8, 80)).ok());
  LM_CHECK(merge.OnElement(0, Stb(6)).ok());
  LM_CHECK(merge.OnElement(1, Stb(6)).ok());
  return SaveCheckpoint(merge, CutCertificateBytes());
}

TEST(CheckpointHostileTest, EveryProperPrefixOfR3AndR4BlobsFails) {
  const std::string r3 = RealBlob<LMergeR3>();
  const std::string r4 = RealBlob<LMergeR4>();
  CollectingSink sink;
  {
    LMergeR3 whole(2, &sink);
    ASSERT_TRUE(LoadCheckpoint(r3, &whole).ok());
    LMergeR4 whole4(2, &sink);
    ASSERT_TRUE(LoadCheckpoint(r4, &whole4).ok());
  }
  CheckpointInfo info;
  for (size_t len = 0; len < r3.size(); ++len) {
    LMergeR3 target(2, &sink);
    EXPECT_FALSE(LoadCheckpoint(r3.substr(0, len), &target).ok()) << len;
    EXPECT_FALSE(InspectCheckpoint(r3.substr(0, len), &info).ok()) << len;
  }
  for (size_t len = 0; len < r4.size(); ++len) {
    LMergeR4 target(2, &sink);
    EXPECT_FALSE(LoadCheckpoint(r4.substr(0, len), &target).ok()) << len;
  }
}

TEST(CheckpointTest, RestoreRejectsMoreThanMaxStreams) {
  CollectingSink sink;
  const int too_many = static_cast<int>(kMaxStreams) + 1;
  for (const MergeVariant variant :
       {MergeVariant::kLMR0, MergeVariant::kLMR1, MergeVariant::kLMR2,
        MergeVariant::kLMR3Plus, MergeVariant::kLMR4}) {
    std::unique_ptr<MergeAlgorithm> wide =
        CreateMergeAlgorithm(variant, too_many, &sink);
    const std::string blob = SaveCheckpoint(*wide->checkpointable());
    std::unique_ptr<MergeAlgorithm> target =
        CreateMergeAlgorithm(variant, 1, &sink);
    const Status status = LoadCheckpoint(blob, target->checkpointable());
    EXPECT_FALSE(status.ok()) << MergeVariantName(variant);
    EXPECT_NE(status.message().find("1025 streams"), std::string::npos)
        << status.ToString();
    // Rejected before any stream was added.
    EXPECT_EQ(target->stream_count(), 1) << MergeVariantName(variant);
  }
  // The limit itself restores.
  LMergeR0 widest(static_cast<int>(kMaxStreams), &sink);
  LMergeR0 restored(1, &sink);
  ASSERT_TRUE(LoadCheckpoint(SaveCheckpoint(widest), &restored).ok());
  EXPECT_EQ(restored.stream_count(), static_cast<int>(kMaxStreams));
  // The operator's own input registry is bounded the same way.
  LMergeOperator wide_op("wide", too_many, MergeVariant::kLMR3Plus);
  LMergeOperator narrow_op("narrow", 1, MergeVariant::kLMR3Plus);
  EXPECT_FALSE(LoadCheckpoint(SaveCheckpoint(wide_op), &narrow_op).ok());
  EXPECT_EQ(narrow_op.input_count(), 1);
}

TEST(CheckpointTest, OneShardNeedsNoPartitionedContainer) {
  // A one-shard merge checkpoints exactly like an unsharded one: combining
  // a lone blob returns it unchanged, and splitting any plain blob yields
  // it back as the only shard, so every restore reads through one path.
  CollectingSink sink;
  LMergeR3 donor(2, &sink);
  ASSERT_TRUE(donor.OnElement(0, StreamElement::Insert(Row::OfInt(7), 3, 9))
                  .ok());
  ASSERT_TRUE(donor.OnElement(1, StreamElement::Stable(2)).ok());
  const std::string blob = SaveCheckpoint(donor);
  EXPECT_EQ(CombinePartitionedCheckpoint({blob}), blob);
  std::vector<std::string> shard_blobs;
  ASSERT_TRUE(SplitPartitionedCheckpoint(blob, &shard_blobs).ok());
  ASSERT_EQ(shard_blobs.size(), 1u);
  EXPECT_EQ(shard_blobs[0], blob);
  // A blob too short to hold a magic is a (bad) one-shard blob too: the
  // refusal comes from LoadCheckpoint, not from the split.
  ASSERT_TRUE(SplitPartitionedCheckpoint("ab", &shard_blobs).ok());
  ASSERT_EQ(shard_blobs.size(), 1u);
  EXPECT_EQ(shard_blobs[0], "ab");
  // Two or more shards still round-trip through the LMPC container.
  LMergeR3 other(2, &sink);
  const std::string other_blob = SaveCheckpoint(other);
  const std::string pair = CombinePartitionedCheckpoint({blob, other_blob});
  EXPECT_NE(pair, blob);
  ASSERT_TRUE(SplitPartitionedCheckpoint(pair, &shard_blobs).ok());
  EXPECT_EQ(shard_blobs, (std::vector<std::string>{blob, other_blob}));
}

}  // namespace
}  // namespace lmerge
