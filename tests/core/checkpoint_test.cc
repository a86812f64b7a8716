// Checkpoint/restore of operator state — the machinery behind query
// jumpstart and cutover (Sec. II-4/5).

#include "common/checkpoint.h"

#include <gtest/gtest.h>

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
  encoder.WriteU32(0);
  encoder.WriteI64(kMinTimestamp);
  Decoder payload(encoder.bytes());
  EXPECT_FALSE(lm.RestoreState(&payload).ok());
}

// A poolless R3 state blob for two streams holding one node whose bottom
// tier has a single entry for `stream`.
std::string R3StateWithEntryFor(uint32_t stream) {
  Encoder encoder;
  encoder.WriteI64(kMinTimestamp);  // max stable
  encoder.WriteU32(2);              // streams
  encoder.WriteI64(kMinTimestamp);
  encoder.WriteI64(kMinTimestamp);
  encoder.WriteU32(1);  // nodes
  encoder.WriteI64(5);
  encoder.WriteRowRef(Row::OfString("A"));
  encoder.WriteU32(1);  // entries
  encoder.WriteU32(stream);
  encoder.WriteI64(50);
  return encoder.TakeBytes();
}

TEST(CheckpointTest, R3RestoreRejectsEntryForUnknownStream) {
  CollectingSink sink;
  for (const uint32_t stream :
       {0u, 1u, static_cast<uint32_t>(kOutputStream)}) {
    LMergeR3 merge(2, &sink);
    const std::string blob = R3StateWithEntryFor(stream);
    Decoder decoder(blob);
    EXPECT_TRUE(merge.RestoreState(&decoder).ok()) << stream;
  }
  // Stream 2 does not exist, and 0x80000000 would alias the bottom tier's
  // vacant-slot marker.
  for (const uint32_t stream : {2u, 0x80000000u}) {
    LMergeR3 merge(2, &sink);
    const std::string blob = R3StateWithEntryFor(stream);
    Decoder decoder(blob);
    EXPECT_FALSE(merge.RestoreState(&decoder).ok()) << stream;
  }
}

TEST(CheckpointTest, R4RestoreRejectsEntryForUnknownStream) {
  CollectingSink sink;
  for (const uint32_t stream : {1u, 2u}) {
    Encoder encoder;
    encoder.WriteI64(kMinTimestamp);  // max stable
    encoder.WriteI64(0);              // inconsistencies
    encoder.WriteU32(2);              // streams
    encoder.WriteU32(1);              // nodes
    encoder.WriteI64(5);
    encoder.WriteRowRef(Row::OfString("A"));
    encoder.WriteU32(1);  // entries
    encoder.WriteU32(stream);
    encoder.WriteU32(1);  // distinct Ve
    encoder.WriteI64(50);
    encoder.WriteI64(1);
    LMergeR4 merge(2, &sink);
    Decoder decoder(encoder.bytes());
    EXPECT_EQ(merge.RestoreState(&decoder).ok(), stream < 2) << stream;
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

TEST(CheckpointTest, V2PoolsSharedPayloadsAtLeastTwiceSmaller) {
  // Many index entries sharing one interned payload: the checkpoint writes
  // the rep once in the pool section and 4-byte references per entry, while
  // the same SaveState into a pool-less Encoder writes the full row per
  // entry.  The pooled blob must be at least 2x smaller.
  CollectingSink sink;
  LMergeR3 merge(2, &sink);
  const std::string payload(64, 'p');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        merge.OnElement(0, Ins(payload, i + 1, i + 100000)).ok());
  }
  const std::string v2 = SaveCheckpoint(merge);
  Encoder inline_rows;
  merge.SaveState(&inline_rows);
  EXPECT_GE(inline_rows.bytes().size(), 2 * v2.size())
      << "inline=" << inline_rows.bytes().size() << " bytes, v2="
      << v2.size() << " bytes";

  CollectingSink sink_v2;
  LMergeR3 from_v2(2, &sink_v2);
  ASSERT_TRUE(LoadCheckpoint(v2, &from_v2).ok());
  EXPECT_EQ(from_v2.index_node_count(), merge.index_node_count());
  EXPECT_EQ(from_v2.StateBytes(), merge.StateBytes());
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
  const std::string v2 =
      SaveCheckpoint(merge, replica::SerializeCutCertificate(cert));

  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(v2, &info).ok());
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.flags, kCheckpointFlagCutCertificate);
  EXPECT_EQ(info.total_bytes, v2.size());
  EXPECT_EQ(info.pool_entries, 2u);
  EXPECT_GT(info.pool_bytes, 0u);
  EXPECT_GT(info.body_bytes, 0u);
  replica::CutCertificate parsed;
  ASSERT_TRUE(
      replica::ParseCutCertificate(info.cut_certificate, &parsed).ok());
  EXPECT_EQ(parsed.output_stable, 10);

  std::string bad = v2;
  bad[0] = 'X';
  EXPECT_FALSE(InspectCheckpoint(bad, &info).ok());
  // The retired inline-payload v1 format is refused, not misread.
  std::string v1 = v2;
  v1[4] = '\x01';
  EXPECT_FALSE(InspectCheckpoint(v1, &info).ok());
  LMergeR3 restored(1, &sink);
  EXPECT_FALSE(LoadCheckpoint(v1, &restored).ok());
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
  // R2's seen-set (with pooled payload rows in v2) must survive: the
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

}  // namespace
}  // namespace lmerge
