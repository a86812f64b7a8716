// ProcessBatch must be a pure performance optimization: for every algorithm
// and every chunking of the same per-stream tapes — including chunk
// boundaries that split a run of same-Vs elements — the batched delivery
// path must produce the exact same output element sequence and the exact
// same stats as element-wise OnElement delivery.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "engine/partitioned.h"
#include "temporal/freeze.h"
#include "temporal/tdb.h"
#include "test_util.h"
#include "workload/generator.h"

namespace lmerge {
namespace {

using ::lmerge::workload::GeneratorConfig;
using ::lmerge::workload::GeneratePhysicalVariant;
using ::lmerge::workload::GenerateHistory;
using ::lmerge::workload::LogicalHistory;
using ::lmerge::workload::RenderInOrder;
using ::lmerge::workload::VariantOptions;

LogicalHistory ClosedHistory(uint64_t seed) {
  GeneratorConfig config;
  config.num_inserts = 200;
  config.stable_freq = 0.08;
  config.event_duration = 400;
  config.duration_jitter = 250;
  config.max_gap = 15;
  config.key_range = 25;
  config.payload_string_bytes = 8;
  config.seed = seed;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  return history;
}

bool StatsEqual(const MergeOutputStats& a, const MergeOutputStats& b) {
  return a.inserts_out == b.inserts_out && a.adjusts_out == b.adjusts_out &&
         a.stables_out == b.stables_out && a.inserts_in == b.inserts_in &&
         a.adjusts_in == b.adjusts_in && a.stables_in == b.stables_in &&
         a.dropped == b.dropped;
}

// Requires adjust-free in-order tapes for the ordered algorithms.
bool OrderedVariant(MergeVariant variant) {
  return variant == MergeVariant::kLMR0 || variant == MergeVariant::kLMR1 ||
         variant == MergeVariant::kLMR2;
}

std::vector<ElementSequence> MakeTapes(MergeVariant variant,
                                       const LogicalHistory& history,
                                       uint64_t seed, int num_streams) {
  std::vector<ElementSequence> tapes;
  if (OrderedVariant(variant)) {
    tapes.assign(static_cast<size_t>(num_streams), RenderInOrder(history));
    return tapes;
  }
  for (int v = 0; v < num_streams; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.15 + 0.1 * static_cast<double>(v);
    options.max_disorder_elements = 20;
    options.split_probability = 0.25;  // adjust-heavy: splits same-Vs runs
    options.seed = seed * 1000 + static_cast<uint64_t>(v);
    tapes.push_back(GeneratePhysicalVariant(history, options));
  }
  return tapes;
}

// One interleaving schedule shared by both delivery modes: a sequence of
// (stream, chunk-length) picks.  Chunk lengths of 1..17 land boundaries
// inside same-(Vs,payload) runs and across stable elements routinely.
struct Chunk {
  int stream;
  size_t begin;
  size_t length;
};

std::vector<Chunk> MakeSchedule(const std::vector<ElementSequence>& tapes,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> next(tapes.size(), 0);
  std::vector<Chunk> schedule;
  while (true) {
    std::vector<int> live;
    for (size_t s = 0; s < tapes.size(); ++s) {
      if (next[s] < tapes[s].size()) live.push_back(static_cast<int>(s));
    }
    if (live.empty()) break;
    const int s = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    const size_t remaining = tapes[static_cast<size_t>(s)].size() -
                             next[static_cast<size_t>(s)];
    const size_t length = std::min<size_t>(
        remaining, static_cast<size_t>(rng.UniformInt(1, 17)));
    schedule.push_back({s, next[static_cast<size_t>(s)], length});
    next[static_cast<size_t>(s)] += length;
  }
  return schedule;
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<MergeVariant, uint64_t>> {};

TEST_P(BatchEquivalence, ChunkedDeliveryMatchesElementWise) {
  const auto [variant, seed] = GetParam();
  const LogicalHistory history = ClosedHistory(seed);
  const int num_streams = 3;
  const std::vector<ElementSequence> tapes =
      MakeTapes(variant, history, seed, num_streams);
  const std::vector<Chunk> schedule = MakeSchedule(tapes, seed * 71 + 5);

  for (const MergePolicy& policy :
       {MergePolicy::Default(), MergePolicy::Eager()}) {
    CollectingSink by_element;
    CollectingSink by_batch;
    auto reference =
        CreateMergeAlgorithm(variant, num_streams, &by_element, policy);
    auto batched =
        CreateMergeAlgorithm(variant, num_streams, &by_batch, policy);

    for (const Chunk& chunk : schedule) {
      const ElementSequence& tape = tapes[static_cast<size_t>(chunk.stream)];
      for (size_t i = chunk.begin; i < chunk.begin + chunk.length; ++i) {
        ASSERT_TRUE(reference->OnElement(chunk.stream, tape[i]).ok());
      }
      ASSERT_TRUE(batched
                      ->ProcessBatch(chunk.stream,
                                     std::span<const StreamElement>(
                                         tape.data() + chunk.begin,
                                         chunk.length))
                      .ok());
      // Identical prefix of output after every chunk, not just at the end:
      // batching must not re-order or defer emissions.
      ASSERT_EQ(by_batch.elements(), by_element.elements())
          << MergeVariantName(variant) << " seed " << seed;
    }

    EXPECT_TRUE(StatsEqual(batched->stats(), reference->stats()))
        << MergeVariantName(variant) << " seed " << seed;
    EXPECT_EQ(batched->max_stable(), reference->max_stable());
    EXPECT_EQ(batched->StateBytes(), reference->StateBytes());
    // And the merged output is still correct, not just self-consistent.
    EXPECT_TRUE(Tdb::Reconstitute(by_batch.elements())
                    .Equals(Tdb::Reconstitute(RenderInOrder(history))))
        << MergeVariantName(variant) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, BatchEquivalence,
    ::testing::Combine(::testing::Values(MergeVariant::kLMR0,
                                         MergeVariant::kLMR1,
                                         MergeVariant::kLMR2,
                                         MergeVariant::kLMR3Plus,
                                         MergeVariant::kLMR3Minus,
                                         MergeVariant::kLMR4),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

// ---------------------------------------------------------------------------
// Partitioned TDB-equivalence (engine/partitioned.h): sharding the merge by
// (payload, Vs) key behind the min-frontier stable-point aggregator must be
// semantically invisible.  Delivery interleavings differ across shard
// threads, so exact output-byte equality with the single-threaded merge is
// not the contract — TDB equivalence at every stable point is:
//   1. the recombined output is a valid physical stream (Tdb::Apply accepts
//      every element — an insert behind the output stable point would fail);
//   2. at every stable(t) the partitioned output emits, the fully-frozen
//      events of its reconstituted prefix equal the ground truth's fully
//      frozen events at t (that set is final once stable(t) is out);
//   3. the final TDB, stable point, and input-side stats match the
//      single-threaded merge of the same tapes.
// ---------------------------------------------------------------------------

std::vector<std::pair<Event, int64_t>> FullyFrozenEvents(const Tdb& tdb,
                                                         Timestamp stable) {
  std::vector<std::pair<Event, int64_t>> frozen;
  tdb.ForEach([&](const Event& event, int64_t count) {
    if (ClassifyFreeze(event.vs, event.ve, stable) ==
        FreezeStatus::kFullyFrozen) {
      frozen.emplace_back(event, count);
    }
  });
  return frozen;
}

class PartitionedEquivalence
    : public ::testing::TestWithParam<
          std::tuple<MergeVariant, uint64_t, int>> {};

TEST_P(PartitionedEquivalence, ShardingIsSemanticallyInvisible) {
  const auto [variant, seed, shards] = GetParam();
  const LogicalHistory history = ClosedHistory(seed);
  const int num_streams = 3;
  const std::vector<ElementSequence> tapes =
      MakeTapes(variant, history, seed, num_streams);
  const Tdb ground_truth = Tdb::Reconstitute(RenderInOrder(history));

  for (const MergePolicy& policy :
       {MergePolicy::Default(), MergePolicy::Eager()}) {
    // Single-threaded reference over the same tapes (deterministic
    // schedule; any schedule yields the same TDB at each stable point).
    CollectingSink single_out;
    auto single =
        CreateMergeAlgorithm(variant, num_streams, &single_out, policy);
    for (const Chunk& chunk : MakeSchedule(tapes, seed * 71 + 5)) {
      const ElementSequence& tape = tapes[static_cast<size_t>(chunk.stream)];
      ASSERT_TRUE(single
                      ->ProcessBatch(chunk.stream,
                                     std::span<const StreamElement>(
                                         tape.data() + chunk.begin,
                                         chunk.length))
                      .ok());
    }

    // Partitioned merge, genuinely threaded (one producer per tape, N
    // shard threads, the aggregator thread).
    CollectingSink partitioned_out;
    PartitionedMergerOptions options;
    options.shards = shards;
    PartitionedMerger merger(
        [&](int, ElementSink* sink) {
          return CreateMergeAlgorithm(variant, num_streams, sink, policy);
        },
        &partitioned_out, options);
    testing_util::RunReplicas(&merger, tapes);

    // (1) validity + (2) frozen-prefix equivalence at every stable point.
    Tdb prefix;
    for (const StreamElement& element : partitioned_out.elements()) {
      ASSERT_TRUE(prefix.Apply(element).ok())
          << MergeVariantName(variant) << " seed " << seed << " shards "
          << shards << ": " << element.ToString();
      if (element.is_stable()) {
        ASSERT_EQ(FullyFrozenEvents(prefix, element.stable_time()),
                  FullyFrozenEvents(ground_truth, element.stable_time()))
            << MergeVariantName(variant) << " seed " << seed << " shards "
            << shards << " at stable " << element.stable_time();
      }
    }

    // (3) final-state equivalence with the single-threaded merge.
    EXPECT_EQ(merger.max_stable(), single->max_stable());
    EXPECT_TRUE(prefix.Equals(Tdb::Reconstitute(single_out.elements())));
    EXPECT_TRUE(prefix.Equals(ground_truth))
        << MergeVariantName(variant) << " seed " << seed << " shards "
        << shards;
    const MergeOutputStats stats = merger.StatsSnapshot();
    EXPECT_EQ(stats.inserts_in, single->stats().inserts_in);
    EXPECT_EQ(stats.adjusts_in, single->stats().adjusts_in);
    EXPECT_EQ(stats.stables_in, single->stats().stables_in);
    // First-delivery-wins dedup is interleaving-independent per key, so
    // even the emitted insert count matches the single-threaded merge.
    EXPECT_EQ(stats.inserts_out, single->stats().inserts_out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsSeedsShards, PartitionedEquivalence,
    ::testing::Combine(::testing::Values(MergeVariant::kLMR0,
                                         MergeVariant::kLMR1,
                                         MergeVariant::kLMR2,
                                         MergeVariant::kLMR3Plus,
                                         MergeVariant::kLMR3Minus,
                                         MergeVariant::kLMR4),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(2, 4)));

// A batch whose tail element is invalid must apply the valid prefix and
// surface the tail's error — same observable behaviour as element-wise
// delivery hitting the same element.
TEST(BatchEquivalenceEdge, ErrorStopsAtFirstInvalidElement) {
  CollectingSink by_element;
  CollectingSink by_batch;
  auto reference = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 1,
                                        &by_element);
  auto batched = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 1, &by_batch);

  const ElementSequence batch = {
      StreamElement::Insert(Row::OfString("ok"), 1, 10),
      StreamElement::Insert(Row::OfString("bad"), 20, 5),  // Ve < Vs
      StreamElement::Insert(Row::OfString("after"), 2, 11),
  };
  Status reference_status;
  for (const StreamElement& element : batch) {
    reference_status = reference->OnElement(0, element);
    if (!reference_status.ok()) break;
  }
  const Status batch_status = batched->ProcessBatch(
      0, std::span<const StreamElement>(batch.data(), batch.size()));
  EXPECT_FALSE(batch_status.ok());
  EXPECT_EQ(batch_status.ToString(), reference_status.ToString());
  EXPECT_EQ(by_batch.elements(), by_element.elements());
}

}  // namespace
}  // namespace lmerge
