// PartitionedMerger: sharded merge behind the min-frontier stable-point
// aggregator.  Covers key-stable routing, convergence to the reference TDB
// under threaded delivery across variants/seeds/shard counts, the physical
// validity of the recombined output stream, stream churn at 4 shards,
// consistent-cut barriers, error handling, skew backpressure, the
// per-shard metrics surface, and MakeMerger's one-shard/many-shard split
// with its shared merge.* surface.

#include "engine/partitioned.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>

#include "core/factory.h"
#include "obs/metrics.h"
#include "stream/sink.h"
#include "temporal/tdb.h"
#include "test_util.h"
#include "workload/generator.h"

namespace lmerge {
namespace {

using testing_util::CountKinds;
using testing_util::DeliverOne;
using testing_util::RunReplicas;
using workload::GeneratorConfig;
using workload::GeneratePhysicalVariant;
using workload::GenerateHistory;
using workload::LogicalHistory;
using workload::RenderInOrder;
using workload::VariantOptions;

LogicalHistory ClosedHistory(uint64_t seed) {
  GeneratorConfig config;
  config.num_inserts = 400;
  config.stable_freq = 0.05;
  config.event_duration = 600;
  config.max_gap = 12;
  config.payload_string_bytes = 8;
  config.seed = seed;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  return history;
}

std::vector<ElementSequence> DisorderedReplicas(const LogicalHistory& history,
                                                int count, uint64_t seed) {
  std::vector<ElementSequence> replicas;
  for (int v = 0; v < count; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.25;
    options.split_probability = 0.3;
    options.seed = seed * 11 + static_cast<uint64_t>(v);
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }
  return replicas;
}

ShardAlgorithmFactory MakeFactory(MergeVariant variant, int num_streams) {
  return [variant, num_streams](int /*shard*/, ElementSink* sink) {
    return CreateMergeAlgorithm(variant, num_streams, sink);
  };
}

// The stable() contract of element.h, checked over the recombined output:
// after stable(Vc) there is no insert with Vs < Vc and no adjust with
// Vold < Vc or Ve < Vc, and stables strictly increase.  This is the
// property the min-frontier aggregator must not break.
void ExpectValidPhysicalStream(const ElementSequence& out) {
  Timestamp stable = kMinTimestamp;
  for (const StreamElement& e : out) {
    switch (e.kind()) {
      case ElementKind::kInsert:
        EXPECT_GE(e.vs(), stable) << e.ToString();
        break;
      case ElementKind::kAdjust:
        EXPECT_GE(e.v_old(), stable) << e.ToString();
        EXPECT_GE(e.ve(), stable) << e.ToString();
        break;
      case ElementKind::kStable:
        EXPECT_GT(e.stable_time(), stable) << e.ToString();
        stable = e.stable_time();
        break;
    }
  }
}

TEST(PartitionedRoutingTest, EventAndItsRevisionsShareAShard) {
  const Row a = Row::OfString("event-a");
  const StreamElement insert = StreamElement::Insert(a, 10, 100);
  const StreamElement revise = StreamElement::Adjust(a, 10, 100, 50);
  const StreamElement retract = StreamElement::Adjust(a, 10, 50, 10);
  for (int shards : {2, 3, 4, 8}) {
    const int home = PartitionedMerger::RouteShard(insert, shards);
    EXPECT_GE(home, 0);
    EXPECT_LT(home, shards);
    // Adjusts carry the insert's (payload, Vs) key and must follow it.
    EXPECT_EQ(PartitionedMerger::RouteShard(revise, shards), home);
    EXPECT_EQ(PartitionedMerger::RouteShard(retract, shards), home);
  }
  // Same payload at a different Vs is a different event and may go
  // elsewhere; over many keys every shard must get work.
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 256; ++i) {
    const StreamElement e = StreamElement::Insert(
        Row::OfString("k" + std::to_string(i)), i, i + 10);
    ++hits[static_cast<size_t>(PartitionedMerger::RouteShard(e, 4))];
  }
  for (int shard = 0; shard < 4; ++shard) {
    EXPECT_GT(hits[static_cast<size_t>(shard)], 0) << "shard " << shard;
  }
}

class PartitionedMergeTest
    : public ::testing::TestWithParam<
          std::tuple<MergeVariant, uint64_t, int>> {};

TEST_P(PartitionedMergeTest, ThreadedReplicasConverge) {
  const auto [variant, seed, shards] = GetParam();
  const LogicalHistory history = ClosedHistory(seed);
  const Timestamp closing_stable = history.stable_times.back();
  const std::vector<ElementSequence> replicas =
      DisorderedReplicas(history, 4, seed);
  const Tdb reference = Tdb::Reconstitute(RenderInOrder(history));

  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = shards;
  PartitionedMerger merger(MakeFactory(variant, 4), &merged, options);
  EXPECT_EQ(merger.shard_count(), shards);
  RunReplicas(&merger, replicas);
  EXPECT_TRUE(merger.error().ok());
  EXPECT_EQ(merger.max_stable(), closing_stable);
  ExpectValidPhysicalStream(merged.elements());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements()).Equals(reference))
      << MergeVariantName(variant) << " seed " << seed << " shards "
      << shards;

  // Aggregated stats match what was delivered: every insert/adjust routes
  // to exactly one shard, every stable reaches all of them.
  int64_t inserts = 0;
  int64_t adjusts = 0;
  int64_t stables = 0;
  for (const ElementSequence& replica : replicas) {
    for (const StreamElement& e : replica) {
      inserts += e.is_insert();
      adjusts += e.is_adjust();
      stables += e.is_stable();
    }
  }
  const MergeOutputStats stats = merger.StatsSnapshot();
  EXPECT_EQ(stats.inserts_in, inserts);
  EXPECT_EQ(stats.adjusts_in, adjusts);
  EXPECT_EQ(stats.stables_in, stables);
  EXPECT_EQ(stats.stables_out, CountKinds(merged.elements()).stables);
  EXPECT_EQ(merger.delivered_count(), inserts + adjusts + stables);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsSeedsShards, PartitionedMergeTest,
    ::testing::Combine(::testing::Values(MergeVariant::kLMR3Plus,
                                         MergeVariant::kLMR4),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(2, 4)));

// MakeMerger is the one construction path: one shard is a plain
// ConcurrentMerger that emits straight into the sink (no aggregator thread,
// output ring or routing), more are a PartitionedMerger; both converge.
TEST(MakeMergerTest, OneShardIsDirectMoreArePartitioned) {
  const LogicalHistory history = ClosedHistory(31);
  const std::vector<ElementSequence> replicas =
      DisorderedReplicas(history, 3, 31);
  for (int shards : {1, 4}) {
    CollectingSink merged;
    PartitionedMergerOptions options;
    options.shards = shards;
    std::unique_ptr<Merger> merger = MakeMerger(
        MakeFactory(MergeVariant::kLMR3Plus, 3), &merged, options);
    EXPECT_EQ(merger->shard_count(), shards);
    EXPECT_EQ(dynamic_cast<ConcurrentMerger*>(merger.get()) != nullptr,
              shards == 1);
    EXPECT_EQ(dynamic_cast<PartitionedMerger*>(merger.get()) != nullptr,
              shards > 1);
    RunReplicas(merger.get(), replicas);
    EXPECT_TRUE(merger->error().ok());
    EXPECT_EQ(merger->max_stable(), history.stable_times.back());
    ExpectValidPhysicalStream(merged.elements());
    EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                    .Equals(Tdb::Reconstitute(RenderInOrder(history))))
        << "shards " << shards;
  }
}

// The merge.* names one MetricsSnapshot() call writes, outside the
// per-shard and aggregator engine scopes.  The registry is process-wide and
// keeps every name an earlier merger registered, so each candidate is first
// set to a sentinel and the written set is what no longer reads it.
std::set<std::string> ExportedMergeNames(Merger* merger) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  constexpr int64_t kUnwritten = -424242;
  const auto engine_scope = [](const std::string& name) {
    return name.starts_with("merge.shard.") || name.starts_with("merge.agg.");
  };
  const obs::MetricsSnapshot registered = registry.Snapshot();
  for (const obs::MetricValue* value : registered.WithPrefix("merge.")) {
    if (engine_scope(value->name)) continue;
    if (value->kind == obs::InstrumentKind::kGauge) {
      registry.GetGauge(value->name)->Set(kUnwritten);
    } else if (value->kind == obs::InstrumentKind::kCounter) {
      registry.GetExportedCounter(value->name)->Set(kUnwritten);
    }
  }
  std::set<std::string> names;
  const obs::MetricsSnapshot exported = merger->MetricsSnapshot();
  for (const obs::MetricValue* value : exported.WithPrefix("merge.")) {
    if (!engine_scope(value->name) && value->value != kUnwritten) {
      names.insert(value->name);
    }
  }
  return names;
}

// One shard and N export one merge.* surface: the same names (the engine
// scopes aside), with merge.shards naming the shard count.
TEST(MakeMergerTest, OneAndTwoShardsExportTheSameMergeNames) {
  obs::MetricsRegistry::set_enabled(true);
  const LogicalHistory history = ClosedHistory(37);
  const std::vector<ElementSequence> replicas =
      DisorderedReplicas(history, 2, 37);
  std::set<std::string> names_at[3];
  for (int shards : {1, 2}) {
    CollectingSink merged;
    PartitionedMergerOptions options;
    options.shards = shards;
    std::unique_ptr<Merger> merger = MakeMerger(
        MakeFactory(MergeVariant::kLMR3Plus, 2), &merged, options);
    RunReplicas(merger.get(), replicas);
    names_at[shards] = ExportedMergeNames(merger.get());
    const obs::MetricsSnapshot snapshot = merger->MetricsSnapshot();
    EXPECT_EQ(snapshot.Value("merge.shards"), shards);
    EXPECT_EQ(snapshot.Value("merge.stable"), history.stable_times.back());
    EXPECT_EQ(snapshot.Value("merge.out.stables"),
              CountKinds(merged.elements()).stables);
  }
  obs::MetricsRegistry::set_enabled(false);
  EXPECT_TRUE(names_at[1].contains("merge.state_bytes"));
  EXPECT_EQ(names_at[1], names_at[2]);
}

TEST(PartitionedMergeTest, TryDeliverRejectsInvalidAndInactive) {
  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = 2;
  PartitionedMerger merger(MakeFactory(MergeVariant::kLMR3Plus, 1), &merged,
                           options);
  EXPECT_TRUE(DeliverOne(&merger, 0,
                         StreamElement::Insert(Row::OfString("A"), 1, 10))
                  .ok());
  // Ve < Vs is caught at the door on the routing thread.
  EXPECT_FALSE(DeliverOne(&merger, 0,
                          StreamElement::Insert(Row::OfString("B"), 10, 1))
                   .ok());
  EXPECT_FALSE(
      DeliverOne(&merger, 7, StreamElement::Stable(5)).ok());  // out of range
  merger.RemoveStream(0);
  EXPECT_FALSE(DeliverOne(&merger, 0, StreamElement::Stable(5)).ok());
  merger.WaitIdle();
  EXPECT_TRUE(merger.error().ok());
}

TEST(PartitionedMergeTest, BatchDeliveryKeepsPrefixOnError) {
  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = 2;
  PartitionedMerger merger(MakeFactory(MergeVariant::kLMR3Plus, 1), &merged,
                           options);
  ElementSequence batch;
  batch.push_back(StreamElement::Insert(Row::OfString("A"), 1, 10));
  batch.push_back(StreamElement::Insert(Row::OfString("B"), 2, 12));
  batch.push_back(StreamElement::Insert(Row::OfString("C"), 12, 2));  // bad
  batch.push_back(StreamElement::Insert(Row::OfString("D"), 3, 13));
  EXPECT_FALSE(
      merger.TryDeliverBatch(0, std::span(batch.data(), batch.size())).ok());
  merger.WaitIdle();
  // The prefix before the invalid element was delivered; the suffix wasn't.
  EXPECT_EQ(merger.StatsSnapshot().inserts_in, 2);
  EXPECT_EQ(merger.delivered_count(), 2);
}

// Satellite: churn test at 4 shard threads — concurrent AddStream /
// RemoveStream against live deliveries, fan-out barriers racing the data
// path (this is the TSan matrix workload).
TEST(PartitionedMergeTest, StreamChurnUnderLoadConverges) {
  const LogicalHistory history = ClosedHistory(23);
  const Timestamp closing_stable = history.stable_times.back();
  constexpr int kInitial = 2;
  constexpr int kJoiners = 3;
  std::vector<ElementSequence> replicas;
  for (uint64_t v = 0; v < kInitial + kJoiners; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.25;
    options.split_probability = 0.3;
    options.seed = 7000 + v;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }
  const Tdb reference = Tdb::Reconstitute(RenderInOrder(history));

  for (int run = 0; run < 2; ++run) {
    CollectingSink merged;
    PartitionedMergerOptions options;
    options.shards = 4;
    PartitionedMerger merger(MakeFactory(MergeVariant::kLMR4, kInitial),
                             &merged, options);

    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      for (const StreamElement& e : replicas[0]) {
        ASSERT_TRUE(DeliverOne(&merger, 0, e).ok());
      }
    });
    threads.emplace_back([&] {
      const size_t half = replicas[1].size() / 2;
      for (size_t i = 0; i < half; ++i) {
        ASSERT_TRUE(DeliverOne(&merger, 1, replicas[1][i]).ok());
      }
      merger.RemoveStream(1);
    });
    for (int j = 0; j < kJoiners; ++j) {
      threads.emplace_back([&, j] {
        const int stream = merger.AddStream();
        ASSERT_GE(stream, kInitial);
        const ElementSequence& replica = replicas[kInitial + j];
        for (const StreamElement& e : replica) {
          ASSERT_TRUE(DeliverOne(&merger, stream, e).ok());
        }
        if (j == 0) merger.RemoveStream(stream);  // join then leave again
      });
    }
    // Barriers racing the churn: snapshots must stay internally coherent.
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        const MergerInputSnapshot snapshot = merger.InputSnapshot();
        EXPECT_EQ(snapshot.per_input.size(), snapshot.active.size());
        int64_t inserts = 0;
        for (const PerInputStats& in : snapshot.per_input) {
          inserts += in.inserts_in;
        }
        EXPECT_EQ(inserts, snapshot.totals.inserts_in);
      }
    });
    for (auto& t : threads) t.join();
    merger.WaitIdle();
    EXPECT_TRUE(merger.error().ok());
    EXPECT_EQ(merger.max_stable(), closing_stable);
    ExpectValidPhysicalStream(merged.elements());
    EXPECT_TRUE(Tdb::Reconstitute(merged.elements()).Equals(reference))
        << "churn run " << run;
  }
}

TEST(PartitionedMergeTest, BarrierSpansEveryShardAtOneCut) {
  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = 3;
  PartitionedMerger merger(MakeFactory(MergeVariant::kLMR3Plus, 1), &merged,
                           options);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (int i = 0; !stop.load(); ++i) {
      ASSERT_TRUE(DeliverOne(&merger, 0,
                             StreamElement::Insert(
                                 Row::OfString("p" + std::to_string(i % 97)),
                                 i, i + 50))
                      .ok());
    }
  });
  for (int round = 0; round < 10; ++round) {
    merger.CallAtBarrier([&](std::span<MergeAlgorithm* const> shards) {
      ASSERT_EQ(shards.size(), 3u);
      for (MergeAlgorithm* algorithm : shards) {
        ASSERT_NE(algorithm, nullptr);
        EXPECT_EQ(algorithm->stream_count(), 1);
      }
      // With the aggregator drained, every emitted element has been
      // forwarded: what the shards emitted equals what the sink holds.
      int64_t emitted = 0;
      for (MergeAlgorithm* algorithm : shards) {
        emitted += algorithm->stats().inserts_out +
                   algorithm->stats().adjusts_out;
      }
      int64_t forwarded = 0;
      for (const StreamElement& e : merged.elements()) {
        forwarded += !e.is_stable();
      }
      EXPECT_EQ(emitted, forwarded);
    });
  }
  stop.store(true);
  producer.join();
  merger.WaitIdle();
  EXPECT_TRUE(merger.error().ok());
}

// Satellite: skew stress — every element routed to one shard.  Per-shard
// backpressure must engage (bounded rings, visible stalls) and the
// aggregator must still produce the correct merged stream.
TEST(PartitionedMergeTest, SkewedRoutingBackpressuresAndStaysCorrect) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsRegistry::set_enabled(true);
  const int64_t stalls_before =
      registry.GetCounter("merge.shard.0.backpressure_stalls")->Sum();
  const int64_t routed_before =
      registry.GetCounter("merge.shard.0.elements")->Sum();

  const LogicalHistory history = ClosedHistory(41);
  const std::vector<ElementSequence> replicas =
      DisorderedReplicas(history, 3, 41);
  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = 4;
  options.ring_capacity = 16;  // tiny rings so the hot shard pushes back
  options.out_ring_capacity = 16;
  // Two-element shard output buffers: most batches hand their output to
  // the aggregator mid-batch, not only from after_batch.
  options.max_batch = 2;
  options.route_override = [](const StreamElement&, int) { return 0; };
  PartitionedMerger merger(MakeFactory(MergeVariant::kLMR3Plus, 3), &merged,
                           options);
  RunReplicas(&merger, replicas);
  EXPECT_TRUE(merger.error().ok());
  EXPECT_EQ(merger.max_stable(), history.stable_times.back());
  ExpectValidPhysicalStream(merged.elements());
  EXPECT_TRUE(
      Tdb::Reconstitute(merged.elements())
          .Equals(Tdb::Reconstitute(RenderInOrder(history))));

  int64_t delivered = 0;
  for (const ElementSequence& replica : replicas) {
    delivered += static_cast<int64_t>(replica.size());
  }
  // All routed traffic (and every broadcast stable) hit shard 0...
  EXPECT_EQ(registry.GetCounter("merge.shard.0.elements")->Sum() -
                routed_before,
            delivered);
  // ...which had to stall producers against its 16-element rings.
  EXPECT_GT(registry.GetCounter("merge.shard.0.backpressure_stalls")->Sum(),
            stalls_before);
  obs::MetricsRegistry::set_enabled(false);
}

// Satellite: the per-shard metrics surface is populated and the aggregated
// merge.* gauges describe the combined state.
TEST(PartitionedMergeTest, MetricsExposeShardSkewAndAggregates) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Counters are process-wide and cumulative (earlier tests in this binary
  // touch the same instruments); assert on deltas.
  int64_t routed_before = 0;
  for (int shard = 0; shard < 2; ++shard) {
    routed_before += registry
                         .GetCounter("merge.shard." + std::to_string(shard) +
                                     ".elements")
                         ->Sum();
  }
  obs::MetricsRegistry::set_enabled(true);
  const LogicalHistory history = ClosedHistory(43);
  const std::vector<ElementSequence> replicas =
      DisorderedReplicas(history, 2, 43);
  CollectingSink merged;
  PartitionedMergerOptions options;
  options.shards = 2;
  PartitionedMerger merger(MakeFactory(MergeVariant::kLMR3Plus, 2), &merged,
                           options);
  RunReplicas(&merger, replicas);
  const obs::MetricsSnapshot snapshot = merger.MetricsSnapshot();
  obs::MetricsRegistry::set_enabled(false);

  EXPECT_EQ(snapshot.Value("merge.shards"), 2);
  EXPECT_EQ(snapshot.Value("merge.stable"), history.stable_times.back());
  EXPECT_EQ(snapshot.Value("engine.pending"), 0);
  int64_t routed = 0;
  for (int shard = 0; shard < 2; ++shard) {
    const std::string scope = "merge.shard." + std::to_string(shard);
    EXPECT_GT(snapshot.Value(scope + ".elements"), 0) << scope;
    const obs::MetricValue* batches = snapshot.Find(scope + ".routed_batch");
    ASSERT_NE(batches, nullptr) << scope;
    EXPECT_GT(batches->histogram.count, 0) << scope;
    routed += snapshot.Value(scope + ".elements");
  }
  // Inserts/adjusts route once, stables are broadcast to both shards.
  int64_t inserts_adjusts = 0;
  int64_t stables = 0;
  for (const ElementSequence& replica : replicas) {
    for (const StreamElement& e : replica) {
      if (e.is_stable()) {
        ++stables;
      } else {
        ++inserts_adjusts;
      }
    }
  }
  EXPECT_EQ(routed - routed_before, inserts_adjusts + 2 * stables);
  EXPECT_EQ(snapshot.Value("merge.in.inserts") +
                snapshot.Value("merge.in.adjusts"),
            inserts_adjusts);
  EXPECT_EQ(snapshot.Value("merge.in.stables"), stables);
}

}  // namespace
}  // namespace lmerge
