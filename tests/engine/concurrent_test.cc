// Concurrency stress: replicas delivered from independent threads with
// genuinely nondeterministic interleaving must still merge to the reference
// TDB — across algorithms and repeated runs.

#include "engine/concurrent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <span>
#include <thread>

#include "core/factory.h"
#include "obs/latency.h"
#include "stream/sink.h"
#include "temporal/tdb.h"
#include "test_util.h"
#include "workload/generator.h"

namespace lmerge {
namespace {

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

class ConcurrentMergeTest
    : public ::testing::TestWithParam<std::tuple<MergeVariant, uint64_t>> {};

TEST_P(ConcurrentMergeTest, ThreadedReplicasConverge) {
  const auto [variant, seed] = GetParam();
  const LogicalHistory history = ClosedHistory(seed);
  std::vector<ElementSequence> replicas;
  for (uint64_t v = 0; v < 4; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.25;
    options.split_probability = 0.3;
    options.seed = seed * 11 + v;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }
  const Tdb reference = Tdb::Reconstitute(RenderInOrder(history));

  // Several runs: each has a different OS-scheduled interleaving.
  for (int run = 0; run < 3; ++run) {
    CollectingSink merged;
    auto algo = CreateMergeAlgorithm(variant, 4, &merged);
    ConcurrentMerger merger(algo.get());
    RunReplicas(&merger, replicas);
    EXPECT_EQ(merger.delivered_count(),
              static_cast<int64_t>(replicas[0].size() + replicas[1].size() +
                                   replicas[2].size() + replicas[3].size()));
    EXPECT_TRUE(Tdb::Reconstitute(merged.elements()).Equals(reference))
        << MergeVariantName(variant) << " seed " << seed << " run " << run;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, ConcurrentMergeTest,
    ::testing::Combine(::testing::Values(MergeVariant::kLMR3Plus,
                                         MergeVariant::kLMR3Minus,
                                         MergeVariant::kLMR4),
                       ::testing::Values(1u, 2u, 3u)));

TEST(ConcurrentMergeTest, OrderedReplicasUnderR0) {
  const LogicalHistory history = ClosedHistory(9);
  const ElementSequence stream = RenderInOrder(history);
  const std::vector<ElementSequence> replicas(3, stream);
  CollectingSink merged;
  auto algo = CreateMergeAlgorithm(MergeVariant::kLMR0, 3, &merged);
  ConcurrentMerger merger(algo.get());
  RunReplicas(&merger, replicas);
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(stream)));
}

TEST(ConcurrentMergeTest, OneElementBatchesMerge) {
  CollectingSink merged;
  auto algo = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 2, &merged);
  ConcurrentMerger merger(algo.get());
  ASSERT_TRUE(DeliverOne(&merger, 0,
                         StreamElement::Insert(Row::OfString("A"), 1, 10))
                  .ok());
  ASSERT_TRUE(DeliverOne(&merger, 1,
                         StreamElement::Insert(Row::OfString("A"), 1, 10))
                  .ok());
  ASSERT_TRUE(DeliverOne(&merger, 0, StreamElement::Stable(20)).ok());
  merger.WaitIdle();  // delivery is enqueue-only; quiesce before reading
  EXPECT_EQ(merger.delivered_count(), 3);
  EXPECT_EQ(merger.max_stable(), 20);
  EXPECT_EQ(Tdb::Reconstitute(merged.elements()).EventCount(), 1);
}

TEST(ConcurrentMergeTest, TryDeliverRejectsInvalidAndInactive) {
  CollectingSink merged;
  auto algo = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 1, &merged);
  ConcurrentMerger merger(algo.get());
  EXPECT_TRUE(DeliverOne(&merger, 0,
                         StreamElement::Insert(Row::OfString("A"), 1, 10))
                  .ok());
  // Ve < Vs is caught at the door, before it reaches the merge thread.
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

TEST(ConcurrentMergeTest, BatchDeliveryMatchesElementWise) {
  const LogicalHistory history = ClosedHistory(17);
  std::vector<ElementSequence> replicas;
  for (uint64_t v = 0; v < 3; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.3;
    options.split_probability = 0.3;
    options.seed = 101 + v;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }
  const Tdb reference = Tdb::Reconstitute(RenderInOrder(history));

  CollectingSink merged;
  auto algo = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 3, &merged);
  ConcurrentMerger merger(algo.get());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < replicas.size(); ++s) {
    threads.emplace_back([&, s] {
      ElementSequence batch = replicas[s];  // TryDeliverBatch moves out
      for (size_t i = 0; i < batch.size(); i += 64) {
        const size_t n = std::min<size_t>(64, batch.size() - i);
        ASSERT_TRUE(merger
                        .TryDeliverBatch(static_cast<int>(s),
                                         std::span(batch.data() + i, n))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  merger.WaitIdle();
  EXPECT_TRUE(merger.error().ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements()).Equals(reference));
}

// Records, per merged output element, the ingest stamp the merge thread
// republished for the drain that produced it.
class StampRecordingSink : public ElementSink {
 public:
  void OnElement(const StreamElement& element) override {
    (void)element;
    origins.push_back(obs::CurrentIngestStamp().origin_us);
  }
  std::vector<int64_t> origins;  // merge-thread-only until WaitIdle
};

// Hundreds more one-element stamped batches than 256 queued while the
// merge thread is held: every drain must still republish a stamp (the
// stamp ring is sized from the element ring, so it never drops one).
TEST(ConcurrentMergeTest, OneElementBatchesNeverLoseTheirStamp) {
  StampRecordingSink sink;
  auto algo = CreateMergeAlgorithm(MergeVariant::kLMR3Plus, 1, &sink);
  ConcurrentMergerOptions options;
  options.ring_capacity = 4096;
  options.max_batch = 16;  // many small drains, each needing its own stamp
  ConcurrentMerger merger(algo.get(), options);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::future<int> held = merger.CallOnMergeThreadAsync([&entered, released] {
    entered.set_value();
    released.wait();
  });
  entered.get_future().wait();

  constexpr int kBatches = 1000;
  for (int i = 0; i < kBatches; ++i) {
    StreamElement element =
        StreamElement::Insert(Row::OfInt(i), i + 1, i + 100000);
    obs::IngestStamp stamp;
    stamp.origin_us = i + 1;
    ASSERT_TRUE(
        merger.TryDeliverBatch(0, std::span(&element, 1), stamp).ok());
  }
  release.set_value();
  held.wait();
  merger.WaitIdle();
  ASSERT_TRUE(merger.error().ok());

  ASSERT_EQ(sink.origins.size(), static_cast<size_t>(kBatches));
  for (int i = 0; i < kBatches; ++i) {
    // A drain folds the oldest stamp it covers, which is never younger
    // than the element's own.
    EXPECT_GT(sink.origins[static_cast<size_t>(i)], 0) << "element " << i;
    EXPECT_LE(sink.origins[static_cast<size_t>(i)], i + 1) << "element " << i;
  }
}

// Satellite (c): concurrent AddStream/RemoveStream churn against live
// deliveries.  Late joiners replay the full replica (the algorithm dedups
// against merged output); leavers must have their enqueued tail merged
// before detach.  The merged output must still reconstitute to the
// reference TDB and max_stable must reach the closing stable time.
TEST(ConcurrentMergeTest, StreamChurnUnderLoadConverges) {
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
    auto algo = CreateMergeAlgorithm(MergeVariant::kLMR4, kInitial, &merged);
    ConcurrentMerger merger(algo.get());

    std::vector<std::thread> threads;
    // Initial streams deliver fully; stream 1 detaches mid-way through and
    // stream 0 carries the run to completion.
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
    // Joiners register at racing times, then replay their replica in full.
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
    for (auto& t : threads) t.join();
    merger.WaitIdle();
    EXPECT_TRUE(merger.error().ok());
    EXPECT_EQ(merger.max_stable(), closing_stable);
    EXPECT_TRUE(Tdb::Reconstitute(merged.elements()).Equals(reference))
        << "churn run " << run;
  }
}

}  // namespace
}  // namespace lmerge
