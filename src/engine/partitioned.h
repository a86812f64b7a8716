// Partitioned parallel merge: shard the LMerge core N ways by
// (payload, Vs) key hash and recombine the shard outputs behind a
// min-frontier stable-point aggregator.
//
// Why this is sound (Sec. III-E / IV): every insert(p, Vs, Ve) and its
// adjusts carry the same (p, Vs) key, so hash-routing by that key sends an
// event and ALL of its revisions to one shard.  The restriction of a valid
// physical stream to a key subset is itself a valid physical stream for the
// restricted TDB (dropping elements never breaks the stable()-ordering
// guarantees, which only constrain elements that are present), so each
// shard runs an unmodified single-threaded merge algorithm over an ordinary
// input.  stable(Vc) constrains every key, so stables are broadcast to all
// shards.
//
// Output recombination: each shard's merged output is a valid physical
// stream for its key subset; interleaving them element-wise preserves
// per-shard order, so the union is a valid presentation of the full merged
// TDB *except* for stable() elements — shard i's stable(Vc) only promises
// quiescence of shard i's keys.  The aggregator therefore tracks a
// per-shard stable frontier (running max of that shard's emitted stables),
// swallows shard stables, and emits stable(g) whenever the global minimum g
// across frontiers advances.  Because each shard emits its elements before
// the stable that covers them and the aggregator drains per-shard FIFO
// rings, every element with Vs < g from every shard has already been
// forwarded when stable(g) goes out — the output is a valid physical
// stream, and its reconstitution at every stable point equals the
// single-threaded merge's (tests/core/batch_equivalence_test.cc proves
// this per variant/seed/shard-count).
//
// Control operations (AddStream/RemoveStream/checkpoint cuts) become
// fan-out barriers: every shard parks between two batches at once, the
// aggregator is drained, and the caller observes one consistent cut across
// all shard algorithms (CallAtBarrier).
//
// One shard is the degenerate partition: MakeMerger builds it as a plain
// ConcurrentMerger with no routing or aggregator hop, so PartitionedMerger
// itself always has two or more shards.

#ifndef LMERGE_ENGINE_PARTITIONED_H_
#define LMERGE_ENGINE_PARTITIONED_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/merge_algorithm.h"
#include "engine/concurrent.h"
#include "engine/merger.h"
#include "engine/spsc_ring.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "stream/element.h"
#include "stream/sink.h"

namespace lmerge {

struct PartitionedMergerOptions {
  // Number of shards (merge threads).  PartitionedMerger requires >= 2;
  // MakeMerger also takes 1, which it builds as a plain ConcurrentMerger
  // (no aggregator hop, output byte-identical to an unsharded merge).
  int shards = 2;
  // Per-input ring capacity of each shard's ConcurrentMerger.
  size_t ring_capacity = 4096;
  // Upper bound on elements per ProcessBatch drain inside each shard.
  size_t max_batch = 1024;
  // Capacity of each shard's output ring (shard merge thread -> aggregator).
  // A full output ring blocks the shard's merge thread (backpressure),
  // bounding recombination memory.
  size_t out_ring_capacity = 4096;
  // Invoked on the output thread after each forwarded chunk — the
  // aggregator, or the merge thread of a one-shard merger; embedders use it
  // to flush per-batch output buffers.
  std::function<void()> after_batch;
  // Test seam: overrides shard routing for insert/adjust elements.  Must be
  // a pure function of the element (an event and its adjusts must map to
  // the same shard).  The skew stress test routes everything to shard 0
  // with this.
  std::function<int(const StreamElement&, int num_shards)> route_override;
};

// Creates the shard algorithm for `shard`, emitting into `sink`.  Called
// once per shard from the constructor; every shard must get the same
// variant/stream-count configuration (checkpoint restore loads each shard's
// saved state here).
using ShardAlgorithmFactory =
    std::function<std::unique_ptr<MergeAlgorithm>(int shard,
                                                  ElementSink* sink)>;

// The one way to build a merge engine: `options.shards` algorithms made by
// `factory`, recombined into `sink`.  One shard is a ConcurrentMerger that
// owns factory(0, sink) and emits straight into `sink` — no aggregator
// thread, output ring or routing; two or more are a PartitionedMerger.
std::unique_ptr<Merger> MakeMerger(ShardAlgorithmFactory factory,
                                   ElementSink* sink,
                                   PartitionedMergerOptions options);

class PartitionedMerger : public Merger {
 public:
  // `sink` receives the recombined output on the aggregator thread (the
  // same single-threaded sink contract ConcurrentMerger gives).  Starts
  // `options.shards` (>= 2) merge threads plus the aggregator thread
  // immediately.
  PartitionedMerger(ShardAlgorithmFactory factory, ElementSink* sink,
                    PartitionedMergerOptions options = {});

  // Drains all enqueued work through every shard and the aggregator, then
  // stops and joins all threads.
  ~PartitionedMerger() override;

  PartitionedMerger(const PartitionedMerger&) = delete;
  PartitionedMerger& operator=(const PartitionedMerger&) = delete;

  // The shard an insert/adjust element routes to: a mix of the payload's
  // cached row hash (no rehashing per element) and Vs, so an event and all
  // of its revisions land on one shard.  Deterministic across processes
  // (row hashing is unseeded), so checkpoint restore reproduces routing.
  static int RouteShard(const StreamElement& element, int num_shards) {
    const uint64_t key = HashCombine(
        element.payload().hash(), static_cast<uint64_t>(element.vs()));
    return static_cast<int>(key % static_cast<uint64_t>(num_shards));
  }

  // Merger delivery surface.  Stables are broadcast to every shard;
  // inserts/adjusts route by key hash.  SPSC contract per stream as usual.
  void Deliver(int stream, const StreamElement& element) override;
  Status TryDeliver(int stream, const StreamElement& element) override;
  Status TryDeliverBatch(int stream, std::span<StreamElement> batch) override;

  // Stamped delivery: the batch's ingest stamp follows each routed
  // sub-batch into its shard merger, and from there across the aggregator
  // to the recombined output (see the stamp relay comment on
  // EnqueueOutput).
  Status TryDeliverBatch(int stream, std::span<StreamElement> batch,
                         const obs::IngestStamp& stamp) override;

  // Fan-out registry changes, serialized so every shard applies them in the
  // same order and the per-shard stream ids stay aligned.
  int AddStream() override;
  void RemoveStream(int stream) override;

  // Blocks until every element enqueued so far has passed through its shard
  // AND the aggregator has forwarded all resulting output (stable emissions
  // included).
  void WaitIdle() override;

  // The recombined output's stable point: min across shard frontiers.
  Timestamp max_stable() const override {
    return output_stable_.load(std::memory_order_acquire);
  }

  int64_t delivered_count() const override {
    return delivered_.load(std::memory_order_acquire);
  }

  // First asynchronous error any shard hit; Ok when none.
  Status error() const override;

  int shard_count() const override { return num_shards_; }
  AlgorithmCase algorithm_case() const override {
    return algorithms_[0]->algorithm_case();
  }

  // Parks every shard's merge thread between two batches, drains the
  // aggregator to empty, then runs `fn` on the caller thread over the span
  // of all shard algorithms — one consistent cut across the whole
  // partitioned state (see merger.h).
  void CallAtBarrier(
      std::function<void(std::span<MergeAlgorithm* const>)> fn) override;

  Status AdoptOutputView(int stream) override;
  MergeOutputStats StatsSnapshot() override;
  MergerInputSnapshot InputSnapshot() override;
  obs::MetricsSnapshot MetricsSnapshot() override;

  // /readyz probe: pings every shard's merge thread against one shared
  // deadline.  A wedged aggregator is caught transitively — its full output
  // rings block the shards mid-batch, so their pings time out too.
  bool Responsive(std::chrono::milliseconds timeout) override;

  // Output stables emitted by the aggregator (shard-emitted stables are
  // swallowed by the min-frontier aggregation and never reach the output).
  int64_t stables_out() const {
    return stables_out_.load(std::memory_order_acquire);
  }

 private:
  // Shard-side output sink: pushes every element the shard algorithm emits
  // into the shard's output ring (blocking when full), running on that
  // shard's merge thread.
  class ShardOutput : public ElementSink {
   public:
    void OnElement(const StreamElement& element) override {
      parent_->EnqueueOutput(shard_, element);
    }

   private:
    friend class PartitionedMerger;
    PartitionedMerger* parent_ = nullptr;
    int shard_ = 0;
  };

  // Stamp relay entry: "output elements from cumulative position
  // `begin_count` on carry `stamp`, until a later entry supersedes it."
  // Pushed by the shard merge thread only when its thread-local stamp
  // changes.
  struct OutStamp {
    uint64_t begin_count = 0;
    obs::IngestStamp stamp;
  };

  struct Shard {
    Shard(size_t out_capacity, size_t max_batch)
        : out_ring(out_capacity),
          out_stamp_ring(out_ring.capacity() + max_batch + 1) {}
    ShardOutput sink;
    std::unique_ptr<ConcurrentMerger> merger;  // owns the shard algorithm
    SpscRing<StreamElement> out_ring;  // shard merge thread -> aggregator
    // Latency side-channel beside the output ring (shard merge thread ->
    // aggregator).  Bound: every entry is pushed just ahead of its first
    // element and leaves once that element counts as drained, so entries
    // in flight are at most the outputs in the ring, plus one drain's worth
    // (max_batch) popped but not yet counted, plus the element about to be
    // pushed.  Sized to that bound it never fills, and the push is checked.
    SpscRing<OutStamp> out_stamp_ring;
    // Cumulative outputs enqueued (shard-merge-thread-only) / drained
    // (aggregator-only) — the matching key for OutStamp ranges.
    uint64_t out_enqueued = 0;
    uint64_t out_drained = 0;
    // Last stamp pushed into the relay (shard-merge-thread-only): push only
    // on change.
    obs::IngestStamp out_last_stamp;
    // The stamp in force for the next drained element (aggregator-only).
    obs::IngestStamp agg_stamp;
    // Parking for the shard merge thread when the output ring is full
    // (mirrors ConcurrentMerger::InputSlot backpressure; the mutex guards
    // no data, it only sequences the park/notify handshake).
    std::atomic<bool> producer_waiting{false};
    Mutex wait_mutex;
    CondVar wait_cv;
    // The shard's stable frontier: running max of stables it emitted.
    // Aggregator-thread-only once running (read under quiescence by
    // CallAtBarrier callers).
    Timestamp frontier = kMinTimestamp;
    obs::Counter* elements_metric = nullptr;       // merge.shard.N.elements
    obs::Histogram* routed_batch_metric = nullptr;  // merge.shard.N.routed_batch
  };

  // Producer side.
  Status Precheck(int stream, const StreamElement& element) const;
  bool AnyShardPoisoned() const;
  // Splits `batch` per shard (stables appended to every shard) and hands
  // the sub-batches to the shard mergers' trusted DeliverBatch, attaching
  // `stamp` to each sub-batch (empty = unstamped).
  void RouteBatch(int stream, std::span<StreamElement> batch,
                  const obs::IngestStamp& stamp = obs::IngestStamp());

  // Shard-thread side.
  void EnqueueOutput(int shard, const StreamElement& element) LM_HOT_PATH;
  void WakeAggregator();

  // Aggregator-thread side.
  void AggregatorLoop() LM_HOT_PATH;
  size_t DrainShardOutput(int shard, std::vector<StreamElement>* scratch)
      LM_HOT_PATH;
  void ForwardElement(int shard, StreamElement& element) LM_HOT_PATH;

  int num_shards_ = 0;
  PartitionedMergerOptions options_;
  ElementSink* sink_;  // aggregator-thread-only

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<MergeAlgorithm*> algorithms_;  // owned by shards_[i]->merger

  // Producer-visible stream registry (mirrors every shard's; the slot
  // vector is append-only and pre-reserved to kMaxStreams so producers
  // index it without locks while AddStream appends).
  std::vector<std::unique_ptr<std::atomic<bool>>> active_;
  std::atomic<int> stream_count_{0};

  std::atomic<Timestamp> output_stable_{kMinTimestamp};
  std::atomic<int64_t> delivered_{0};
  std::atomic<int64_t> stables_out_{0};
  // Elements emitted by shards but not yet forwarded by the aggregator
  // (incremented before the output-ring push, decremented after the
  // element's full effect — stable emission included — is applied).
  std::atomic<int64_t> out_pending_{0};
  std::atomic<bool> agg_stop_{false};

  // Serializes AddStream/RemoveStream/CallAtBarrier so all shards apply
  // registry changes in one global order and barriers never interleave.
  // Ordered after MergeServer::mutex_ and before each shard
  // ConcurrentMerger::control_mutex_ (DESIGN.md Sec. 7).
  mutable Mutex control_mutex_;

  // Barrier rendezvous: shards park on it, CallAtBarrier (which holds
  // control_mutex_) waits and releases — hence the declared order.
  Mutex barrier_mutex_ LM_ACQUIRED_AFTER(control_mutex_);
  CondVar barrier_cv_;
  std::atomic<int> barrier_arrived_{0};
  std::atomic<bool> barrier_release_{false};

  // WaitIdle/barrier parking on out_pending_ == 0 (guards no data; nests
  // under control_mutex_ inside CallAtBarrier).
  Mutex out_idle_mutex_ LM_ACQUIRED_AFTER(control_mutex_);
  CondVar out_idle_cv_;

  // Aggregator parking when idle (leaf; guards no data).
  Mutex agg_wake_mutex_;
  CondVar agg_wake_cv_;
  std::atomic<bool> agg_sleeping_{false};

  obs::Counter* agg_batches_metric_;
  obs::Counter* agg_stalls_metric_;

  std::thread agg_thread_;
};

}  // namespace lmerge

#endif  // LMERGE_ENGINE_PARTITIONED_H_
