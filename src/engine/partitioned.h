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
// quiescence of shard i's keys.  The shards' outputs are therefore unioned
// under UnionOp's rule (operators/union_op.h, Sec. I): each shard's
// after_batch hook hands its batch's output to one more ConcurrentMerger,
// the aggregator, whose algorithm (one input stream per shard) passes
// inserts and adjusts through, folds shard stables into per-shard
// frontiers, and emits stable(g) whenever the minimum g across frontiers
// advances.  Because each shard emits its elements before the stable that
// covers them and the aggregator drains per-shard FIFO rings, every element
// with Vs < g from every shard has already been forwarded when stable(g)
// goes out — the output is a valid physical stream, and its reconstitution
// at every stable point equals the single-threaded merge's
// (tests/core/batch_equivalence_test.cc proves this per
// variant/seed/shard-count).  Rings, backpressure, stamps, parking and idle
// waits of that hop are the aggregator ConcurrentMerger's own.
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
#include <vector>

#include "common/hash.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/merge_algorithm.h"
#include "engine/concurrent.h"
#include "engine/merger.h"
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
  // Capacity of the aggregator's input ring per shard (shard merge thread
  // -> aggregator).  A full ring blocks the shard's merge thread
  // (backpressure), bounding recombination memory.
  size_t out_ring_capacity = 4096;
  // Invoked on the output thread after each batch it emits — the
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
// owns factory(0, sink) and emits straight into `sink` — no aggregator or
// routing; two or more are a PartitionedMerger.
std::unique_ptr<Merger> MakeMerger(ShardAlgorithmFactory factory,
                                   ElementSink* sink,
                                   PartitionedMergerOptions options);

class PartitionedMerger : public Merger {
 public:
  // `sink` receives the recombined output on the aggregator's merge thread
  // (the same single-threaded sink contract ConcurrentMerger gives).
  // Starts `options.shards` (>= 2) shard merge threads plus the
  // aggregator's immediately.
  PartitionedMerger(ShardAlgorithmFactory factory, ElementSink* sink,
                    PartitionedMergerOptions options = {});

  // Drains all enqueued work through every shard and the aggregator, then
  // stops and joins all threads (member order: shards_ before aggregator_).
  ~PartitionedMerger() override = default;

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

  using Merger::TryDeliverBatch;

  // Merger delivery surface.  Stables are broadcast to every shard;
  // inserts/adjusts route by key hash.  The batch's ingest stamp follows
  // each routed sub-batch into its shard merger, and from there (origin
  // only) across the aggregator to the recombined output.
  Status TryDeliverBatch(int stream, std::span<StreamElement> batch,
                         const obs::IngestStamp& stamp) override;

  // Fan-out registry changes, serialized so every shard applies them in the
  // same order and the per-shard stream ids stay aligned.
  int AddStream() override;
  void RemoveStream(int stream) override;

  // Blocks until every element enqueued so far has passed through its shard
  // AND the aggregator has emitted all resulting output (stables included).
  void WaitIdle() override;

  // The recombined output's stable point: min across shard frontiers.
  Timestamp max_stable() const override { return aggregator_->max_stable(); }

  int64_t delivered_count() const override {
    return delivered_.load(std::memory_order_acquire);
  }

  int64_t pending_count() const override;

  // First asynchronous error any shard hit; Ok when none.
  Status error() const override;

  int shard_count() const override { return num_shards_; }
  AlgorithmCase algorithm_case() const override {
    return algorithms_[0]->algorithm_case();
  }

  // Parks every shard's merge thread between two batches, drains the
  // aggregator, then runs `fn` on the caller thread over the span of all
  // shard algorithms — one consistent cut across the whole partitioned
  // state (see merger.h).
  void CallAtBarrier(
      std::function<void(std::span<MergeAlgorithm* const>)> fn) override;

  // /readyz probe: pings every shard's merge thread and the aggregator's
  // against one shared deadline.
  bool Responsive(std::chrono::milliseconds timeout) override;

 private:
  // Collects what a shard algorithm emits during one batch, for
  // HandOffOutput (shard-merge-thread-only).  Sized once: a batch that
  // emits more than fits hands the full buffer off mid-batch, so emitting
  // never allocates.
  struct OutputBuffer : ElementSink {
    void OnElement(const StreamElement& element) override {
      elements[size++] = element;
      if (size == elements.size()) parent->HandOffOutput(this);
    }
    PartitionedMerger* parent = nullptr;
    int shard = 0;  // the aggregator input stream it feeds
    ElementSequence elements;
    size_t size = 0;
  };

  struct Shard {
    OutputBuffer output;
    std::unique_ptr<ConcurrentMerger> merger;  // owns the shard algorithm
    obs::Counter* elements_metric = nullptr;       // merge.shard.N.elements
    obs::Histogram* routed_batch_metric = nullptr;  // merge.shard.N.routed_batch
  };

  const MergeAlgorithm& output_algorithm() const override { return *union_; }

  // Producer side.
  Status Precheck(int stream, const StreamElement& element) const;
  bool AnyShardPoisoned() const;
  // Splits `batch` per shard (stables appended to every shard) and hands
  // the sub-batches to the shard mergers' trusted DeliverBatch, attaching
  // `stamp` to each sub-batch (empty = unstamped).
  void RouteBatch(int stream, std::span<StreamElement> batch,
                  const obs::IngestStamp& stamp);

  // A shard's after_batch hook, on its merge thread: hands what its
  // algorithm emitted to the aggregator's input stream for that shard.
  void HandOffOutput(OutputBuffer* output);

  int num_shards_ = 0;
  PartitionedMergerOptions options_;

  // Declared before shards_ so it is destroyed after them: each shard's
  // final drain still hands its output to a running aggregator.
  std::unique_ptr<ConcurrentMerger> aggregator_;
  const MergeAlgorithm* union_ = nullptr;  // owned by aggregator_

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<MergeAlgorithm*> algorithms_;  // owned by shards_[i]->merger

  // Producer-visible stream registry (mirrors every shard's; the slot
  // vector is append-only and pre-reserved to kMaxStreams so producers
  // index it without locks while AddStream appends).
  std::vector<std::unique_ptr<std::atomic<bool>>> active_;
  std::atomic<int> stream_count_{0};

  std::atomic<int64_t> delivered_{0};

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
};

}  // namespace lmerge

#endif  // LMERGE_ENGINE_PARTITIONED_H_
