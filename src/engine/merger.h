// Merger: the engine-side delivery interface shared by the single-threaded
// ConcurrentMerger and the sharded PartitionedMerger.
//
// Producers (network sessions, test drivers) deliver per-stream elements and
// never touch algorithm state; how the merge itself is scheduled — one merge
// thread (engine/concurrent.h) or N shard threads behind a stable-point
// aggregator (engine/partitioned.h) — is an implementation choice hidden
// behind this interface.  MakeMerger (engine/partitioned.h) is the one way
// MergeServer builds either: one shard is a plain ConcurrentMerger, more are
// a PartitionedMerger, so `--merge-threads=N` is a pure configuration
// switch.
//
// Algorithm state is only ever touched by merge threads.  Callers that need
// a consistent view (stats, checkpoints, output-view adoption) go through
// CallAtBarrier / the snapshot helpers, which run between batches on every
// shard at once — the sharded generalization of
// ConcurrentMerger::CallOnMergeThread.

#ifndef LMERGE_ENGINE_MERGER_H_
#define LMERGE_ENGINE_MERGER_H_

#include <chrono>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/merge_algorithm.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "stream/element.h"

namespace lmerge {

// Race-free copy of the per-input state a merger exposes: the per-input
// counter table, each input's active flag, and the output totals — what
// the server's STATS_RESPONSE table is built from.
struct MergerInputSnapshot {
  std::vector<PerInputStats> per_input;
  std::vector<bool> active;
  MergeOutputStats totals;
};

class Merger {
 public:
  virtual ~Merger() = default;

  // Thread-safe single-element delivery for trusted callers; blocks on
  // backpressure.  At most one thread may deliver to a given stream at a
  // time (SPSC contract).
  virtual void Deliver(int stream, const StreamElement& element) = 0;

  // Validates first and reports failure instead of aborting — the entry
  // point for untrusted inputs.  Enqueue-only: Ok means accepted, not yet
  // merged (see WaitIdle).
  virtual Status TryDeliver(int stream, const StreamElement& element) = 0;

  // Batched TryDeliver: validates and enqueues in order, moving elements
  // out of `batch`.  On a validation failure the elements before the
  // failing one stay enqueued (prefix semantics) and the error is returned.
  virtual Status TryDeliverBatch(int stream,
                                 std::span<StreamElement> batch) = 0;

  // Stamped delivery: like TryDeliverBatch, additionally attaching the
  // batch's ingest stamp for the latency pipeline
  // (docs/OBSERVABILITY.md).  The stamp is observability side-channel
  // data: implementations may drop it under pressure (a lost latency
  // sample), never the elements.
  virtual Status TryDeliverBatch(int stream, std::span<StreamElement> batch,
                                 const obs::IngestStamp& stamp) = 0;

  // Runtime stream registry (the paper's join/leave hooks, Sec. V-B/C).
  // Both block until every shard has applied the change; RemoveStream first
  // drains everything already enqueued for the stream.
  virtual int AddStream() = 0;
  virtual void RemoveStream(int stream) = 0;

  // Blocks until every element enqueued so far has been merged and emitted.
  virtual void WaitIdle() = 0;

  // The merged output's stable point: a possibly slightly stale snapshot
  // while deliveries are in flight, exact after WaitIdle().  For a
  // partitioned merger this is the min across shard frontiers.
  virtual Timestamp max_stable() const = 0;

  virtual int64_t delivered_count() const = 0;

  // First asynchronous delivery error; Ok when none.  Once set, subsequent
  // batches are discarded.
  virtual Status error() const = 0;

  // Number of algorithm shards (1 for the single-threaded merger).
  virtual int shard_count() const = 0;

  // The wrapped algorithm's case (identical across shards).
  virtual AlgorithmCase algorithm_case() const = 0;

  // Runs `fn` at a point where NO shard is mid-batch — the race-free way to
  // observe or mutate algorithm state while deliveries are in flight.  The
  // span holds every shard's algorithm (size 1 for the single-threaded
  // merger); all of them stand between two elements of one consistent cut,
  // so cross-shard state (checkpoints, cut certificates) describes a single
  // barrier.  `fn` must not call back into this merger.
  virtual void CallAtBarrier(
      std::function<void(std::span<MergeAlgorithm* const>)> fn) = 0;

  // Seeds stream `stream`'s per-input views from the output's own views on
  // every shard (MergeAlgorithm::AdoptOutputView at one barrier).
  virtual Status AdoptOutputView(int stream) = 0;

  // Output totals, aggregated across shards at a barrier.
  virtual MergeOutputStats StatsSnapshot() = 0;

  // Per-input counters + active flags + totals, one consistent barrier copy.
  virtual MergerInputSnapshot InputSnapshot() = 0;

  // Exports algorithm + engine instruments into the global registry and
  // returns its snapshot.  Safe to call while deliveries are in flight.
  virtual obs::MetricsSnapshot MetricsSnapshot() = 0;

  // Liveness probe for /readyz: posts a no-op onto every merge thread and
  // waits up to `timeout` for all of them to run it.  False means some
  // thread did not come around — wedged in a batch, deadlocked, or dead —
  // while true means each one reached its control-op point.
  virtual bool Responsive(std::chrono::milliseconds timeout) = 0;

  // Spawns one thread per input, each delivering its sequence in order
  // (cross-stream interleaving is up to the scheduler), joins them, and
  // waits until everything is merged.  Aborts on delivery errors (inputs
  // are trusted replicas).
  void Run(const std::vector<ElementSequence>& inputs) {
    std::vector<std::thread> threads;
    threads.reserve(inputs.size());
    for (size_t s = 0; s < inputs.size(); ++s) {
      threads.emplace_back([this, s, &inputs] {
        for (const StreamElement& element : inputs[s]) {
          Deliver(static_cast<int>(s), element);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    WaitIdle();
    const Status status = error();
    LM_CHECK_MSG(status.ok(), "concurrent delivery failed: %s",
                 status.ToString().c_str());
  }
};

}  // namespace lmerge

#endif  // LMERGE_ENGINE_MERGER_H_
