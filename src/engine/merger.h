// Merger: the engine-side delivery interface shared by the single-threaded
// ConcurrentMerger and the sharded PartitionedMerger.
//
// Producers (network sessions, test drivers) deliver per-stream batches and
// never touch algorithm state; how the merge itself is scheduled — one merge
// thread (engine/concurrent.h) or N shard threads whose outputs a shard
// union recombines (engine/partitioned.h) — is an implementation choice
// hidden behind this interface.  MakeMerger (engine/partitioned.h) is the
// one way MergeServer builds either: one shard is a plain ConcurrentMerger,
// more are a PartitionedMerger, so `--merge-threads=N` is a pure
// configuration switch.
//
// Algorithm state is only ever touched by merge threads.  Callers that need
// a consistent view go through CallAtBarrier, which runs between batches on
// every shard at once — the sharded generalization of
// ConcurrentMerger::CallOnMergeThread.  The snapshot surface built on it
// (stats, per-input table, output-view adoption, the merge.* metrics) is
// written once, here, for one shard and for N.

#ifndef LMERGE_ENGINE_MERGER_H_
#define LMERGE_ENGINE_MERGER_H_

#include <chrono>
#include <functional>
#include <span>
#include <vector>

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

  // Validates first and reports failure instead of aborting — the entry
  // point for untrusted inputs.  Validates and enqueues in order, moving
  // elements out of `batch`; on a validation failure the elements before
  // the failing one stay enqueued (prefix semantics) and the error is
  // returned.  Enqueue-only: Ok means accepted, not yet merged (see
  // WaitIdle).  At most one thread may deliver to a given stream at a time
  // (SPSC contract); a full ring blocks the caller (backpressure).
  Status TryDeliverBatch(int stream, std::span<StreamElement> batch) {
    return TryDeliverBatch(stream, batch, obs::IngestStamp());
  }

  // Stamped delivery: additionally attaches the batch's ingest stamp for
  // the latency pipeline (docs/OBSERVABILITY.md).  The stamp is
  // observability side-channel data: implementations may drop it under
  // pressure (a lost latency sample), never the elements.
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

  // Elements enqueued but not yet merged and emitted (the "engine.pending"
  // gauge).
  virtual int64_t pending_count() const = 0;

  // First asynchronous delivery error; Ok when none.  Once set, subsequent
  // batches are discarded.
  virtual Status error() const = 0;

  // Number of algorithm shards (1 for the single-threaded merger).
  virtual int shard_count() const = 0;

  // The wrapped algorithm's case (identical across shards).
  virtual AlgorithmCase algorithm_case() const = 0;

  // Runs `fn` at a point where NO shard is mid-batch and everything the
  // shards emitted has reached the sink — the race-free way to observe or
  // mutate algorithm state while deliveries are in flight.  The span holds
  // every shard's algorithm (size 1 for the single-threaded merger); all of
  // them stand between two elements of one consistent cut, so cross-shard
  // state (checkpoints, cut certificates) describes a single barrier.  `fn`
  // must not call back into this merger.
  virtual void CallAtBarrier(
      std::function<void(std::span<MergeAlgorithm* const>)> fn) = 0;

  // Liveness probe for /readyz: posts a no-op onto every merge thread and
  // waits up to `timeout` for all of them to run it.  False means some
  // thread did not come around — wedged in a batch, deadlocked, or dead —
  // while true means each one reached its control-op point.
  virtual bool Responsive(std::chrono::milliseconds timeout) = 0;

  // Seeds stream `stream`'s per-input views from the output's own views on
  // every shard (MergeAlgorithm::AdoptOutputView at one barrier).
  Status AdoptOutputView(int stream);

  // Output totals, aggregated across shards at a barrier.
  MergeOutputStats StatsSnapshot();

  // Per-input counters + active flags + totals, one consistent barrier copy.
  MergerInputSnapshot InputSnapshot();

  // Exports the merge.* instruments (ExportMergeMetrics at a barrier) and
  // the engine.* gauges into the global registry and returns its snapshot.
  // Safe to call while deliveries are in flight.
  obs::MetricsSnapshot MetricsSnapshot();

 private:
  // The algorithm whose output reaches the sink: the lone shard, or the
  // partitioned merger's shard union.  Its stable count and stable point
  // are the output's.  Read it only inside CallAtBarrier.
  virtual const MergeAlgorithm& output_algorithm() const = 0;
};

}  // namespace lmerge

#endif  // LMERGE_ENGINE_MERGER_H_
