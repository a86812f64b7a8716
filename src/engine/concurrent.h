// Concurrent ingestion: one producer thread per input stream delivering
// into a batched, single-threaded LMerge core.
//
// The deterministic simulator (engine/simulator.h) is what the figure
// harnesses use; this module models the deployment reality instead — each
// replica of a query arrives on its own network/session thread ("identical
// copies of a query running on machines with independent processor or
// network resources", Sec. II-2).
//
// Architecture: every input stream owns a bounded SPSC ring buffer; the
// producer side (TryDeliverBatch/DeliverBatch) validates and enqueues
// without ever touching merge state, and a single internal merge thread
// drains the rings round-robin, handing each drained chunk to
// MergeAlgorithm::ProcessBatch.  A full ring blocks its producer
// (backpressure), bounding memory.  AddStream/RemoveStream are control
// messages executed on the merge thread between batches, so join/leave is
// ordered against in-flight deliveries; max_stable/delivered_count are
// atomics.  Because exactly one thread runs the algorithm, delivery order
// across streams is nondeterministic but each stream's order is preserved —
// the same contract the old global-mutex design gave, minus the lock
// convoy.
//
// The same engine runs every merge thread of a PartitionedMerger: each
// shard, and the aggregator that unions the shards' outputs (one input
// stream per shard, fed by the shards' after_batch hooks).

#ifndef LMERGE_ENGINE_CONCURRENT_H_
#define LMERGE_ENGINE_CONCURRENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/merge_algorithm.h"
#include "engine/merger.h"
#include "engine/spsc_ring.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "stream/element.h"

namespace lmerge {

struct ConcurrentMergerOptions {
  // Per-input ring capacity in elements (rounded up to a power of two).  A
  // full ring blocks the producer until the merge thread catches up.
  size_t ring_capacity = 4096;
  // Upper bound on elements handed to ProcessBatch per drain of one ring.
  size_t max_batch = 1024;
  // Invoked on the merge thread after every processed batch; embedders use
  // it to flush per-batch output buffers.
  std::function<void()> after_batch;
  // Instrument-name scope: metrics register as "<scope>.batches",
  // "<scope>.busy_us", ... — "engine" for the process-wide single merger,
  // "merge.shard.N" for a PartitionedMerger's per-shard mergers so skew is
  // visible per shard, "merge.agg" for its aggregator
  // (docs/OBSERVABILITY.md).
  std::string metrics_scope = "engine";
};

class ConcurrentMerger : public Merger {
 public:
  // The merger does not own `algorithm`.  The algorithm and its sink are
  // only ever touched by the internal merge thread; the sink must therefore
  // tolerate running on that thread.  Starts the merge thread immediately.
  explicit ConcurrentMerger(MergeAlgorithm* algorithm,
                            ConcurrentMergerOptions options = {});

  // Same, but the merger owns `algorithm` and destroys it after the merge
  // thread has stopped (how MakeMerger and PartitionedMerger's shards build
  // it).
  explicit ConcurrentMerger(std::unique_ptr<MergeAlgorithm> algorithm,
                            ConcurrentMergerOptions options = {});

  // Drains all enqueued work, then stops and joins the merge thread.
  ~ConcurrentMerger() override;

  ConcurrentMerger(const ConcurrentMerger&) = delete;
  ConcurrentMerger& operator=(const ConcurrentMerger&) = delete;

  using Merger::TryDeliverBatch;

  // Stamped TryDeliverBatch for the latency pipeline: the whole batch is
  // validated first, then the ingest stamp for the valid prefix is pushed
  // onto a per-stream side ring keyed by element counts, and only then are
  // the elements enqueued — so the merge thread never drains an element
  // whose stamp has not landed, and can attribute drain batches back to
  // their arrival times without widening StreamElement.  The stamp ring is
  // sized so it cannot fill (see InputSlot), so no stamp is ever dropped.
  Status TryDeliverBatch(int stream, std::span<StreamElement> batch,
                         const obs::IngestStamp& stamp) override;

  // Trusted stamped delivery: enqueues every element of `batch` (moved out)
  // without re-validating.  PartitionedMerger uses it twice: its router,
  // after validating a publisher batch once up front, so split sub-batches
  // keep the exact prefix-on-error semantics without paying validation per
  // shard; and each shard's hand-off of its output to the aggregator.
  void DeliverBatch(int stream, std::span<StreamElement> batch,
                    const obs::IngestStamp& stamp);

  // Thread-safe runtime stream registry (the paper's join/leave hooks,
  // Sec. V-B/C).  Both block until the merge thread has applied the change;
  // RemoveStream first drains everything already enqueued for the stream,
  // so its elements are never dropped.
  int AddStream() override;
  void RemoveStream(int stream) override;

  // Runs `fn` on the merge thread between batches and blocks until it
  // returns — the race-free way to snapshot algorithm state (stats, state
  // bytes) while deliveries are in flight.  `fn` must not call back into
  // this merger.
  void CallOnMergeThread(std::function<void()> fn);

  // Like CallOnMergeThread but returns immediately; waiting on the future
  // observes completion.  The PartitionedMerger barrier posts one parked fn
  // per shard this way — a blocking post per shard would deadlock the
  // barrier against itself.
  std::future<int> CallOnMergeThreadAsync(std::function<void()> fn);

  // Blocks until every element enqueued so far has been merged.  On return,
  // sink output and algorithm state reflect all prior deliveries
  // (happens-before is established for the caller).
  void WaitIdle() override;

  // The merged output's stable point: a possibly slightly stale snapshot
  // while deliveries are in flight, exact after WaitIdle().
  Timestamp max_stable() const override {
    return max_stable_.load(std::memory_order_acquire);
  }

  int64_t delivered_count() const override {
    return delivered_.load(std::memory_order_acquire);
  }

  int64_t pending_count() const override {
    return pending_.load(std::memory_order_acquire);
  }

  // First delivery error the merge thread hit asynchronously (validation
  // misses only mis-sequenced control flow, e.g. delivery after shutdown);
  // Ok when none.  Once set, subsequent batches are discarded.
  Status error() const override;

  // Cheap poisoned probe (no lock): true once an asynchronous error is
  // recorded.  The partitioned router prechecks this per delivery.
  bool poisoned() const { return poisoned_.load(std::memory_order_acquire); }

  int shard_count() const override { return 1; }
  AlgorithmCase algorithm_case() const override {
    return algorithm_->algorithm_case();
  }

  // Runs `fn` on the merge thread via CallOnMergeThread, over a span of
  // exactly one algorithm.
  void CallAtBarrier(
      std::function<void(std::span<MergeAlgorithm* const>)> fn) override;

  // /readyz probe: posts a no-op control op and waits up to `timeout` for
  // the merge thread to run it.  False means the thread is wedged or dead.
  bool Responsive(std::chrono::milliseconds timeout) override;

 private:
  // An ingest stamp covering the elements enqueued in slot positions
  // [begin_count, end_count) — cumulative counts, so the merge thread can
  // match stamps to drain batches without the stamp living inside
  // StreamElement.
  struct BatchStamp {
    uint64_t begin_count = 0;
    uint64_t end_count = 0;
    obs::IngestStamp stamp;
  };

  struct InputSlot {
    InputSlot(size_t capacity, size_t max_batch)
        : ring(capacity), stamp_ring(ring.capacity() + max_batch + 1) {}
    SpscRing<StreamElement> ring;
    // Latency side-channel beside the element ring: one entry per stamped
    // batch.  Bound: every entry covers >= 1 element and leaves the ring
    // only once all its elements count as drained, so the entries in
    // flight are at most the elements not yet counted — those in the ring,
    // plus one drain's worth (max_batch) popped but not yet counted — plus
    // the one batch whose stamp is pushed ahead of its elements.  Sized to
    // that bound it never fills, and the push is checked.
    SpscRing<BatchStamp> stamp_ring;
    // Cumulative elements ever enqueued (producer-thread-only) / drained
    // (merge-thread-only); their difference in stamp ranges is the matching
    // key, so neither needs to be atomic.
    uint64_t enqueued_count = 0;
    uint64_t drained_count = 0;
    std::atomic<bool> active{true};
    // Backpressure parking for the producer when the ring is full.  The
    // mutex guards no data (ring and flag are atomic); it only sequences
    // the park/notify handshake.
    std::atomic<bool> producer_waiting{false};
    Mutex wait_mutex;
    CondVar wait_cv;
  };

  struct ControlOp {
    enum Kind { kAddStream, kRemoveStream, kCall } kind = kAddStream;
    int stream = -1;
    std::function<void()> fn;
    std::promise<int> result;
  };

  const MergeAlgorithm& output_algorithm() const override {
    return *algorithm_;
  }

  // Producer side.
  Status Precheck(int stream, const StreamElement& element) const;
  // Moves `batch` into the stream's ring in order, blocking while it is
  // full.
  void EnqueueBlocking(int stream, std::span<StreamElement> batch);
  void PushStamp(int stream, size_t count, const obs::IngestStamp& stamp);
  void WakeMerge();

  // Merge-thread side.
  void MergeLoop();
  size_t DrainRing(int stream) LM_HOT_PATH;
  size_t ProcessControlOps();
  void RecordError(const Status& status);

  MergeAlgorithm* algorithm_;
  // Set only by the owning constructor; never read by the merge thread.
  std::unique_ptr<MergeAlgorithm> owned_algorithm_;
  ConcurrentMergerOptions options_;

  // Append-only and pre-reserved to kMaxStreams (core/merge_algorithm.h)
  // so producers may index it without locks while AddStream appends.
  std::vector<std::unique_ptr<InputSlot>> slots_;
  std::atomic<int> slot_count_{0};

  std::atomic<Timestamp> max_stable_;
  std::atomic<int64_t> delivered_{0};
  // Elements enqueued but not yet merged (incremented before the push so it
  // never transiently under-counts).
  std::atomic<int64_t> pending_{0};
  std::atomic<bool> poisoned_{false};
  std::atomic<bool> stop_{false};

  mutable Mutex control_mutex_;
  std::deque<ControlOp> control_ops_ LM_GUARDED_BY(control_mutex_);
  std::atomic<bool> has_control_ops_{false};
  Status error_ LM_GUARDED_BY(control_mutex_);

  // WaitIdle parking (notified by the merge thread when pending_ hits 0;
  // the mutex guards no data, pending_ is atomic).
  Mutex idle_mutex_;
  CondVar idle_cv_;

  // Merge-thread parking when idle.
  Mutex wake_mutex_;
  CondVar wake_cv_;
  std::atomic<bool> merge_sleeping_{false};

  std::vector<StreamElement> scratch_;  // merge-thread drain buffer

  // Cached instrument handles (obs/metrics.h); shared by name across
  // mergers, so values aggregate process-wide.
  obs::Counter* stalls_metric_;
  obs::Counter* batches_metric_;
  obs::Counter* busy_us_metric_;
  obs::Counter* idle_us_metric_;
  obs::Histogram* batch_size_metric_;
  obs::Histogram* ring_occupancy_metric_;
  // Latency-pipeline stages (unscoped names: shards aggregate process-wide).
  // Recorded only for drains that carry an rx stamp, so the aggregator hop,
  // fed rx-less stamps, adds no samples.
  obs::Histogram* rx_to_merge_metric_;
  obs::Histogram* merge_us_metric_;

  std::thread merge_thread_;
};

}  // namespace lmerge

#endif  // LMERGE_ENGINE_CONCURRENT_H_
