// MergeAlgorithm: the common interface of the LMerge algorithm family
// (Sec. IV).  Concrete implementations: LMergeR0, LMergeR1, LMergeR2,
// LMergeR3 (in2t), LMergeR4 (in3t), LMergeR3Minus (baseline), CountingMerge
// (the strawman of Sec. I).
//
// An algorithm is fed elements tagged with a dense input-stream id and emits
// output elements through an ElementSink.  Streams can be added and removed
// at runtime (Sec. V-B); the LMergeOperator wrapper implements the
// join/leave protocol on top of these hooks.

#ifndef LMERGE_CORE_MERGE_ALGORITHM_H_
#define LMERGE_CORE_MERGE_ALGORITHM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/timestamp.h"
#include "properties/properties.h"
#include "stream/element.h"
#include "stream/sink.h"

namespace lmerge {

class Checkpointable;
class Decoder;

namespace obs {
class MetricsRegistry;
}  // namespace obs

// The most input streams one merge may have.  The concurrent mergers
// pre-reserve their producer-visible slot vectors to it, and a checkpoint
// naming more is rejected at restore (ReadCheckpointStreamCount).
inline constexpr size_t kMaxStreams = 1024;

// Reads a checkpoint body's stream count (a varint), failing with a Status
// on one above kMaxStreams before anything is sized by it.
Status ReadCheckpointStreamCount(Decoder* decoder, uint32_t* count);

// Reads an in2t/in3t bottom-tier entry's stream id, written as a varint of
// id + 1 so the output entry (kOutputStream, -1) is 0.  Fails on an id at
// or past `stream_count`.
Status ReadCheckpointEntryStream(Decoder* decoder, uint32_t stream_count,
                                 int32_t* stream);

// Counts of elements emitted by the algorithm; the paper's "output size"
// metric and the quantity bounded by Theorem 1.
struct MergeOutputStats {
  int64_t inserts_out = 0;
  int64_t adjusts_out = 0;
  int64_t stables_out = 0;
  int64_t inserts_in = 0;
  int64_t adjusts_in = 0;
  int64_t stables_in = 0;
  // Elements dropped because they arrived behind the output stable point
  // (lagging streams); cheap drops are why lag *increases* throughput in
  // Fig. 5.
  int64_t dropped = 0;
};

// Per-input-stream view of the same counters, attributed to the stream
// whose element was being processed.  `contributed` counts output inserts
// caused by this input's elements (first-delivery wins), so the sum over
// all inputs equals stats().inserts_out — the merged output TDB size.
struct PerInputStats {
  int64_t inserts_in = 0;
  int64_t adjusts_in = 0;
  int64_t stables_in = 0;
  int64_t dropped = 0;
  int64_t contributed = 0;          // output inserts this input triggered
  int64_t adjusts_contributed = 0;  // output adjusts this input triggered
  // Highest stable point this input has announced (kMinTimestamp before the
  // first stable).  Output lag for the input = max over inputs of this,
  // minus this (DBLog-style per-source progress watermark).
  Timestamp stable_point = kMinTimestamp;

  int64_t elements_in() const { return inserts_in + adjusts_in + stables_in; }
};

class MergeAlgorithm {
 public:
  MergeAlgorithm(int num_streams, ElementSink* sink)
      : sink_(sink),
        active_(static_cast<size_t>(num_streams), true),
        per_input_(static_cast<size_t>(num_streams)) {
    LM_CHECK(num_streams >= 1);
    LM_CHECK(sink != nullptr);
  }
  virtual ~MergeAlgorithm() = default;

  MergeAlgorithm(const MergeAlgorithm&) = delete;
  MergeAlgorithm& operator=(const MergeAlgorithm&) = delete;

  virtual AlgorithmCase algorithm_case() const = 0;

  // Dispatches on element kind.  Insert/adjust may fail (e.g., adjust on an
  // algorithm that does not support revisions); stable never fails.
  Status OnElement(int stream, const StreamElement& element)
      LM_MERGE_THREAD_ONLY {
    LM_DCHECK(stream >= 0 && stream < stream_count());
    LM_DCHECK(active_[static_cast<size_t>(stream)]);
    CountIn(stream, element);
    switch (element.kind()) {
      case ElementKind::kInsert:
        return OnInsert(stream, element);
      case ElementKind::kAdjust:
        return OnAdjust(stream, element);
      case ElementKind::kStable:
        OnStable(stream, element.stable_time());
        return Status::Ok();
    }
    return Status::Internal("unknown element kind");
  }

  // Delivers a batch of elements from one stream.  Equivalent to calling
  // OnElement per element in order, stopping at the first failure (elements
  // before the failing one stay applied).  Overrides amortize index probes
  // and scan work across the batch but must produce byte-identical output
  // and stats.
  virtual Status ProcessBatch(int stream, std::span<const StreamElement> batch)
      LM_MERGE_THREAD_ONLY LM_HOT_PATH {
    for (const StreamElement& element : batch) {
      const Status status = OnElement(stream, element);
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  // Pre-validation for untrusted entry points: returns exactly the error
  // OnElement would return for this element, or Ok.  Must be STATELESS —
  // it depends only on the element, never on mutable merge state — so
  // concurrent producers may call it without synchronization.  An element
  // that passes never fails asynchronously inside the merge thread.
  virtual Status ValidateElement(const StreamElement& element) const {
    (void)element;
    return Status::Ok();
  }

  virtual Status OnInsert(int stream, const StreamElement& element)
      LM_MERGE_THREAD_ONLY = 0;
  virtual Status OnAdjust(int stream, const StreamElement& element)
      LM_MERGE_THREAD_ONLY = 0;
  virtual void OnStable(int stream, Timestamp t) LM_MERGE_THREAD_ONLY = 0;

  // Registers a new input stream; returns its id.  The stream must only
  // deliver elements consistent with the reference stream from its join
  // point onward (Sec. V-B).
  virtual int AddStream() LM_MERGE_THREAD_ONLY {
    active_.push_back(true);
    per_input_.emplace_back();
    return stream_count() - 1;
  }

  // Marks a stream as detached.  Its state is reclaimed lazily as events
  // freeze; the algorithm never consults a detached stream again.
  virtual void RemoveStream(int stream) LM_MERGE_THREAD_ONLY {
    LM_DCHECK(stream >= 0 && stream < stream_count());
    active_[static_cast<size_t>(stream)] = false;
  }

  // Seeds stream `stream`'s per-input view from the output's own view.  The
  // merged output is itself a valid physical presentation (Sec. II-4/5), so
  // a replica that restores a checkpoint and then consumes the original's
  // merged output as an input must treat that input as the *continuation*
  // of the snapshot's output stream: wherever the snapshot recorded an
  // output-side view, the feed stream implicitly stands at the same view —
  // not at the empty one, which would make the first stable() retract
  // still-alive pre-cut events.  Default: nothing to seed (algorithms whose
  // state carries no per-stream views).
  virtual Status AdoptOutputView(int stream) LM_MERGE_THREAD_ONLY {
    LM_DCHECK(stream >= 0 && stream < stream_count());
    (void)stream;
    return Status::Ok();
  }

  int stream_count() const { return static_cast<int>(active_.size()); }
  bool stream_active(int stream) const {
    return active_[static_cast<size_t>(stream)];
  }
  int active_stream_count() const {
    int n = 0;
    for (const bool a : active_) n += a ? 1 : 0;
    return n;
  }

  // Bytes of state the algorithm currently holds (indexes + payloads); the
  // memory metric of Sec. VI and Table IV.  With interned payloads a rep
  // referenced from many index nodes is charged once.
  virtual int64_t StateBytes() const = 0;

  // The same metric under the pre-interning accounting model, where every
  // index node owns a private payload copy.  Algorithms whose indexes share
  // interned reps override this; for the rest (including LMR3-, which
  // really does hold private copies) both models coincide.
  virtual int64_t StateBytesUnshared() const { return StateBytes(); }

  // Non-null when the algorithm supports state snapshots (see
  // common/checkpoint.h); used by LMergeOperator for jumpstart/cutover.
  virtual Checkpointable* checkpointable() { return nullptr; }
  const Checkpointable* checkpointable() const {
    return const_cast<MergeAlgorithm*>(this)->checkpointable();
  }

  Timestamp max_stable() const { return max_stable_; }
  const MergeOutputStats& stats() const { return stats_; }
  const std::vector<PerInputStats>& per_input_stats() const {
    return per_input_;
  }
  // Index-structure probes issued (R3/R4 SameVsPayload and actionable-scan
  // lookups); the work term behind the Sec. VI runtime curves.
  int64_t index_probes() const { return index_probes_; }

 protected:
  void EmitInsert(const Row& payload, Timestamp vs, Timestamp ve) {
    ++stats_.inserts_out;
    if (current_stream_ >= 0) {
      ++per_input_[static_cast<size_t>(current_stream_)].contributed;
    }
    sink_->OnElement(StreamElement::Insert(payload, vs, ve));
  }
  void EmitAdjust(const Row& payload, Timestamp vs, Timestamp v_old,
                  Timestamp ve) {
    ++stats_.adjusts_out;
    if (current_stream_ >= 0) {
      ++per_input_[static_cast<size_t>(current_stream_)].adjusts_contributed;
    }
    sink_->OnElement(StreamElement::Adjust(payload, vs, v_old, ve));
  }
  void EmitStable(Timestamp t) {
    ++stats_.stables_out;
    sink_->OnElement(StreamElement::Stable(t));
  }
  void CountDrop() {
    ++stats_.dropped;
    if (current_stream_ >= 0) {
      ++per_input_[static_cast<size_t>(current_stream_)].dropped;
    }
  }
  void CountIndexProbe() { ++index_probes_; }

  // Input-side stats bump for ProcessBatch overrides that bypass OnElement;
  // keeps stats byte-identical with element-wise delivery.  Also anchors
  // attribution: emissions and drops between this call and the next are
  // credited to `stream` (see EmitInsert/CountDrop).
  void CountIn(int stream, const StreamElement& element) {
    current_stream_ = stream;
    PerInputStats& in = per_input_[static_cast<size_t>(stream)];
    switch (element.kind()) {
      case ElementKind::kInsert:
        ++stats_.inserts_in;
        ++in.inserts_in;
        break;
      case ElementKind::kAdjust:
        ++stats_.adjusts_in;
        ++in.adjusts_in;
        break;
      case ElementKind::kStable:
        ++stats_.stables_in;
        ++in.stables_in;
        if (element.stable_time() > in.stable_point) {
          in.stable_point = element.stable_time();
        }
        break;
    }
  }

  Timestamp max_stable_ = kMinTimestamp;

 private:
  ElementSink* sink_;
  std::vector<bool> active_;
  MergeOutputStats stats_;
  std::vector<PerInputStats> per_input_;
  int64_t index_probes_ = 0;
  // The input whose element is being processed; -1 outside delivery (e.g.
  // emissions from RestoreState are unattributed).
  int current_stream_ = -1;
};

// ---------------------------------------------------------------------------
// Aggregated views over a merge's shard algorithm instances (one for the
// single-threaded merger, N for engine/partitioned.h).  Each input element
// is routed to exactly one shard except stable() elements, which are
// broadcast to every shard — so routed counters (inserts/adjusts in, drops,
// contributions, emissions) SUM across shards while broadcast counters
// (stables_in, stable_point) take the MIN: the value every shard has
// applied.  The min is the replay-safe reading — a cut certificate must not
// claim a stable point some shard has not consumed yet — and at quiesce all
// shards have applied every stable, so the min equals the single-threaded
// value.  The output's stable count and stable point belong to the
// algorithm that emits the output: the lone shard, or the partitioned
// merger's shard union (shard stables never reach its output).  Every shard
// must have the same stream registry (the router fans AddStream and
// RemoveStream to all of them).  Read them at a barrier
// (Merger::CallAtBarrier): they read the plain counters the hot path
// mutates.
// ---------------------------------------------------------------------------

// Output totals across shards, with `output`'s emitted-stable count.
MergeOutputStats AggregateShardStats(std::span<MergeAlgorithm* const> shards,
                                     const MergeAlgorithm& output);

// Per-input table across shards, same sum/min rules per row.
std::vector<PerInputStats> AggregateShardPerInputStats(
    std::span<MergeAlgorithm* const> shards);

// Publishes the merge's "merge."-prefixed instruments (docs/OBSERVABILITY.md
// has the catalog): the aggregated totals and per-input rows, index probes
// and state bytes summed over the shards, `output`'s stable point, and the
// shard count — the same names for one shard and for N.
void ExportMergeMetrics(std::span<MergeAlgorithm* const> shards,
                        const MergeAlgorithm& output,
                        obs::MetricsRegistry* registry);

}  // namespace lmerge

#endif  // LMERGE_CORE_MERGE_ALGORITHM_H_
