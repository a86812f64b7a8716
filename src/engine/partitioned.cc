#include "engine/partitioned.h"

#include <future>
#include <string>
#include <utility>

#include "obs/latency.h"
#include "operators/union_op.h"

namespace lmerge {

namespace {

// The aggregator's algorithm: UnionOp's rule over the shards' outputs, one
// input stream per shard.  Inserts and adjusts pass straight through (an
// event and all its revisions live on one shard); a shard's stables only
// advance its frontier, and stable(g) goes out when the minimum g across
// frontiers advances.  Only its emitted-stable count and max_stable()
// describe the output; the shards hold every other counter.
class ShardUnion : public MergeAlgorithm {
 public:
  // `frontiers` are the shards' stable points at construction (restored
  // state included), so a restored merge does not re-announce them.
  ShardUnion(std::vector<Timestamp> frontiers, AlgorithmCase shard_case,
             ElementSink* sink)
      : MergeAlgorithm(static_cast<int>(frontiers.size()), sink),
        frontier_(std::move(frontiers)),
        shard_case_(shard_case),
        out_(sink) {
    max_stable_ = frontier_.merged();
  }

  AlgorithmCase algorithm_case() const override { return shard_case_; }

  Status OnInsert(int /*shard*/, const StreamElement& element) override {
    out_->OnElement(element);
    return Status::Ok();
  }
  Status OnAdjust(int /*shard*/, const StreamElement& element) override {
    out_->OnElement(element);
    return Status::Ok();
  }
  void OnStable(int shard, Timestamp t) override {
    if (!frontier_.Advance(shard, t)) return;
    max_stable_ = frontier_.merged();
    EmitStable(max_stable_);
  }

  int64_t StateBytes() const override {
    return static_cast<int64_t>(sizeof(Timestamp)) * stream_count();
  }

 private:
  MinFrontier frontier_;
  AlgorithmCase shard_case_;
  ElementSink* out_;
};

}  // namespace

std::unique_ptr<Merger> MakeMerger(ShardAlgorithmFactory factory,
                                   ElementSink* sink,
                                   PartitionedMergerOptions options) {
  LM_CHECK(options.shards >= 1);
  if (options.shards >= 2) {
    return std::make_unique<PartitionedMerger>(std::move(factory), sink,
                                               std::move(options));
  }
  ConcurrentMergerOptions merger_options;
  merger_options.ring_capacity = options.ring_capacity;
  merger_options.max_batch = options.max_batch;
  merger_options.after_batch = std::move(options.after_batch);
  return std::make_unique<ConcurrentMerger>(factory(0, sink),
                                            std::move(merger_options));
}

PartitionedMerger::PartitionedMerger(ShardAlgorithmFactory factory,
                                     ElementSink* sink,
                                     PartitionedMergerOptions options)
    : num_shards_(options.shards), options_(std::move(options)) {
  LM_CHECK(num_shards_ >= 2);
  LM_CHECK(sink != nullptr);
  // Build every shard algorithm first: the aggregator starts from their
  // stable points.  Restore-style factories rebuild state without
  // emitting, so the output buffers stay empty until the shard merge
  // threads start below.
  std::vector<std::unique_ptr<MergeAlgorithm>> owned;
  std::vector<Timestamp> frontiers;
  for (int i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->output.parent = this;
    shard->output.shard = i;
    shard->output.elements.resize(options_.max_batch);
    std::unique_ptr<MergeAlgorithm> algorithm = factory(i, &shard->output);
    LM_CHECK(algorithm != nullptr);
    frontiers.push_back(algorithm->max_stable());
    algorithms_.push_back(algorithm.get());
    owned.push_back(std::move(algorithm));
    shards_.push_back(std::move(shard));
  }
  for (int i = 1; i < num_shards_; ++i) {
    LM_CHECK(algorithms_[static_cast<size_t>(i)]->stream_count() ==
             algorithms_[0]->stream_count());
    LM_CHECK(algorithms_[static_cast<size_t>(i)]->algorithm_case() ==
             algorithms_[0]->algorithm_case());
  }

  ConcurrentMergerOptions agg_options;
  agg_options.ring_capacity = options_.out_ring_capacity;
  agg_options.max_batch = options_.max_batch;
  agg_options.after_batch = std::move(options_.after_batch);
  agg_options.metrics_scope = "merge.agg";
  auto shard_union = std::make_unique<ShardUnion>(
      std::move(frontiers), algorithms_[0]->algorithm_case(), sink);
  union_ = shard_union.get();
  aggregator_ = std::make_unique<ConcurrentMerger>(std::move(shard_union),
                                                   std::move(agg_options));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  for (int i = 0; i < num_shards_; ++i) {
    Shard* shard = shards_[static_cast<size_t>(i)].get();
    const std::string scope = "merge.shard." + std::to_string(i);
    shard->elements_metric = registry.GetCounter(scope + ".elements");
    shard->routed_batch_metric =
        registry.GetHistogram(scope + ".routed_batch");
    ConcurrentMergerOptions shard_options;
    shard_options.ring_capacity = options_.ring_capacity;
    shard_options.max_batch = options_.max_batch;
    shard_options.metrics_scope = scope;
    shard_options.after_batch = [this, shard] {
      HandOffOutput(&shard->output);
    };
    shard->merger = std::make_unique<ConcurrentMerger>(
        std::move(owned[static_cast<size_t>(i)]), std::move(shard_options));
  }

  const int n = algorithms_[0]->stream_count();
  LM_CHECK(static_cast<size_t>(n) <= kMaxStreams);
  active_.reserve(kMaxStreams);
  for (int s = 0; s < n; ++s) {
    active_.push_back(std::make_unique<std::atomic<bool>>(
        algorithms_[0]->stream_active(s)));
  }
  stream_count_.store(n, std::memory_order_release);
}

Status PartitionedMerger::Precheck(int stream,
                                   const StreamElement& element) const {
  if (stream < 0 || stream >= stream_count_.load(std::memory_order_acquire) ||
      !active_[static_cast<size_t>(stream)]->load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("delivery on inactive stream " +
                                      std::to_string(stream));
  }
  if (AnyShardPoisoned()) return error();
  // Stateless, shared across shards — validating once on shard 0's
  // algorithm covers every shard (they are identically configured).
  return algorithms_[0]->ValidateElement(element);
}

bool PartitionedMerger::AnyShardPoisoned() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->merger->poisoned()) return true;
  }
  return false;
}

Status PartitionedMerger::TryDeliverBatch(int stream,
                                          std::span<StreamElement> batch,
                                          const obs::IngestStamp& stamp) {
  // Validation is stateless, so validating the whole batch up front and
  // then routing the valid prefix is equivalent to element-wise
  // validate-then-enqueue — the prefix before a failing element stays
  // delivered, exactly ConcurrentMerger's semantics.
  size_t valid = batch.size();
  Status failure = Status::Ok();
  for (size_t i = 0; i < batch.size(); ++i) {
    const Status status = Precheck(stream, batch[i]);
    if (!status.ok()) {
      valid = i;
      failure = status;
      break;
    }
  }
  RouteBatch(stream, batch.subspan(0, valid), stamp);
  return failure;
}

void PartitionedMerger::RouteBatch(int stream,
                                   std::span<StreamElement> batch,
                                   const obs::IngestStamp& stamp) {
  if (batch.empty()) return;
  // Stack-local split buffers: concurrent producers (one per stream) each
  // route independently; per-stream order is preserved inside every
  // shard's sub-batch because elements append in batch order.
  std::vector<std::vector<StreamElement>> per_shard(
      static_cast<size_t>(num_shards_));
  for (StreamElement& element : batch) {
    if (element.is_stable()) {
      // stable(Vc) constrains every key: broadcast to all shards.
      for (int i = 0; i + 1 < num_shards_; ++i) {
        per_shard[static_cast<size_t>(i)].push_back(element);
      }
      per_shard[static_cast<size_t>(num_shards_ - 1)].push_back(
          std::move(element));
    } else {
      const int shard = options_.route_override
                            ? options_.route_override(element, num_shards_)
                            : RouteShard(element, num_shards_);
      LM_CHECK(shard >= 0 && shard < num_shards_);
      per_shard[static_cast<size_t>(shard)].push_back(std::move(element));
    }
  }
  delivered_.fetch_add(static_cast<int64_t>(batch.size()),
                       std::memory_order_release);
  for (int i = 0; i < num_shards_; ++i) {
    std::vector<StreamElement>& sub = per_shard[static_cast<size_t>(i)];
    if (sub.empty()) continue;
    Shard& shard = *shards_[static_cast<size_t>(i)];
    shard.elements_metric->Add(static_cast<int64_t>(sub.size()));
    shard.routed_batch_metric->Record(static_cast<int64_t>(sub.size()));
    shard.merger->DeliverBatch(
        stream, std::span<StreamElement>(sub.data(), sub.size()), stamp);
  }
}

void PartitionedMerger::HandOffOutput(OutputBuffer* output) {
  if (output->size == 0) return;
  // The origin rides on to the fan-out; the rx stamp stays behind, so the
  // ingest-latency stages are recorded once, by the shard that merged the
  // batch (ConcurrentMerger::DrainRing).
  obs::IngestStamp stamp = obs::CurrentIngestStamp();
  stamp.rx_us = 0;
  aggregator_->DeliverBatch(
      output->shard,
      std::span<StreamElement>(output->elements.data(), output->size), stamp);
  output->size = 0;
}

int PartitionedMerger::AddStream() {
  MutexLock lock(control_mutex_);
  int id = -1;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const int shard_id = shard->merger->AddStream();
    if (id < 0) {
      id = shard_id;
    } else {
      LM_CHECK(shard_id == id);
    }
  }
  LM_CHECK(id == stream_count_.load(std::memory_order_acquire));
  LM_CHECK(active_.size() < kMaxStreams);
  active_.push_back(std::make_unique<std::atomic<bool>>(true));
  stream_count_.store(id + 1, std::memory_order_release);
  return id;
}

void PartitionedMerger::RemoveStream(int stream) {
  MutexLock lock(control_mutex_);
  if (stream < 0 || stream >= stream_count_.load(std::memory_order_acquire)) {
    return;
  }
  // Close the producer side first (idempotent), then drain + detach the
  // stream on every shard.
  if (!active_[static_cast<size_t>(stream)]->exchange(false)) return;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->merger->RemoveStream(stream);
  }
}

void PartitionedMerger::WaitIdle() {
  // A shard counts an element as merged only after its after_batch hook
  // has handed the resulting output to the aggregator, so once every shard
  // is idle the aggregator's books cover all of it.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->merger->WaitIdle();
  }
  aggregator_->WaitIdle();
}

int64_t PartitionedMerger::pending_count() const {
  int64_t pending = aggregator_->pending_count();
  for (const std::unique_ptr<Shard>& shard : shards_) {
    pending += shard->merger->pending_count();
  }
  return pending;
}

Status PartitionedMerger::error() const {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Status status = shard->merger->error();
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

void PartitionedMerger::CallAtBarrier(
    std::function<void(std::span<MergeAlgorithm* const>)> fn) {
  MutexLock lock(control_mutex_);
  barrier_release_.store(false, std::memory_order_release);
  barrier_arrived_.store(0, std::memory_order_release);
  // Park every shard's merge thread between two batches.  Posting must be
  // async: a blocking post to shard 0 would wait for its park fn to return,
  // which only happens after the release below — deadlock.
  std::vector<std::future<int>> parked;
  parked.reserve(static_cast<size_t>(num_shards_));
  for (const std::unique_ptr<Shard>& shard : shards_) {
    parked.push_back(shard->merger->CallOnMergeThreadAsync([this] {
      barrier_arrived_.fetch_add(1, std::memory_order_acq_rel);
      MutexLock barrier_lock(barrier_mutex_);
      barrier_cv_.NotifyAll();
      while (!barrier_release_.load(std::memory_order_acquire)) {
        barrier_cv_.Wait(barrier_lock);
      }
    }));
  }
  {
    MutexLock barrier_lock(barrier_mutex_);
    while (barrier_arrived_.load(std::memory_order_acquire) < num_shards_) {
      barrier_cv_.Wait(barrier_lock);
    }
  }
  // All shards stand between batches, each having handed its last batch's
  // output to the aggregator (a shard blocked on a full aggregator ring
  // finished that hand-off before parking — the aggregator kept draining).
  // Nothing new can reach the aggregator, so once it is idle the shard
  // union's state is frozen and the sink has everything.
  aggregator_->WaitIdle();
  fn(std::span<MergeAlgorithm* const>(algorithms_.data(),
                                      algorithms_.size()));
  {
    MutexLock barrier_lock(barrier_mutex_);
    barrier_release_.store(true, std::memory_order_release);
    barrier_cv_.NotifyAll();
  }
  for (std::future<int>& f : parked) f.get();
}

bool PartitionedMerger::Responsive(std::chrono::milliseconds timeout) {
  // One concurrent ping per merge thread against a shared deadline, so the
  // probe costs max(thread latencies), not their sum.
  std::vector<std::future<int>> pings;
  pings.reserve(shards_.size() + 1);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    pings.push_back(shard->merger->CallOnMergeThreadAsync([] {}));
  }
  pings.push_back(aggregator_->CallOnMergeThreadAsync([] {}));
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (std::future<int>& ping : pings) {
    if (ping.wait_until(deadline) != std::future_status::ready) return false;
  }
  return true;
}

}  // namespace lmerge
