#include "engine/partitioned.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <string>
#include <utility>

#include "obs/latency.h"
#include "obs/trace.h"

namespace lmerge {

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
    : num_shards_(options.shards),
      options_(std::move(options)),
      sink_(sink) {
  LM_CHECK(num_shards_ >= 2);
  LM_CHECK(sink != nullptr);
  LM_CHECK(options_.out_ring_capacity >= 2);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  agg_batches_metric_ = registry.GetCounter("merge.agg.batches");
  agg_stalls_metric_ = registry.GetCounter("merge.agg.backpressure_stalls");
  shards_.reserve(static_cast<size_t>(num_shards_));
  algorithms_.reserve(static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    auto shard = std::make_unique<Shard>(options_.out_ring_capacity,
                                          options_.max_batch);
    shard->sink.parent_ = this;
    shard->sink.shard_ = i;
    // Restore-style factories rebuild state without emitting, so the sink
    // is quiescent until the shard's merge thread starts below.
    std::unique_ptr<MergeAlgorithm> algorithm = factory(i, &shard->sink);
    LM_CHECK(algorithm != nullptr);
    shard->frontier = algorithm->max_stable();
    algorithms_.push_back(algorithm.get());
    const std::string scope = "merge.shard." + std::to_string(i);
    shard->elements_metric = registry.GetCounter(scope + ".elements");
    shard->routed_batch_metric = registry.GetHistogram(scope + ".routed_batch");
    ConcurrentMergerOptions shard_options;
    shard_options.ring_capacity = options_.ring_capacity;
    shard_options.max_batch = options_.max_batch;
    shard_options.metrics_scope = scope;
    shard->merger = std::make_unique<ConcurrentMerger>(
        std::move(algorithm), std::move(shard_options));
    shards_.push_back(std::move(shard));
  }
  for (int i = 1; i < num_shards_; ++i) {
    LM_CHECK(algorithms_[static_cast<size_t>(i)]->stream_count() ==
             algorithms_[0]->stream_count());
    LM_CHECK(algorithms_[static_cast<size_t>(i)]->algorithm_case() ==
             algorithms_[0]->algorithm_case());
  }
  const int n = algorithms_[0]->stream_count();
  LM_CHECK(static_cast<size_t>(n) <= kMaxStreams);
  active_.reserve(kMaxStreams);
  for (int s = 0; s < n; ++s) {
    active_.push_back(std::make_unique<std::atomic<bool>>(
        algorithms_[0]->stream_active(s)));
  }
  stream_count_.store(n, std::memory_order_release);
  Timestamp global = shards_[0]->frontier;
  for (int i = 1; i < num_shards_; ++i) {
    global = std::min(global, shards_[static_cast<size_t>(i)]->frontier);
  }
  output_stable_.store(global, std::memory_order_release);
  agg_thread_ = std::thread([this] { AggregatorLoop(); });
}

PartitionedMerger::~PartitionedMerger() {
  // Stop the shard mergers first: each drains its remaining input into the
  // still-running aggregator (a full output ring would otherwise deadlock
  // the shard's final drain).  Only then stop the aggregator, which exits
  // after forwarding everything the shards emitted.
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->merger.reset();
  }
  agg_stop_.store(true, std::memory_order_release);
  WakeAggregator();
  if (agg_thread_.joinable()) agg_thread_.join();
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

void PartitionedMerger::Deliver(int stream, const StreamElement& element) {
  LM_CHECK(stream >= 0 &&
           stream < stream_count_.load(std::memory_order_acquire));
  StreamElement copy = element;
  RouteBatch(stream, std::span<StreamElement>(&copy, 1));
}

Status PartitionedMerger::TryDeliver(int stream,
                                     const StreamElement& element) {
  const Status status = Precheck(stream, element);
  if (!status.ok()) return status;
  StreamElement copy = element;
  RouteBatch(stream, std::span<StreamElement>(&copy, 1));
  return Status::Ok();
}

Status PartitionedMerger::TryDeliverBatch(int stream,
                                          std::span<StreamElement> batch) {
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
  RouteBatch(stream, batch.subspan(0, valid));
  return failure;
}

Status PartitionedMerger::TryDeliverBatch(int stream,
                                          std::span<StreamElement> batch,
                                          const obs::IngestStamp& stamp) {
  // Same valid-prefix routing as the unstamped overload, with the stamp
  // attached to every shard sub-batch.
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
  // Everything enqueued before this call sits in some shard's input rings;
  // per-shard WaitIdle covers all of it, and the out_pending_ wait covers
  // the aggregator's forwarding of the resulting output.  The aggregator
  // emits stable(g) BEFORE decrementing pending for the stable element
  // that advanced g, so pending == 0 implies all stables are out too.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->merger->WaitIdle();
  }
  MutexLock lock(out_idle_mutex_);
  while (out_pending_.load(std::memory_order_acquire) != 0) {
    out_idle_cv_.Wait(lock);
  }
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
  // All shards stand between batches; nothing new can enter the output
  // rings, so once the aggregator's books hit zero its state (frontiers,
  // output stable, stables_out) is frozen and fully applied.  A shard that
  // was blocked on a full output ring mid-batch finished that batch before
  // parking — the aggregator kept draining throughout.
  {
    MutexLock idle_lock(out_idle_mutex_);
    while (out_pending_.load(std::memory_order_acquire) != 0) {
      out_idle_cv_.Wait(idle_lock);
    }
  }
  fn(std::span<MergeAlgorithm* const>(algorithms_.data(),
                                      algorithms_.size()));
  {
    MutexLock barrier_lock(barrier_mutex_);
    barrier_release_.store(true, std::memory_order_release);
    barrier_cv_.NotifyAll();
  }
  for (std::future<int>& f : parked) f.get();
}

Status PartitionedMerger::AdoptOutputView(int stream) {
  Status status = Status::Ok();
  CallAtBarrier([stream, &status](std::span<MergeAlgorithm* const> shards) {
    for (MergeAlgorithm* algorithm : shards) {
      const Status shard_status = algorithm->AdoptOutputView(stream);
      if (status.ok() && !shard_status.ok()) status = shard_status;
    }
  });
  return status;
}

MergeOutputStats PartitionedMerger::StatsSnapshot() {
  MergeOutputStats stats;
  CallAtBarrier([this, &stats](std::span<MergeAlgorithm* const> shards) {
    stats = AggregateShardStats(
        shards, stables_out_.load(std::memory_order_relaxed));
  });
  return stats;
}

MergerInputSnapshot PartitionedMerger::InputSnapshot() {
  MergerInputSnapshot snapshot;
  CallAtBarrier([this, &snapshot](std::span<MergeAlgorithm* const> shards) {
    snapshot.per_input = AggregateShardPerInputStats(shards);
    snapshot.active.resize(snapshot.per_input.size());
    for (size_t s = 0; s < snapshot.per_input.size(); ++s) {
      snapshot.active[s] = shards[0]->stream_active(static_cast<int>(s));
    }
    snapshot.totals = AggregateShardStats(
        shards, stables_out_.load(std::memory_order_relaxed));
  });
  return snapshot;
}

obs::MetricsSnapshot PartitionedMerger::MetricsSnapshot() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  CallAtBarrier([this, &registry](std::span<MergeAlgorithm* const> shards) {
    ExportAggregatedMergeMetrics(shards,
                                 stables_out_.load(std::memory_order_relaxed),
                                 output_stable_.load(std::memory_order_relaxed),
                                 &registry);
  });
  int64_t pending = out_pending_.load(std::memory_order_acquire);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    pending += shard->merger->pending_count();
  }
  registry.GetExportedCounter("engine.delivered")->Set(delivered_count());
  registry.GetGauge("engine.pending")->Set(pending);
  registry.GetGauge("engine.streams")
      ->Set(stream_count_.load(std::memory_order_acquire));
  return registry.Snapshot();
}

bool PartitionedMerger::Responsive(std::chrono::milliseconds timeout) {
  // One concurrent ping per shard against a shared deadline, so the probe
  // costs max(shard latencies), not their sum.
  std::vector<std::future<int>> pings;
  pings.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    pings.push_back(shard->merger->CallOnMergeThreadAsync([] {}));
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (std::future<int>& ping : pings) {
    if (ping.wait_until(deadline) != std::future_status::ready) return false;
  }
  return true;
}

void PartitionedMerger::EnqueueOutput(int shard, const StreamElement& element) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  // Stamp relay, shard half: the shard's merge thread republishes its
  // input batch's stamp thread-locally (engine/concurrent.cc); record it
  // into the side ring whenever it changes, keyed by the cumulative output
  // position, so the aggregator can re-derive "which stamp was in force"
  // for each drained element.  The push cannot fail (Shard sizes the side
  // ring past its bound).
  const obs::IngestStamp& current = obs::CurrentIngestStamp();
  if (!(current == s.out_last_stamp)) {
    OutStamp entry;
    entry.begin_count = s.out_enqueued;
    entry.stamp = current;
    LM_CHECK(s.out_stamp_ring.TryPush(entry));
    s.out_last_stamp = current;
  }
  s.out_enqueued += 1;
  // Commit to the books before the push so out_pending_ never transiently
  // reads 0 while output is in flight (same protocol as
  // ConcurrentMerger::EnqueueBlocking).
  out_pending_.fetch_add(1, std::memory_order_relaxed);
  StreamElement copy = element;
  int spins = 0;
  while (!s.out_ring.TryPush(copy)) {
    if (++spins < 64) continue;
    if (spins == 64) agg_stalls_metric_->Increment();
    WakeAggregator();
    MutexLock lock(s.wait_mutex);
    s.producer_waiting.store(true, std::memory_order_release);
    (void)s.wait_cv.WaitFor(lock, std::chrono::milliseconds(1));
    s.producer_waiting.store(false, std::memory_order_release);
  }
  WakeAggregator();
}

void PartitionedMerger::WakeAggregator() {
  if (agg_sleeping_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(agg_wake_mutex_);
    }
    agg_wake_cv_.NotifyOne();
  }
}

void PartitionedMerger::AggregatorLoop() {
  std::vector<StreamElement> scratch;
  scratch.reserve(options_.max_batch);
  int idle_rounds = 0;
  while (true) {
    size_t work = 0;
    for (int i = 0; i < num_shards_; ++i) {
      work += DrainShardOutput(i, &scratch);
    }
    if (work > 0) {
      idle_rounds = 0;
      continue;
    }
    if (agg_stop_.load(std::memory_order_acquire) &&
        out_pending_.load(std::memory_order_acquire) == 0) {
      break;
    }
    // Same idle backoff as ConcurrentMerger::MergeLoop; the 1ms timeout is
    // the lost-wakeup backstop for WakeAggregator's unlocked check.
    ++idle_rounds;
    if (idle_rounds < 128) continue;
    if (idle_rounds < 160) {
      std::this_thread::yield();
      continue;
    }
    MutexLock lock(agg_wake_mutex_);
    agg_sleeping_.store(true, std::memory_order_release);
    (void)agg_wake_cv_.WaitFor(lock, std::chrono::milliseconds(1));
    agg_sleeping_.store(false, std::memory_order_release);
  }
}

size_t PartitionedMerger::DrainShardOutput(int shard,
                                           std::vector<StreamElement>* scratch) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  scratch->clear();
  const size_t n = s.out_ring.Pop(scratch, options_.max_batch);
  if (n == 0) return 0;
  agg_batches_metric_->Increment();
  // Stamp relay, aggregator half: elements drained here carry the stamp in
  // force at their position.  Fold the carried-over stamp with every relay
  // entry that began inside this chunk (the chunk is charged its oldest
  // element) and republish thread-locally for the downstream sink; the last
  // entry stays in force for the next chunk.
  s.out_drained += n;
  obs::IngestStamp chunk_stamp = s.agg_stamp;
  while (OutStamp* entry = s.out_stamp_ring.Peek()) {
    if (entry->begin_count >= s.out_drained) break;
    s.agg_stamp = entry->stamp;
    chunk_stamp.FoldOldest(entry->stamp);
    s.out_stamp_ring.PopFront();
  }
  obs::SetCurrentIngestStamp(chunk_stamp);
  {
    LMERGE_TRACE_SPAN("agg_batch", "engine");
    for (size_t i = 0; i < n; ++i) ForwardElement(shard, (*scratch)[i]);
  }
  if (options_.after_batch) options_.after_batch();
  // Decrement only after after_batch so WaitIdle/barrier waiters observe a
  // flushed sink, not just delivered-to-a-buffer elements.
  if (out_pending_.fetch_sub(static_cast<int64_t>(n),
                             std::memory_order_acq_rel) ==
      static_cast<int64_t>(n)) {
    MutexLock lock(out_idle_mutex_);
    out_idle_cv_.NotifyAll();
  }
  if (s.producer_waiting.load(std::memory_order_acquire)) {
    {
      MutexLock lock(s.wait_mutex);
    }
    s.wait_cv.NotifyAll();
  }
  return n;
}

void PartitionedMerger::ForwardElement(int shard, StreamElement& element) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  if (element.is_stable()) {
    // A shard's stable only promises quiescence of its own keys: fold it
    // into the shard frontier and emit the global minimum when it advances.
    if (element.stable_time() > s.frontier) {
      s.frontier = element.stable_time();
      Timestamp global = shards_[0]->frontier;
      for (int i = 1; i < num_shards_; ++i) {
        global = std::min(global, shards_[static_cast<size_t>(i)]->frontier);
      }
      if (global > output_stable_.load(std::memory_order_relaxed)) {
        output_stable_.store(global, std::memory_order_release);
        stables_out_.fetch_add(1, std::memory_order_relaxed);
        sink_->OnElement(StreamElement::Stable(global));
      }
    }
  } else {
    sink_->OnElement(element);
  }
  // out_pending_ is decremented by the caller (DrainShardOutput) after the
  // whole chunk and its after_batch flush, so idle waiters see flushed data.
}

}  // namespace lmerge
