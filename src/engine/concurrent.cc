#include "engine/concurrent.h"

#include <chrono>
#include <string>
#include <utility>

#include "obs/latency.h"
#include "obs/trace.h"

namespace lmerge {

ConcurrentMerger::ConcurrentMerger(MergeAlgorithm* algorithm,
                                   ConcurrentMergerOptions options)
    : algorithm_(algorithm),
      options_(std::move(options)),
      max_stable_(algorithm == nullptr ? kMinTimestamp
                                       : algorithm->max_stable()) {
  LM_CHECK(algorithm != nullptr);
  LM_CHECK(options_.ring_capacity >= 2);
  LM_CHECK(options_.max_batch >= 1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string& scope = options_.metrics_scope;
  stalls_metric_ = registry.GetCounter(scope + ".backpressure_stalls");
  batches_metric_ = registry.GetCounter(scope + ".batches");
  busy_us_metric_ = registry.GetCounter(scope + ".busy_us");
  idle_us_metric_ = registry.GetCounter(scope + ".idle_us");
  batch_size_metric_ = registry.GetHistogram(scope + ".batch_size");
  ring_occupancy_metric_ = registry.GetHistogram(scope + ".ring_occupancy");
  rx_to_merge_metric_ = registry.GetHistogram("latency.rx_to_merge_us");
  merge_us_metric_ = registry.GetHistogram("latency.merge_us");
  slots_.reserve(kMaxStreams);
  const int n = algorithm_->stream_count();
  LM_CHECK(static_cast<size_t>(n) <= kMaxStreams);
  for (int s = 0; s < n; ++s) {
    slots_.push_back(std::make_unique<InputSlot>(options_.ring_capacity,
                                                    options_.max_batch));
  }
  slot_count_.store(n, std::memory_order_release);
  scratch_.reserve(options_.max_batch);
  merge_thread_ = std::thread([this] { MergeLoop(); });
}

ConcurrentMerger::ConcurrentMerger(std::unique_ptr<MergeAlgorithm> algorithm,
                                   ConcurrentMergerOptions options)
    : ConcurrentMerger(algorithm.get(), std::move(options)) {
  owned_algorithm_ = std::move(algorithm);
}

ConcurrentMerger::~ConcurrentMerger() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock lock(wake_mutex_);
  }
  wake_cv_.NotifyAll();
  if (merge_thread_.joinable()) merge_thread_.join();
}

Status ConcurrentMerger::Precheck(int stream,
                                  const StreamElement& element) const {
  if (stream < 0 || stream >= slot_count_.load(std::memory_order_acquire) ||
      !slots_[static_cast<size_t>(stream)]->active.load(
          std::memory_order_acquire)) {
    return Status::FailedPrecondition("delivery on inactive stream " +
                                      std::to_string(stream));
  }
  if (poisoned_.load(std::memory_order_acquire)) return error();
  // Stateless element validation (the exact error OnElement would return),
  // so an accepted element never fails later on the merge thread.
  return algorithm_->ValidateElement(element);
}

void ConcurrentMerger::EnqueueBlocking(int stream,
                                       std::span<StreamElement> batch) {
  InputSlot& slot = *slots_[static_cast<size_t>(stream)];
  const int64_t n = static_cast<int64_t>(batch.size());
  // Commit the batch to the books before any of it becomes visible, so
  // pending_ never transiently reads 0 while work is in flight.
  pending_.fetch_add(n, std::memory_order_relaxed);
  for (StreamElement& element : batch) {
    int spins = 0;
    while (!slot.ring.TryPush(element)) {
      if (++spins < 64) continue;
      if (spins == 64) stalls_metric_->Increment();
      WakeMerge();
      MutexLock lock(slot.wait_mutex);
      slot.producer_waiting.store(true, std::memory_order_release);
      // Timed wait: a notify can race the flag, so the timeout is the
      // lost-wakeup backstop; backpressure latency stays bounded at ~1ms.
      (void)slot.wait_cv.WaitFor(lock, std::chrono::milliseconds(1));
      slot.producer_waiting.store(false, std::memory_order_release);
    }
  }
  slot.enqueued_count += batch.size();
  delivered_.fetch_add(n, std::memory_order_release);
  WakeMerge();
}

void ConcurrentMerger::PushStamp(int stream, size_t count,
                                 const obs::IngestStamp& stamp) {
  if (count == 0 || stamp.empty()) return;
  InputSlot& slot = *slots_[static_cast<size_t>(stream)];
  // Called before the `count` elements are enqueued: once the merge thread
  // can drain any of them, their stamp is already in the ring.
  BatchStamp entry;
  entry.begin_count = slot.enqueued_count;
  entry.end_count = slot.enqueued_count + count;
  entry.stamp = stamp;
  // Cannot fail: the ring is sized past the entries-in-flight bound
  // (InputSlot).
  LM_CHECK(slot.stamp_ring.TryPush(entry));
}

void ConcurrentMerger::WakeMerge() {
  if (merge_sleeping_.load(std::memory_order_acquire)) {
    {
      MutexLock lock(wake_mutex_);
    }
    wake_cv_.NotifyOne();
  }
}

Status ConcurrentMerger::TryDeliverBatch(int stream,
                                         std::span<StreamElement> batch,
                                         const obs::IngestStamp& stamp) {
  // Validate the whole batch before any of it becomes visible (validation
  // is stateless), so the stamp can be published ahead of exactly the
  // elements that will be enqueued: the valid prefix.
  size_t valid = batch.size();
  Status failure = Status::Ok();
  for (size_t i = 0; i < batch.size(); ++i) {
    Status status = Precheck(stream, batch[i]);
    if (!status.ok()) {
      valid = i;
      failure = std::move(status);
      break;
    }
  }
  if (valid > 0) DeliverBatch(stream, batch.first(valid), stamp);
  return failure;
}

void ConcurrentMerger::DeliverBatch(int stream,
                                    std::span<StreamElement> batch,
                                    const obs::IngestStamp& stamp) {
  LM_CHECK(stream >= 0 &&
           stream < slot_count_.load(std::memory_order_acquire));
  PushStamp(stream, batch.size(), stamp);
  EnqueueBlocking(stream, batch);
}

int ConcurrentMerger::AddStream() {
  ControlOp op;
  op.kind = ControlOp::kAddStream;
  std::future<int> result = op.result.get_future();
  {
    MutexLock lock(control_mutex_);
    control_ops_.push_back(std::move(op));
    has_control_ops_.store(true, std::memory_order_release);
  }
  WakeMerge();
  return result.get();
}

void ConcurrentMerger::RemoveStream(int stream) {
  if (stream < 0 || stream >= slot_count_.load(std::memory_order_acquire)) {
    return;
  }
  // Close the producer side first (new TryDeliver calls fail immediately);
  // idempotent, so a second RemoveStream is a no-op.
  if (!slots_[static_cast<size_t>(stream)]->active.exchange(false)) return;
  ControlOp op;
  op.kind = ControlOp::kRemoveStream;
  op.stream = stream;
  std::future<int> result = op.result.get_future();
  {
    MutexLock lock(control_mutex_);
    control_ops_.push_back(std::move(op));
    has_control_ops_.store(true, std::memory_order_release);
  }
  WakeMerge();
  result.get();
}

void ConcurrentMerger::CallOnMergeThread(std::function<void()> fn) {
  CallOnMergeThreadAsync(std::move(fn)).get();
}

std::future<int> ConcurrentMerger::CallOnMergeThreadAsync(
    std::function<void()> fn) {
  ControlOp op;
  op.kind = ControlOp::kCall;
  op.fn = std::move(fn);
  std::future<int> result = op.result.get_future();
  {
    MutexLock lock(control_mutex_);
    control_ops_.push_back(std::move(op));
    has_control_ops_.store(true, std::memory_order_release);
  }
  WakeMerge();
  return result;
}

void ConcurrentMerger::WaitIdle() {
  MutexLock lock(idle_mutex_);
  while (pending_.load(std::memory_order_acquire) != 0) {
    idle_cv_.Wait(lock);
  }
}

Status ConcurrentMerger::error() const {
  MutexLock lock(control_mutex_);
  return error_;
}

void ConcurrentMerger::RecordError(const Status& status) {
  MutexLock lock(control_mutex_);
  if (error_.ok()) error_ = status;
  poisoned_.store(true, std::memory_order_release);
}

size_t ConcurrentMerger::DrainRing(int stream) {
  InputSlot& slot = *slots_[static_cast<size_t>(stream)];
  scratch_.clear();
  // Occupancy sampled before the pop: what the producer side had built up.
  const size_t occupied = slot.ring.size();
  const size_t n = slot.ring.Pop(&scratch_, options_.max_batch);
  if (n == 0) return 0;
  ring_occupancy_metric_->Record(static_cast<int64_t>(occupied));
  batch_size_metric_->Record(static_cast<int64_t>(n));
  batches_metric_->Increment();
  // Fold every stamp covering this drain and republish it thread-locally
  // for same-thread consumers (the fan-out sink reads it per element).
  // Always runs — even with metrics off the wire-carried origin must keep
  // flowing so `lmerge_subscribe --latency` works against a bare server.
  // Stamps are published before their elements: one whose range starts past
  // this drain waits, and one straddling the drain boundary stays queued
  // for the next batch.
  slot.drained_count += n;
  obs::IngestStamp batch_stamp;
  while (BatchStamp* entry = slot.stamp_ring.Peek()) {
    if (entry->begin_count >= slot.drained_count) break;
    batch_stamp.FoldOldest(entry->stamp);
    if (entry->end_count > slot.drained_count) break;
    slot.stamp_ring.PopFront();
  }
  obs::SetCurrentIngestStamp(batch_stamp);
  // The ingest-latency stages belong to batches read off a socket: only
  // those carry an rx stamp (a PartitionedMerger shard clears it before
  // handing its output to the aggregator, so that hop adds no samples).
  const bool timed =
      obs::MetricsRegistry::enabled() && batch_stamp.rx_us != 0;
  if (timed) {
    const int64_t wait_us = obs::MonotonicMicros() - batch_stamp.rx_us;
    rx_to_merge_metric_->Record(wait_us > 0 ? wait_us : 0);
  }
  if (!poisoned_.load(std::memory_order_relaxed)) {
    LMERGE_TRACE_SPAN("merge_batch", "engine");
    const int64_t merge_start = timed ? obs::MonotonicMicros() : 0;
    const Status status = algorithm_->ProcessBatch(
        stream, std::span<const StreamElement>(scratch_.data(), n));
    if (timed) {
      merge_us_metric_->Record(obs::MonotonicMicros() - merge_start);
    }
    if (!status.ok()) RecordError(status);
    max_stable_.store(algorithm_->max_stable(), std::memory_order_release);
    if (options_.after_batch) options_.after_batch();
  }
  if (slot.producer_waiting.load(std::memory_order_acquire)) {
    {
      MutexLock lock(slot.wait_mutex);
    }
    slot.wait_cv.NotifyAll();
  }
  // Notify idle waiters under the lock only when this drain emptied the
  // books (cheap check: the fetch_sub returned exactly n).
  if (pending_.fetch_sub(static_cast<int64_t>(n),
                         std::memory_order_acq_rel) ==
      static_cast<int64_t>(n)) {
    MutexLock lock(idle_mutex_);
    idle_cv_.NotifyAll();
  }
  return n;
}

size_t ConcurrentMerger::ProcessControlOps() {
  if (!has_control_ops_.load(std::memory_order_acquire)) return 0;
  std::deque<ControlOp> ops;
  {
    MutexLock lock(control_mutex_);
    ops.swap(control_ops_);
    has_control_ops_.store(false, std::memory_order_release);
  }
  for (ControlOp& op : ops) {
    if (op.kind == ControlOp::kAddStream) {
      const int id = algorithm_->AddStream();
      LM_CHECK(slots_.size() < kMaxStreams);
      slots_.push_back(std::make_unique<InputSlot>(options_.ring_capacity,
                                                    options_.max_batch));
      slot_count_.store(static_cast<int>(slots_.size()),
                        std::memory_order_release);
      LM_CHECK(id == static_cast<int>(slots_.size()) - 1);
      op.result.set_value(id);
    } else if (op.kind == ControlOp::kCall) {
      op.fn();
      op.result.set_value(0);
    } else {
      // Drain everything the departing stream already enqueued, then detach
      // it — its elements are merged, never dropped.
      while (DrainRing(op.stream) > 0) {
      }
      if (op.stream < algorithm_->stream_count() &&
          algorithm_->stream_active(op.stream)) {
        algorithm_->RemoveStream(op.stream);
        // RemoveStream can release buffered elements into the sink; flush
        // them like any batch so a buffering sink never holds them past
        // the departure barrier.
        if (options_.after_batch) options_.after_batch();
      }
      op.result.set_value(0);
    }
  }
  return ops.size();
}

void ConcurrentMerger::MergeLoop() {
  using Clock = std::chrono::steady_clock;
  const auto elapsed_us = [](Clock::time_point since) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - since)
        .count();
  };
  int idle_rounds = 0;
  while (true) {
    // Busy/idle accounting is gated on the metrics switch so the metrics-off
    // baseline pays no clock reads in this loop.
    const bool timed = obs::MetricsRegistry::enabled();
    Clock::time_point round_start;
    if (timed) round_start = Clock::now();
    size_t work = ProcessControlOps();
    const int n = slot_count_.load(std::memory_order_acquire);
    for (int s = 0; s < n; ++s) work += DrainRing(s);
    if (work > 0) {
      if (timed) busy_us_metric_->Add(elapsed_us(round_start));
      idle_rounds = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0 &&
        !has_control_ops_.load(std::memory_order_acquire)) {
      break;
    }
    // Idle backoff: spin briefly (fresh work usually arrives within a few
    // hundred ns), then yield, then park on a 1ms timed wait — the timeout
    // doubles as the lost-wakeup backstop for WakeMerge's unlocked check.
    ++idle_rounds;
    if (idle_rounds < 128) continue;
    if (idle_rounds < 160) {
      std::this_thread::yield();
      continue;
    }
    Clock::time_point park_start;
    if (timed) park_start = Clock::now();
    {
      MutexLock lock(wake_mutex_);
      merge_sleeping_.store(true, std::memory_order_release);
      (void)wake_cv_.WaitFor(lock, std::chrono::milliseconds(1));
      merge_sleeping_.store(false, std::memory_order_release);
    }
    if (timed) idle_us_metric_->Add(elapsed_us(park_start));
  }
}

void ConcurrentMerger::CallAtBarrier(
    std::function<void(std::span<MergeAlgorithm* const>)> fn) {
  CallOnMergeThread([this, &fn] {
    MergeAlgorithm* algorithm = algorithm_;
    fn(std::span<MergeAlgorithm* const>(&algorithm, 1));
  });
}

bool ConcurrentMerger::Responsive(std::chrono::milliseconds timeout) {
  // The no-op only runs once the merge thread reaches its control-op point
  // between batches; a wedged ProcessBatch or dead thread times out.  An
  // abandoned future is harmless — the parked op completes (or never runs)
  // against a promise this merger still owns.
  std::future<int> done = CallOnMergeThreadAsync([] {});
  return done.wait_for(timeout) == std::future_status::ready;
}

}  // namespace lmerge
