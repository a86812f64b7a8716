// Low-overhead metrics registry: named counters, gauges, and log-linear
// histograms shared by every layer of the service (see docs/OBSERVABILITY.md
// for the instrument catalog).
//
// Design constraints, in order:
//   1. A hot-path update (Counter::Add, Histogram::Record) must never take a
//      lock or touch a contended cache line: each instrument stripes its
//      state across kShards cache-line-padded cells and a thread picks its
//      cell once (thread-local), so concurrent writers from the session
//      threads, the merge thread, and the fan-out path proceed with relaxed
//      atomic adds on distinct lines.
//   2. Snapshots are wait-free for writers: a reader sums the stripes with
//      relaxed loads.  A snapshot is therefore *consistent per instrument*
//      but not across instruments — exactly the Prometheus/StatsD contract,
//      and all the lmerge_stats renderer needs.
//   3. Instruments are registered once by name and live for the registry's
//      lifetime; Get* is a cold-path mutex + map lookup, so callers cache
//      the returned pointer.
//
// The process-wide kill switch (set_enabled) turns every update into one
// relaxed load + branch; `lmerge_served --no-metrics` and the CI A/B bench
// use it to measure the instrumentation overhead itself.

#ifndef LMERGE_OBS_METRICS_H_
#define LMERGE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lmerge {

class Encoder;
class Decoder;
class Status;

namespace obs {

enum class InstrumentKind : uint8_t {
  kCounter = 0,    // monotone sum
  kGauge = 1,      // last-written value
  kHistogram = 2,  // log-linear value distribution
};

const char* InstrumentKindName(InstrumentKind kind);

// Number of stripes per instrument.  16 covers the deployment shape (a few
// session threads + one merge thread) without measurable collision cost.
inline constexpr int kMetricShards = 16;

namespace internal {

// One striped cell on its own cache line.
struct alignas(64) Cell {
  std::atomic<int64_t> value{0};
};

// The stripe this thread writes; assigned round-robin on first use so the
// common deployment (≤ 16 live threads) gets collision-free stripes.
int ThreadShard();

// Process-wide enable flag shared by all registries (see set_enabled).
extern std::atomic<bool> g_metrics_enabled;

inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

}  // namespace internal

class Counter {
 public:
  void Add(int64_t delta) {
    if (!internal::Enabled()) return;
    cells_[static_cast<size_t>(internal::ThreadShard())].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  int64_t Sum() const {
    int64_t sum = 0;
    for (const internal::Cell& cell : cells_) {
      sum += cell.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  internal::Cell cells_[kMetricShards];
};

class Gauge {
 public:
  void Set(int64_t value) {
    if (!internal::Enabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!internal::Enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log-linear bucketing (HdrHistogram-style): values 0..7 get exact buckets,
// then every power-of-two octave is split into 4 linear sub-buckets, giving
// <= 25% relative bucket width over the full non-negative int64 range in
// kHistogramBuckets buckets.  Negative values clamp to 0.
inline constexpr int kHistogramSubBits = 2;  // 4 sub-buckets per octave
inline constexpr int kHistogramBuckets = 256;

int HistogramBucketIndex(int64_t value);
// Smallest value mapping to bucket `index` (the bucket's lower bound).
int64_t HistogramBucketLowerBound(int index);

// Merged, point-in-time view of one histogram (also the wire/JSON form).
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;  // 0 when count == 0
  int64_t max = 0;
  // (bucket lower bound, count), ascending, zero-count buckets omitted.
  std::vector<std::pair<int64_t, int64_t>> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Percentile estimate from the bucket lower bounds (p in [0, 100]).
  int64_t Percentile(double p) const;
  // Accumulates `other` into this snapshot (bucket-wise merge).
  void Merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  void Record(int64_t value) {
    if (!internal::Enabled()) return;
    if (value < 0) value = 0;
    Shard& shard = shards_[static_cast<size_t>(internal::ThreadShard())];
    shard.buckets[static_cast<size_t>(HistogramBucketIndex(value))]
        .fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    UpdateMin(shard.min, value);
    UpdateMax(shard.max, value);
  }

  HistogramSnapshot Snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> buckets[kHistogramBuckets] = {};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{INT64_MAX};
    std::atomic<int64_t> max{INT64_MIN};
  };

  static void UpdateMin(std::atomic<int64_t>& slot, int64_t value) {
    int64_t seen = slot.load(std::memory_order_relaxed);
    while (value < seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }
  static void UpdateMax(std::atomic<int64_t>& slot, int64_t value) {
    int64_t seen = slot.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  Shard shards_[kMetricShards];
};

// One named instrument's value in a snapshot.
struct MetricValue {
  std::string name;
  InstrumentKind kind = InstrumentKind::kCounter;
  int64_t value = 0;  // counter sum / gauge value; histograms use `histogram`
  HistogramSnapshot histogram;
};

// Point-in-time view of a whole registry, sorted by instrument name (the
// stable order every serialization emits).
struct MetricsSnapshot {
  std::vector<MetricValue> entries;
  // When the snapshot was captured: wall clock (ms since the Unix epoch,
  // for humans and absolute alignment) and the monotonic clock (µs, for
  // honest rate math between two snapshots of the same process — wall time
  // can step, the monotonic clock cannot).  0 = unknown.
  int64_t captured_wall_ms = 0;
  int64_t captured_mono_us = 0;

  const MetricValue* Find(const std::string& name) const;
  // Counter/gauge value by name; `fallback` when absent.
  int64_t Value(const std::string& name, int64_t fallback = 0) const;
  // Instruments whose name starts with `prefix`, in name order.
  std::vector<const MetricValue*> WithPrefix(const std::string& prefix) const;

  // Deterministic JSON object: {"name": value, ...} with histograms as
  // {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p99":..}.  Keys are
  // escaped and emitted in sorted order (common/json.h); the capture
  // timestamps lead as "snapshot.captured_wall_ms"/"snapshot.captured_mono_us".
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry all production layers register into.  Leaked
  // on purpose: instrument handles are cached in objects with static
  // lifetime.
  static MetricsRegistry& Global();

  // Idempotent by name: the first call creates the instrument, later calls
  // return the same pointer (which stays valid for the registry's
  // lifetime).  Registering one name as two different kinds aborts.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  // A monotone total that is *exported* (Set whole, from one thread at a
  // time) rather than accumulated with striped Adds — the shape of the
  // barrier-exported merge totals, whose authoritative counts live in
  // algorithm state and are copied out under quiescence.  Mechanically a
  // Gauge, but registered as InstrumentKind::kCounter so snapshots and the
  // OpenMetrics exposition report the truth: a monotone counter.
  Gauge* GetExportedCounter(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Process-wide kill switch (affects every registry): when disabled, all
  // updates early-return after one relaxed load; existing values freeze.
  static void set_enabled(bool enabled) {
    internal::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
  }
  static bool enabled() { return internal::Enabled(); }

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // Cold path only (instrument registration + snapshots); hot-path updates
  // go through the returned instrument pointers, which are lock-free.
  mutable Mutex mutex_;
  std::map<std::string, Instrument> instruments_ LM_GUARDED_BY(mutex_);
};

// --- Wire form (STATS frames, net/protocol.h) ---

void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot, Encoder* encoder);
Status DecodeMetricsSnapshot(Decoder* decoder, MetricsSnapshot* snapshot);

}  // namespace obs
}  // namespace lmerge

#endif  // LMERGE_OBS_METRICS_H_
