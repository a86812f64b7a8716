#include "engine/merger.h"

namespace lmerge {

Status Merger::AdoptOutputView(int stream) {
  Status status = Status::Ok();
  CallAtBarrier([stream, &status](std::span<MergeAlgorithm* const> shards) {
    for (MergeAlgorithm* algorithm : shards) {
      const Status shard_status = algorithm->AdoptOutputView(stream);
      if (status.ok() && !shard_status.ok()) status = shard_status;
    }
  });
  return status;
}

MergeOutputStats Merger::StatsSnapshot() {
  MergeOutputStats stats;
  CallAtBarrier([this, &stats](std::span<MergeAlgorithm* const> shards) {
    stats = AggregateShardStats(shards, output_algorithm());
  });
  return stats;
}

MergerInputSnapshot Merger::InputSnapshot() {
  MergerInputSnapshot snapshot;
  CallAtBarrier([this, &snapshot](std::span<MergeAlgorithm* const> shards) {
    snapshot.per_input = AggregateShardPerInputStats(shards);
    snapshot.active.resize(snapshot.per_input.size());
    for (size_t s = 0; s < snapshot.per_input.size(); ++s) {
      snapshot.active[s] = shards[0]->stream_active(static_cast<int>(s));
    }
    snapshot.totals = AggregateShardStats(shards, output_algorithm());
  });
  return snapshot;
}

obs::MetricsSnapshot Merger::MetricsSnapshot() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  CallAtBarrier([this, &registry](std::span<MergeAlgorithm* const> shards) {
    ExportMergeMetrics(shards, output_algorithm(), &registry);
    registry.GetGauge("engine.streams")->Set(shards[0]->stream_count());
  });
  registry.GetExportedCounter("engine.delivered")->Set(delivered_count());
  registry.GetGauge("engine.pending")->Set(pending_count());
  return registry.Snapshot();
}

}  // namespace lmerge
