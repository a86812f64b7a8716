#include "core/merge_algorithm.h"

#include <algorithm>
#include <string>

#include "common/serde.h"
#include "core/in2t.h"
#include "obs/metrics.h"

namespace lmerge {

Status ReadCheckpointStreamCount(Decoder* decoder, uint32_t* count) {
  Status status = decoder->ReadVarU32(count);
  if (!status.ok()) return status;
  if (*count > kMaxStreams) {
    return Status::InvalidArgument(
        "checkpoint names " + std::to_string(*count) +
        " streams; at most " + std::to_string(kMaxStreams) + " are supported");
  }
  return Status::Ok();
}

Status ReadCheckpointEntryStream(Decoder* decoder, uint32_t stream_count,
                                 int32_t* stream) {
  uint64_t id_plus_one = 0;
  Status status = decoder->ReadVarU64(&id_plus_one);
  if (!status.ok()) return status;
  if (id_plus_one > stream_count) {
    return Status::InvalidArgument("checkpoint entry for unknown stream " +
                                   std::to_string(id_plus_one - 1));
  }
  *stream = static_cast<int32_t>(id_plus_one) - 1;
  static_assert(kOutputStream == -1);
  return Status::Ok();
}

MergeOutputStats AggregateShardStats(std::span<MergeAlgorithm* const> shards,
                                     const MergeAlgorithm& output) {
  LM_CHECK(!shards.empty());
  MergeOutputStats total = shards[0]->stats();
  for (size_t k = 1; k < shards.size(); ++k) {
    const MergeOutputStats& s = shards[k]->stats();
    total.inserts_out += s.inserts_out;
    total.adjusts_out += s.adjusts_out;
    total.inserts_in += s.inserts_in;
    total.adjusts_in += s.adjusts_in;
    total.stables_in = std::min(total.stables_in, s.stables_in);
    total.dropped += s.dropped;
  }
  total.stables_out = output.stats().stables_out;
  return total;
}

std::vector<PerInputStats> AggregateShardPerInputStats(
    std::span<MergeAlgorithm* const> shards) {
  LM_CHECK(!shards.empty());
  std::vector<PerInputStats> total = shards[0]->per_input_stats();
  for (size_t k = 1; k < shards.size(); ++k) {
    const std::vector<PerInputStats>& per_input =
        shards[k]->per_input_stats();
    LM_CHECK(per_input.size() == total.size());
    for (size_t i = 0; i < per_input.size(); ++i) {
      const PerInputStats& in = per_input[i];
      PerInputStats& out = total[i];
      out.inserts_in += in.inserts_in;
      out.adjusts_in += in.adjusts_in;
      out.stables_in = std::min(out.stables_in, in.stables_in);
      out.dropped += in.dropped;
      out.contributed += in.contributed;
      out.adjusts_contributed += in.adjusts_contributed;
      out.stable_point = std::min(out.stable_point, in.stable_point);
    }
  }
  return total;
}

void ExportMergeMetrics(std::span<MergeAlgorithm* const> shards,
                        const MergeAlgorithm& output,
                        obs::MetricsRegistry* registry) {
  LM_CHECK(!shards.empty());
  const MergeOutputStats total = AggregateShardStats(shards, output);
  registry->GetExportedCounter("merge.in.inserts")->Set(total.inserts_in);
  registry->GetExportedCounter("merge.in.adjusts")->Set(total.adjusts_in);
  registry->GetExportedCounter("merge.in.stables")->Set(total.stables_in);
  registry->GetExportedCounter("merge.out.inserts")->Set(total.inserts_out);
  registry->GetExportedCounter("merge.out.adjusts")->Set(total.adjusts_out);
  registry->GetExportedCounter("merge.out.stables")->Set(total.stables_out);
  registry->GetExportedCounter("merge.dropped")->Set(total.dropped);
  int64_t probes = 0;
  int64_t state_bytes = 0;
  for (const MergeAlgorithm* shard : shards) {
    probes += shard->index_probes();
    state_bytes += shard->StateBytes();
  }
  registry->GetExportedCounter("merge.index_probes")->Set(probes);
  registry->GetGauge("merge.state_bytes")->Set(state_bytes);
  registry->GetGauge("merge.streams")->Set(shards[0]->stream_count());
  registry->GetGauge("merge.streams_active")
      ->Set(shards[0]->active_stream_count());
  // kMinTimestamp (no output stable yet) is exported verbatim; consumers
  // render it as "-inf" (see Timestamp docs).
  registry->GetGauge("merge.stable")->Set(output.max_stable());
  registry->GetGauge("merge.shards")
      ->Set(static_cast<int64_t>(shards.size()));

  const std::vector<PerInputStats> per_input =
      AggregateShardPerInputStats(shards);
  for (size_t s = 0; s < per_input.size(); ++s) {
    const PerInputStats& in = per_input[s];
    const std::string prefix = "merge.input." + std::to_string(s) + ".";
    registry->GetExportedCounter(prefix + "inserts_in")->Set(in.inserts_in);
    registry->GetExportedCounter(prefix + "adjusts_in")->Set(in.adjusts_in);
    registry->GetExportedCounter(prefix + "stables_in")->Set(in.stables_in);
    registry->GetExportedCounter(prefix + "elements_in")->Set(in.elements_in());
    registry->GetExportedCounter(prefix + "dropped")->Set(in.dropped);
    registry->GetExportedCounter(prefix + "contributed")->Set(in.contributed);
    registry->GetExportedCounter(prefix + "adjusts_contributed")
        ->Set(in.adjusts_contributed);
    registry->GetGauge(prefix + "stable_point")->Set(in.stable_point);
    registry->GetGauge(prefix + "active")
        ->Set(shards[0]->stream_active(static_cast<int>(s)) ? 1 : 0);
  }
}

}  // namespace lmerge
