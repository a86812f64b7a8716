#include "obs/export.h"

#include <cstdint>

#include "common/payload_store.h"
#include "obs/metrics.h"

namespace lmerge {
namespace obs {

void ExportPayloadStoreMetrics(const PayloadStore& store,
                               MetricsRegistry* registry) {
  const PayloadStore::Stats stats = store.GetStats();
  registry->GetGauge("payload.entries")->Set(stats.entries);
  registry->GetGauge("payload.live_refs")->Set(stats.live_refs);
  registry->GetGauge("payload.payload_bytes")->Set(stats.payload_bytes);
  registry->GetExportedCounter("payload.intern_calls")->Set(stats.intern_calls);
  registry->GetExportedCounter("payload.hits")->Set(stats.hits);
  registry->GetExportedCounter("payload.misses")
      ->Set(stats.intern_calls - stats.hits);
  // Evictions = payloads created minus payloads still live; every miss
  // created an entry, and entries not present anymore were evicted on their
  // last release.
  registry->GetExportedCounter("payload.evictions")
      ->Set(stats.intern_calls - stats.hits - stats.entries);
  registry->GetExportedCounter("payload.bytes_saved")->Set(stats.bytes_saved);

  // Live sharing: the store holds each live rep once (payload_bytes), while
  // private copies would cost deep_bytes per live reference.  Both come
  // from the one walk GetStats() already makes.
  registry->GetGauge("payload.bytes_held")->Set(stats.payload_bytes);
  registry->GetGauge("payload.bytes_shared")
      ->Set(stats.deep_bytes_if_copied - stats.payload_bytes);
}

}  // namespace obs
}  // namespace lmerge
