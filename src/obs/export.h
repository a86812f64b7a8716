// Exporters that publish state owned by other subsystems into the metrics
// registry at snapshot time.
//
// The payload store keeps its own counters (common/payload_store.h Stats);
// rather than double-bookkeeping on the intern hot path, the obs layer
// re-derives the registry view from the store on demand, from the single
// walk PayloadStore::GetStats() makes.  The store charges each live rep's
// deep bytes once, as `lmerge_inspect --payload-stats` does through
// SharedPayloadLedger, so the two reports agree on the same live payloads
// (tests/obs/payload_accounting_test.cc).

#ifndef LMERGE_OBS_EXPORT_H_
#define LMERGE_OBS_EXPORT_H_

namespace lmerge {

class PayloadStore;

namespace obs {

class MetricsRegistry;

// Publishes the store's stats as gauges under "payload." (entries,
// live_refs, payload_bytes, intern_calls, hits, evictions, bytes_saved,
// bytes_held, bytes_shared).  `bytes_held` is the store's payload_bytes;
// `bytes_shared` is the bytes the live refs would occupy if deep-copied,
// minus the bytes actually held.
void ExportPayloadStoreMetrics(const PayloadStore& store,
                               MetricsRegistry* registry);

}  // namespace obs
}  // namespace lmerge

#endif  // LMERGE_OBS_EXPORT_H_
