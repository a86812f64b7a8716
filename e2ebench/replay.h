// Isolated single-threaded replays of one round's frames through a single
// layer's public entry point, for the traced run's per-layer figures.
// The core replay is the single-threaded baseline of the whole job.

#ifndef LMERGE_E2EBENCH_REPLAY_H_
#define LMERGE_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <vector>

#include "core/factory.h"
#include "core/merge_algorithm.h"
#include "stream/element.h"
#include "workload.h"

namespace e2ebench {

struct DecodedBatch {
  int pub = 0;
  lmerge::ElementSequence elements;
};

// FrameAssembler + Decode*Payload over steps [0, steps) of `in.order`, one
// assembler and dictionary per publisher as the server keeps per session.
// Fills `batches` in send order and returns ns per decoded element.
double ReplayDecode(const Inputs& in, size_t steps,
                    std::vector<DecodedBatch>* batches);

struct CoreReplay {
  double ns_per_elem = 0;
  double state_bytes_peak = 0;
  lmerge::MergeOutputStats stats;
};
// ProcessBatch on a factory-made algorithm, one call per decoded frame.
CoreReplay ReplayCore(lmerge::MergeVariant variant,
                      const std::vector<DecodedBatch>& batches);

// Like ReplayCore, but each stable() goes in as its own ProcessBatch call;
// returns the mean time of those calls in microseconds.
double ReplayStables(lmerge::MergeVariant variant,
                     const std::vector<DecodedBatch>& batches);

// The same batches through a ConcurrentMerger (TryDeliverBatch, then
// WaitIdle); returns wall ns per element.
double ReplayHandoff(lmerge::MergeVariant variant,
                     const std::vector<DecodedBatch>& batches);

// Dictionary encoding (EncodeDictBatchParts against one fresh broadcast
// dictionary) of the subscriber's received output, one call per received
// frame; `batch_ends[i]` is the output index after frame i.  Returns ns per
// output element.
double ReplayEncode(const lmerge::ElementSequence& output,
                    const std::vector<size_t>& batch_ends);

struct CheckpointReplay {
  double save_ms = 0;
  double load_ms = 0;
};
// SaveCheckpoint of the state reached after `batches`, and LoadCheckpoint
// of that blob into a fresh algorithm (medians of several repetitions).
CheckpointReplay ReplayCheckpoint(lmerge::MergeVariant variant,
                                  const std::vector<DecodedBatch>& batches);

}  // namespace e2ebench

#endif  // LMERGE_E2EBENCH_REPLAY_H_
