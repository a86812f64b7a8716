// Checkpointing: snapshot and restore of operator state.
//
// Backs query jumpstart and cutover (Sec. II-4/5): a running query's
// operator state is serialized, shipped (e.g., to a new machine in a cloud
// migration or to a hot standby over the wire), and restored into a fresh
// instance that continues exactly where the original stood.  Checkpoints
// carry a magic and version so stale or foreign blobs are rejected rather
// than misinterpreted.
//
// Format (v4):
//   u32 magic, u32 version, u8 flags            (fixed width: any build can
//                                                name the version it refuses)
//   [varstring cut_certificate]                 (iff flags bit 0; the
//                                                certificate itself is
//                                                fixed width)
//   varstring pool_section                      (varint count, then each
//                                                distinct payload rep in id
//                                                order: a compact row, or a
//                                                dictionary reference)
//   varstring body                              (SaveState bytes)
// where a varstring is a LEB128 length and the bytes.  Inside the pool
// section and the body every integer is a varint and every timestamp a
// zigzag delta (Encoder::WriteTimeDelta) from a nearby one — the previous
// node's Vs, the node's own Vs, the previous Ve — so a live node costs
// ~17 B instead of v2's 64.  Each distinct interned rep is written exactly
// once: index entries carry varint references (pool id + 1; 0 marks a row
// written inline) into the pool section instead of a full row each — the
// shared-ledger ratio of BENCH_state_bytes.json, applied to snapshots.
//
// A pool entry is a reference when the saver was given a payload
// dictionary that defines the entry's rep: a zero field count (a pooled
// row always has at least one field — identity-less empty rows are
// written inline in the body), then the dictionary id as a zigzag delta
// from the previous reference's (the pool follows index order, and the
// dictionary numbered the payloads in output order, so most deltas take a
// byte; that saves ~5% of the e2ebench divergent3 blob).  A server
// snapshotting for a standby passes its broadcast dictionary, whose every
// definition has already reached the standby (docs/REPLICATION.md), so
// such a blob loads only against that standby's feed dictionary; without
// a dictionary every entry is a row, and the bytes are v3's apart from
// the version word.  Version 4 is the only one written or loaded; v3, the
// fixed-width v2 and the inline-payload v1 formats are rejected as
// unsupported.

#ifndef LMERGE_COMMON_CHECKPOINT_H_
#define LMERGE_COMMON_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"

namespace lmerge {

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  // Serializes the complete operational state.
  virtual void SaveState(Encoder* encoder) const = 0;
  // Replaces this instance's state with the serialized one.  On error the
  // instance must be treated as unusable.
  virtual Status RestoreState(Decoder* decoder) = 0;
};

inline constexpr uint32_t kCheckpointMagic = 0x4c4d4347;  // "LMCG"
inline constexpr uint32_t kCheckpointVersion = 4;

// Flags byte: bit 0 marks an embedded cut-certificate section (the
// replication subsystem's virtual-cut descriptor, src/replica/).
inline constexpr uint8_t kCheckpointFlagCutCertificate = 1u << 0;

// How a saved pool section wrote its entries.
struct CheckpointPoolCounts {
  int64_t refs = 0;  // as dictionary ids
  int64_t rows = 0;  // as compact rows
};

// Wraps SaveState with a header.  `cut_certificate`, when non-empty, is
// embedded as an opaque section.  A pooled payload that `dict` defines is
// written as its dictionary id; `pool_counts`, when non-null, receives how
// many entries went each way.
std::string SaveCheckpoint(const Checkpointable& target,
                           const std::string& cut_certificate = std::string(),
                           const PayloadIdLookup* dict = nullptr,
                           CheckpointPoolCounts* pool_counts = nullptr);

// Verifies the header and restores the state.  When `cut_certificate`
// is non-null it receives the embedded section (empty if absent).  Pool
// references resolve against `dict`: a blob that holds any loads only
// with the dictionary its saver named them in.
Status LoadCheckpoint(const std::string& bytes, Checkpointable* target,
                      std::string* cut_certificate = nullptr,
                      const PayloadIdResolver* dict = nullptr);

// Parsed header and section sizes of a checkpoint blob, computed without
// restoring any state — what `lmerge_inspect --checkpoint` prints.
struct CheckpointInfo {
  uint32_t version = 0;
  uint8_t flags = 0;
  size_t total_bytes = 0;
  size_t cut_certificate_bytes = 0;  // embedded cut cert section
  size_t pool_bytes = 0;             // payload pool section
  size_t body_bytes = 0;             // SaveState body
  uint32_t pool_entries = 0;         // distinct pooled payload reps,
  uint32_t pool_refs = 0;            //   of which dictionary references
  uint32_t pool_rows = 0;            //   and compact rows
  // The embedded cut-certificate section verbatim (empty when absent), so
  // inspectors can decode it without restoring any operator state.
  std::string cut_certificate;
};
Status InspectCheckpoint(const std::string& bytes, CheckpointInfo* info);

// ---------------------------------------------------------------------------
// Partitioned checkpoint container (engine/partitioned.h).
//
// A partitioned merge's state is N independent shard algorithms; its
// checkpoint is N ordinary blobs (one per shard, each in the format
// above) wrapped in a container:
//
//   u32 magic "LMPC", u32 version, u32 shard_count,
//   string shard_blob[0] ... string shard_blob[shard_count-1]
//
// One shard needs no container: its checkpoint is the lone ordinary blob,
// so a one-shard merge's bytes are those of an unsharded one.  The cut
// certificate is embedded in shard_blob[0] exactly as in the one-shard
// case; with more than one shard its shard_stables section records every
// shard's stable frontier at the barrier.  Shard routing is deterministic
// and unseeded (PartitionedMerger::RouteShard), so a restore with the
// recorded shard count reproduces the exact per-shard key partition.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kPartitionedCheckpointMagic = 0x4c4d5043;  // "LMPC"
inline constexpr uint32_t kPartitionedCheckpointVersion = 1;

// Wraps per-shard checkpoint blobs (shard order) into one container; a
// single blob is returned unchanged.
std::string CombinePartitionedCheckpoint(std::vector<std::string> shard_blobs);

// Unwraps a container into its per-shard blobs; any other blob is one
// shard's and comes back as the only element.  The inverse of
// CombinePartitionedCheckpoint, and what MergeServer::AdoptCheckpoint reads
// every checkpoint through.
Status SplitPartitionedCheckpoint(const std::string& bytes,
                                  std::vector<std::string>* shard_blobs);

}  // namespace lmerge

#endif  // LMERGE_COMMON_CHECKPOINT_H_
