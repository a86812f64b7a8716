// StandbyReplica: a hot standby that shadows a running lmerge service and
// can take over as the merge point when the primary dies
// (docs/REPLICATION.md).
//
// The key property it leans on is the paper's Sec. II-4/5 result: the
// merged output of an LMerge operator is itself a valid physical
// presentation of the logical stream.  So the standby does not need the
// primary's N input replicas — it runs its own MergeServer and feeds the
// *primary's merged output* into it as a single publisher stream (the
// "feed").  Publishers that later connect to the standby join through the
// ordinary Sec. V-B protocol, and when the feed ends (primary death), the
// standby's server keeps producing from the surviving inputs: promotion is
// just the leaving-stream protocol applied to the feed.
//
// Jumpstart avoids replaying the primary's whole history.  The standby
// joins as a `standby` subscriber and sends CHECKPOINT_REQUEST; the
// primary answers with a CUT_CERT (cut certificate: variant, policy,
// output stable point, per-input frontiers, and the number of output
// elements already sent on this very subscription) followed by the
// checkpoint blob in CHECKPOINT_CHUNK frames, with live output elements
// interleaving freely.  Because the certificate and every pre-cut element
// travel in order on one connection, the dedup rule is purely count-based:
// the first `elements_sent_at_cut` elements received on the subscription
// are already inside the restored state and are dropped; everything after
// is replayed into the local merge.  MergeServer::AdoptCheckpoint restores
// the blob and arranges for the feed stream to adopt the snapshot's output
// views (MergeAlgorithm::AdoptOutputView), so the restored index treats
// the feed as having already delivered everything the snapshot contains —
// no spurious retractions, no duplicate inserts.
//
// Threading: Connect / Jumpstart / PumpLive / Promote must be called in
// order from one driver thread.  The counters and the cut certificate are
// published under an annotated Mutex so other threads (stats loops, tests)
// may call the const getters and WaitForFeed concurrently.

#ifndef LMERGE_REPLICA_STANDBY_H_
#define LMERGE_REPLICA_STANDBY_H_

#include <chrono>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "replica/cut_certificate.h"
#include "stream/element.h"

namespace lmerge::replica {

struct StandbyOptions {
  // Options for the local shadow MergeServer (variant/policy are overridden
  // by the cut certificate when a checkpoint is adopted).
  net::MergeServerOptions server;
  // Peer name used on the subscription to the primary and (suffixed with
  // ":feed") on the internal feed publisher session.
  std::string name = "standby";
  // Log replication milestones to stderr.
  bool verbose = false;
};

class StandbyReplica {
 public:
  explicit StandbyReplica(StandbyOptions options = StandbyOptions());
  ~StandbyReplica();

  StandbyReplica(const StandbyReplica&) = delete;
  StandbyReplica& operator=(const StandbyReplica&) = delete;

  // Sends HELLO (role=standby) on `primary` and blocks for WELCOME; fails
  // on a BYE or on a WELCOME of another protocol version.
  Status Connect(std::unique_ptr<net::Connection> primary);

  // Requests the primary's checkpoint, buffers live output that interleaves
  // with the transfer, restores the blob into the local server, attaches
  // the feed stream at the certified stable point, and replays the
  // buffered tail past the dedup horizon.  When the primary has no
  // checkpointable state yet (CUT_CERT with has_state=false) the standby
  // simply starts the feed from scratch — same code path, empty snapshot.
  Status Jumpstart();

  // Forwards the primary's live output into the local merge until the
  // primary goes away.  EOF and BYE are clean ends (that is the failover
  // trigger, not an error); the reason is recorded in end_reason().
  Status PumpLive();

  // Ends the feed stream (orderly BYE + detach), making the local server
  // the new merge point.  Publishers connecting to server() from here on
  // continue the logical stream.
  Status Promote(const std::string& reason = "promoted");

  // The shadow server; wire its listener / sinks exactly like a primary's.
  net::MergeServer& server() { return server_; }

  // True once Jumpstart adopted a checkpoint (vs. started from scratch).
  bool has_state() const;
  // The certified cut (valid once Jumpstart returned with has_state()).
  CutCertificate cut() const;
  // Output elements decoded from the primary's subscription so far.
  int64_t feed_elements() const;
  // Of those, dropped as pre-cut duplicates / replayed into the merge.
  int64_t deduped_elements() const;
  int64_t replayed_elements() const;
  // Why PumpLive returned ("eof", or the primary's BYE reason).
  std::string end_reason() const;

  // The deduped pre-cut prefix of the feed: the primary's output up to the
  // certified cut, which the restored state already covers.  Concatenated
  // with the local server's output it is the full physical stream — what
  // end-to-end equivalence checks reconstitute.  Valid after Jumpstart;
  // driver thread only.
  const ElementSequence& pre_cut() const { return pre_cut_; }

  // The checkpoint blob received during Jumpstart, verbatim (empty when the
  // primary had no state).  Loadable by LoadCheckpoint and inspectable with
  // `lmerge_inspect --checkpoint`; valid after Jumpstart, driver thread
  // only.
  const std::string& checkpoint_blob() const { return checkpoint_blob_; }

  // Blocks until feed_elements() >= n or `timeout` elapses; returns whether
  // the target was reached.  For tests coordinating with a pump thread.
  bool WaitForFeed(int64_t n, std::chrono::milliseconds timeout);

 private:
  // Decodes any element-bearing frame into `out`; non-element frames
  // (FEEDBACK) are absorbed.  Sets *bye when the frame was a BYE.
  Status DecodeFeedFrame(const net::Frame& frame, ElementSequence* out,
                         bool* bye, std::string* bye_reason);
  // Opens the internal loopback publisher session carrying the feed.
  Status AttachFeed(Timestamp join_time);
  // Sends `elements` into the feed session as ELEMENTS frames of at most
  // kReplayBatch elements each, then drains the feed's response queue.
  Status ForwardToFeed(const ElementSequence& elements);
  void BumpFeed(int64_t decoded, int64_t lag);
  void Log(const std::string& message) const;

  static constexpr size_t kReplayBatch = 1024;

  StandbyOptions options_;
  net::MergeServer server_;

  // Subscription to the primary (driver thread only).
  std::unique_ptr<net::Connection> primary_;
  net::FrameAssembler assembler_;
  PayloadDictDecoder dict_;
  bool connected_ = false;
  bool jumpstarted_ = false;
  bool promoted_ = false;
  ElementSequence pre_cut_;
  std::string checkpoint_blob_;

  // Internal feed publisher session.  The server writes its responses
  // (WELCOME, FEEDBACK) to feed_server_end_; we read them from
  // feed_client_end_ and push frames in via MergeServer::OnBytes.
  std::unique_ptr<net::Connection> feed_server_end_;
  std::unique_ptr<net::Connection> feed_client_end_;
  int feed_session_id_ = -1;

  // Cross-thread observable state (getters + WaitForFeed).
  mutable Mutex mutex_;
  CondVar feed_cv_;
  bool has_state_ LM_GUARDED_BY(mutex_) = false;
  CutCertificate cut_ LM_GUARDED_BY(mutex_);
  int64_t feed_elements_ LM_GUARDED_BY(mutex_) = 0;
  int64_t deduped_ LM_GUARDED_BY(mutex_) = 0;
  int64_t replayed_ LM_GUARDED_BY(mutex_) = 0;
  std::string end_reason_ LM_GUARDED_BY(mutex_);

  // Cached instrument handles (docs/OBSERVABILITY.md).
  obs::Counter* feed_elements_metric_;
  obs::Counter* replay_elements_metric_;
  obs::Counter* dedup_elements_metric_;
  obs::Counter* checkpoint_rx_bytes_metric_;
  obs::Counter* checkpoint_rx_chunks_metric_;
  obs::Gauge* replay_lag_metric_;
};

}  // namespace lmerge::replica

#endif  // LMERGE_REPLICA_STANDBY_H_
