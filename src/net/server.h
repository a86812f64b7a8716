// MergeServer: the session layer of the networked LMerge service.
//
// Accepts N redundant publisher connections (identical query replicas on
// physically independent machines, Sec. II-2) and any number of subscriber
// connections.  Per session it:
//
//   * parses frames (net/frame.h) and enforces the handshake state machine
//     HELLO -> WELCOME -> {ELEMENTS|ELEMENTS_DICT|BYE}, with
//     the HELLO's protocol version matched exactly;
//   * instantiates the merge algorithm on the first publisher HELLO from
//     the declared stream properties (factory selection, Sec. IV-G) unless
//     an explicit variant is forced;
//   * maps publisher connect/disconnect to MergeAlgorithm::AddStream /
//     RemoveStream — the paper's joining/leaving-stream protocol
//     (Sec. V-B/C), including holding back stable() elements from streams
//     that have not yet reached their declared join time;
//   * delivers elements through a Merger: each publisher session enqueues
//     into its own SPSC ring (a decoded ELEMENTS frame goes in as one
//     batch) and merge threads drain them through
//     MergeAlgorithm::ProcessBatch — delivery is enqueue-only, so call
//     Flush() (or the flushing getters) before inspecting merged output.
//     The merger is built by MakeMerger (engine/partitioned.h) with
//     merge_threads shards: one is a single-threaded ConcurrentMerger
//     emitting straight into the fan-out, more are a PartitionedMerger
//     behind a min-frontier stable-point aggregator.  Checkpoints are saved
//     and restored the same way for every shard count;
//   * fans the merged output out to every subscriber and to registered
//     in-process sinks.  Fan-out is serialize-once: the merger's output
//     thread buffers each batch and flushes it (after_batch) as ONE encoded
//     frame buffer — a stamped dictionary frame built against a
//     server-wide broadcast dictionary — shared by reference with every
//     subscriber, so encode cost is independent of subscriber count
//     (PERFORMANCE.md);
//   * pushes FEEDBACK frames carrying the output stable point to lagging
//     publishers (Sec. V-D), judged by per-session progress watermarks from
//     properties/runtime_stats.
//
// The server is transport-agnostic and passive: transports call OnConnect /
// OnBytes / OnDisconnect.  With the loopback transport those calls are made
// directly by tests, which makes every session behaviour deterministic;
// ServeLoop drives the same entry points from listener/connection threads
// for real TCP deployments.

#ifndef LMERGE_NET_SERVER_H_
#define LMERGE_NET_SERVER_H_

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/checkpoint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/factory.h"
#include "engine/merger.h"
#include "engine/partitioned.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "obs/latency.h"
#include "properties/runtime_stats.h"
#include "stream/sink.h"

namespace lmerge::net {

class EventLoop;

struct MergeServerOptions {
  // Forced algorithm variant; unset selects from the first publisher's
  // declared properties.
  std::optional<MergeVariant> variant;
  MergePolicy policy = MergePolicy::Default();
  // Push FEEDBACK frames to lagging publishers as the output stable point
  // advances.
  bool feedback_enabled = true;
  // Log session events to stderr.
  bool verbose = false;
  // Ingestion tuning, forwarded to PartitionedMergerOptions: per-publisher
  // ring capacity (full ring = backpressure on that session's transport
  // thread) and the drain batch size handed to ProcessBatch.
  size_t ring_capacity = 4096;
  size_t max_batch = 1024;
  // Merge threads, >= 1: the shard count MakeMerger builds with.  1 (the
  // default) is one merge thread emitting straight into the fan-out; N > 1
  // shards the merge algorithm N ways by (payload, Vs) key hash behind a
  // min-frontier stable-point aggregator (engine/partitioned.h).  The
  // merged output is TDB-equivalent at every stable point either way.
  int merge_threads = 1;
  // Cap on payload-dictionary entries per session direction; bounds the
  // per-session decoder memory and the per-subscriber encoder pin set.
  uint32_t dict_capacity = kDefaultPayloadDictCapacity;
};

class MergeServer {
 public:
  explicit MergeServer(MergeServerOptions options = MergeServerOptions());
  ~MergeServer();

  MergeServer(const MergeServer&) = delete;
  MergeServer& operator=(const MergeServer&) = delete;

  // Registers a transport connection and returns its session id.  The
  // connection must stay valid until OnDisconnect(id) returns; the server
  // only ever writes to it (responses, fan-out, feedback).
  int OnConnect(Connection* connection);

  // Feeds received bytes into the session.  A returned error means the
  // session was terminated (BYE already sent when possible); the transport
  // should drop the connection.
  Status OnBytes(int session_id, const char* data, size_t size);
  Status OnBytes(int session_id, const std::string& bytes) {
    return OnBytes(session_id, bytes.data(), bytes.size());
  }

  // Connection went away (EOF, error, or after an OnBytes failure).
  // Idempotent; detaches the publisher's stream.
  void OnDisconnect(int session_id);

  // In-process tap on the merged output (daemon --out capture, tests).
  // Invoked on the internal merge thread; must not call back into the
  // server.
  void AddOutputSink(ElementSink* sink);

  // Quiesces the merge: blocks until every element delivered so far has
  // been merged and fanned out, then refreshes join flags and pushes any
  // due FEEDBACK.  Call before inspecting output in tests/benchmarks —
  // delivery is enqueue-only, so OnBytes returning does not mean merged.
  void Flush();

  // Introspection (thread-safe).  output_stable() and merge_stats() flush
  // first, so they reflect every delivery that happened-before the call.
  Timestamp output_stable() const;
  int active_publishers() const;
  int publishers_seen() const;
  int subscriber_count() const;
  // True once every publisher that ever connected has gone away again (and
  // at least one did connect): the service has drained.
  bool drained() const;
  // Stats snapshot of the wrapped algorithm (zeroes before the first
  // publisher instantiates it).
  MergeOutputStats merge_stats() const;
  const char* algorithm_name() const;

  // True when the session's frame assembler holds a partial frame — the
  // peer stopped mid-frame.  The ServeLoop idle sweep uses this to
  // distinguish a stalled peer (kill after idle_timeout_ms) from one that
  // is merely quiet between complete frames (fine forever).
  bool SessionMidFrame(int session_id) const;

  // The STATS_RESPONSE payload: server summary, per-input table (merge
  // counters joined with session names), and the full metrics-registry
  // snapshot.  A live view — it does NOT quiesce the pipeline; call Flush()
  // first when exactness matters (e.g. after drain).
  StatsResponseMessage StatsSnapshot();

  // Refreshes the registry (payload store gauges before taking the session
  // lock, then the algorithm export on the merge thread) and returns its
  // snapshot; what `--metrics-interval` serializes.  Same liveness caveat as
  // StatsSnapshot().
  obs::MetricsSnapshot MetricsSnapshot();

  // Readiness probe for /readyz: true when the merge pipeline answers a
  // posted no-op within `timeout` (Merger::Responsive on every merge
  // thread), or trivially when no publisher has instantiated a merger yet.
  // Briefly holds the session lock, so a server wedged behind it also
  // (correctly) reports unready once the lock wait exceeds the caller's
  // patience.
  bool Ready(std::chrono::milliseconds timeout);

  // Seeds this server from another server's checkpoint: reconstructs the
  // certified variant + policy with the blob's shard count, restores each
  // shard's state, checks it against the certificate (every shard
  // frontier and the output stable point), detaches the snapshot's input
  // streams (their publishers live on the dead primary), and keeps the
  // merger on the restored state.  A refused checkpoint leaves the server
  // as it was, able to adopt a valid one.  The first publisher to
  // connect afterwards additionally adopts the snapshot's *output* views
  // (MergeAlgorithm::AdoptOutputView) — the standby jumpstart wiring, which
  // feeds the primary's merged output in as that first stream
  // (docs/REPLICATION.md).  Must be called before any publisher connects.
  // A served blob names the payloads its standby already holds by their
  // broadcast-dictionary ids; they resolve against `feed_dict`, the
  // decoder of the subscription the blob arrived on.
  Status AdoptCheckpoint(const std::string& blob,
                         const replica::CutCertificate& cert,
                         const PayloadDictDecoder* feed_dict = nullptr);

 private:
  enum class SessionState {
    kAwaitHello,
    kPublisher,
    kSubscriber,
    kMonitor,
    kStandby,
    kClosed,
  };

  // When a publisher's stable point first reached `watermark` (monotonic
  // ms).  A short per-session history of these marks is what prices the
  // merge.stable_lag_ms gauge: the output stable point S is as old as the
  // moment the leading input first covered S.
  struct WatermarkMark {
    Timestamp watermark = kMinTimestamp;
    int64_t mono_ms = 0;
  };

  struct Session {
    int id = 0;
    Connection* connection = nullptr;
    SessionState state = SessionState::kAwaitHello;
    FrameAssembler assembler;
    std::string name;
    // Inbound payload dictionary, built by the defs sections of the
    // session's ELEMENTS_DICT frames; created on first use.
    std::unique_ptr<PayloadDictDecoder> dict_in;
    // Monotonic µs when the transport last handed this session bytes — the
    // rx half of the batch ingest stamp (obs/latency.h).
    int64_t last_rx_us = 0;
    // Set by a STATS_REQUEST frame: the frame loop pauses and OnBytes sends
    // the answer after refreshing the payload-store gauges unlocked.
    bool stats_requested = false;
    // Publisher fields.
    int stream_id = -1;
    bool joined = false;
    Timestamp join_time = kMinTimestamp;
    StreamProperties declared;
    StreamStatsCollector stats;  // progress watermarks for feedback
    Timestamp last_feedback = kMinTimestamp;
    // Stable-lag history, appended per batch while metrics are on; bounded
    // (kWatermarkWindow), oldest marks fall off.
    std::deque<WatermarkMark> progress_marks;
  };

  // Buffers merged output on the merger's output thread (the merge thread
  // of a one-shard merger, the aggregator thread of a partitioned one)
  // and flushes it as whole batches through FanOutBatchLocked.  That thread
  // must NEVER take the server lock (a producer blocked on ring
  // backpressure may hold it) — Flush takes only the leaf fanout_mutex_.
  // The buffer itself is output-thread-only state and needs no lock; the
  // merger invokes Flush via its after_batch hook before any idle/barrier
  // waiter is released, so MergeServer::Flush() implies fanned-out.
  class FanOutSink : public ElementSink {
   public:
    explicit FanOutSink(MergeServer* server) : server_(server) {}
    void OnElement(const StreamElement& element) override LM_HOT_PATH;
    // Encodes the buffered batch once and hands the shared buffer to every
    // subscriber (and sinks).  No-op when empty.
    // Records the fan-out stages of the latency pipeline
    // (latency.{merge_to_fanout,fanout,publish_to_fanout}_us).
    void Flush() LM_HOT_PATH;

   private:
    MergeServer* server_;
    ElementSequence batch_;  // output-thread-only
    // Oldest ingest stamp folded over the buffered batch (read per element
    // from the merge/aggregator thread-local, obs/latency.h) and the
    // monotonic µs of the first buffered element; both output-thread-only.
    obs::IngestStamp batch_stamp_;
    int64_t first_append_us_ = 0;
  };

  struct Subscriber {
    int session_id = 0;
    Connection* connection = nullptr;
    // Output elements successfully sent on this subscription; the standby's
    // dedup horizon when a cut certificate is taken mid-stream.
    int64_t elements_sent = 0;
  };

  // Session-lock protocol: every `...Locked()` method runs with mutex_
  // held (compiler-enforced via LM_REQUIRES); the public entry points
  // acquire it.  See DESIGN.md "Lock order" for the mutex_ -> fanout_mutex_
  // discipline.
  Status HandleFrameLocked(Session& session, const Frame& frame)
      LM_REQUIRES(mutex_);
  // Handles the session's reassembled frames, starting from `status` (the
  // result of the step before), until none is left, one fails (the session
  // is then closed) or a STATS_REQUEST sets stats_requested.
  Status HandleFramesLocked(Session& session, Status status)
      LM_REQUIRES(mutex_);
  Status HandleHelloLocked(Session& session, const HelloMessage& hello)
      LM_REQUIRES(mutex_);
  // Assembles the STATS_RESPONSE message.
  StatsResponseMessage BuildStatsResponseLocked() LM_REQUIRES(mutex_);
  // Refreshes registry-exported state and snapshots it.  The payload-store
  // gauges are not among it: callers refresh them before taking mutex_.
  obs::MetricsSnapshot MetricsSnapshotLocked() LM_REQUIRES(mutex_);
  // Batch path: observe watermarks, drop held-back stables, hand the
  // survivors to the merge as one batch carrying its ingest stamp
  // (origin_us from the frame, rx from the session).
  Status DeliverBatchLocked(Session& session, ElementSequence elements,
                            int64_t origin_us) LM_REQUIRES(mutex_);
  // Instantiates the merger for the first publisher.
  Status EnsureAlgorithmLocked(const StreamProperties& first_properties)
      LM_REQUIRES(mutex_);
  // The server's one merger construction: MakeMerger with `shards` shards
  // from `factory`, emitting into fan_out_ with the ingestion tuning.
  std::unique_ptr<Merger> NewMerger(int shards, ShardAlgorithmFactory factory);
  // Snapshots the merge state at a barrier (a consistent cut between
  // elements on every shard), then streams CUT_CERT + CHECKPOINT_CHUNK
  // frames to the standby session's connection.
  Status SendCheckpointLocked(Session& session) LM_REQUIRES(mutex_);
  // Delivers one flushed output batch: in-process sinks per element, then
  // every subscriber gets the one shared encoded frame buffer (one stamped
  // ELEMENTS_DICT carrying the batch's new definitions; one intern pass
  // against the broadcast dictionary).  `origin_us` is the batch's
  // folded origin stamp (0 = unknown), re-broadcast so downstream
  // `lmerge_subscribe --latency` can price publish→delivery.  Dead
  // subscribers are unregistered inline.
  void FanOutBatchLocked(const ElementSequence& batch, int64_t origin_us)
      LM_REQUIRES(fanout_mutex_) LM_HOT_PATH;
  // Sends BYE (best effort) and releases the session's resources.
  void CloseSessionLocked(Session& session, const std::string& reason,
                          bool send_bye) LM_REQUIRES(mutex_);
  // WaitIdle on the merger, then run the stable-advance hooks if the
  // output stable point moved.
  void FlushLocked() LM_REQUIRES(mutex_);
  // Cheap snapshot check of the merger's stable point.
  void MaybeStableAdvanceLocked() LM_REQUIRES(mutex_);
  // After the output stable point advances: refresh join flags and push
  // feedback to publishers whose own progress is behind it.
  void AfterStableAdvanceLocked() LM_REQUIRES(mutex_);
  // Appends a {stable point, now} mark to the session's progress history
  // when its stable point advanced (metrics on only).
  void NoteProgressLocked(Session& session) LM_REQUIRES(mutex_);
  // Prices merge.stable_lag_ms: now minus the moment the leading publisher
  // first covered the current output stable point (0 when uncovered).
  int64_t StableLagMsLocked() LM_REQUIRES(mutex_);
  void Log(const Session& session, const std::string& message) const;

  // Stable-lag history bound per session (see WatermarkMark).
  static constexpr size_t kWatermarkWindow = 64;

  MergeServerOptions options_;
  mutable Mutex mutex_;
  FanOutSink fan_out_;
  // The pointer is guarded by mutex_; the merger owns every algorithm,
  // whose state only its merge thread(s) touch — snapshot it via
  // Merger::CallAtBarrier / the snapshot helpers, never directly.
  std::unique_ptr<Merger> merger_ LM_GUARDED_BY(mutex_);
  // Meet over all publisher HELLOs.
  StreamProperties met_properties_ LM_GUARDED_BY(mutex_);
  std::map<int, Session> sessions_ LM_GUARDED_BY(mutex_);
  // Publisher name per merge input, kept after the session is gone so
  // STATS rows for crashed/departed replicas stay attributable.
  std::map<int, std::string> stream_names_ LM_GUARDED_BY(mutex_);
  int next_session_id_ LM_GUARDED_BY(mutex_) = 1;
  int publishers_seen_ LM_GUARDED_BY(mutex_) = 0;
  // Streams the merger holds, closed ones included (its slots are
  // append-only); a publisher HELLO past kMaxStreams gets a BYE.
  int merger_streams_ LM_GUARDED_BY(mutex_) = 0;
  int active_publishers_ LM_GUARDED_BY(mutex_) = 0;
  Timestamp last_output_stable_ LM_GUARDED_BY(mutex_) = kMinTimestamp;
  // Variant actually instantiated (what a cut certificate must certify).
  MergeVariant variant_ LM_GUARDED_BY(mutex_) = MergeVariant::kLMR4;
  // Set by AdoptCheckpoint: the algorithm was restored from a snapshot, and
  // the next publisher stream must adopt the snapshot's output views.
  bool adopted_ LM_GUARDED_BY(mutex_) = false;
  bool adopt_output_pending_ LM_GUARDED_BY(mutex_) = false;

  // Fan-out registry, shared between session threads (register/unregister)
  // and the merge thread (emit).  Leaf lock: nothing is acquired while it
  // is held; mutex_ -> fanout_mutex_ is the only nesting order (see
  // DESIGN.md "Lock order"), declared so the analysis' -beta lock-order
  // checks can verify it.
  mutable Mutex fanout_mutex_ LM_ACQUIRED_AFTER(mutex_);
  std::vector<Subscriber> subscribers_ LM_GUARDED_BY(fanout_mutex_);
  std::vector<ElementSink*> output_sinks_ LM_GUARDED_BY(fanout_mutex_);
  // Server-wide outbound payload dictionary: interning a payload and
  // encoding its definition is paid once per new payload, not once per
  // subscriber.  All subscribers decode against the same id space, which
  // is sound because ids are dense and never reused: a late joiner is
  // first sent the dictionary's rows in id order (EncodeCatchUpFrames) at
  // registration, which reconstructs the decoder state a from-the-start
  // subscriber holds.  Once the dictionary is full, first-seen payloads
  // travel inline and define nothing, so that state never diverges.
  PayloadDictEncoder broadcast_dict_ LM_GUARDED_BY(fanout_mutex_);

  // Cached instrument handles (obs/metrics.h); see docs/OBSERVABILITY.md.
  obs::Counter* rx_bytes_metric_;
  obs::Counter* rx_frames_metric_;
  obs::Counter* tx_fanout_frames_metric_;
  obs::Counter* tx_fanout_bytes_metric_;
  obs::Counter* tx_feedback_metric_;
  obs::Counter* decode_errors_metric_;
  obs::Counter* stats_requests_metric_;
  obs::Counter* checkpoint_requests_metric_;
  obs::Counter* checkpoint_tx_bytes_metric_;
  obs::Counter* checkpoint_tx_chunks_metric_;
  // Served pool entries sent as broadcast-dictionary ids / as rows.
  obs::Counter* checkpoint_tx_pool_refs_metric_;
  obs::Counter* checkpoint_tx_pool_rows_metric_;
  // Serialize-once instrumentation: encoded_bytes/frames count each fan-out
  // encode ONCE regardless of subscriber count (the invariant CI asserts),
  // while tx.fanout.bytes above still counts per-subscriber wire bytes.
  obs::Counter* fanout_encoded_bytes_metric_;
  obs::Counter* fanout_encoded_frames_metric_;
  obs::Counter* fanout_batches_metric_;
  // Latency-pipeline fan-out stages (docs/OBSERVABILITY.md).
  obs::Histogram* merge_to_fanout_metric_;
  obs::Histogram* fanout_us_metric_;
  obs::Histogram* publish_to_fanout_metric_;
};

// Lets /readyz ping the serve loops: ServeLoop registers its event loops
// here (when given a registry) and clears them before teardown.  Ping posts
// a no-op to every registered loop and reports whether all of them ran it
// within the deadline — a wedged or stopped loop times out.  The mutex is
// held for the whole ping so Clear() (and the loop teardown behind it)
// cannot race a ping in flight.
class LoopPingRegistry {
 public:
  void Set(std::vector<EventLoop*> loops);
  void Clear();
  bool Ping(std::chrono::milliseconds timeout);

 private:
  mutable Mutex mutex_;
  std::vector<EventLoop*> loops_ LM_GUARDED_BY(mutex_);
};

// Drives a MergeServer from a Listener on a small pool of epoll event
// loops (net/event_loop.h): the listener and every connection register
// with a loop, reads dispatch TryReceive -> OnBytes, and writes drain
// bounded per-connection outbound queues on writability.  No per-session
// threads — 256 subscribers cost io_threads + merge threads total.
// Returns once the listener errors/closes and every loop has stopped.
// When `drain_publishers` > 0, the loop additionally closes the listener
// and returns after at least that many publishers connected and all of
// them disconnected again — the scripted-demo and test mode.
struct ServeLoopOptions {
  int drain_publishers = 0;
  // IO threads sharing the connection population (round-robin).  1 is
  // right until a single core of syscall work saturates.
  int io_threads = 1;
  // Per-subscriber outbound queue bound.  A subscriber whose unsent
  // backlog would exceed it is disconnected (slow-consumer policy,
  // net.loop.slow_consumer_disconnects) rather than allowed to grow the
  // queue without limit or stall the merge.
  size_t max_outbound_bytes = 64 * 1024 * 1024;
  // Kill sessions that stall mid-frame for longer than this (0 disables).
  // Complete-frame-aligned quiet is never a timeout.
  int idle_timeout_ms = 0;
  // When set, ServeLoop registers its event loops here on startup and
  // clears them before returning, so an HTTP /readyz probe can ping the IO
  // plane (see LoopPingRegistry).
  LoopPingRegistry* loop_pings = nullptr;
};
void ServeLoop(Listener* listener, MergeServer* server,
               const ServeLoopOptions& options = ServeLoopOptions());

}  // namespace lmerge::net

#endif  // LMERGE_NET_SERVER_H_
