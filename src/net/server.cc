#include "net/server.h"

#include <sys/epoll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <utility>

#include "common/payload_store.h"
#include "engine/partitioned.h"
#include "net/event_loop.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace lmerge::net {

MergeServer::MergeServer(MergeServerOptions options)
    : options_(std::move(options)),
      fan_out_(this),
      met_properties_(StreamProperties::Strongest()),
      broadcast_dict_(options_.dict_capacity) {
  LM_CHECK(options_.merge_threads >= 1);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  rx_bytes_metric_ = registry.GetCounter("net.rx.bytes");
  rx_frames_metric_ = registry.GetCounter("net.rx.frames");
  tx_fanout_frames_metric_ = registry.GetCounter("net.tx.fanout.frames");
  tx_fanout_bytes_metric_ = registry.GetCounter("net.tx.fanout.bytes");
  tx_feedback_metric_ = registry.GetCounter("net.tx.feedback.frames");
  decode_errors_metric_ = registry.GetCounter("net.decode_errors");
  stats_requests_metric_ = registry.GetCounter("net.stats_requests");
  checkpoint_requests_metric_ =
      registry.GetCounter("net.checkpoint.requests");
  checkpoint_tx_bytes_metric_ = registry.GetCounter("net.checkpoint.tx.bytes");
  checkpoint_tx_chunks_metric_ =
      registry.GetCounter("net.checkpoint.tx.chunks");
  checkpoint_tx_pool_refs_metric_ =
      registry.GetCounter("net.checkpoint.tx.pool_refs");
  checkpoint_tx_pool_rows_metric_ =
      registry.GetCounter("net.checkpoint.tx.pool_rows");
  fanout_encoded_bytes_metric_ =
      registry.GetCounter("net.fanout.encoded_bytes");
  fanout_encoded_frames_metric_ =
      registry.GetCounter("net.fanout.encoded_frames");
  fanout_batches_metric_ = registry.GetCounter("net.fanout.batches");
  merge_to_fanout_metric_ =
      registry.GetHistogram("latency.merge_to_fanout_us");
  fanout_us_metric_ = registry.GetHistogram("latency.fanout_us");
  publish_to_fanout_metric_ =
      registry.GetHistogram("latency.publish_to_fanout_us");
}

MergeServer::~MergeServer() {
  // Drain and join the merge thread while the fan-out registry (and the
  // sessions that own its connections) is still alive; the default member
  // destruction order would tear sessions_ down first.
  merger_.reset();
}

void MergeServer::FanOutSink::OnElement(const StreamElement& element) {
  // Merger-output-thread context; the buffer is thread-local to it.  The
  // merger's after_batch hook flushes at every batch boundary — this size
  // trip only bounds memory when one ProcessBatch emits a huge output.
  if (batch_.empty() && obs::MetricsRegistry::enabled()) {
    first_append_us_ = obs::MonotonicMicros();
  }
  // Fold the producing thread's current batch stamp; always, so the origin
  // keeps flowing to subscribers even with metrics off.
  batch_stamp_.FoldOldest(obs::CurrentIngestStamp());
  batch_.push_back(element);
  if (batch_.size() >= server_->options_.max_batch) Flush();
}

void MergeServer::FanOutSink::Flush() {
  // Only the leaf fanout_mutex_ may be taken here: a session thread blocked
  // on ring backpressure holds the server lock, and it unblocks only if
  // this thread keeps draining.
  if (batch_.empty()) return;
  LMERGE_TRACE_SPAN("fanout", "net");
  MergeServer* server = server_;
  const bool timed = obs::MetricsRegistry::enabled();
  int64_t flush_start = 0;
  if (timed) {
    flush_start = obs::MonotonicMicros();
    if (first_append_us_ != 0) {
      // Age of the oldest buffered element: how long merged output sat in
      // this buffer before the flush.
      server->merge_to_fanout_metric_->Record(flush_start - first_append_us_);
    }
  }
  {
    MutexLock lock(server->fanout_mutex_);
    server->FanOutBatchLocked(batch_, batch_stamp_.origin_us);
  }
  if (timed) {
    const int64_t flush_end = obs::MonotonicMicros();
    server->fanout_us_metric_->Record(flush_end - flush_start);
    if (batch_stamp_.origin_us != 0) {
      // End-to-end inside the server: publisher serialization to fan-out
      // completion.  Same-host clocks only (obs/latency.h).
      const int64_t e2e = flush_end - batch_stamp_.origin_us;
      server->publish_to_fanout_metric_->Record(e2e > 0 ? e2e : 0);
    }
  }
  batch_.clear();
  batch_stamp_ = obs::IngestStamp();
  first_append_us_ = 0;
}

void MergeServer::FanOutBatchLocked(const ElementSequence& batch,
                                    int64_t origin_us) {
  for (ElementSink* sink : output_sinks_) {
    for (const StreamElement& element : batch) sink->OnElement(element);
  }
  if (subscribers_.empty()) return;
  fanout_batches_metric_->Increment();
  // Serialize once, share by refcount: every subscriber pins the same
  // buffer (one stamped ELEMENTS_DICT carrying the batch's new
  // definitions), so encode cost stays flat in subscriber count.  All
  // subscribers decode against the one broadcast id space.
  const auto frame = std::make_shared<const std::string>(
      EncodeElementsDictFrame(batch, &broadcast_dict_, origin_us));
  const size_t frame_bytes = frame->size();
  fanout_encoded_frames_metric_->Increment();
  fanout_encoded_bytes_metric_->Add(static_cast<int64_t>(frame_bytes));
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    const Status sent = it->connection->SendShared(frame);
    if (sent.ok()) {
      tx_fanout_frames_metric_->Increment();
      tx_fanout_bytes_metric_->Add(static_cast<int64_t>(frame_bytes));
      it->elements_sent += static_cast<int64_t>(batch.size());
      ++it;
    } else {
      // A dead (or slow-consumer-disconnected) subscriber must not take
      // the merge down: unregister it here; the transport loop observes
      // the closed connection and the eventual OnDisconnect finds it
      // already gone from the registry.
      it->connection->Close();
      it = subscribers_.erase(it);
    }
  }
}

int MergeServer::OnConnect(Connection* connection) {
  LM_CHECK(connection != nullptr);
  MutexLock lock(mutex_);
  const int id = next_session_id_++;
  Session& session = sessions_[id];
  session.id = id;
  session.connection = connection;
  session.name = connection->peer();
  if (options_.verbose) Log(session, "connected");
  return id;
}

void MergeServer::OnDisconnect(int session_id) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  CloseSessionLocked(it->second, "peer disconnected", /*send_bye=*/false);
  sessions_.erase(it);
}

Status MergeServer::OnBytes(int session_id, const char* data, size_t size) {
  {
    MutexLock lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown session " +
                              std::to_string(session_id));
    }
    Session& session = it->second;
    if (session.state == SessionState::kClosed) {
      return Status::FailedPrecondition("session already closed");
    }
    rx_bytes_metric_->Add(static_cast<int64_t>(size));
    // Stamp receive time once per socket read (one steady-clock call),
    // before frame reassembly: every batch decoded from these bytes is
    // charged this rx instant.
    session.last_rx_us = obs::MonotonicMicros();
    const Status status =
        HandleFramesLocked(session, session.assembler.Feed(data, size));
    if (!status.ok() || !session.stats_requested) return status;
  }
  // A STATS_REQUEST paused the frame loop.  The payload-store walk behind
  // its gauges visits every live payload; it takes only the store's shard
  // locks and sets atomic gauges, so it runs here, between two holds of
  // mutex_, instead of stalling every other session for the whole walk.
  // The answer then goes out and the remaining frames are handled in order.
  while (true) {
    obs::ExportPayloadStoreMetrics(PayloadStore::Global(),
                                   &obs::MetricsRegistry::Global());
    MutexLock lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end() || it->second.state == SessionState::kClosed) {
      return Status::Ok();
    }
    Session& session = it->second;
    session.stats_requested = false;
    const Status status = HandleFramesLocked(
        session, session.connection->Send(
                     EncodeStatsResponseFrame(BuildStatsResponseLocked())));
    if (!status.ok() || !session.stats_requested) return status;
  }
}

Status MergeServer::HandleFramesLocked(Session& session, Status status) {
  Frame frame;
  while (status.ok() && !session.stats_requested &&
         session.assembler.Next(&frame)) {
    rx_frames_metric_->Increment();
    status = HandleFrameLocked(session, frame);
    if (session.state == SessionState::kClosed) break;
  }
  if (status.ok() && !session.stats_requested &&
      session.assembler.poisoned()) {
    status = Status::InvalidArgument("malformed frame stream");
  }
  if (!status.ok()) {
    decode_errors_metric_->Increment();
    CloseSessionLocked(session, status.ToString(), /*send_bye=*/true);
  }
  return status;
}

Status MergeServer::HandleFrameLocked(Session& session, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      if (session.state != SessionState::kAwaitHello) {
        return Status::FailedPrecondition("duplicate HELLO");
      }
      HelloMessage hello;
      Status status = DecodeHello(frame.payload, &hello);
      if (!status.ok()) return status;
      return HandleHelloLocked(session, hello);
    }
    case FrameType::kElements: {
      if (session.state != SessionState::kPublisher) {
        return Status::FailedPrecondition(
            "ELEMENTS from a non-publisher session");
      }
      ElementSequence elements;
      int64_t origin_us = 0;
      Status status =
          DecodeElementsPayload(frame.payload, &elements, &origin_us);
      if (!status.ok()) return status;
      return DeliverBatchLocked(session, std::move(elements), origin_us);
    }
    case FrameType::kElementsDict: {
      if (session.state != SessionState::kPublisher) {
        return Status::FailedPrecondition(
            "ELEMENTS_DICT from a non-publisher session");
      }
      if (session.dict_in == nullptr) {
        session.dict_in =
            std::make_unique<PayloadDictDecoder>(options_.dict_capacity);
      }
      ElementSequence elements;
      int64_t origin_us = 0;
      Status status = DecodeElementsDictPayload(
          frame.payload, *session.dict_in, &elements, &origin_us);
      if (!status.ok()) return status;
      return DeliverBatchLocked(session, std::move(elements), origin_us);
    }
    case FrameType::kStatsRequest: {
      if (session.state == SessionState::kAwaitHello) {
        return Status::FailedPrecondition("STATS_REQUEST before HELLO");
      }
      Status status = DecodeStatsRequest(frame.payload);
      if (!status.ok()) return status;
      stats_requests_metric_->Increment();
      // Answered by OnBytes once the payload gauges are refreshed.
      session.stats_requested = true;
      return Status::Ok();
    }
    case FrameType::kCheckpointRequest: {
      if (session.state != SessionState::kStandby) {
        return Status::FailedPrecondition(
            "CHECKPOINT_REQUEST from a non-standby session");
      }
      Status status = DecodeCheckpointRequest(frame.payload);
      if (!status.ok()) return status;
      checkpoint_requests_metric_->Increment();
      return SendCheckpointLocked(session);
    }
    case FrameType::kBye: {
      ByeMessage bye;
      // Best effort: a BYE that fails to decode just yields an empty
      // reason; the session outcome is the same either way.
      (void)DecodeBye(frame.payload, &bye);
      CloseSessionLocked(session, bye.reason.empty() ? "bye" : bye.reason,
                   /*send_bye=*/false);
      return Status::Ok();
    }
    case FrameType::kWelcome:
    case FrameType::kFeedback:
    case FrameType::kStatsResponse:
    case FrameType::kCheckpointChunk:
    case FrameType::kCutCert:
      return Status::FailedPrecondition(
          std::string("client sent server-only frame ") +
          FrameTypeName(frame.type));
    case FrameType::kPayloadDef:
      break;  // retired: the assembler refuses its tag
  }
  return Status::Internal("unhandled frame type");
}

Status MergeServer::EnsureAlgorithmLocked(const StreamProperties& first) {
  if (merger_ != nullptr) return Status::Ok();
  const MergeVariant variant =
      options_.variant.has_value()
          ? *options_.variant
          : VariantForCase(ChooseAlgorithm(first));
  variant_ = variant;
  const MergePolicy policy = options_.policy;
  merger_ = NewMerger(options_.merge_threads,
                      [variant, policy](int /*shard*/, ElementSink* sink) {
                        return CreateMergeAlgorithm(
                            variant, /*num_streams=*/1, sink, policy);
                      });
  met_properties_ = first;
  merger_streams_ = 1;
  if (options_.verbose) {
    std::fprintf(stderr,
                 "[lmerge_served] algorithm %s (case %s) selected, "
                 "%d merge thread(s)\n",
                 MergeVariantName(variant),
                 AlgorithmCaseName(merger_->algorithm_case()),
                 merger_->shard_count());
  }
  return Status::Ok();
}

Status MergeServer::HandleHelloLocked(Session& session, const HelloMessage& hello) {
  if (hello.version != kProtocolVersion) {
    // Exact match only: the BYE this becomes is readable by any build.
    return Status::InvalidArgument(
        "protocol version mismatch: peer speaks v" +
        std::to_string(hello.version) + ", server speaks v" +
        std::to_string(kProtocolVersion));
  }
  // Quiesce before answering: WELCOME's output_stable, the joiner's join
  // decision, and a new subscriber's registration point must all reflect
  // every delivery that happened-before this HELLO.
  FlushLocked();
  if (!hello.peer_name.empty()) session.name = hello.peer_name;
  WelcomeMessage welcome;
  if (hello.role == PeerRole::kMonitor) {
    // Monitors only exchange STATS frames.
    session.state = SessionState::kMonitor;
    welcome.stream_id = -1;
  } else if (hello.role == PeerRole::kStandby) {
    session.state = SessionState::kStandby;
    welcome.stream_id = -1;
  } else if (hello.role == PeerRole::kSubscriber) {
    session.state = SessionState::kSubscriber;
    welcome.stream_id = -1;
  } else {
    Status status = EnsureAlgorithmLocked(hello.properties);
    if (!status.ok()) return status;
    if (publishers_seen_ == 0 && !adopted_) {
      // First publisher occupies the stream the algorithm was born with.
      session.stream_id = 0;
    } else {
      // A weaker replica joining later must not silently break the selected
      // algorithm's correctness preconditions (Sec. IV-G): reject it unless
      // the operator forced a variant explicitly.
      const StreamProperties met =
          met_properties_.Meet(hello.properties);
      if (!options_.variant.has_value() &&
          ChooseAlgorithm(met) > merger_->algorithm_case()) {
        return Status::FailedPrecondition(
            std::string("stream properties require algorithm case ") +
            AlgorithmCaseName(ChooseAlgorithm(met)) +
            " but the server selected " +
            AlgorithmCaseName(merger_->algorithm_case()));
      }
      if (static_cast<size_t>(merger_streams_) >= kMaxStreams) {
        // The merger would abort on one more stream; refuse this peer.
        return Status::FailedPrecondition(
            "stream limit reached: the server merges at most " +
            std::to_string(kMaxStreams) +
            " publisher streams over its lifetime, closed ones included");
      }
      met_properties_ = met;
      session.stream_id = merger_->AddStream();
      ++merger_streams_;
      if (adopt_output_pending_) {
        // Standby jumpstart: this first post-restore stream carries the
        // dead primary's merged output, i.e. the continuation of the
        // snapshot's own output stream — seed its per-input views from the
        // output's (docs/REPLICATION.md), on every shard at one barrier.
        adopt_output_pending_ = false;
        const Status adopt_status =
            merger_->AdoptOutputView(session.stream_id);
        if (!adopt_status.ok()) return adopt_status;
      }
    }
    session.state = SessionState::kPublisher;
    session.declared = hello.properties;
    session.join_time = hello.join_time;
    session.joined = merger_->max_stable() >= hello.join_time;
    ++publishers_seen_;
    ++active_publishers_;
    stream_names_[session.stream_id] = session.name;
    welcome.stream_id = session.stream_id;
  }
  welcome.algorithm_case =
      merger_ == nullptr
          ? kUnknownAlgorithmCase
          : static_cast<uint8_t>(merger_->algorithm_case());
  welcome.output_stable =
      merger_ == nullptr ? kMinTimestamp : merger_->max_stable();
  if (options_.verbose) {
    Log(session, std::string(PeerRoleName(hello.role)) + " hello, stream " +
                     std::to_string(welcome.stream_id) + ", join time " +
                     TimestampToString(session.join_time));
  }
  const Status sent = session.connection->Send(EncodeWelcomeFrame(welcome));
  if (sent.ok() && (session.state == SessionState::kSubscriber ||
                    session.state == SessionState::kStandby)) {
    // Register only after the WELCOME is on the wire, so the subscriber
    // never sees merged output ahead of its handshake response.
    Subscriber subscriber;
    subscriber.session_id = session.id;
    subscriber.connection = session.connection;
    MutexLock fanout_lock(fanout_mutex_);
    if (broadcast_dict_.entries() > 0) {
      // Catch the joiner up on the broadcast dictionary before it can see
      // a dict-coded batch referencing ids defined before it arrived: its
      // rows, in id order, reach a fresh decoder's state exactly.  Under
      // fanout_mutex_, so no fan-out interleaves mid-catch-up.
      const Status caught_up = session.connection->Send(
          EncodeCatchUpFrames(broadcast_dict_.rows()));
      if (!caught_up.ok()) return caught_up;
    }
    subscribers_.push_back(std::move(subscriber));
  }
  return sent;
}

Status MergeServer::SendCheckpointLocked(Session& session) {
  CutCertMessage cut;
  std::string blob;
  if (merger_ != nullptr) {
    // Snapshot at a barrier: every shard stands between two elements of ONE
    // cut (for one shard, a call on its merge thread),
    // so the state, the per-input frontiers, the per-shard stable
    // frontiers, and the subscription's sent count all describe the SAME
    // cut.  The lambda is analyzed lock-free (its own function): it reaches
    // everything through captured raw pointers/copies, and the only lock it
    // takes is the leaf fanout_mutex_ — which the fan-out thread already
    // takes for every emission, never while holding another lock.
    MergeServer* server = this;
    const MergeVariant variant = variant_;
    const MergePolicy policy = options_.policy;
    const int session_id = session.id;
    merger_->CallAtBarrier([&, server, variant, policy, session_id](
                               std::span<MergeAlgorithm* const> shards) {
      for (MergeAlgorithm* shard : shards) {
        if (shard->checkpointable() == nullptr) {
          return;  // variant without snapshots
        }
      }
      cut.has_state = true;
      cut.cert.variant = variant;
      cut.cert.policy = policy;
      // With the aggregator quiesced each shard's frontier equals its
      // algorithm's max_stable(); the output stable point is their min.  A
      // partitioned certificate also records every frontier so a restore
      // can verify each shard individually; a one-shard certificate keeps
      // the unsharded layout.
      Timestamp min_stable = shards[0]->max_stable();
      for (MergeAlgorithm* shard : shards) {
        min_stable = std::min(min_stable, shard->max_stable());
        if (shards.size() > 1) {
          cut.cert.shard_stables.push_back(shard->max_stable());
        }
      }
      cut.cert.output_stable = min_stable;
      // Per-input frontiers aggregated with the sum/min rules: the recorded
      // stable_point is the min across shards — the replay-safe frontier no
      // shard has run ahead of (core/merge_algorithm.h).
      const std::vector<PerInputStats> per_input =
          AggregateShardPerInputStats(shards);
      cut.cert.inputs.reserve(per_input.size());
      for (size_t s = 0; s < per_input.size(); ++s) {
        replica::CutInputState in;
        in.stream_id = static_cast<int32_t>(s);
        in.active = shards[0]->stream_active(static_cast<int>(s));
        in.stable_point = per_input[s].stable_point;
        in.elements_in = per_input[s].elements_in();
        cut.cert.inputs.push_back(in);
      }
      // The blobs are written under fanout_mutex_ too, naming each payload
      // the broadcast dictionary defines by its id.  A fan-out defines an
      // id and sends the frame carrying its definition to every subscriber
      // in one hold of this mutex, and a joiner's registration sends its
      // catch-up frames in one hold, so every id named here is already
      // queued to this standby, ahead of the CUT_CERT and chunks that
      // follow on the same connection.  A payload not yet fanned out stays
      // a row.
      MutexLock fanout_lock(server->fanout_mutex_);
      for (const Subscriber& subscriber : server->subscribers_) {
        if (subscriber.session_id == session_id) {
          cut.cert.elements_sent_at_cut = subscriber.elements_sent;
          break;
        }
      }
      const std::string cert_bytes =
          replica::SerializeCutCertificate(cut.cert);
      // One ordinary blob per shard, the certificate in shard 0's, wrapped
      // in the LMPC container when there is more than one
      // (common/checkpoint.h).
      std::vector<std::string> shard_blobs;
      shard_blobs.reserve(shards.size());
      for (size_t k = 0; k < shards.size(); ++k) {
        CheckpointPoolCounts counts;
        shard_blobs.push_back(SaveCheckpoint(
            *shards[k]->checkpointable(), k == 0 ? cert_bytes : std::string(),
            &server->broadcast_dict_, &counts));
        server->checkpoint_tx_pool_refs_metric_->Add(counts.refs);
        server->checkpoint_tx_pool_rows_metric_->Add(counts.rows);
      }
      blob = CombinePartitionedCheckpoint(std::move(shard_blobs));
    });
  }
  cut.checkpoint_bytes = blob.size();
  cut.chunk_count = static_cast<uint32_t>(
      (blob.size() + kCheckpointChunkBytes - 1) / kCheckpointChunkBytes);
  // CUT_CERT and every chunk go out under fanout_mutex_ so the merge
  // thread's live fan-out interleaves between frames, never inside
  // one (mutex_ -> fanout_mutex_ is the declared lock order).
  Status sent;
  {
    MutexLock fanout_lock(fanout_mutex_);
    sent = session.connection->Send(EncodeCutCertFrame(cut));
  }
  if (!sent.ok()) return sent;
  for (uint32_t i = 0; i < cut.chunk_count; ++i) {
    CheckpointChunkMessage chunk;
    chunk.index = i;
    chunk.bytes = blob.substr(
        static_cast<size_t>(i) * kCheckpointChunkBytes, kCheckpointChunkBytes);
    checkpoint_tx_chunks_metric_->Increment();
    checkpoint_tx_bytes_metric_->Add(static_cast<int64_t>(chunk.bytes.size()));
    MutexLock fanout_lock(fanout_mutex_);
    sent = session.connection->Send(EncodeCheckpointChunkFrame(chunk));
    if (!sent.ok()) return sent;
  }
  if (options_.verbose) {
    Log(session, "checkpoint sent: " + std::to_string(blob.size()) +
                     " bytes in " + std::to_string(cut.chunk_count) +
                     " chunks");
  }
  return Status::Ok();
}

namespace {

// The dead primary's output joins a restored merge as one more stream, so a
// snapshot already at kMaxStreams leaves no room for it.
Status CheckRoomForFeedStream(int restored_streams) {
  if (static_cast<size_t>(restored_streams) >= kMaxStreams) {
    return Status::InvalidArgument(
        "checkpoint holds " + std::to_string(restored_streams) +
        " streams; no room for the feed stream");
  }
  return Status::Ok();
}

}  // namespace

Status MergeServer::AdoptCheckpoint(const std::string& blob,
                                    const replica::CutCertificate& cert,
                                    const PayloadDictDecoder* feed_dict) {
  MutexLock lock(mutex_);
  if (merger_ != nullptr || publishers_seen_ > 0) {
    return Status::FailedPrecondition(
        "AdoptCheckpoint on a server that is already merging");
  }
  std::vector<std::string> shard_blobs;
  Status status = SplitPartitionedCheckpoint(blob, &shard_blobs);
  if (!status.ok()) return status;
  const int shards = static_cast<int>(shard_blobs.size());
  // Each shard restores inside its factory call: the shard's own merge
  // thread does not exist yet at that point, and nothing is delivered until
  // the merger is built, so the restore is race-free.  Restore failures
  // are latched and checked after construction (the factory signature
  // cannot return a Status).  A merger requires every shard at one width,
  // so a failed or skipped restore yields a fresh algorithm as wide as
  // shard 0's.
  Status restore_status = Status::Ok();
  int width = 1;
  std::vector<Timestamp> restored_stables(shard_blobs.size(), kMinTimestamp);
  std::unique_ptr<Merger> merger =
      NewMerger(shards, [&](int shard, ElementSink* sink) {
        std::unique_ptr<MergeAlgorithm> algorithm = CreateMergeAlgorithm(
            cert.variant, /*num_streams=*/1, sink, cert.policy);
        Checkpointable* checkpointable = algorithm->checkpointable();
        if (restore_status.ok() && checkpointable == nullptr) {
          restore_status = Status::InvalidArgument(
              std::string("variant ") + MergeVariantName(cert.variant) +
              " does not support checkpoints");
        }
        if (restore_status.ok()) {
          restore_status =
              LoadCheckpoint(shard_blobs[static_cast<size_t>(shard)],
                             checkpointable, /*cut_certificate=*/nullptr,
                             feed_dict);
        }
        if (restore_status.ok()) {
          restore_status = CheckRoomForFeedStream(algorithm->stream_count());
        }
        if (restore_status.ok() && shard > 0 &&
            algorithm->stream_count() != width) {
          restore_status = Status::InvalidArgument(
              "shard " + std::to_string(shard) + " restores " +
              std::to_string(algorithm->stream_count()) +
              " streams, shard 0 " + std::to_string(width));
        }
        if (!restore_status.ok()) {
          return CreateMergeAlgorithm(cert.variant, width, sink, cert.policy);
        }
        width = algorithm->stream_count();
        restored_stables[static_cast<size_t>(shard)] =
            algorithm->max_stable();
        return algorithm;
      });
  if (!restore_status.ok()) return restore_status;
  // The certificate is checked one way for every cut: it names one frontier
  // per shard of a partitioned cut and none for a one-shard cut (what
  // SendCheckpointLocked writes), every named frontier must be the restored
  // one, and the output stable point must be their minimum.
  const size_t named = shards > 1 ? shard_blobs.size() : 0;
  if (cert.shard_stables.size() != named) {
    return Status::InvalidArgument(
        "cut certificate names " +
        std::to_string(cert.shard_stables.size()) +
        " shard frontiers but the checkpoint holds " +
        std::to_string(shards) + " shard(s)");
  }
  Timestamp min_stable = restored_stables[0];
  for (size_t k = 0; k < restored_stables.size(); ++k) {
    min_stable = std::min(min_stable, restored_stables[k]);
    if (k < named && restored_stables[k] != cert.shard_stables[k]) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) + " restored stable point " +
          TimestampToString(restored_stables[k]) +
          " does not match cut certificate " +
          TimestampToString(cert.shard_stables[k]));
    }
  }
  if (min_stable != cert.output_stable) {
    return Status::InvalidArgument(
        "checkpoint stable point " + TimestampToString(min_stable) +
        " does not match cut certificate " +
        TimestampToString(cert.output_stable));
  }
  // The snapshot's input streams belong to the dead primary's publishers,
  // which this server will never hear from: detach them all through the
  // merger (whatever a detach releases is fanned out by its after_batch
  // hook).  The feed stream (the primary's merged output) joins as a NEW
  // stream and adopts the output's views on its first HELLO.  Pin variant +
  // policy so later publishers cannot re-select an algorithm incompatible
  // with the restored state.
  const MergerInputSnapshot snapshot = merger->InputSnapshot();
  for (size_t s = 0; s < snapshot.active.size(); ++s) {
    if (snapshot.active[s]) merger->RemoveStream(static_cast<int>(s));
  }
  options_.variant = cert.variant;
  options_.policy = cert.policy;
  options_.merge_threads = shards;
  variant_ = cert.variant;
  merger_streams_ = static_cast<int>(snapshot.active.size());
  merger_ = std::move(merger);
  last_output_stable_ = merger_->max_stable();
  adopted_ = true;
  adopt_output_pending_ = true;
  return Status::Ok();
}

std::unique_ptr<Merger> MergeServer::NewMerger(int shards,
                                               ShardAlgorithmFactory factory) {
  PartitionedMergerOptions merger_options;
  merger_options.shards = shards;
  merger_options.ring_capacity = options_.ring_capacity;
  merger_options.max_batch = options_.max_batch;
  merger_options.after_batch = [this] { fan_out_.Flush(); };
  return MakeMerger(std::move(factory), &fan_out_, std::move(merger_options));
}

Status MergeServer::DeliverBatchLocked(Session& session,
                                       ElementSequence elements,
                                       int64_t origin_us) {
  // Filter in place: every element feeds the progress watermarks, held-back
  // stables from a not-yet-joined stream are dropped (Sec. V-B joining
  // protocol: a stream that declared join time t may miss events that died
  // before t, so until the output stable point reaches t its stables must
  // not drive the output stable point), and the survivors reach the merge as ONE
  // ring batch instead of per-element handoffs.
  size_t kept = 0;
  for (size_t i = 0; i < elements.size(); ++i) {
    StreamElement& element = elements[i];
    session.stats.Observe(element);
    if (element.is_stable() && !session.joined) {
      session.joined = merger_->max_stable() >= session.join_time;
      if (!session.joined) continue;
    }
    if (kept != i) elements[kept] = std::move(element);
    ++kept;
  }
  obs::IngestStamp stamp;
  stamp.origin_us = origin_us;
  stamp.rx_us = session.last_rx_us;
  const Status status = merger_->TryDeliverBatch(
      session.stream_id, std::span<StreamElement>(elements.data(), kept),
      stamp);
  if (!status.ok()) return status;
  NoteProgressLocked(session);
  MaybeStableAdvanceLocked();
  return Status::Ok();
}

void MergeServer::NoteProgressLocked(Session& session) {
  if (!obs::MetricsRegistry::enabled()) return;
  const Timestamp watermark = session.stats.stable_point();
  if (!session.progress_marks.empty() &&
      watermark <= session.progress_marks.back().watermark) {
    return;
  }
  WatermarkMark mark;
  mark.watermark = watermark;
  mark.mono_ms = obs::MonotonicMicros() / 1000;
  session.progress_marks.push_back(mark);
  if (session.progress_marks.size() > kWatermarkWindow) {
    session.progress_marks.pop_front();
  }
}

int64_t MergeServer::StableLagMsLocked() {
  if (merger_ == nullptr) return 0;
  // How stale is the merged output relative to its *leading* input?  For
  // each publisher, the earliest retained moment its watermark already
  // covered the current output stable point S bounds when the output
  // could first have reached S; the oldest such moment across publishers
  // is when the *merge* (not any one input) started owing S.  The gauge is
  // the age of that moment — 0 when no publisher's window covers S yet.
  const Timestamp stable = merger_->max_stable();
  const int64_t now_ms = obs::MonotonicMicros() / 1000;
  int64_t earliest_covering_ms = 0;
  for (auto& [id, session] : sessions_) {
    if (session.state != SessionState::kPublisher) continue;
    auto& marks = session.progress_marks;
    // Marks below the (monotone) output stable point can never cover a
    // future S either; drop them so the window holds only useful history.
    while (!marks.empty() && marks.front().watermark < stable) {
      marks.pop_front();
    }
    if (marks.empty()) continue;
    const int64_t covered_ms = marks.front().mono_ms;
    if (earliest_covering_ms == 0 || covered_ms < earliest_covering_ms) {
      earliest_covering_ms = covered_ms;
    }
  }
  if (earliest_covering_ms == 0) return 0;
  const int64_t lag = now_ms - earliest_covering_ms;
  return lag > 0 ? lag : 0;
}

void MergeServer::MaybeStableAdvanceLocked() {
  // max_stable() is a snapshot that may trail in-flight batches; Flush()
  // and the flushing getters run the exact version.
  const Timestamp stable = merger_->max_stable();
  if (stable > last_output_stable_) {
    last_output_stable_ = stable;
    AfterStableAdvanceLocked();
  }
}

void MergeServer::FlushLocked() {
  if (merger_ == nullptr) return;
  merger_->WaitIdle();
  MaybeStableAdvanceLocked();
}

void MergeServer::Flush() {
  MutexLock lock(mutex_);
  FlushLocked();
}

void MergeServer::AfterStableAdvanceLocked() {
  const Timestamp stable = last_output_stable_;
  for (auto& [id, session] : sessions_) {
    if (session.state != SessionState::kPublisher) continue;
    if (!session.joined && stable >= session.join_time) {
      session.joined = true;
      if (options_.verbose) Log(session, "joined");
    }
    if (options_.feedback_enabled &&
        session.stats.stable_point() < stable &&
        session.last_feedback < stable) {
      // This publisher is behind the merged output: everything it would
      // send about events dead before `stable` will be dropped anyway, so
      // tell it to fast-forward (Sec. V-D).
      FeedbackMessage feedback;
      feedback.horizon = stable;
      if (session.connection->Send(EncodeFeedbackFrame(feedback)).ok()) {
        session.last_feedback = stable;
        tx_feedback_metric_->Increment();
      }
    }
  }
}

void MergeServer::CloseSessionLocked(Session& session, const std::string& reason,
                               bool send_bye) {
  if (session.state == SessionState::kClosed) return;
  if (session.state == SessionState::kPublisher) {
    // Blocking: drains the departing publisher's ring, then detaches the
    // stream on the merge thread — its in-flight elements are never lost.
    merger_->RemoveStream(session.stream_id);
    --active_publishers_;
  }
  if (session.state == SessionState::kSubscriber ||
      session.state == SessionState::kStandby) {
    MutexLock fanout_lock(fanout_mutex_);
    std::erase_if(subscribers_, [&](const Subscriber& s) {
      return s.session_id == session.id;
    });
  }
  if (send_bye) {
    ByeMessage bye;
    bye.reason = reason;
    // Best effort: the session is being torn down regardless; a peer that
    // already vanished simply misses its goodbye.
    (void)session.connection->Send(EncodeByeFrame(bye));
  }
  if (options_.verbose) Log(session, "closed: " + reason);
  session.state = SessionState::kClosed;
  // Actively close the transport: an orderly peer drains its receive side
  // until this EOF before closing its own end (see PublisherClient::Finish)
  // — closing with unread data (e.g. FEEDBACK pushes) would RST the
  // connection and discard the peer's own in-flight bytes.  Also unblocks
  // the ServeLoop read thread for this session.
  session.connection->Close();
}

void MergeServer::AddOutputSink(ElementSink* sink) {
  LM_CHECK(sink != nullptr);
  MutexLock lock(fanout_mutex_);
  output_sinks_.push_back(sink);
}

Timestamp MergeServer::output_stable() const {
  // The flushing getters mutate (FlushLocked advances join/feedback state),
  // so they run on a non-const view; the lock discipline is identical.
  MergeServer* self = const_cast<MergeServer*>(this);
  MutexLock lock(self->mutex_);
  self->FlushLocked();
  return self->merger_ == nullptr ? kMinTimestamp
                                  : self->merger_->max_stable();
}

int MergeServer::active_publishers() const {
  MutexLock lock(mutex_);
  return active_publishers_;
}

int MergeServer::publishers_seen() const {
  MutexLock lock(mutex_);
  return publishers_seen_;
}

int MergeServer::subscriber_count() const {
  MutexLock lock(mutex_);
  int n = 0;
  for (const auto& [id, session] : sessions_) {
    n += session.state == SessionState::kSubscriber ||
                 session.state == SessionState::kStandby
             ? 1
             : 0;
  }
  return n;
}

bool MergeServer::SessionMidFrame(int session_id) const {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return false;
  return it->second.assembler.pending_bytes() > 0;
}

bool MergeServer::drained() const {
  MutexLock lock(mutex_);
  return publishers_seen_ > 0 && active_publishers_ == 0;
}

MergeOutputStats MergeServer::merge_stats() const {
  MergeServer* self = const_cast<MergeServer*>(this);
  MutexLock lock(self->mutex_);
  if (self->merger_ == nullptr) return MergeOutputStats();
  self->FlushLocked();
  // Snapshot at a barrier: the only race-free reader of algorithm state
  // while other sessions may still be delivering; for a partitioned merge
  // the totals are aggregated across shards with the sum/min rules.
  return self->merger_->StatsSnapshot();
}

const char* MergeServer::algorithm_name() const {
  MutexLock lock(mutex_);
  return merger_ == nullptr
             ? "none"
             : AlgorithmCaseName(merger_->algorithm_case());
}

obs::MetricsSnapshot MergeServer::MetricsSnapshotLocked() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Every publisher session's inbound dictionary pins a payload rep per
  // defined id, beside the merge state's own references.
  int64_t rx_dict_entries = 0;
  for (const auto& [id, session] : sessions_) {
    if (session.dict_in != nullptr) rx_dict_entries += session.dict_in->entries();
  }
  registry.GetGauge("net.rx.dict.entries")->Set(rx_dict_entries);
  {
    MutexLock fanout_lock(fanout_mutex_);
    registry.GetGauge("net.subscribers")
        ->Set(static_cast<int64_t>(subscribers_.size()));
    // One broadcast dictionary serves every subscriber.
    registry.GetGauge("net.tx.dict.entries")->Set(broadcast_dict_.entries());
  }
  if (merger_ != nullptr) {
    registry.GetGauge("merge.stable_lag_ms")->Set(StableLagMsLocked());
    // Exports the algorithm's counters on the merge thread, then snapshots.
    return merger_->MetricsSnapshot();
  }
  return registry.Snapshot();
}

obs::MetricsSnapshot MergeServer::MetricsSnapshot() {
  // Outside mutex_: see OnBytes.
  obs::ExportPayloadStoreMetrics(PayloadStore::Global(),
                                 &obs::MetricsRegistry::Global());
  MutexLock lock(mutex_);
  return MetricsSnapshotLocked();
}

bool MergeServer::Ready(std::chrono::milliseconds timeout) {
  // Posts a no-op onto the merge thread and waits: a wedged merge (or, for
  // the partitioned engine, any wedged shard or aggregator) misses the
  // deadline.  The merge thread never takes mutex_, so holding it here
  // cannot deadlock with the probe.
  MutexLock lock(mutex_);
  if (merger_ == nullptr) return true;
  return merger_->Responsive(timeout);
}

StatsResponseMessage MergeServer::BuildStatsResponseLocked() {
  StatsResponseMessage stats;
  stats.output_stable =
      merger_ == nullptr ? kMinTimestamp : merger_->max_stable();
  if (merger_ != nullptr) {
    stats.algorithm_case =
        static_cast<uint8_t>(merger_->algorithm_case());
  }
  for (const auto& [id, session] : sessions_) {
    if (session.state == SessionState::kPublisher) ++stats.publishers;
    if (session.state == SessionState::kSubscriber ||
        session.state == SessionState::kStandby) {
      ++stats.subscribers;
    }
  }
  stats.metrics = MetricsSnapshotLocked();
  if (merger_ != nullptr) {
    // Per-input counters, copied at a barrier (race-free against in-flight
    // deliveries, one consistent cut across shards), then joined with the
    // session registry.
    const MergerInputSnapshot snapshot = merger_->InputSnapshot();
    stats.output_inserts = snapshot.totals.inserts_out;
    stats.output_adjusts = snapshot.totals.adjusts_out;
    stats.inputs.reserve(snapshot.per_input.size());
    for (size_t s = 0; s < snapshot.per_input.size(); ++s) {
      StatsInputRow row;
      row.stream_id = static_cast<int32_t>(s);
      // Departed publishers keep their name (the live-session join below
      // only flips `connected` back on).
      const auto name = stream_names_.find(static_cast<int>(s));
      if (name != stream_names_.end()) row.peer_name = name->second;
      row.active = snapshot.active[s];
      row.inserts_in = snapshot.per_input[s].inserts_in;
      row.adjusts_in = snapshot.per_input[s].adjusts_in;
      row.stables_in = snapshot.per_input[s].stables_in;
      row.dropped = snapshot.per_input[s].dropped;
      row.contributed = snapshot.per_input[s].contributed;
      row.stable_point = snapshot.per_input[s].stable_point;
      stats.inputs.push_back(std::move(row));
    }
    for (const auto& [id, session] : sessions_) {
      if (session.state != SessionState::kPublisher) continue;
      if (session.stream_id < 0 ||
          session.stream_id >= static_cast<int>(stats.inputs.size())) {
        continue;
      }
      StatsInputRow& row =
          stats.inputs[static_cast<size_t>(session.stream_id)];
      row.peer_name = session.name;
      row.connected = true;
    }
  }
  return stats;
}

StatsResponseMessage MergeServer::StatsSnapshot() {
  // Outside mutex_: see OnBytes.
  obs::ExportPayloadStoreMetrics(PayloadStore::Global(),
                                 &obs::MetricsRegistry::Global());
  MutexLock lock(mutex_);
  return BuildStatsResponseLocked();
}

void MergeServer::Log(const Session& session,
                      const std::string& message) const {
  std::fprintf(stderr, "[lmerge_served] %s: %s\n", session.name.c_str(),
               message.c_str());
}

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A connection owned by an event loop.  Every write funnels through an
// outbound queue of refcounted frame buffers: Send (handshake, feedback,
// checkpoint frames — callers that must not fail spuriously) enqueues
// without bound, SendShared (fan-out) enforces max_outbound_bytes and
// disconnects the peer on overflow — the slow-consumer policy.  Both
// opportunistically flush through the transport's non-blocking TrySend;
// EPOLLOUT is armed only while a backlog exists, so an idle connection
// costs the loop nothing.
//
// The queue mutex is a LEAF below every other lock (DESIGN.md "Lock
// order"): the merge thread reaches it via fanout_mutex_ -> SendShared,
// the IO thread via its dispatch (no lock), and neither path acquires
// anything under it.
class IoConnection : public Connection {
 public:
  IoConnection(std::unique_ptr<Connection> inner, EventLoop* loop,
               size_t max_outbound_bytes, obs::Counter* slow_disconnects)
      : inner_(std::move(inner)),
        loop_(loop),
        max_outbound_bytes_(max_outbound_bytes),
        slow_disconnects_(slow_disconnects) {}

  // Called once after the fd is registered with the loop; until then
  // Interest() would fail with ENOENT, so arming is suppressed.
  void set_registered() {
    registered_.store(true, std::memory_order_release);
  }

  Status Send(const char* data, size_t size) override {
    return Enqueue(std::make_shared<const std::string>(data, size),
                   /*bounded=*/false);
  }

  Status SendShared(std::shared_ptr<const std::string> frame) override {
    return Enqueue(std::move(frame), /*bounded=*/true);
  }

  Status Receive(char* buffer, size_t capacity, size_t* received) override {
    return inner_->Receive(buffer, capacity, received);
  }

  Status TryReceive(std::string* out) override {
    return inner_->TryReceive(out);
  }

  int readable_fd() const override { return inner_->readable_fd(); }
  void Close() override { inner_->Close(); }
  bool closed() const override { return inner_->closed(); }
  std::string peer() const override { return inner_->peer(); }

  // EPOLLOUT dispatch: drain as much backlog as the transport accepts.
  void HandleWritable() {
    MutexLock lock(mutex_);
    (void)FlushLocked();
  }

 private:
  Status Enqueue(std::shared_ptr<const std::string> frame, bool bounded) {
    bool overflow = false;
    Status status;
    {
      MutexLock lock(mutex_);
      if (send_failed_) {
        return Status::FailedPrecondition("connection closed");
      }
      if (bounded && queued_bytes_ + frame->size() > max_outbound_bytes_) {
        overflow = true;
        send_failed_ = true;
      } else {
        queued_bytes_ += frame->size();
        queue_.push_back(std::move(frame));
        status = FlushLocked();
      }
    }
    if (overflow) {
      slow_disconnects_->Increment();
      // Close outside the queue lock; the IO thread observes the closed
      // transport and tears the session down.
      inner_->Close();
      return Status::Internal("slow consumer: outbound queue would exceed " +
                              std::to_string(max_outbound_bytes_) + " bytes");
    }
    return status;
  }

  Status FlushLocked() LM_REQUIRES(mutex_) {
    while (!queue_.empty()) {
      const std::string& front = *queue_.front();
      size_t sent = 0;
      const Status status = inner_->TrySend(
          front.data() + front_offset_, front.size() - front_offset_, &sent);
      if (!status.ok()) {
        send_failed_ = true;
        queue_.clear();
        queued_bytes_ = 0;
        front_offset_ = 0;
        UpdateInterestLocked();
        return status;
      }
      front_offset_ += sent;
      queued_bytes_ -= sent;
      if (front_offset_ < front.size()) break;  // transport full for now
      queue_.pop_front();
      front_offset_ = 0;
    }
    UpdateInterestLocked();
    return Status::Ok();
  }

  void UpdateInterestLocked() LM_REQUIRES(mutex_) {
    if (!registered_.load(std::memory_order_acquire)) return;
    const bool want_out = !queue_.empty() && !send_failed_;
    if (want_out == epollout_armed_) return;
    const int fd = inner_->readable_fd();
    if (fd < 0) return;
    const uint32_t events =
        EPOLLIN | (want_out ? static_cast<uint32_t>(EPOLLOUT) : 0);
    if (loop_->Interest(fd, events).ok()) epollout_armed_ = want_out;
  }

  std::unique_ptr<Connection> inner_;
  EventLoop* loop_;
  const size_t max_outbound_bytes_;
  obs::Counter* slow_disconnects_;
  std::atomic<bool> registered_{false};

  mutable Mutex mutex_;
  std::deque<std::shared_ptr<const std::string>> queue_ LM_GUARDED_BY(mutex_);
  size_t queued_bytes_ LM_GUARDED_BY(mutex_) = 0;
  // Bytes of queue_.front() already written to the transport.
  size_t front_offset_ LM_GUARDED_BY(mutex_) = 0;
  bool send_failed_ LM_GUARDED_BY(mutex_) = false;
  bool epollout_armed_ LM_GUARDED_BY(mutex_) = false;
};

// One served connection: the event callbacks and the idle sweep both hold
// a shared_ptr, so the IoConnection outlives whichever path tears it down.
struct ServedSession {
  int id = 0;
  std::unique_ptr<IoConnection> connection;
  EventLoop* loop = nullptr;
  int loop_index = 0;
  int fd = -1;
  std::atomic<int64_t> last_rx_ms{0};
};

// Session registry shared between the accept path (loop 0), each session's
// owning loop (teardown), and the idle sweeps.
struct ServeState {
  Mutex mutex;
  std::map<int, std::shared_ptr<ServedSession>> sessions
      LM_GUARDED_BY(mutex);
};

}  // namespace

void LoopPingRegistry::Set(std::vector<EventLoop*> loops) {
  MutexLock lock(mutex_);
  loops_ = std::move(loops);
}

void LoopPingRegistry::Clear() {
  MutexLock lock(mutex_);
  loops_.clear();
}

bool LoopPingRegistry::Ping(std::chrono::milliseconds timeout) {
  // Holds the mutex across the whole probe so Clear() (ServeLoop teardown)
  // cannot invalidate a loop pointer mid-ping; Clear then blocks until the
  // probe finishes, which is bounded by `timeout`.
  MutexLock lock(mutex_);
  if (loops_.empty()) return true;
  std::vector<std::future<void>> done;
  done.reserve(loops_.size());
  for (EventLoop* loop : loops_) {
    auto signal = std::make_shared<std::promise<void>>();
    done.push_back(signal->get_future());
    loop->Post([signal] { signal->set_value(); });
  }
  // One shared deadline: a loop that is busy-but-alive borrows slack from
  // the loops that answered instantly.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (auto& future : done) {
    if (future.wait_until(deadline) != std::future_status::ready) {
      return false;
    }
  }
  return true;
}

void ServeLoop(Listener* listener, MergeServer* server,
               const ServeLoopOptions& options) {
  // The event-loop transport requires pollable endpoints; both shipped
  // transports (tcp, loopback) are.
  LM_CHECK(listener->pollable_fd() >= 0);
  const int io_threads = std::max(1, options.io_threads);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* slow_disconnects =
      registry.GetCounter("net.loop.slow_consumer_disconnects");
  obs::Counter* idle_timeouts = registry.GetCounter("net.loop.idle_timeouts");
  registry.GetGauge("net.loop.io_threads")->Set(io_threads);

  std::vector<std::unique_ptr<EventLoop>> loops;
  loops.reserve(static_cast<size_t>(io_threads));
  for (int i = 0; i < io_threads; ++i) {
    loops.push_back(std::make_unique<EventLoop>());
  }
  if (options.loop_pings != nullptr) {
    std::vector<EventLoop*> raw;
    raw.reserve(loops.size());
    for (auto& loop : loops) raw.push_back(loop.get());
    options.loop_pings->Set(std::move(raw));
  }
  auto state = std::make_shared<ServeState>();

  const auto stop_all = [&loops] {
    for (auto& loop : loops) loop->Stop();
  };

  // Tears one session down.  Runs on the session's owning loop thread (its
  // read callback or its loop's idle sweep), or on the ServeLoop thread
  // after every loop has stopped — never concurrently with a dispatch for
  // the same fd.
  const auto teardown = [server, listener, state,
                         &options](const std::shared_ptr<ServedSession>&
                                       session) {
    {
      MutexLock lock(state->mutex);
      if (state->sessions.erase(session->id) == 0) return;  // already down
    }
    session->loop->Remove(session->fd);
    server->OnDisconnect(session->id);
    session->connection->Close();
    if (options.drain_publishers > 0 &&
        server->publishers_seen() >= options.drain_publishers &&
        server->active_publishers() == 0) {
      // Service drained: poke the accept callback (loop 0), which stops
      // every loop so ServeLoop returns.
      listener->Close();
    }
  };

  const auto on_conn_event = [server, teardown](
                                 const std::shared_ptr<ServedSession>& session,
                                 uint32_t events) {
    IoConnection* connection = session->connection.get();
    if ((events & EPOLLOUT) != 0) connection->HandleWritable();
    bool dead = false;
    std::string bytes;
    if (!connection->TryReceive(&bytes).ok()) dead = true;
    if (!bytes.empty()) {
      session->last_rx_ms.store(NowMs(), std::memory_order_relaxed);
      if (!server->OnBytes(session->id, bytes).ok()) dead = true;
    }
    if (connection->closed()) dead = true;  // EOF or error observed
    if (dead) teardown(session);
  };

  // Accept path, on loop 0.  `next_loop` is callback-local state: the
  // accept callback only ever runs on loop 0's thread.
  auto next_loop = std::make_shared<int>(0);
  const auto on_accept = [listener, server, state, &loops, &options,
                          io_threads, next_loop, slow_disconnects,
                          on_conn_event, teardown, stop_all](uint32_t) {
    while (true) {
      std::unique_ptr<Connection> accepted;
      if (!listener->TryAccept(&accepted).ok()) {
        // Listener closed (drain or external shutdown): stop every loop.
        stop_all();
        return;
      }
      if (accepted == nullptr) return;  // nothing pending right now
      const int loop_index = *next_loop;
      *next_loop = (*next_loop + 1) % io_threads;
      EventLoop* loop = loops[static_cast<size_t>(loop_index)].get();
      auto session = std::make_shared<ServedSession>();
      session->connection = std::make_unique<IoConnection>(
          std::move(accepted), loop, options.max_outbound_bytes,
          slow_disconnects);
      session->loop = loop;
      session->loop_index = loop_index;
      session->fd = session->connection->readable_fd();
      if (session->fd < 0) {
        // Non-pollable connection from a pollable listener: cannot serve.
        session->connection->Close();
        continue;
      }
      session->last_rx_ms.store(NowMs(), std::memory_order_relaxed);
      session->id = server->OnConnect(session->connection.get());
      {
        MutexLock lock(state->mutex);
        state->sessions[session->id] = session;
      }
      const Status added =
          loop->Add(session->fd, EPOLLIN, [session, on_conn_event](
                                              uint32_t events) {
            on_conn_event(session, events);
          });
      if (!added.ok()) {
        teardown(session);
        continue;
      }
      session->connection->set_registered();
    }
  };
  LM_CHECK(loops[0]->Add(listener->pollable_fd(), EPOLLIN, on_accept).ok());

  // Idle sweep: each loop ticks over ITS sessions and kills peers that have
  // been silent past the timeout while mid-frame.  Quiet but frame-aligned
  // sessions (an idle subscriber, a paused publisher between batches) are
  // never touched.
  const auto make_tick = [state, server, idle_timeouts, teardown,
                          &options](int loop_index) {
    return [state, server, idle_timeouts, teardown, &options, loop_index] {
      const int64_t cutoff = NowMs() - options.idle_timeout_ms;
      std::vector<std::shared_ptr<ServedSession>> quiet;
      {
        MutexLock lock(state->mutex);
        for (const auto& [id, session] : state->sessions) {
          if (session->loop_index != loop_index) continue;
          if (session->last_rx_ms.load(std::memory_order_relaxed) <=
              cutoff) {
            quiet.push_back(session);
          }
        }
      }
      for (const auto& session : quiet) {
        if (server->SessionMidFrame(session->id)) {
          idle_timeouts->Increment();
          teardown(session);
        }
      }
    };
  };

  // Loop 0 runs on the calling thread; extra IO threads only when asked
  // for — the whole transport costs io_threads threads, not one per
  // session.
  const int tick_ms =
      options.idle_timeout_ms > 0
          ? std::max(1, std::min(options.idle_timeout_ms / 4, 50))
          : -1;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(io_threads - 1));
  for (int i = 1; i < io_threads; ++i) {
    EventLoop* loop = loops[static_cast<size_t>(i)].get();
    threads.emplace_back([loop, tick_ms, tick = make_tick(i)] {
      loop->Run(tick_ms, tick_ms > 0 ? tick : std::function<void()>());
    });
  }
  loops[0]->Run(tick_ms,
                tick_ms > 0 ? make_tick(0) : std::function<void()>());
  for (auto& thread : threads) thread.join();

  // Unpublish the loops before destroying them: a concurrent readiness
  // Ping() either finishes against live loops first (Clear blocks on its
  // mutex) or sees the empty registry.
  if (options.loop_pings != nullptr) options.loop_pings->Clear();

  // Every loop has stopped; tear down whatever sessions remain (typically
  // subscribers at drain — their peers see EOF, as before).
  std::vector<std::shared_ptr<ServedSession>> leftover;
  {
    MutexLock lock(state->mutex);
    for (const auto& [id, session] : state->sessions) {
      leftover.push_back(session);
    }
  }
  for (const auto& session : leftover) teardown(session);
}

}  // namespace lmerge::net
