#include "replica/standby.h"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <utility>

#include "net/loopback.h"
#include "properties/properties.h"

namespace lmerge::replica {

StandbyReplica::StandbyReplica(StandbyOptions options)
    : options_(std::move(options)), server_(options_.server) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  feed_elements_metric_ = registry.GetCounter("replica.feed.elements");
  replay_elements_metric_ = registry.GetCounter("replica.replay.elements");
  dedup_elements_metric_ = registry.GetCounter("replica.dedup.elements");
  checkpoint_rx_bytes_metric_ =
      registry.GetCounter("replica.checkpoint.rx.bytes");
  checkpoint_rx_chunks_metric_ =
      registry.GetCounter("replica.checkpoint.rx.chunks");
  replay_lag_metric_ = registry.GetGauge("replica.replay.lag");
}

StandbyReplica::~StandbyReplica() {
  if (feed_session_id_ >= 0) server_.OnDisconnect(feed_session_id_);
  if (primary_ != nullptr) primary_->Close();
}

Status StandbyReplica::Connect(std::unique_ptr<net::Connection> primary) {
  if (connected_) return Status::FailedPrecondition("already connected");
  if (primary == nullptr) {
    return Status::InvalidArgument("null primary connection");
  }
  primary_ = std::move(primary);
  net::HelloMessage hello;
  hello.role = net::PeerRole::kStandby;
  hello.peer_name = options_.name;
  std::string bye_reason;
  const Status status = net::ExchangeHello(primary_.get(), &assembler_, hello,
                                           /*welcome=*/nullptr, &bye_reason);
  if (!status.ok()) return status;
  connected_ = true;
  Log("connected to primary");
  return Status::Ok();
}

Status StandbyReplica::DecodeFeedFrame(const net::Frame& frame,
                                       ElementSequence* out, bool* bye,
                                       std::string* bye_reason) {
  *bye = false;
  switch (frame.type) {
    case net::FrameType::kElementsDict: {
      // The payload decoders replace their output; decode into a scratch
      // and append so callers can accumulate across frames.  The origin
      // stamp is dropped: the standby replays, it does not measure.
      ElementSequence decoded;
      int64_t origin_us = 0;
      const Status status = net::DecodeElementsDictPayload(
          frame.payload, dict_, &decoded, &origin_us);
      if (!status.ok()) return status;
      out->insert(out->end(), decoded.begin(), decoded.end());
      return Status::Ok();
    }
    case net::FrameType::kFeedback:
      // Subscribers do not act on feedback; tolerate and drop.
      return Status::Ok();
    case net::FrameType::kBye: {
      net::ByeMessage message;
      (void)net::DecodeBye(frame.payload, &message);
      *bye = true;
      *bye_reason = message.reason;
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected frame from primary: ") +
          net::FrameTypeName(frame.type));
  }
}

Status StandbyReplica::Jumpstart() {
  if (!connected_) return Status::FailedPrecondition("not connected");
  if (jumpstarted_) return Status::FailedPrecondition("already jumpstarted");
  Status status = primary_->Send(net::EncodeCheckpointRequestFrame());
  if (!status.ok()) return status;

  // Receive until the snapshot transfer is complete, buffering the live
  // output elements that interleave with it.  Every pre-cut element
  // precedes the CUT_CERT on this connection, so after the loop `pending`
  // holds at least `elements_sent_at_cut` elements and the dedup horizon
  // is a plain prefix length.
  ElementSequence pending;
  net::CutCertMessage cut;
  bool have_cert = false;
  std::string blob;
  uint32_t chunks_received = 0;
  while (true) {
    net::Frame frame;
    status = net::ReceiveFrame(primary_.get(), &assembler_, &frame);
    if (!status.ok()) {
      if (status.code() == StatusCode::kFailedPrecondition) {
        return Status::FailedPrecondition(
            "primary closed the connection during jumpstart");
      }
      return status;
    }
    if (frame.type == net::FrameType::kCutCert) {
      if (have_cert) {
        return Status::InvalidArgument("duplicate CUT_CERT from primary");
      }
      status = net::DecodeCutCert(frame.payload, &cut);
      if (!status.ok()) return status;
      have_cert = true;
      Log("cut certificate: " +
          std::string(cut.has_state ? "snapshot of " : "no state, ") +
          std::to_string(cut.checkpoint_bytes) + " bytes in " +
          std::to_string(cut.chunk_count) + " chunks, dedup horizon " +
          std::to_string(cut.cert.elements_sent_at_cut));
      if (!cut.has_state || cut.chunk_count == 0) break;
      blob.reserve(cut.checkpoint_bytes);
      continue;
    }
    if (frame.type == net::FrameType::kCheckpointChunk) {
      if (!have_cert || !cut.has_state) {
        return Status::InvalidArgument(
            "CHECKPOINT_CHUNK before a CUT_CERT announcing state");
      }
      net::CheckpointChunkMessage chunk;
      status = net::DecodeCheckpointChunk(frame.payload, &chunk);
      if (!status.ok()) return status;
      if (chunk.index != chunks_received) {
        return Status::InvalidArgument(
            "checkpoint chunk " + std::to_string(chunk.index) +
            " out of order (expected " + std::to_string(chunks_received) +
            ")");
      }
      blob.append(chunk.bytes);
      ++chunks_received;
      checkpoint_rx_bytes_metric_->Add(
          static_cast<int64_t>(chunk.bytes.size()));
      checkpoint_rx_chunks_metric_->Increment();
      if (chunks_received == cut.chunk_count) {
        if (blob.size() != cut.checkpoint_bytes) {
          return Status::InvalidArgument(
              "checkpoint transfer size mismatch: announced " +
              std::to_string(cut.checkpoint_bytes) + " bytes, received " +
              std::to_string(blob.size()));
        }
        break;
      }
      continue;
    }
    bool bye = false;
    std::string bye_reason;
    const size_t before = pending.size();
    status = DecodeFeedFrame(frame, &pending, &bye, &bye_reason);
    if (!status.ok()) return status;
    if (bye) {
      return Status::FailedPrecondition("primary said BYE during jumpstart: " +
                                        bye_reason);
    }
    BumpFeed(static_cast<int64_t>(pending.size() - before),
             static_cast<int64_t>(pending.size()));
  }

  int64_t skip = 0;
  if (cut.has_state) {
    status = server_.AdoptCheckpoint(blob, cut.cert, &dict_);
    if (!status.ok()) return status;
    skip = cut.cert.elements_sent_at_cut;
    if (skip > static_cast<int64_t>(pending.size())) {
      return Status::InvalidArgument(
          "cut certificate dedup horizon " + std::to_string(skip) +
          " exceeds the " + std::to_string(pending.size()) +
          " elements received before it");
    }
    checkpoint_blob_ = std::move(blob);
    MutexLock lock(mutex_);
    has_state_ = true;
    cut_ = cut.cert;
  }

  status = AttachFeed(cut.has_state ? cut.cert.output_stable : kMinTimestamp);
  if (!status.ok()) return status;

  // Replay the buffered tail: elements past the dedup horizon are exactly
  // the output the primary produced after the cut.
  if (skip > 0) {
    pre_cut_.assign(pending.begin(),
                    pending.begin() + static_cast<ptrdiff_t>(skip));
    MutexLock lock(mutex_);
    deduped_ += skip;
    dedup_elements_metric_->Add(skip);
  }
  ElementSequence tail(pending.begin() + static_cast<ptrdiff_t>(skip),
                       pending.end());
  status = ForwardToFeed(tail);
  if (!status.ok()) return status;
  replay_lag_metric_->Set(0);
  jumpstarted_ = true;
  Log("jumpstarted: deduped " + std::to_string(skip) + ", replayed " +
      std::to_string(tail.size()) + " buffered elements");
  return Status::Ok();
}

Status StandbyReplica::PumpLive() {
  if (!jumpstarted_) return Status::FailedPrecondition("not jumpstarted");
  while (true) {
    net::Frame frame;
    Status status = net::ReceiveFrame(primary_.get(), &assembler_, &frame);
    if (!status.ok()) {
      if (status.code() == StatusCode::kFailedPrecondition) {
        // EOF without BYE: the primary is gone.  That is the failover
        // trigger this class exists for, not an error.
        MutexLock lock(mutex_);
        end_reason_ = "eof";
        return Status::Ok();
      }
      return status;
    }
    ElementSequence elements;
    bool bye = false;
    std::string bye_reason;
    status = DecodeFeedFrame(frame, &elements, &bye, &bye_reason);
    if (!status.ok()) return status;
    if (bye) {
      MutexLock lock(mutex_);
      end_reason_ = bye_reason.empty() ? "bye" : bye_reason;
      return Status::Ok();
    }
    if (elements.empty()) continue;
    BumpFeed(static_cast<int64_t>(elements.size()), 0);
    status = ForwardToFeed(elements);
    if (!status.ok()) return status;
  }
}

Status StandbyReplica::Promote(const std::string& reason) {
  if (!jumpstarted_) return Status::FailedPrecondition("not jumpstarted");
  if (promoted_) return Status::FailedPrecondition("already promoted");
  if (primary_ != nullptr) {
    primary_->Close();
    primary_.reset();
  }
  // Orderly leave for the feed stream (Sec. V-C): the restored algorithm
  // detaches the feed input and keeps merging the directly-connected
  // publishers.
  net::ByeMessage bye;
  bye.reason = reason;
  Status status = server_.OnBytes(feed_session_id_, net::EncodeByeFrame(bye));
  server_.OnDisconnect(feed_session_id_);
  feed_session_id_ = -1;
  std::string drained;
  (void)feed_client_end_->TryReceive(&drained);
  if (!status.ok()) return status;
  server_.Flush();
  promoted_ = true;
  Log("promoted: " + reason);
  return Status::Ok();
}

Status StandbyReplica::AttachFeed(Timestamp join_time) {
  auto ends = net::CreateLoopbackPair(options_.name + ":feed:server",
                                      options_.name + ":feed:client");
  feed_server_end_ = std::move(ends.first);
  feed_client_end_ = std::move(ends.second);
  feed_session_id_ = server_.OnConnect(feed_server_end_.get());
  net::HelloMessage hello;
  hello.role = net::PeerRole::kPublisher;
  // The merged output claims no compile-time properties; when no snapshot
  // was adopted the factory falls back to the most general variant, and
  // when one was adopted the variant is already pinned by the certificate.
  hello.properties = StreamProperties::None();
  hello.join_time = join_time;
  hello.peer_name = options_.name + ":feed";
  Status status =
      server_.OnBytes(feed_session_id_, net::EncodeHelloFrame(hello));
  if (!status.ok()) return status;
  std::string drained;  // the WELCOME; keeps the loopback queue empty
  return feed_client_end_->TryReceive(&drained);
}

Status StandbyReplica::ForwardToFeed(const ElementSequence& elements) {
  size_t offset = 0;
  while (offset < elements.size()) {
    const size_t take = std::min(kReplayBatch, elements.size() - offset);
    ElementSequence batch(
        elements.begin() + static_cast<ptrdiff_t>(offset),
        elements.begin() + static_cast<ptrdiff_t>(offset + take));
    // Replayed elements lost their original ingest moment; an unknown (0)
    // origin keeps them out of the latency histograms instead of charging
    // them the failover gap.
    const Status status = server_.OnBytes(
        feed_session_id_, net::EncodeElementsFrame(batch, /*origin_us=*/0));
    if (!status.ok()) return status;
    offset += take;
    {
      MutexLock lock(mutex_);
      replayed_ += static_cast<int64_t>(take);
    }
    replay_elements_metric_->Add(static_cast<int64_t>(take));
  }
  // Drain server->feed traffic (FEEDBACK) so the loopback queue is bounded.
  std::string drained;
  return feed_client_end_->TryReceive(&drained);
}

void StandbyReplica::BumpFeed(int64_t decoded, int64_t lag) {
  {
    MutexLock lock(mutex_);
    feed_elements_ += decoded;
  }
  feed_elements_metric_->Add(decoded);
  replay_lag_metric_->Set(lag);
  feed_cv_.NotifyAll();
}

bool StandbyReplica::has_state() const {
  MutexLock lock(mutex_);
  return has_state_;
}

CutCertificate StandbyReplica::cut() const {
  MutexLock lock(mutex_);
  return cut_;
}

int64_t StandbyReplica::feed_elements() const {
  MutexLock lock(mutex_);
  return feed_elements_;
}

int64_t StandbyReplica::deduped_elements() const {
  MutexLock lock(mutex_);
  return deduped_;
}

int64_t StandbyReplica::replayed_elements() const {
  MutexLock lock(mutex_);
  return replayed_;
}

std::string StandbyReplica::end_reason() const {
  MutexLock lock(mutex_);
  return end_reason_;
}

bool StandbyReplica::WaitForFeed(int64_t n,
                                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mutex_);
  while (feed_elements_ < n) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    feed_cv_.WaitFor(lock, deadline - now);
  }
  return true;
}

void StandbyReplica::Log(const std::string& message) const {
  if (!options_.verbose) return;
  std::fprintf(stderr, "[standby %s] %s\n", options_.name.c_str(),
               message.c_str());
}

}  // namespace lmerge::replica
