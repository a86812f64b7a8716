#include "net/client.h"

#include "obs/latency.h"

namespace lmerge::net {

Status ReceiveFrame(Connection* connection, FrameAssembler* assembler,
                    Frame* frame) {
  while (true) {
    if (assembler->Next(frame)) return Status::Ok();
    if (assembler->poisoned()) {
      return Status::InvalidArgument("malformed frame stream from server");
    }
    char buffer[64 * 1024];
    size_t received = 0;
    Status status = connection->Receive(buffer, sizeof(buffer), &received);
    if (!status.ok()) return status;
    if (received == 0) {
      return Status::FailedPrecondition("connection closed by server");
    }
    status = assembler->Feed(buffer, received);
    if (!status.ok()) return status;
  }
}

Status ExchangeHello(Connection* connection, FrameAssembler* assembler,
                     const HelloMessage& hello, WelcomeMessage* welcome,
                     std::string* bye_reason) {
  Status status = connection->Send(EncodeHelloFrame(hello));
  if (!status.ok()) return status;
  Frame frame;
  status = ReceiveFrame(connection, assembler, &frame);
  if (!status.ok()) return status;
  if (frame.type == FrameType::kBye) {
    ByeMessage bye;
    // Best effort: a BYE that fails to decode just yields an empty
    // reason; the session outcome is the same either way.
    (void)DecodeBye(frame.payload, &bye);
    *bye_reason = bye.reason;
    return Status::FailedPrecondition(std::string("server rejected ") +
                                      PeerRoleName(hello.role) +
                                      " session: " + bye.reason);
  }
  if (frame.type != FrameType::kWelcome) {
    return Status::InvalidArgument(
        std::string("expected WELCOME, got ") + FrameTypeName(frame.type));
  }
  WelcomeMessage parsed;
  status = DecodeWelcome(frame.payload, &parsed);
  if (!status.ok()) return status;
  if (parsed.version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: server speaks v" +
        std::to_string(parsed.version) + ", client speaks v" +
        std::to_string(kProtocolVersion));
  }
  if (welcome != nullptr) *welcome = parsed;
  return Status::Ok();
}

PublisherClient::PublisherClient(std::unique_ptr<Connection> connection)
    : connection_(std::move(connection)) {
  LM_CHECK(connection_ != nullptr);
}

PublisherClient::~PublisherClient() = default;

Status PublisherClient::Handshake(const StreamProperties& properties,
                                  Timestamp join_time,
                                  const std::string& name,
                                  WelcomeMessage* welcome) {
  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
  hello.properties = properties;
  hello.join_time = join_time;
  hello.peer_name = name;
  return ExchangeHello(connection_.get(), &assembler_, hello, welcome,
                       &bye_reason_);
}

Status PublisherClient::ProcessFrame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kFeedback: {
      FeedbackMessage feedback;
      const Status status = DecodeFeedback(frame.payload, &feedback);
      if (!status.ok()) return status;
      feedback_horizon_ = std::max(feedback_horizon_, feedback.horizon);
      return Status::Ok();
    }
    case FrameType::kBye: {
      ByeMessage bye;
      // Best effort: a BYE that fails to decode just yields an empty
      // reason; the session outcome is the same either way.
      (void)DecodeBye(frame.payload, &bye);
      server_said_bye_ = true;
      bye_reason_ = bye.reason;
      return Status::Ok();
    }
    default:
      return Status::InvalidArgument(
          std::string("unexpected frame from server: ") +
          FrameTypeName(frame.type));
  }
}

Status PublisherClient::DrainAssembler() {
  Frame frame;
  while (assembler_.Next(&frame)) {
    const Status status = ProcessFrame(frame);
    if (!status.ok()) return status;
  }
  if (assembler_.poisoned()) {
    return Status::InvalidArgument("malformed frame stream from server");
  }
  return Status::Ok();
}

Status PublisherClient::Poll() {
  std::string bytes;
  Status status = connection_->TryReceive(&bytes);
  if (!status.ok()) return status;
  if (!bytes.empty()) {
    status = assembler_.Feed(bytes);
    if (!status.ok()) return status;
  }
  return DrainAssembler();
}

bool PublisherClient::ShouldSkip(const StreamElement& element) const {
  if (element.is_stable()) return false;
  return element.ve() < feedback_horizon_ &&
         (!element.is_adjust() || element.v_old() < feedback_horizon_);
}

Status PublisherClient::PublishBatch(const ElementSequence& elements) {
  if (server_said_bye_) {
    return Status::FailedPrecondition("server closed session: " +
                                      bye_reason_);
  }
  // The batch carries its origin stamp (our steady clock at send); the
  // server folds it into the end-to-end latency histograms and forwards it
  // to --latency subscribers.
  return connection_->Send(EncodeElementsDictFrame(elements, &dict_,
                                                   obs::MonotonicMicros()));
}

Status PublisherClient::Finish(const std::string& reason) {
  ByeMessage bye;
  bye.reason = reason;
  const Status status = connection_->Send(EncodeByeFrame(bye));
  if (status.ok()) {
    // Drain whatever the server pushed (FEEDBACK, a BYE reply) until it
    // closes the session in response to our BYE.  Closing with unread
    // receive data would RST the connection, and the reset discards our
    // own still-in-flight elements on the server side.
    char buffer[4096];
    size_t received = 0;
    while (connection_->Receive(buffer, sizeof(buffer), &received).ok() &&
           received > 0) {
    }
  }
  connection_->Close();
  return status;
}

StatsClient::StatsClient(std::unique_ptr<Connection> connection)
    : connection_(std::move(connection)) {
  LM_CHECK(connection_ != nullptr);
}

StatsClient::~StatsClient() = default;

Status StatsClient::Handshake(const std::string& name,
                              WelcomeMessage* welcome) {
  HelloMessage hello;
  hello.role = PeerRole::kMonitor;
  hello.peer_name = name;
  return ExchangeHello(connection_.get(), &assembler_, hello, welcome,
                       &bye_reason_);
}

Status StatsClient::PollStats(StatsResponseMessage* stats) {
  LM_CHECK(stats != nullptr);
  Status status = connection_->Send(EncodeStatsRequestFrame());
  if (!status.ok()) return status;
  Frame frame;
  status = ReceiveFrame(connection_.get(), &assembler_, &frame);
  if (!status.ok()) return status;
  if (frame.type == FrameType::kBye) {
    ByeMessage bye;
    // Best effort: a BYE that fails to decode just yields an empty
    // reason; the session outcome is the same either way.
    (void)DecodeBye(frame.payload, &bye);
    bye_reason_ = bye.reason;
    return Status::FailedPrecondition("server closed session: " +
                                      bye.reason);
  }
  if (frame.type != FrameType::kStatsResponse) {
    return Status::InvalidArgument(
        std::string("expected STATS_RESPONSE, got ") +
        FrameTypeName(frame.type));
  }
  return DecodeStatsResponse(frame.payload, stats);
}

Status StatsClient::Finish(const std::string& reason) {
  ByeMessage bye;
  bye.reason = reason;
  const Status status = connection_->Send(EncodeByeFrame(bye));
  connection_->Close();
  return status;
}

SubscriberClient::SubscriberClient(std::unique_ptr<Connection> connection)
    : connection_(std::move(connection)) {
  LM_CHECK(connection_ != nullptr);
}

SubscriberClient::~SubscriberClient() = default;

Status SubscriberClient::Handshake(const std::string& name,
                                   WelcomeMessage* welcome) {
  HelloMessage hello;
  hello.role = PeerRole::kSubscriber;
  hello.peer_name = name;
  return ExchangeHello(connection_.get(), &assembler_, hello, welcome,
                       &bye_reason_);
}

Status SubscriberClient::Consume(ElementSink* sink) {
  LM_CHECK(sink != nullptr);
  while (true) {
    Frame frame;
    const Status status =
        ReceiveFrame(connection_.get(), &assembler_, &frame);
    if (!status.ok()) {
      // EOF without BYE still ends the stream cleanly: the daemon may have
      // been torn down by the transport rather than the protocol.
      if (status.code() == StatusCode::kFailedPrecondition) {
        return Status::Ok();
      }
      return status;
    }
    switch (frame.type) {
      case FrameType::kElementsDict: {
        ElementSequence elements;
        int64_t origin_us = 0;
        const Status decode = DecodeElementsDictPayload(frame.payload, dict_,
                                                        &elements, &origin_us);
        if (!decode.ok()) return decode;
        if (stamp_observer_ && origin_us != 0 && !elements.empty()) {
          stamp_observer_(origin_us, elements.size());
        }
        for (const StreamElement& element : elements) {
          ++elements_received_;
          sink->OnElement(element);
        }
        break;
      }
      case FrameType::kBye: {
        ByeMessage bye;
        // Best effort: a BYE that fails to decode just yields an empty
        // reason; the session outcome is the same either way.
        (void)DecodeBye(frame.payload, &bye);
        bye_reason_ = bye.reason;
        return Status::Ok();
      }
      default:
        return Status::InvalidArgument(
            std::string("unexpected frame from server: ") +
            FrameTypeName(frame.type));
    }
  }
}

}  // namespace lmerge::net
