// Client-side session helpers: a publisher that ships a physical stream to
// an lmerge_served instance, and a subscriber that receives the merged
// output.  Both wrap any Connection (TCP in the tools, loopback in tests).

#ifndef LMERGE_NET_CLIENT_H_
#define LMERGE_NET_CLIENT_H_

#include <functional>
#include <memory>
#include <string>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/transport.h"
#include "stream/sink.h"

namespace lmerge::net {

// Blocks on `connection` until `assembler` yields a frame, EOF, or error.
// The building block of every client below, exported for sessions with
// bespoke frame flows (the standby replica's checkpoint transfer).
Status ReceiveFrame(Connection* connection, FrameAssembler* assembler,
                    Frame* frame);

// Sends `hello` and blocks for the server's answer, which must be a WELCOME
// at exactly kProtocolVersion (decoded into `*welcome` unless null).  A BYE
// fails with FailedPrecondition carrying the server's reason, also stored
// in `*bye_reason`.  The handshake of every client below and the standby.
Status ExchangeHello(Connection* connection, FrameAssembler* assembler,
                     const HelloMessage& hello, WelcomeMessage* welcome,
                     std::string* bye_reason);

// One redundant input replica (Sec. II-2).  Usage:
//   PublisherClient pub(std::move(connection));
//   pub.Handshake(properties, join_time, "replica-a", &welcome);
//   for (...) pub.PublishBatch(elements);
//   pub.Finish("done");
//
// Between publishes, Poll() drains server frames without blocking; FEEDBACK
// advances feedback_horizon(), letting the caller fast-forward past
// elements whose lifetime ended before the merged output's stable point
// (Sec. V-D) — see ShouldSkip.
class PublisherClient {
 public:
  explicit PublisherClient(std::unique_ptr<Connection> connection);
  ~PublisherClient();

  // Sends HELLO and blocks for the server's WELCOME (or BYE -> error).
  Status Handshake(const StreamProperties& properties, Timestamp join_time,
                   const std::string& name,
                   WelcomeMessage* welcome = nullptr);

  // Sends `elements` (any size, one included) as one stamped dictionary
  // batch: PAYLOAD_DEFs for first-seen payloads, then ELEMENTS_DICT.
  Status PublishBatch(const ElementSequence& elements);

  // Drains pending server->client traffic without blocking.
  Status Poll();

  // True when `element` no longer matters to the merged output: its
  // lifetime ends before the feedback horizon, so the server would drop it.
  bool ShouldSkip(const StreamElement& element) const;

  // Orderly close: sends BYE.  Dropping the client without Finish models a
  // crashed replica (the server detaches the stream on EOF).
  Status Finish(const std::string& reason = "done");

  Timestamp feedback_horizon() const { return feedback_horizon_; }
  bool server_said_bye() const { return server_said_bye_; }
  const std::string& bye_reason() const { return bye_reason_; }
  Connection* connection() { return connection_.get(); }

 private:
  Status ProcessFrame(const Frame& frame);
  Status DrainAssembler();

  std::unique_ptr<Connection> connection_;
  FrameAssembler assembler_;
  Timestamp feedback_horizon_ = kMinTimestamp;
  bool server_said_bye_ = false;
  std::string bye_reason_;
  // Outbound payload dictionary: repeated payloads cross as small ids.
  PayloadDictEncoder dict_;
};

// Monitor session: polls the server's live stats (per-input merge
// counters + metrics-registry snapshot) without joining the element flow.
// What lmerge_stats is built on.  Usage:
//   StatsClient mon(std::move(connection));
//   mon.Handshake("dashboard");
//   StatsResponseMessage stats;
//   while (...) mon.PollStats(&stats);   // blocking request/response
class StatsClient {
 public:
  explicit StatsClient(std::unique_ptr<Connection> connection);
  ~StatsClient();

  // Sends HELLO with the monitor role and blocks for the WELCOME.
  Status Handshake(const std::string& name,
                   WelcomeMessage* welcome = nullptr);

  // One STATS_REQUEST -> STATS_RESPONSE round trip; blocks for the reply.
  Status PollStats(StatsResponseMessage* stats);

  Status Finish(const std::string& reason = "done");

  const std::string& bye_reason() const { return bye_reason_; }
  Connection* connection() { return connection_.get(); }

 private:
  std::unique_ptr<Connection> connection_;
  FrameAssembler assembler_;
  std::string bye_reason_;
};

// Receives the merged output stream.
class SubscriberClient {
 public:
  explicit SubscriberClient(std::unique_ptr<Connection> connection);
  ~SubscriberClient();

  Status Handshake(const std::string& name,
                   WelcomeMessage* welcome = nullptr);

  // Called once per stamped batch (origin_us != 0), before the batch's
  // elements reach the sink.  `origin_us` is the publisher's steady clock
  // at send: on the same host, now - origin_us is the end-to-end
  // publish->delivery latency (what lmerge_subscribe --latency reports).
  void set_stamp_observer(
      std::function<void(int64_t origin_us, size_t count)> observer) {
    stamp_observer_ = std::move(observer);
  }

  // Blocks, delivering each merged element to `sink`, until the server says
  // BYE or closes the connection; both are a clean end of stream.
  Status Consume(ElementSink* sink);

  int64_t elements_received() const { return elements_received_; }
  const std::string& bye_reason() const { return bye_reason_; }
  Connection* connection() { return connection_.get(); }

 private:
  std::unique_ptr<Connection> connection_;
  FrameAssembler assembler_;
  int64_t elements_received_ = 0;
  std::string bye_reason_;
  // Inbound payload dictionary, fed by PAYLOAD_DEF frames.
  PayloadDictDecoder dict_;
  std::function<void(int64_t, size_t)> stamp_observer_;
};

}  // namespace lmerge::net

#endif  // LMERGE_NET_CLIENT_H_
