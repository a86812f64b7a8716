// MergeServer session behaviour over the loopback transport.  Tests drive
// bytes into MergeServer::OnBytes directly and read the server's responses
// (WELCOME / FEEDBACK / BYE / fan-out) from the client end of a loopback
// pair, so every scenario — handshakes, churn, joins, feedback, hostile
// input — is deterministic.

#include "net/server.h"

#include <gtest/gtest.h>

#include <thread>

#include "net/client.h"
#include "net/loopback.h"
#include "stream/validate.h"
#include "temporal/tdb.h"
#include "test_util.h"
#include "wire_test_util.h"
#include "workload/generator.h"

namespace lmerge::net {
namespace {

using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::kTestOriginUs;
using ::lmerge::testing_util::OneElementFrame;
using ::lmerge::testing_util::Stb;
using workload::GeneratorConfig;
using workload::GeneratePhysicalVariant;
using workload::GenerateHistory;
using workload::LogicalHistory;
using workload::RenderInOrder;
using workload::VariantOptions;

// One simulated peer: the server end is registered with the MergeServer, the
// client end is where the test reads the server's responses.
struct TestPeer {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  int session_id = -1;
  FrameAssembler assembler;

  // Everything the server has sent this peer so far.
  std::vector<Frame> DrainFrames() {
    std::string bytes;
    EXPECT_TRUE(client->TryReceive(&bytes).ok());
    EXPECT_TRUE(assembler.Feed(bytes).ok());
    std::vector<Frame> frames;
    Frame frame;
    while (assembler.Next(&frame)) frames.push_back(frame);
    return frames;
  }
};

TestPeer ConnectPeer(MergeServer* server, const std::string& name) {
  TestPeer peer;
  auto [client, server_end] =
      CreateLoopbackPair("client:" + name, "server:" + name);
  peer.client = std::move(client);
  peer.server = std::move(server_end);
  peer.session_id = server->OnConnect(peer.server.get());
  return peer;
}

HelloMessage PublisherHello(const std::string& name,
                            StreamProperties properties = StreamProperties(),
                            Timestamp join_time = kMinTimestamp) {
  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
  hello.properties = properties;
  hello.join_time = join_time;
  hello.peer_name = name;
  return hello;
}

// Performs a publisher handshake and returns the WELCOME.
WelcomeMessage Handshake(MergeServer* server, TestPeer* peer,
                         const HelloMessage& hello) {
  EXPECT_TRUE(
      server->OnBytes(peer->session_id, EncodeHelloFrame(hello)).ok());
  const std::vector<Frame> frames = peer->DrainFrames();
  EXPECT_EQ(frames.size(), 1u);
  WelcomeMessage welcome;
  EXPECT_EQ(frames[0].type, FrameType::kWelcome);
  EXPECT_TRUE(DecodeWelcome(frames[0].payload, &welcome).ok());
  return welcome;
}

TEST(ServerLoopbackTest, PublisherAndSubscriberHandshakes) {
  MergeServer server;
  TestPeer pub_a = ConnectPeer(&server, "a");
  TestPeer pub_b = ConnectPeer(&server, "b");
  TestPeer sub = ConnectPeer(&server, "sub");

  const WelcomeMessage welcome_a =
      Handshake(&server, &pub_a, PublisherHello("a"));
  EXPECT_EQ(welcome_a.stream_id, 0);
  EXPECT_NE(welcome_a.algorithm_case, kUnknownAlgorithmCase);

  const WelcomeMessage welcome_b =
      Handshake(&server, &pub_b, PublisherHello("b"));
  EXPECT_EQ(welcome_b.stream_id, 1);

  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  sub_hello.peer_name = "sub";
  const WelcomeMessage welcome_sub = Handshake(&server, &sub, sub_hello);
  EXPECT_EQ(welcome_sub.stream_id, -1);

  EXPECT_EQ(server.active_publishers(), 2);
  EXPECT_EQ(server.publishers_seen(), 2);
  EXPECT_EQ(server.subscriber_count(), 1);
  EXPECT_FALSE(server.drained());

  server.OnDisconnect(pub_a.session_id);
  server.OnDisconnect(pub_b.session_id);
  EXPECT_EQ(server.active_publishers(), 0);
  EXPECT_TRUE(server.drained());
}

TEST(ServerLoopbackTest, ElementBeforeHelloIsRejectedWithBye) {
  MergeServer server;
  TestPeer peer = ConnectPeer(&server, "rogue");
  const Status status =
      server.OnBytes(peer.session_id, OneElementFrame(Ins("x", 1, 2)));
  EXPECT_FALSE(status.ok());
  const std::vector<Frame> frames = peer.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kBye);
  // The session is gone: further bytes are refused too.
  EXPECT_FALSE(
      server.OnBytes(peer.session_id, EncodeHelloFrame(PublisherHello("x")))
          .ok());
}

TEST(ServerLoopbackTest, GarbageBytesTearDownOnlyThatSession) {
  MergeServer server;
  TestPeer good = ConnectPeer(&server, "good");
  Handshake(&server, &good, PublisherHello("good"));

  // A hostile length prefix before HELLO, and a frame with the retired
  // tag 3 (the old single-ELEMENT frame) from a handshaked publisher.
  TestPeer garbage = ConnectPeer(&server, "garbage");
  EXPECT_FALSE(
      server.OnBytes(garbage.session_id, "\xff\xff\xff\xff garbage").ok());
  TestPeer retired = ConnectPeer(&server, "retired");
  Handshake(&server, &retired, PublisherHello("retired"));
  EXPECT_EQ(server.active_publishers(), 2);
  EXPECT_FALSE(server
                   .OnBytes(retired.session_id,
                            std::string("\x01\x00\x00\x00\x03x", 6))
                   .ok());
  for (TestPeer* evil : {&garbage, &retired}) {
    const std::vector<Frame> frames = evil->DrainFrames();
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, FrameType::kBye);
  }

  // The good publisher is unaffected.
  EXPECT_TRUE(server
                  .OnBytes(good.session_id,
                           OneElementFrame(Ins("still-alive", 1, 10)))
                  .ok());
  EXPECT_EQ(server.active_publishers(), 1);
}

TEST(ServerLoopbackTest, ClientSendingServerOnlyFrameIsRejected) {
  MergeServer server;
  TestPeer peer = ConnectPeer(&server, "confused");
  Handshake(&server, &peer, PublisherHello("confused"));
  FeedbackMessage feedback;
  EXPECT_FALSE(
      server.OnBytes(peer.session_id, EncodeFeedbackFrame(feedback)).ok());
}

// Exact match only: a HELLO one version off either way is answered with a
// BYE naming both versions, and no WELCOME.
TEST(ServerLoopbackTest, HelloAtAnotherVersionGetsByeNamingBoth) {
  MergeServer server;
  for (const uint32_t version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    for (const PeerRole role : {PeerRole::kPublisher, PeerRole::kSubscriber,
                                PeerRole::kMonitor, PeerRole::kStandby}) {
      TestPeer peer = ConnectPeer(&server, PeerRoleName(role));
      HelloMessage hello = PublisherHello(PeerRoleName(role));
      hello.role = role;
      hello.version = version;
      EXPECT_FALSE(
          server.OnBytes(peer.session_id, EncodeHelloFrame(hello)).ok());
      const std::vector<Frame> frames = peer.DrainFrames();
      ASSERT_EQ(frames.size(), 1u);
      ASSERT_EQ(frames[0].type, FrameType::kBye);
      ByeMessage bye;
      ASSERT_TRUE(DecodeBye(frames[0].payload, &bye).ok());
      EXPECT_NE(bye.reason.find("v" + std::to_string(version)),
                std::string::npos)
          << bye.reason;
      EXPECT_NE(bye.reason.find("v" + std::to_string(kProtocolVersion)),
                std::string::npos)
          << bye.reason;
    }
  }
  EXPECT_EQ(server.publishers_seen(), 0);
  EXPECT_EQ(server.subscriber_count(), 0);
}

// The merger's stream slots are append-only and capped at kMaxStreams, so a
// publisher HELLO past the cap must be refused with a BYE rather than take
// the process down; closed sessions keep their slot.  All sessions are
// loopback pairs driven from this thread onto the one merge thread.
TEST(ServerLoopbackTest, PublisherHelloPastStreamLimitGetsBye) {
  MergeServerOptions options;
  options.ring_capacity = 2;
  MergeServer server(options);
  TestPeer sub = ConnectPeer(&server, "sub");
  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  Handshake(&server, &sub, sub_hello);
  TestPeer first = ConnectPeer(&server, "pub0");
  ASSERT_EQ(Handshake(&server, &first, PublisherHello("pub0")).stream_id, 0);
  for (int i = 1; i < static_cast<int>(kMaxStreams); ++i) {
    const std::string name = "pub" + std::to_string(i);
    TestPeer peer = ConnectPeer(&server, name);
    ASSERT_EQ(Handshake(&server, &peer, PublisherHello(name)).stream_id, i);
    server.OnDisconnect(peer.session_id);
  }
  EXPECT_EQ(server.publishers_seen(), static_cast<int>(kMaxStreams));

  TestPeer extra = ConnectPeer(&server, "one-too-many");
  EXPECT_FALSE(server
                   .OnBytes(extra.session_id,
                            EncodeHelloFrame(PublisherHello("one-too-many")))
                   .ok());
  const std::vector<Frame> frames = extra.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);  // a BYE and no WELCOME
  ASSERT_EQ(frames[0].type, FrameType::kBye);
  ByeMessage bye;
  ASSERT_TRUE(DecodeBye(frames[0].payload, &bye).ok());
  EXPECT_NE(bye.reason.find(std::to_string(kMaxStreams)), std::string::npos)
      << bye.reason;
  EXPECT_EQ(server.publishers_seen(), static_cast<int>(kMaxStreams));

  // The server keeps serving: the first publisher's output still reaches
  // the subscriber.
  for (const StreamElement& element : {Ins("a", 1, 10), Stb(5)}) {
    ASSERT_TRUE(
        server.OnBytes(first.session_id, OneElementFrame(element)).ok());
  }
  server.Flush();
  EXPECT_EQ(server.output_stable(), 5);
  bool got_output = false;
  for (const Frame& frame : sub.DrainFrames()) {
    got_output |= frame.type == FrameType::kElementsDict;
  }
  EXPECT_TRUE(got_output);
}

// Every client rejects a WELCOME of another version, whichever way off.
TEST(ServerLoopbackTest, ClientsRejectWelcomeOfAnotherVersion) {
  for (const uint32_t version : {kProtocolVersion - 1, kProtocolVersion + 1}) {
    WelcomeMessage welcome;
    welcome.version = version;
    const std::string welcome_frame = EncodeWelcomeFrame(welcome);
    const auto connect = [&welcome_frame] {
      auto [client, server_end] = CreateLoopbackPair();
      EXPECT_TRUE(server_end->Send(welcome_frame).ok());
      return std::make_pair(std::move(client), std::move(server_end));
    };
    const auto is_mismatch = [](const Status& status) {
      return !status.ok() &&
             status.ToString().find("version mismatch") != std::string::npos;
    };
    {
      auto [client, server_end] = connect();
      PublisherClient publisher(std::move(client));
      EXPECT_TRUE(is_mismatch(publisher.Handshake(StreamProperties(),
                                                  kMinTimestamp, "pub")));
    }
    {
      auto [client, server_end] = connect();
      SubscriberClient subscriber(std::move(client));
      EXPECT_TRUE(is_mismatch(subscriber.Handshake("sub")));
    }
    {
      auto [client, server_end] = connect();
      StatsClient monitor(std::move(client));
      EXPECT_TRUE(is_mismatch(monitor.Handshake("mon")));
    }
  }
}

HelloMessage MonitorHello(const std::string& name) {
  HelloMessage hello;
  hello.role = PeerRole::kMonitor;
  hello.peer_name = name;
  return hello;
}

TEST(ServerLoopbackTest, MonitorHandshakeAndStatsRoundTrip) {
  MergeServer server;
  // Two publishers feed a few elements so the stats carry real counters.
  TestPeer pub_a = ConnectPeer(&server, "a");
  TestPeer pub_b = ConnectPeer(&server, "b");
  Handshake(&server, &pub_a, PublisherHello("replica-a"));
  Handshake(&server, &pub_b, PublisherHello("replica-b"));
  ASSERT_TRUE(server
                  .OnBytes(pub_a.session_id,
                           EncodeElementsFrame({Ins("x", 1, 10),
                                                Ins("y", 2, 11), Stb(5)},
                                               /*origin_us=*/1000))
                  .ok());
  ASSERT_TRUE(server
                  .OnBytes(pub_b.session_id,
                           EncodeElementsFrame({Ins("x", 1, 10), Stb(2)},
                                               /*origin_us=*/1000))
                  .ok());
  server.Flush();

  TestPeer monitor = ConnectPeer(&server, "mon");
  const WelcomeMessage welcome =
      Handshake(&server, &monitor, MonitorHello("dashboard"));
  EXPECT_EQ(welcome.version, kProtocolVersion);
  EXPECT_EQ(welcome.stream_id, -1);

  ASSERT_TRUE(
      server.OnBytes(monitor.session_id, EncodeStatsRequestFrame()).ok());
  const std::vector<Frame> frames = monitor.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kStatsResponse);
  StatsResponseMessage stats;
  ASSERT_TRUE(DecodeStatsResponse(frames[0].payload, &stats).ok());

  EXPECT_EQ(stats.publishers, 2);
  EXPECT_EQ(stats.subscribers, 0);
  // Replicas are redundant copies, so the merged output is stable to the
  // MAX of the replicas' stable points (5), not the min.
  EXPECT_EQ(stats.output_stable, 5);
  ASSERT_EQ(stats.inputs.size(), 2u);
  EXPECT_EQ(stats.inputs[0].peer_name, "replica-a");
  EXPECT_EQ(stats.inputs[1].peer_name, "replica-b");
  EXPECT_TRUE(stats.inputs[0].connected);
  EXPECT_EQ(stats.inputs[0].inserts_in, 2);
  EXPECT_EQ(stats.inputs[0].stables_in, 1);
  EXPECT_EQ(stats.inputs[1].inserts_in, 1);
  EXPECT_EQ(stats.inputs[0].stable_point, 5);
  EXPECT_EQ(stats.inputs[1].stable_point, 2);
  // Redundant delivery: replica-b's copy of "x" was merged away, and the
  // per-input contributions sum to the merged output TDB size.
  EXPECT_EQ(stats.inputs[0].contributed + stats.inputs[1].contributed,
            stats.output_inserts);
  // The embedded registry snapshot carries the wire-layer counters.
  EXPECT_GT(stats.metrics.Value("net.rx.frames"), 0);
  EXPECT_GT(stats.metrics.Value("engine.batches"), 0);
}

TEST(ServerLoopbackTest, StatsBeforeAnyPublisherIsEmptyButValid) {
  MergeServer server;
  TestPeer monitor = ConnectPeer(&server, "early");
  Handshake(&server, &monitor, MonitorHello("early"));
  ASSERT_TRUE(
      server.OnBytes(monitor.session_id, EncodeStatsRequestFrame()).ok());
  const std::vector<Frame> frames = monitor.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  StatsResponseMessage stats;
  ASSERT_TRUE(DecodeStatsResponse(frames[0].payload, &stats).ok());
  EXPECT_EQ(stats.algorithm_case, kUnknownAlgorithmCase);
  EXPECT_EQ(stats.publishers, 0);
  EXPECT_TRUE(stats.inputs.empty());
  EXPECT_EQ(stats.output_stable, kMinTimestamp);
}

// A STATS_REQUEST pauses the session's frame loop while the payload-store
// gauges are refreshed outside the server lock; the answer and the frames
// after it in the same read must still be handled in order.
TEST(ServerLoopbackTest, InBandStatsKeepFrameOrderWithinOneRead) {
  MergeServer server;
  TestPeer pub = ConnectPeer(&server, "pub");
  // HELLO, STATS_REQUEST, ELEMENTS, STATS_REQUEST in one read.
  const std::string bytes =
      EncodeHelloFrame(PublisherHello("replica")) + EncodeStatsRequestFrame() +
      EncodeElementsFrame({Ins("x", 1, 10), Ins("y", 2, 11), Stb(5)},
                          /*origin_us=*/1000) +
      EncodeStatsRequestFrame();
  ASSERT_TRUE(server.OnBytes(pub.session_id, bytes).ok());
  server.Flush();
  const std::vector<Frame> frames = pub.DrainFrames();
  std::vector<FrameType> stats_and_welcome;
  std::vector<StatsResponseMessage> stats;
  for (const Frame& frame : frames) {
    if (frame.type == FrameType::kFeedback) continue;
    stats_and_welcome.push_back(frame.type);
    if (frame.type != FrameType::kStatsResponse) continue;
    stats.emplace_back();
    ASSERT_TRUE(DecodeStatsResponse(frame.payload, &stats.back()).ok());
  }
  ASSERT_EQ(stats_and_welcome,
            (std::vector<FrameType>{FrameType::kWelcome,
                                    FrameType::kStatsResponse,
                                    FrameType::kStatsResponse}));
  // The first answer predates the batch; the second one counts it, and
  // carries the payload-store gauges refreshed for it.
  ASSERT_EQ(stats[0].inputs.size(), 1u);
  EXPECT_EQ(stats[0].inputs[0].inserts_in, 0);
  ASSERT_EQ(stats[1].inputs.size(), 1u);
  EXPECT_EQ(stats[1].inputs[0].inserts_in, 2);
  EXPECT_GE(stats[1].metrics.Value("payload.entries"), 2);
  EXPECT_EQ(server.merge_stats().inserts_in, 2);

  // A malformed frame after a STATS_REQUEST: the answer goes out, then
  // the session is closed with the decode error.
  TestPeer mon = ConnectPeer(&server, "mon");
  Handshake(&server, &mon, MonitorHello("dashboard"));
  std::string bad = EncodeStatsRequestFrame();
  bad += EncodeFrame(FrameType::kFeedback, "short");
  EXPECT_FALSE(server.OnBytes(mon.session_id, bad).ok());
  const std::vector<Frame> mon_frames = mon.DrainFrames();
  ASSERT_GE(mon_frames.size(), 2u);
  EXPECT_EQ(mon_frames[0].type, FrameType::kStatsResponse);
  EXPECT_EQ(mon_frames.back().type, FrameType::kBye);
}

// The inbound payload dictionaries pin one rep per defined id; their fill,
// summed over the sessions, is what net.rx.dict.entries reports.
TEST(ServerLoopbackTest, StatsCountInboundDictionaryEntries) {
  MergeServer server;
  TestPeer a = ConnectPeer(&server, "a");
  TestPeer b = ConnectPeer(&server, "b");
  Handshake(&server, &a, PublisherHello("a"));
  Handshake(&server, &b, PublisherHello("b"));
  EXPECT_EQ(server.MetricsSnapshot().Value("net.rx.dict.entries", -1), 0);
  PayloadDictEncoder dict_a;
  PayloadDictEncoder dict_b;
  // Publisher a defines three payloads, b two (one of them a repeat, which
  // its own dictionary defines once).
  ASSERT_TRUE(server
                  .OnBytes(a.session_id,
                           EncodeElementsDictFrame(
                               {Ins("x", 1, 10), Ins("y", 2, 11),
                                Ins("z", 3, 12)},
                               &dict_a, kTestOriginUs))
                  .ok());
  ASSERT_TRUE(server
                  .OnBytes(b.session_id,
                           EncodeElementsDictFrame(
                               {Ins("x", 1, 10), Ins("w", 4, 13),
                                Ins("w", 5, 14)},
                               &dict_b, kTestOriginUs))
                  .ok());
  server.Flush();
  EXPECT_EQ(server.MetricsSnapshot().Value("net.rx.dict.entries"), 5);
  server.OnDisconnect(b.session_id);
  EXPECT_EQ(server.MetricsSnapshot().Value("net.rx.dict.entries"), 3);
}

TEST(ServerLoopbackTest, StatsClientPollsOverLoopback) {
  // The StatsClient handshake needs a live responder on the server end of
  // the loopback pair, so pump its bytes into the server from a thread.
  MergeServer server;
  TestPeer pub = ConnectPeer(&server, "p");
  Handshake(&server, &pub, PublisherHello("replica"));
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeElementsFrame({Ins("a", 1, 10), Stb(3)},
                                               /*origin_us=*/1000))
                  .ok());
  server.Flush();

  auto [client_end, server_end] = CreateLoopbackPair("mon-c", "mon-s");
  const int session = server.OnConnect(server_end.get());
  Connection* server_conn = server_end.get();
  std::thread pump([&server, server_conn, session] {
    // Forward everything the client sends until it closes — the same
    // Receive -> OnBytes loop ServeLoop runs per session.
    while (true) {
      char buffer[4096];
      size_t received = 0;
      if (!server_conn->Receive(buffer, sizeof(buffer), &received).ok() ||
          received == 0) {
        break;
      }
      if (!server.OnBytes(session, buffer, received).ok()) break;
    }
  });

  StatsClient stats_client(std::move(client_end));
  ASSERT_TRUE(stats_client.Handshake("poller").ok());
  StatsResponseMessage stats;
  ASSERT_TRUE(stats_client.PollStats(&stats).ok());
  EXPECT_EQ(stats.publishers, 1);
  ASSERT_EQ(stats.inputs.size(), 1u);
  EXPECT_EQ(stats.inputs[0].peer_name, "replica");
  (void)stats_client.Finish();
  pump.join();
}

TEST(ServerLoopbackTest, WeakerLatePublisherIsRejectedUnlessVariantForced) {
  MergeServer strict_server;
  TestPeer strong = ConnectPeer(&strict_server, "strong");
  Handshake(&strict_server, &strong,
            PublisherHello("strong", StreamProperties::Strongest()));
  TestPeer weak = ConnectPeer(&strict_server, "weak");
  // A weaker replica would require a more general algorithm than the one
  // already instantiated; the server must refuse rather than emit garbage.
  EXPECT_FALSE(strict_server
                   .OnBytes(weak.session_id,
                            EncodeHelloFrame(PublisherHello(
                                "weak", StreamProperties::None())))
                   .ok());
  EXPECT_EQ(strict_server.active_publishers(), 1);

  // With an operator-forced general variant the same pair is accepted.
  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  MergeServer forced_server(options);
  TestPeer strong2 = ConnectPeer(&forced_server, "strong");
  TestPeer weak2 = ConnectPeer(&forced_server, "weak");
  Handshake(&forced_server, &strong2,
            PublisherHello("strong", StreamProperties::Strongest()));
  const WelcomeMessage welcome =
      Handshake(&forced_server, &weak2,
                PublisherHello("weak", StreamProperties::None()));
  EXPECT_EQ(welcome.stream_id, 1);
}

TEST(ServerLoopbackTest, BatchedElementsReachTheMerge) {
  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);
  TestPeer pub = ConnectPeer(&server, "batcher");
  Handshake(&server, &pub, PublisherHello("batcher"));
  const ElementSequence batch = {Ins("a", 1, 10), Ins("b", 2, 11), Stb(5)};
  ASSERT_TRUE(
      server.OnBytes(pub.session_id,
                     EncodeElementsFrame(batch, /*origin_us=*/1000))
          .ok());
  EXPECT_EQ(server.output_stable(), 5);
  EXPECT_FALSE(merged.elements().empty());
}

TEST(ServerLoopbackTest, SubscriberReceivesExactlyTheMergedOutput) {
  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);
  TestPeer sub = ConnectPeer(&server, "sub");
  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  Handshake(&server, &sub, sub_hello);

  TestPeer pub = ConnectPeer(&server, "pub");
  Handshake(&server, &pub, PublisherHello("pub"));
  const ElementSequence tape = {Ins("a", 1, 10), Ins("b", 3, 12), Stb(4),
                                Ins("c", 5, 20), Stb(30)};
  for (const StreamElement& element : tape) {
    ASSERT_TRUE(
        server.OnBytes(pub.session_id, OneElementFrame(element)).ok());
  }

  server.Flush();  // delivery is enqueue-only; quiesce before reading
  // A subscriber receives dictionary-coded output: PAYLOAD_DEF frames
  // defining each first-seen payload, then stamped ELEMENTS_DICT batches.
  PayloadDictDecoder dict;
  ElementSequence received;
  for (const Frame& frame : sub.DrainFrames()) {
    if (frame.type == FrameType::kPayloadDef) {
      PayloadDefMessage def;
      ASSERT_TRUE(DecodePayloadDefPayload(frame.payload, &def).ok());
      ASSERT_TRUE(dict.Define(def.id, std::move(def.payload)).ok());
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kElementsDict);
    ElementSequence batch;
    int64_t origin_us = -1;
    ASSERT_TRUE(
        DecodeElementsDictPayload(frame.payload, dict, &batch, &origin_us)
            .ok());
    // Every publisher frame carried the same origin; the fan-out
    // republishes it.
    EXPECT_EQ(origin_us, kTestOriginUs);
    for (StreamElement& element : batch) {
      received.push_back(std::move(element));
    }
  }
  EXPECT_EQ(received, merged.elements());
  EXPECT_FALSE(received.empty());
}

TEST(ServerLoopbackTest, LaggingPublisherReceivesFeedback) {
  MergeServer server;
  TestPeer fast = ConnectPeer(&server, "fast");
  TestPeer slow = ConnectPeer(&server, "slow");
  Handshake(&server, &fast, PublisherHello("fast"));
  Handshake(&server, &slow, PublisherHello("slow"));

  // The slow replica has only shown progress up to vs=2 when the fast one
  // stabilizes 50: the server must push the new horizon to the laggard.
  ASSERT_TRUE(server
                  .OnBytes(slow.session_id,
                           OneElementFrame(Ins("early", 1, 100)))
                  .ok());
  ASSERT_TRUE(server
                  .OnBytes(fast.session_id,
                           OneElementFrame(Ins("early", 1, 100)))
                  .ok());
  ASSERT_TRUE(
      server.OnBytes(fast.session_id, OneElementFrame(Stb(50))).ok());
  ASSERT_EQ(server.output_stable(), 50);

  bool got_feedback = false;
  for (const Frame& frame : slow.DrainFrames()) {
    if (frame.type != FrameType::kFeedback) continue;
    FeedbackMessage feedback;
    ASSERT_TRUE(DecodeFeedback(frame.payload, &feedback).ok());
    EXPECT_EQ(feedback.horizon, 50);
    got_feedback = true;
  }
  EXPECT_TRUE(got_feedback);
  // The fast replica is not lagging; it must not get feedback.
  for (const Frame& frame : fast.DrainFrames()) {
    EXPECT_NE(frame.type, FrameType::kFeedback);
  }
}

TEST(ServerLoopbackTest, FeedbackCanBeDisabled) {
  MergeServerOptions options;
  options.feedback_enabled = false;
  MergeServer server(options);
  TestPeer fast = ConnectPeer(&server, "fast");
  TestPeer slow = ConnectPeer(&server, "slow");
  Handshake(&server, &fast, PublisherHello("fast"));
  Handshake(&server, &slow, PublisherHello("slow"));
  ASSERT_TRUE(
      server.OnBytes(fast.session_id, OneElementFrame(Stb(50))).ok());
  for (const Frame& frame : slow.DrainFrames()) {
    EXPECT_NE(frame.type, FrameType::kFeedback);
  }
}

// The churn scenarios of tests/integration/churn_test.cc, replayed through
// network sessions: replicas die (disconnect without BYE) at random points
// and the merged output still reconstitutes the reference TDB.
class ServerChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServerChurnTest, RandomDetachPointsNeverCorruptOutput) {
  const uint64_t seed = GetParam();
  GeneratorConfig config;
  config.num_inserts = 200;
  config.stable_freq = 0.06;
  config.event_duration = 400;
  config.max_gap = 15;
  config.payload_string_bytes = 6;
  config.seed = seed;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);

  std::vector<ElementSequence> replicas;
  for (uint64_t v = 0; v < 3; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.3;
    options.split_probability = 0.3;
    options.seed = seed * 31 + v;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }

  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);
  std::vector<TestPeer> peers;
  for (int s = 0; s < 3; ++s) {
    peers.push_back(ConnectPeer(&server, "replica-" + std::to_string(s)));
    const WelcomeMessage welcome = Handshake(
        &server, &peers.back(),
        PublisherHello("replica-" + std::to_string(s)));
    ASSERT_EQ(welcome.stream_id, s);
  }

  // Replicas 0 and 1 die at random points; replica 2 survives to the end.
  Rng rng(seed * 7 + 1);
  const size_t kill0 = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(replicas[0].size())));
  const size_t kill1 = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(replicas[1].size())));
  size_t next[3] = {0, 0, 0};
  bool any = true;
  while (any) {
    any = false;
    for (int s = 0; s < 3; ++s) {
      const size_t limit =
          s == 0 ? kill0 : (s == 1 ? kill1 : replicas[2].size());
      const ElementSequence& tape = replicas[static_cast<size_t>(s)];
      size_t& cursor = next[static_cast<size_t>(s)];
      TestPeer& peer = peers[static_cast<size_t>(s)];
      if (cursor < std::min(limit, tape.size())) {
        ASSERT_TRUE(server
                        .OnBytes(peer.session_id,
                                 OneElementFrame(tape[cursor++]))
                        .ok());
        any = true;
      } else if (s != 2 && peer.session_id >= 0) {
        server.OnDisconnect(peer.session_id);  // crash: no BYE
        peer.session_id = -1;
      }
    }
  }

  server.Flush();  // delivery is enqueue-only; quiesce before reading
  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(merged.elements()).ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(RenderInOrder(history))))
      << "seed " << seed << " kills at " << kill0 << "/" << kill1;
}

TEST_P(ServerChurnTest, MidRunJoinerCatchesUpAndTakesOver) {
  const uint64_t seed = GetParam();
  GeneratorConfig config;
  config.num_inserts = 150;
  config.stable_freq = 0.08;
  config.event_duration = 300;
  config.max_gap = 12;
  config.payload_string_bytes = 6;
  config.seed = seed + 1000;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);

  VariantOptions options;
  options.disorder_fraction = 0.25;
  options.seed = seed * 5;
  const ElementSequence original = GeneratePhysicalVariant(history, options);

  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);

  TestPeer first = ConnectPeer(&server, "first");
  Handshake(&server, &first, PublisherHello("first"));

  Rng rng(seed * 13 + 3);
  const size_t handoff = static_cast<size_t>(
      rng.UniformInt(static_cast<int64_t>(original.size()) / 4,
                     static_cast<int64_t>(original.size()) * 3 / 4));
  for (size_t i = 0; i < handoff; ++i) {
    ASSERT_TRUE(server
                    .OnBytes(first.session_id,
                             OneElementFrame(original[i]))
                    .ok());
  }

  // A fresh replica joins, declaring it is only correct from the current
  // output stable point onward (Sec. V-B), then the original replica dies.
  const Timestamp join_time = server.output_stable();
  TestPeer joiner = ConnectPeer(&server, "joiner");
  const WelcomeMessage welcome = Handshake(
      &server, &joiner,
      PublisherHello("joiner", StreamProperties(), join_time));
  EXPECT_EQ(welcome.output_stable, join_time);
  server.OnDisconnect(first.session_id);

  ElementSequence replay;
  for (const Event& e : history.events) {
    if (e.ve >= join_time) {
      replay.push_back(StreamElement::Insert(e.payload, e.vs, e.ve));
    }
  }
  for (const Timestamp t : history.stable_times) {
    if (t > join_time) replay.push_back(StreamElement::Stable(t));
  }
  ASSERT_TRUE(
      server
          .OnBytes(joiner.session_id,
                   EncodeElementsFrame(replay, /*origin_us=*/1000))
          .ok());

  server.Flush();  // delivery is enqueue-only; quiesce before reading
  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(merged.elements()).ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(RenderInOrder(history))))
      << "seed " << seed << " handoff " << handoff;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerChurnTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace lmerge::net
