// End-to-end latency pipeline over the loopback transport: the origin
// stamp rides publisher frame -> ingest ring -> merge thread -> fan-out,
// feeding every per-stage histogram; the fan-out republishes the stamp to
// subscribers; the merge responsiveness and IO-loop probes behind /readyz
// answer within their deadlines.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace lmerge::net {
namespace {

using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

struct TestPeer {
  std::unique_ptr<Connection> client;
  std::unique_ptr<Connection> server;
  int session_id = -1;
  FrameAssembler assembler;

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

WelcomeMessage Handshake(MergeServer* server, TestPeer* peer,
                         PeerRole role, const std::string& name) {
  HelloMessage hello;
  hello.role = role;
  hello.peer_name = name;
  EXPECT_TRUE(
      server->OnBytes(peer->session_id, EncodeHelloFrame(hello)).ok());
  const std::vector<Frame> frames = peer->DrainFrames();
  EXPECT_EQ(frames.size(), 1u);
  WelcomeMessage welcome;
  EXPECT_EQ(frames[0].type, FrameType::kWelcome);
  EXPECT_TRUE(DecodeWelcome(frames[0].payload, &welcome).ok());
  return welcome;
}

int64_t HistogramCount(const obs::MetricsSnapshot& snapshot,
                       const std::string& name) {
  const obs::MetricValue* value = snapshot.Find(name);
  return value == nullptr ? 0 : value->histogram.count;
}

// The latency instruments live in the global registry (they are recorded
// on merge/fan-out threads owned by the server); tests read deltas against
// a baseline so they compose with the rest of the binary.
class LatencyPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::set_enabled(true); }
  void TearDown() override { obs::MetricsRegistry::set_enabled(false); }
};

TEST_F(LatencyPipelineTest, StampFoldsTowardOldestAndZeroNeverWins) {
  obs::IngestStamp stamp;
  EXPECT_TRUE(stamp.empty());
  stamp.FoldOldest({.origin_us = 0, .rx_us = 0});
  EXPECT_TRUE(stamp.empty()) << "unknown must not overwrite unknown";
  stamp.FoldOldest({.origin_us = 500, .rx_us = 900});
  stamp.FoldOldest({.origin_us = 700, .rx_us = 400});
  EXPECT_EQ(stamp.origin_us, 500) << "newer origin must not win";
  EXPECT_EQ(stamp.rx_us, 400);
  stamp.FoldOldest({.origin_us = 0, .rx_us = 0});
  EXPECT_EQ(stamp.origin_us, 500) << "unknown must not erase a known stamp";
  EXPECT_EQ(stamp.rx_us, 400);
}

TEST_F(LatencyPipelineTest, ThreadLocalStampIsPerThread) {
  const obs::IngestStamp mine{.origin_us = 11, .rx_us = 22};
  obs::SetCurrentIngestStamp(mine);
  EXPECT_EQ(obs::CurrentIngestStamp(), mine);
  std::thread other([] {
    EXPECT_TRUE(obs::CurrentIngestStamp().empty())
        << "another thread's stamp leaked across threads";
    obs::SetCurrentIngestStamp({.origin_us = 33, .rx_us = 44});
  });
  other.join();
  EXPECT_EQ(obs::CurrentIngestStamp(), mine);
  obs::SetCurrentIngestStamp(obs::IngestStamp());
}

TEST_F(LatencyPipelineTest, StampedPublishFeedsEveryStageHistogram) {
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();

  MergeServer server;
  TestPeer sub = ConnectPeer(&server, "sub");
  Handshake(&server, &sub, PeerRole::kSubscriber, "sub");
  TestPeer pub = ConnectPeer(&server, "pub");
  Handshake(&server, &pub, PeerRole::kPublisher, "pub");

  constexpr int kBatches = 4;
  constexpr int kBatchSize = 32;
  for (int b = 0; b < kBatches; ++b) {
    ElementSequence batch;
    for (int i = 0; i < kBatchSize; ++i) {
      const int64_t vs = b * kBatchSize + i + 1;
      batch.push_back(Ins("pay-" + std::to_string(vs), vs, vs + 1000));
    }
    batch.push_back(Stb(b * kBatchSize + kBatchSize / 2));
    ASSERT_TRUE(server
                    .OnBytes(pub.session_id,
                             EncodeElementsFrame(
                                 batch, obs::MonotonicMicros()))
                    .ok());
  }
  server.Flush();

  const obs::MetricsSnapshot after = server.MetricsSnapshot();
  for (const char* stage :
       {"latency.rx_to_merge_us", "latency.merge_us",
        "latency.merge_to_fanout_us", "latency.fanout_us",
        "latency.publish_to_fanout_us"}) {
    EXPECT_GT(HistogramCount(after, stage), HistogramCount(before, stage))
        << stage << " recorded nothing for stamped traffic";
  }
  // The stable-lag gauge exists and is sane once a merger is live.
  EXPECT_GE(after.Value("merge.stable_lag_ms", -1), 0);

  // The origin stamp is republished on the fan-out frames.
  PayloadDictDecoder dict;
  int64_t delivered = 0;
  int64_t oldest_origin = 0;
  for (const Frame& frame : sub.DrainFrames()) {
    switch (frame.type) {
      case FrameType::kElementsDict: {
        ElementSequence elements;
        int64_t origin_us = 0;
        ASSERT_TRUE(DecodeElementsDictPayload(frame.payload, dict,
                                              &elements, &origin_us)
                        .ok());
        EXPECT_GT(origin_us, 0)
            << "fan-out lost the publisher's origin stamp";
        if (oldest_origin == 0 || origin_us < oldest_origin) {
          oldest_origin = origin_us;
        }
        delivered += static_cast<int64_t>(elements.size());
        break;
      }
      case FrameType::kElements:
        FAIL() << "subscribers receive only dictionary batches";
      default:
        break;
    }
  }
  EXPECT_GT(delivered, 0);
  EXPECT_LE(oldest_origin, obs::MonotonicMicros());
}

TEST_F(LatencyPipelineTest, ReadyProbesBothEngines) {
  // No merger yet: trivially ready.
  MergeServer idle;
  EXPECT_TRUE(idle.Ready(std::chrono::milliseconds(100)));

  // Single-threaded engine.
  {
    MergeServer server;
    TestPeer pub = ConnectPeer(&server, "pub");
    Handshake(&server, &pub, PeerRole::kPublisher, "pub");
    EXPECT_TRUE(server.Ready(std::chrono::milliseconds(1000)));
  }

  // Partitioned engine: the probe pings every shard and the aggregator.
  {
    MergeServerOptions options;
    options.variant = MergeVariant::kLMR4;
    options.merge_threads = 3;
    MergeServer server(options);
    TestPeer pub = ConnectPeer(&server, "pub");
    Handshake(&server, &pub, PeerRole::kPublisher, "pub");
    EXPECT_TRUE(server.Ready(std::chrono::milliseconds(1000)));
  }
}

TEST_F(LatencyPipelineTest, LoopPingRegistryDetectsWedgedLoops) {
  LoopPingRegistry pings;
  EXPECT_TRUE(pings.Ping(std::chrono::milliseconds(50)))
      << "no registered loops means nothing can be wedged";

  EventLoop running;
  std::thread runner([&running] { running.Run(); });
  pings.Set({&running});
  EXPECT_TRUE(pings.Ping(std::chrono::milliseconds(1000)));

  // A loop nobody runs never services its queue: the probe must time out
  // unready instead of hanging.
  EventLoop wedged;
  pings.Set({&running, &wedged});
  EXPECT_FALSE(pings.Ping(std::chrono::milliseconds(50)));

  pings.Clear();
  EXPECT_TRUE(pings.Ping(std::chrono::milliseconds(50)));
  running.Stop();
  runner.join();
}

}  // namespace
}  // namespace lmerge::net
