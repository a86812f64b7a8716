// Framing robustness: the event-loop transport delivers whatever byte
// boundaries the kernel felt like, so the server's frame reassembly must be
// byte-boundary-agnostic — one byte at a time, splits in the middle of a
// length prefix, arbitrary seeded fragmentation.  A peer that goes quiet
// *mid-frame* is indistinguishable from a stalled-forever write and is
// reaped by the ServeLoop idle sweep (net.loop.idle_timeouts); a peer that
// is merely quiet between frames is a healthy idle session and must not be.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "stream/sink.h"
#include "test_util.h"
#include "wire_test_util.h"

namespace lmerge::net {
namespace {

using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::OneElementFrame;
using ::lmerge::testing_util::Stb;

ElementSequence SmallTape() {
  ElementSequence tape;
  for (int i = 0; i < 40; ++i) {
    tape.push_back(Ins("frag-" + std::to_string(i), i + 1, i + 100));
    if (i % 10 == 9) tape.push_back(Stb(i - 5));
  }
  return tape;
}

// Publishes `tape` into a fresh server, delivering the encoded bytes in
// chunks produced by `next_chunk(remaining)`; returns the merged output.
ElementSequence PublishFragmented(
    const ElementSequence& tape,
    const std::function<size_t(size_t)>& next_chunk) {
  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);

  auto [client, server_end] = CreateLoopbackPair();
  const int session = server.OnConnect(server_end.get());

  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
  hello.peer_name = "fragmented";
  std::string bytes = EncodeHelloFrame(hello);
  for (size_t i = 0; i < tape.size(); i += 8) {
    const ElementSequence batch(
        tape.begin() + static_cast<ElementSequence::difference_type>(i),
        tape.begin() + static_cast<ElementSequence::difference_type>(
                           std::min(i + 8, tape.size())));
    bytes += EncodeElementsFrame(batch, /*origin_us=*/1000);
  }

  size_t offset = 0;
  while (offset < bytes.size()) {
    const size_t n =
        std::min(next_chunk(bytes.size() - offset), bytes.size() - offset);
    EXPECT_TRUE(server.OnBytes(session, bytes.substr(offset, n)).ok());
    offset += n;
    // Keep the response queue (WELCOME/FEEDBACK) drained.
    std::string discard;
    EXPECT_TRUE(client->TryReceive(&discard).ok());
  }
  server.Flush();
  server.OnDisconnect(session);
  return merged.elements();
}

TEST(FramingRobustnessTest, ByteAtATimeDeliveryDecodesIdentically) {
  const ElementSequence tape = SmallTape();
  const ElementSequence whole =
      PublishFragmented(tape, [](size_t) { return size_t{1} << 20; });
  const ElementSequence trickled =
      PublishFragmented(tape, [](size_t) { return size_t{1}; });
  EXPECT_EQ(trickled.size(), whole.size());
  EXPECT_EQ(trickled, whole);
}

TEST(FramingRobustnessTest, SplitWritesMidFrameDecodeIdentically) {
  const ElementSequence tape = SmallTape();
  const ElementSequence whole =
      PublishFragmented(tape, [](size_t) { return size_t{1} << 20; });
  // Fixed awkward split sizes: 2 and 3 land inside the u32 length prefix,
  // 7 straddles the type byte and payload.
  for (const size_t chunk : {size_t{2}, size_t{3}, size_t{7}, size_t{13}}) {
    const ElementSequence split =
        PublishFragmented(tape, [chunk](size_t) { return chunk; });
    EXPECT_EQ(split, whole) << "chunk size " << chunk;
  }
}

// Seeded fuzz entry: random fragmentation, many rounds.  Any divergence
// from the contiguous decode is a reassembly bug; the seed is printed so a
// failure reproduces exactly.
TEST(FramingRobustnessTest, FuzzedFragmentationDecodesIdentically) {
  const ElementSequence tape = SmallTape();
  const ElementSequence whole =
      PublishFragmented(tape, [](size_t) { return size_t{1} << 20; });
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const ElementSequence fuzzed = PublishFragmented(tape, [&rng](size_t) {
      // Mostly tiny chunks, occasionally a large one.
      std::uniform_int_distribution<size_t> dist(1, 9);
      const size_t n = dist(rng);
      return n == 9 ? size_t{4096} : n;
    });
    EXPECT_EQ(fuzzed, whole);
  }
}

// A peer that stops mid-frame holds reassembly state forever; the ServeLoop
// idle sweep must reap it (and count it) while leaving a frame-aligned idle
// session alone.
TEST(FramingRobustnessTest, StallMidFrameHitsIdleTimeout) {
  const int64_t timeouts_before = obs::MetricsRegistry::Global()
                                      .Snapshot()
                                      .Value("net.loop.idle_timeouts");

  MergeServer server;
  NullSink sink;
  server.AddOutputSink(&sink);
  LoopbackListener listener;

  ServeLoopOptions loop_options;
  loop_options.drain_publishers = 1;
  loop_options.idle_timeout_ms = 50;
  std::thread serve([&] { ServeLoop(&listener, &server, loop_options); });

  // A healthy subscriber: handshakes, then goes quiet at a frame boundary.
  std::unique_ptr<Connection> idle_conn = listener.Connect("idle-sub");
  ASSERT_NE(idle_conn, nullptr);
  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  sub_hello.peer_name = "idle-sub";
  ASSERT_TRUE(idle_conn->Send(EncodeHelloFrame(sub_hello)).ok());

  // The staller: sends a truncated prefix of a legitimate frame, then
  // nothing (seeded prefix lengths, always mid-frame).
  std::mt19937_64 rng(7);
  const std::string frame = OneElementFrame(Ins("stall", 1, 100));
  std::uniform_int_distribution<size_t> dist(1, frame.size() - 1);
  std::unique_ptr<Connection> stalled = listener.Connect("staller");
  ASSERT_NE(stalled, nullptr);
  ASSERT_TRUE(stalled->Send(frame.substr(0, dist(rng))).ok());

  // The sweep runs on the idle-timeout cadence; the stalled session is
  // closed from the server side, which surfaces as EOF on our end.
  std::string discard;
  char byte;
  size_t received = 1;
  Status status = Status::Ok();
  while (status.ok() && received != 0) {
    status = stalled->Receive(&byte, 1, &received);
  }

  // Publish one tape so the loop drains and exits.
  std::unique_ptr<Connection> pub_conn = listener.Connect("publisher");
  ASSERT_NE(pub_conn, nullptr);
  PublisherClient publisher(std::move(pub_conn));
  WelcomeMessage welcome;
  ASSERT_TRUE(publisher
                  .Handshake(StreamProperties(), kMinTimestamp, "publisher",
                             &welcome)
                  .ok());
  ASSERT_TRUE(publisher.PublishBatch(SmallTape()).ok());
  ASSERT_TRUE(publisher.Finish("done").ok());
  serve.join();

  const int64_t timeouts_after = obs::MetricsRegistry::Global()
                                     .Snapshot()
                                     .Value("net.loop.idle_timeouts");
  EXPECT_EQ(timeouts_after - timeouts_before, 1);

  // The frame-aligned idle subscriber was NOT reaped mid-run: it received
  // its WELCOME plus the published fan-out rather than an early EOF.
  ASSERT_TRUE(idle_conn->TryReceive(&discard).ok());
  EXPECT_FALSE(discard.empty());
}

}  // namespace
}  // namespace lmerge::net
