// End-to-end over real sockets: ServeLoop on an ephemeral localhost port,
// PublisherClient / SubscriberClient sessions, crash-and-rejoin.  Timing
// here is real, so assertions are on final outcomes only; the deterministic
// session logic is covered by server_loopback_test.cc.

#include "net/tcp.h"

#include <gtest/gtest.h>
#include <poll.h>

#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "stream/validate.h"
#include "temporal/tdb.h"
#include "test_util.h"

namespace lmerge::net {
namespace {

using ::lmerge::testing_util::Ins;
using ::lmerge::testing_util::Stb;

ElementSequence SmallTape() {
  ElementSequence tape;
  for (int i = 0; i < 50; ++i) {
    tape.push_back(Ins("event-" + std::to_string(i), i + 1, i + 100));
    if (i % 10 == 9) tape.push_back(Stb(i - 5));
  }
  tape.push_back(Stb(1000));
  return tape;
}

TEST(TcpTest, ConnectSendReceiveClose) {
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(TcpListen(0, &listener).ok());
  ASSERT_GT(listener->port(), 0);

  std::unique_ptr<Connection> client;
  ASSERT_TRUE(TcpConnect("127.0.0.1", listener->port(), &client).ok());
  // The listener is non-blocking: wait for it to poll readable, then take
  // the pending connection.
  pollfd ready{listener->pollable_fd(), POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, /*timeout=*/5000), 1);
  std::unique_ptr<Connection> server_side;
  ASSERT_TRUE(listener->TryAccept(&server_side).ok());
  ASSERT_NE(server_side, nullptr);

  ASSERT_TRUE(client->Send("ping").ok());
  char buffer[16];
  size_t received = 0;
  ASSERT_TRUE(server_side->Receive(buffer, sizeof(buffer), &received).ok());
  EXPECT_EQ(std::string(buffer, received), "ping");

  // Close on one side surfaces as EOF on the other.
  client->Close();
  received = 99;
  ASSERT_TRUE(server_side->Receive(buffer, sizeof(buffer), &received).ok());
  EXPECT_EQ(received, 0u);
  listener->Close();
}

TEST(TcpTest, PublisherSubscriberRoundTripThroughServeLoop) {
  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(TcpListen(0, &listener).ok());
  const int port = listener->port();

  ServeLoopOptions loop_options;
  loop_options.drain_publishers = 2;
  std::thread serve(
      [&] { ServeLoop(listener.get(), &server, loop_options); });

  // Subscriber connects first so it sees the entire merged stream.
  std::unique_ptr<Connection> sub_conn;
  ASSERT_TRUE(TcpConnect("127.0.0.1", port, &sub_conn).ok());
  SubscriberClient subscriber(std::move(sub_conn));
  ASSERT_TRUE(subscriber.Handshake("sub").ok());
  CollectingSink subscribed;
  std::thread consume(
      [&] { ASSERT_TRUE(subscriber.Consume(&subscribed).ok()); });

  const ElementSequence tape = SmallTape();
  auto publish = [&](const std::string& name) {
    std::unique_ptr<Connection> conn;
    ASSERT_TRUE(TcpConnect("127.0.0.1", port, &conn).ok());
    PublisherClient publisher(std::move(conn));
    WelcomeMessage welcome;
    ASSERT_TRUE(publisher
                    .Handshake(StreamProperties(), kMinTimestamp, name,
                               &welcome)
                    .ok());
    EXPECT_GE(welcome.stream_id, 0);
    ASSERT_TRUE(publisher.PublishBatch(tape).ok());
    ASSERT_TRUE(publisher.Finish("tape complete").ok());
  };
  std::thread pub_a([&] { publish("replica-a"); });
  std::thread pub_b([&] { publish("replica-b"); });
  pub_a.join();
  pub_b.join();

  serve.join();  // drain_publishers=2: returns once both replicas are done
  consume.join();

  // Both replicas carried the same logical stream; the merged output must
  // be a single valid copy of it, and the subscriber saw exactly the
  // merged output.
  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(merged.elements()).ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(tape)));
  EXPECT_EQ(subscribed.elements(), merged.elements());
}

TEST(TcpTest, CrashedReplicaCanRejoinWithoutCorruptingOutput) {
  MergeServer server;
  CollectingSink merged;
  server.AddOutputSink(&merged);
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(TcpListen(0, &listener).ok());
  const int port = listener->port();

  // Three publisher connections total: a survivor, a replica that crashes
  // partway (connection dropped, no BYE), and its rejoin replaying the full
  // tape from the start.
  ServeLoopOptions loop_options;
  loop_options.drain_publishers = 3;
  std::thread serve(
      [&] { ServeLoop(listener.get(), &server, loop_options); });

  const ElementSequence tape = SmallTape();

  std::thread survivor([&] {
    std::unique_ptr<Connection> conn;
    ASSERT_TRUE(TcpConnect("127.0.0.1", port, &conn).ok());
    PublisherClient publisher(std::move(conn));
    ASSERT_TRUE(
        publisher.Handshake(StreamProperties(), kMinTimestamp, "survivor")
            .ok());
    ASSERT_TRUE(publisher.PublishBatch(tape).ok());
    ASSERT_TRUE(publisher.Finish().ok());
  });

  std::thread crasher([&] {
    std::unique_ptr<Connection> conn;
    ASSERT_TRUE(TcpConnect("127.0.0.1", port, &conn).ok());
    PublisherClient publisher(std::move(conn));
    ASSERT_TRUE(
        publisher.Handshake(StreamProperties(), kMinTimestamp, "crasher")
            .ok());
    ElementSequence half(tape.begin(),
                         tape.begin() +
                             static_cast<ElementSequence::difference_type>(
                                 tape.size() / 2));
    ASSERT_TRUE(publisher.PublishBatch(half).ok());
    publisher.connection()->Close();  // vanish without BYE
  });
  survivor.join();
  crasher.join();

  std::thread rejoiner([&] {
    std::unique_ptr<Connection> conn;
    ASSERT_TRUE(TcpConnect("127.0.0.1", port, &conn).ok());
    PublisherClient publisher(std::move(conn));
    ASSERT_TRUE(
        publisher.Handshake(StreamProperties(), kMinTimestamp, "rejoin")
            .ok());
    ASSERT_TRUE(publisher.PublishBatch(tape).ok());
    ASSERT_TRUE(publisher.Finish().ok());
  });
  rejoiner.join();
  serve.join();

  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(merged.elements()).ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(tape)));
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab an ephemeral port, then close it so nothing is listening there.
  std::unique_ptr<Listener> listener;
  ASSERT_TRUE(TcpListen(0, &listener).ok());
  const int port = listener->port();
  listener->Close();
  listener.reset();
  std::unique_ptr<Connection> conn;
  EXPECT_FALSE(TcpConnect("127.0.0.1", port, &conn).ok());
}

}  // namespace
}  // namespace lmerge::net
