// End-to-end failover: a StandbyReplica jumpstarts from a live primary's
// checkpoint (Sec. II-4 applied to the merge operator itself), shadows it
// through the feed stream, survives the primary's death, and — joined by
// the surviving publishers — produces an output whose reconstitution
// equals the uninterrupted reference.  Exercised across algorithm
// variants and generator seeds (docs/REPLICATION.md).

#include "replica/standby.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "stream/validate.h"
#include "temporal/tdb.h"
#include "workload/generator.h"

namespace lmerge::replica {
namespace {

using workload::GeneratePhysicalVariant;
using workload::GenerateHistory;
using workload::GeneratorConfig;
using workload::LogicalHistory;
using workload::RenderInOrder;
using workload::VariantOptions;

LogicalHistory ClosedHistory(uint64_t seed, int64_t n = 400) {
  GeneratorConfig config;
  config.num_inserts = n;
  config.stable_freq = 0.05;
  config.event_duration = 500;
  config.max_gap = 10;
  config.payload_string_bytes = 12;
  config.seed = seed;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  return history;
}

// Shuttles bytes from a server-side connection end into MergeServer::OnBytes
// — the one transport direction the in-process tests need a thread for,
// because StandbyReplica blocks in Receive on the other end.
class SessionPump {
 public:
  SessionPump(net::MergeServer* server, net::Connection* connection,
              int session_id)
      : connection_(connection),
        thread_([server, connection, session_id] {
          char buffer[16 * 1024];
          size_t received = 0;
          while (connection->Receive(buffer, sizeof(buffer), &received).ok() &&
                 received > 0) {
            if (!server->OnBytes(session_id, std::string(buffer, received))
                     .ok()) {
              break;
            }
          }
        }) {}
  // Close-before-join so an early (failing) test exit cannot wedge on a
  // pump blocked in Receive.
  ~SessionPump() {
    connection_->Close();
    thread_.join();
  }

 private:
  net::Connection* connection_;
  std::thread thread_;
};

// A publisher session driven synchronously via OnBytes.
struct Publisher {
  std::unique_ptr<net::Connection> client;
  std::unique_ptr<net::Connection> server_end;
  int session_id = -1;
};

Publisher ConnectPublisher(net::MergeServer* server, const std::string& name,
                           Timestamp join_time = kMinTimestamp) {
  Publisher pub;
  auto [client, server_end] =
      net::CreateLoopbackPair("client:" + name, "server:" + name);
  pub.client = std::move(client);
  pub.server_end = std::move(server_end);
  pub.session_id = server->OnConnect(pub.server_end.get());
  net::HelloMessage hello;
  hello.role = net::PeerRole::kPublisher;
  hello.peer_name = name;
  hello.join_time = join_time;
  EXPECT_TRUE(
      server->OnBytes(pub.session_id, net::EncodeHelloFrame(hello)).ok());
  std::string drained;
  EXPECT_TRUE(pub.client->TryReceive(&drained).ok());  // WELCOME (+feedback)
  return pub;
}

void Publish(net::MergeServer* server, Publisher* pub,
             const ElementSequence& elements, size_t begin, size_t end) {
  constexpr size_t kBatch = 256;
  for (size_t i = begin; i < end; i += kBatch) {
    ElementSequence batch(elements.begin() + i,
                          elements.begin() + std::min(end, i + kBatch));
    ASSERT_TRUE(
        server->OnBytes(pub->session_id,
                        net::EncodeElementsFrame(batch, /*origin_us=*/1000))
            .ok());
    std::string drained;
    ASSERT_TRUE(pub->client->TryReceive(&drained).ok());  // feedback
  }
}

// Pool entries of a served blob (every shard's), split into dictionary
// references and inline rows.
CheckpointPoolCounts PoolCounts(const std::string& blob) {
  CheckpointPoolCounts counts;
  std::vector<std::string> shard_blobs;
  EXPECT_TRUE(SplitPartitionedCheckpoint(blob, &shard_blobs).ok());
  for (const std::string& shard_blob : shard_blobs) {
    CheckpointInfo info;
    EXPECT_TRUE(InspectCheckpoint(shard_blob, &info).ok());
    counts.refs += info.pool_refs;
    counts.rows += info.pool_rows;
  }
  return counts;
}

// One full failover scenario: primary serves two divergent presentations,
// the standby jumpstarts at ~half the stream, the primary dies at ~80%,
// and the surviving publishers replay their full streams to the promoted
// standby (the Sec. V-B join protocol dedups everything pre-delivered).
// A `late_standby` subscribes only after the first quarter has been merged
// and fanned out to a plain subscriber, so it learns the broadcast
// dictionary from the def tape; that quarter of the output is then taken
// from the primary's own sink.
void RunFailover(MergeVariant variant, uint64_t seed, int merge_threads = 1,
                 bool late_standby = false) {
  SCOPED_TRACE(::testing::Message()
               << "variant=" << static_cast<int>(variant) << " seed=" << seed
               << " merge_threads=" << merge_threads
               << " late_standby=" << late_standby);
  const LogicalHistory history = ClosedHistory(seed);
  std::vector<ElementSequence> inputs;
  for (uint64_t v = 0; v < 2; ++v) {
    VariantOptions options;
    options.seed = 100 * seed + v;
    if (variant == MergeVariant::kLMR2) {
      // R2 takes in-order insert-only inputs; the presentations may still
      // differ in their stable schedules.
      options.disorder_fraction = 0.0;
      options.split_probability = 0.0;
      options.stable_thinning = static_cast<int64_t>(v + 1);
    } else {
      options.disorder_fraction = 0.2;
      options.split_probability = 0.25;
    }
    inputs.push_back(GeneratePhysicalVariant(history, options));
  }

  net::MergeServerOptions primary_options;
  primary_options.variant = variant;
  primary_options.merge_threads = merge_threads;
  net::MergeServer primary(primary_options);

  // Standby attaches to the primary over a loopback connection.
  StandbyOptions standby_options;
  standby_options.name = "standby";
  StandbyReplica standby(standby_options);
  CollectingSink standby_out;
  standby.server().AddOutputSink(&standby_out);

  Publisher pub_a = ConnectPublisher(&primary, "pub-a");
  Publisher pub_b = ConnectPublisher(&primary, "pub-b");
  ElementSequence early;  // output fanned out before a late standby joins
  size_t early_a = 0;
  size_t early_b = 0;
  auto [sub_client, sub_server_end] =
      net::CreateLoopbackPair("subscriber", "primary:subscriber");
  CollectingSink primary_out;
  if (late_standby) {
    net::HelloMessage hello;
    hello.role = net::PeerRole::kSubscriber;
    hello.peer_name = "subscriber";
    const int sub_session = primary.OnConnect(sub_server_end.get());
    ASSERT_TRUE(
        primary.OnBytes(sub_session, net::EncodeHelloFrame(hello)).ok());
    primary.AddOutputSink(&primary_out);
    early_a = inputs[0].size() / 4;
    early_b = inputs[1].size() / 4;
    Publish(&primary, &pub_a, inputs[0], 0, early_a);
    Publish(&primary, &pub_b, inputs[1], 0, early_b);
    primary.Flush();
    early = primary_out.elements();
    ASSERT_FALSE(early.empty());
  }

  auto [standby_client, standby_server_end] =
      net::CreateLoopbackPair("standby", "primary:standby");
  const int standby_session = primary.OnConnect(standby_server_end.get());
  {
    SessionPump pump(&primary, standby_server_end.get(), standby_session);
    ASSERT_TRUE(standby.Connect(std::move(standby_client)).ok());

    const size_t half_a = inputs[0].size() / 2;
    const size_t half_b = inputs[1].size() / 2;
    Publish(&primary, &pub_a, inputs[0], early_a, half_a);
    Publish(&primary, &pub_b, inputs[1], early_b, half_b);
    primary.Flush();

    // Jumpstart mid-stream: snapshot + cut certificate arrive interleaved
    // with live fan-out; the certificate's horizon dedups the overlap.
    const Status jumpstart = standby.Jumpstart();
    ASSERT_TRUE(jumpstart.ok()) << jumpstart.ToString();
    EXPECT_TRUE(standby.has_state());
    EXPECT_EQ(standby.cut().variant, variant);
    // The standby held every payload the primary had fanned out, so the
    // restore resolved dictionary references.
    EXPECT_GT(PoolCounts(standby.checkpoint_blob()).refs, 0);

    std::thread live([&standby] { EXPECT_TRUE(standby.PumpLive().ok()); });

    const size_t dead_a = inputs[0].size() * 8 / 10;
    const size_t dead_b = inputs[1].size() * 8 / 10;
    Publish(&primary, &pub_a, inputs[0], half_a, dead_a);
    Publish(&primary, &pub_b, inputs[1], half_b, dead_b);
    primary.Flush();

    // Primary dies: its end of the standby connection closes, PumpLive
    // sees EOF, and the standby promotes itself.
    primary.OnDisconnect(standby_session);
    standby_server_end->Close();
    live.join();
    primary.OnDisconnect(pub_a.session_id);
    primary.OnDisconnect(pub_b.session_id);
  }
  EXPECT_GT(standby.feed_elements(), 0);
  EXPECT_GE(standby.deduped_elements(),
            standby.cut().elements_sent_at_cut);
  ASSERT_TRUE(standby.Promote("primary gone").ok());

  // The surviving publishers reconnect to the standby and replay their
  // entire streams; the restored state absorbs everything already merged.
  Publisher pub_a2 = ConnectPublisher(&standby.server(), "pub-a2");
  Publisher pub_b2 = ConnectPublisher(&standby.server(), "pub-b2");
  Publish(&standby.server(), &pub_a2, inputs[0], 0, inputs[0].size());
  Publish(&standby.server(), &pub_b2, inputs[1], 0, inputs[1].size());
  standby.server().Flush();

  // The standby's view of the whole logical stream: the primary's output
  // up to the certified cut, then its own output.
  ElementSequence full = early;
  full.insert(full.end(), standby.pre_cut().begin(), standby.pre_cut().end());
  full.insert(full.end(), standby_out.elements().begin(),
              standby_out.elements().end());
  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(full).ok());
  EXPECT_TRUE(Tdb::Reconstitute(full).Equals(
      Tdb::Reconstitute(RenderInOrder(history))))
      << "failover output diverged from the uninterrupted reference";
}

TEST(FailoverTest, R3PlusSeed1) { RunFailover(MergeVariant::kLMR3Plus, 1); }
TEST(FailoverTest, R3PlusSeed2) { RunFailover(MergeVariant::kLMR3Plus, 2); }
TEST(FailoverTest, R2Seed1) { RunFailover(MergeVariant::kLMR2, 1); }
TEST(FailoverTest, R2Seed2) { RunFailover(MergeVariant::kLMR2, 2); }
TEST(FailoverTest, R4Seed1) { RunFailover(MergeVariant::kLMR4, 1); }
TEST(FailoverTest, R4Seed2) { RunFailover(MergeVariant::kLMR4, 2); }

// Partitioned primary: the cut snapshots every shard at one barrier, the
// LMPC blob carries the shard count, and the promoted standby reconstructs
// the same partitioned topology — all through the unchanged standby path.
TEST(FailoverTest, PartitionedR4Seed1) {
  RunFailover(MergeVariant::kLMR4, 1, /*merge_threads=*/4);
}
TEST(FailoverTest, PartitionedR3PlusSeed2) {
  RunFailover(MergeVariant::kLMR3Plus, 2, /*merge_threads=*/3);
}

// A standby that joins after output has flowed resolves the blob's
// references through the def tape replayed at its registration, for one
// shard and for four.
TEST(FailoverTest, LateStandbyR3PlusSeed1) {
  RunFailover(MergeVariant::kLMR3Plus, 1, /*merge_threads=*/1,
              /*late_standby=*/true);
}
TEST(FailoverTest, LateStandbyPartitionedR4Seed2) {
  RunFailover(MergeVariant::kLMR4, 2, /*merge_threads=*/4,
              /*late_standby=*/true);
}

// The standby needs a primary at exactly its own protocol version: a
// WELCOME of another version fails Connect, and nothing is jumpstarted.
TEST(FailoverTest, StandbyRejectsWelcomeOfAnotherVersion) {
  for (const uint32_t version :
       {net::kProtocolVersion - 1, net::kProtocolVersion + 1}) {
    auto [client, primary_end] = net::CreateLoopbackPair();
    net::WelcomeMessage welcome;
    welcome.version = version;
    ASSERT_TRUE(primary_end->Send(net::EncodeWelcomeFrame(welcome)).ok());
    StandbyReplica standby;
    const Status status = standby.Connect(std::move(client));
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("version mismatch"), std::string::npos)
        << status.ToString();
    EXPECT_FALSE(standby.Jumpstart().ok());
  }
}

TEST(FailoverTest, JumpstartBeforeFirstPublisher) {
  // A standby that attaches before the primary has any state simply
  // subscribes from scratch: has_state=false, nothing deduped, and the
  // feed alone reproduces the whole stream.
  const LogicalHistory history = ClosedHistory(9, /*n=*/200);
  VariantOptions options;
  options.seed = 5;
  const ElementSequence input = GeneratePhysicalVariant(history, options);

  net::MergeServer primary;
  StandbyReplica standby(StandbyOptions{});
  CollectingSink standby_out;
  standby.server().AddOutputSink(&standby_out);

  auto [standby_client, standby_server_end] =
      net::CreateLoopbackPair("standby", "primary:standby");
  const int standby_session = primary.OnConnect(standby_server_end.get());
  {
    SessionPump pump(&primary, standby_server_end.get(), standby_session);
    ASSERT_TRUE(standby.Connect(std::move(standby_client)).ok());
    ASSERT_TRUE(standby.Jumpstart().ok());
    EXPECT_FALSE(standby.has_state());
    EXPECT_EQ(standby.deduped_elements(), 0);
    EXPECT_TRUE(standby.pre_cut().empty());

    std::thread live([&standby] { EXPECT_TRUE(standby.PumpLive().ok()); });
    Publisher pub = ConnectPublisher(&primary, "pub");
    Publish(&primary, &pub, input, 0, input.size());
    primary.Flush();
    primary.OnDisconnect(standby_session);
    standby_server_end->Close();
    live.join();
    primary.OnDisconnect(pub.session_id);
  }
  ASSERT_TRUE(standby.Promote("primary done").ok());

  EXPECT_TRUE(Tdb::Reconstitute(standby_out.elements())
                  .Equals(Tdb::Reconstitute(RenderInOrder(history))));
}

}  // namespace
}  // namespace lmerge::replica
