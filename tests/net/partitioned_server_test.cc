// MergeServer with --merge-threads > 1: the partitioned merge behind the
// session layer.  Proves (1) merge_threads=1 stays byte-identical to the
// plain single-threaded algorithm, (2) a partitioned server converges to
// the same TDB as the reference across redundant disordered publishers,
// (3) a partitioned checkpoint cut certifies every shard frontier and
// restores onto a fresh server, and (4) tampered shard frontiers are
// rejected at adoption.

#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/checkpoint.h"
#include "core/factory.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "replica/cut_certificate.h"
#include "stream/sink.h"
#include "stream/validate.h"
#include "temporal/tdb.h"
#include "workload/generator.h"

namespace lmerge::net {
namespace {

using workload::GeneratePhysicalVariant;
using workload::GenerateHistory;
using workload::GeneratorConfig;
using workload::LogicalHistory;
using workload::RenderInOrder;
using workload::VariantOptions;

LogicalHistory ClosedHistory(uint64_t seed, int64_t n = 300) {
  GeneratorConfig config;
  config.num_inserts = n;
  config.stable_freq = 0.06;
  config.event_duration = 400;
  config.max_gap = 12;
  config.payload_string_bytes = 8;
  config.seed = seed;
  LogicalHistory history = GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  return history;
}

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

// Publisher handshake returning the WELCOME.
WelcomeMessage PublisherHandshake(MergeServer* server, TestPeer* peer,
                                  const std::string& name) {
  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
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

void PublishAll(MergeServer* server, TestPeer* peer,
                const ElementSequence& tape, size_t chunk = 64) {
  for (size_t i = 0; i < tape.size(); i += chunk) {
    ElementSequence batch(tape.begin() + i,
                          tape.begin() + std::min(tape.size(), i + chunk));
    ASSERT_TRUE(
        server
            ->OnBytes(peer->session_id,
                      EncodeElementsFrame(batch, /*origin_us=*/1000))
            .ok());
    std::string drained;
    ASSERT_TRUE(peer->client->TryReceive(&drained).ok());  // feedback
  }
}

TEST(PartitionedServerTest, MergeThreadsOneMatchesDirectAlgorithmByteForByte) {
  // The acceptance guard for the default path: a merge_threads=1 server
  // must emit exactly the elements the plain single-threaded algorithm
  // emits for the same delivery order — not just an equivalent TDB.
  const LogicalHistory history = ClosedHistory(7);
  VariantOptions variant_options;
  variant_options.disorder_fraction = 0.25;
  variant_options.split_probability = 0.2;
  variant_options.seed = 71;
  const ElementSequence tape = GeneratePhysicalVariant(history,
                                                       variant_options);

  CollectingSink reference_out;
  std::unique_ptr<MergeAlgorithm> reference = CreateMergeAlgorithm(
      MergeVariant::kLMR4, /*num_streams=*/1, &reference_out,
      MergePolicy::Default());
  ASSERT_TRUE(reference
                  ->ProcessBatch(0, std::span<const StreamElement>(
                                        tape.data(), tape.size()))
                  .ok());

  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  options.merge_threads = 1;
  MergeServer server(options);
  CollectingSink merged;
  server.AddOutputSink(&merged);
  TestPeer pub = ConnectPeer(&server, "solo");
  PublisherHandshake(&server, &pub, "solo");
  PublishAll(&server, &pub, tape);
  server.Flush();

  EXPECT_EQ(merged.elements(), reference_out.elements());
  EXPECT_FALSE(merged.elements().empty());
  const MergeOutputStats stats = server.merge_stats();
  EXPECT_EQ(stats.inserts_out, reference->stats().inserts_out);
  EXPECT_EQ(stats.adjusts_out, reference->stats().adjusts_out);
  EXPECT_EQ(stats.stables_out, reference->stats().stables_out);
}

TEST(PartitionedServerTest, PartitionedServerConvergesAcrossPublishers) {
  const LogicalHistory history = ClosedHistory(11);
  const Timestamp closing = history.stable_times.back();
  std::vector<ElementSequence> replicas;
  for (uint64_t v = 0; v < 3; ++v) {
    VariantOptions options;
    options.disorder_fraction = 0.2;
    options.split_probability = 0.25;
    options.seed = 110 + v;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }

  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  options.merge_threads = 3;
  MergeServer server(options);
  CollectingSink merged;
  server.AddOutputSink(&merged);

  std::vector<TestPeer> peers;
  for (int s = 0; s < 3; ++s) {
    peers.push_back(ConnectPeer(&server, "replica-" + std::to_string(s)));
    const WelcomeMessage welcome = PublisherHandshake(
        &server, &peers.back(), "replica-" + std::to_string(s));
    ASSERT_EQ(welcome.stream_id, s);
    EXPECT_NE(welcome.algorithm_case, kUnknownAlgorithmCase);
  }
  // Interleave the replicas element-wise so every shard sees redundant,
  // disordered delivery from several streams.
  size_t cursor[3] = {0, 0, 0};
  bool any = true;
  while (any) {
    any = false;
    for (int s = 0; s < 3; ++s) {
      const ElementSequence& tape = replicas[static_cast<size_t>(s)];
      size_t& i = cursor[static_cast<size_t>(s)];
      if (i >= tape.size()) continue;
      const size_t end = std::min(tape.size(), i + 7);
      ElementSequence batch(tape.begin() + static_cast<int64_t>(i),
                            tape.begin() + static_cast<int64_t>(end));
      ASSERT_TRUE(server
                      .OnBytes(peers[static_cast<size_t>(s)].session_id,
                               EncodeElementsFrame(batch, /*origin_us=*/1000))
                      .ok());
      i = end;
      any = true;
    }
  }
  server.Flush();

  EXPECT_EQ(server.output_stable(), closing);
  StreamValidator validator;
  ASSERT_TRUE(validator.ConsumeAll(merged.elements()).ok());
  EXPECT_TRUE(Tdb::Reconstitute(merged.elements())
                  .Equals(Tdb::Reconstitute(RenderInOrder(history))));

  // The per-input table aggregates across shards: at quiesce every shard
  // has consumed every broadcast stable, so the min-rule stable_point
  // equals each input's real frontier.
  const StatsResponseMessage stats = server.StatsSnapshot();
  ASSERT_EQ(stats.inputs.size(), 3u);
  for (const StatsInputRow& row : stats.inputs) {
    EXPECT_EQ(row.stable_point, closing);
    EXPECT_TRUE(row.active);
  }
  // First-delivery-wins: contributions across inputs sum to the merged TDB
  // size regardless of sharding.
  int64_t contributed = 0;
  for (const StatsInputRow& row : stats.inputs) {
    contributed += row.contributed;
  }
  EXPECT_EQ(contributed, stats.output_inserts);
  // The registry reports the shard topology.
  EXPECT_EQ(server.MetricsSnapshot().Value("merge.shards"), 3);
}

TEST(PartitionedServerTest, PartitionedSubscriberSeesExactlyTheMergedOutput) {
  const LogicalHistory history = ClosedHistory(13, /*n=*/150);
  VariantOptions variant_options;
  variant_options.disorder_fraction = 0.3;
  variant_options.seed = 131;
  const ElementSequence tape = GeneratePhysicalVariant(history,
                                                       variant_options);

  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  options.merge_threads = 2;
  MergeServer server(options);
  CollectingSink merged;
  server.AddOutputSink(&merged);

  TestPeer sub = ConnectPeer(&server, "sub");
  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  ASSERT_TRUE(
      server.OnBytes(sub.session_id, EncodeHelloFrame(sub_hello)).ok());
  (void)sub.DrainFrames();  // WELCOME

  TestPeer pub = ConnectPeer(&server, "pub");
  PublisherHandshake(&server, &pub, "pub");
  PublishAll(&server, &pub, tape);
  server.Flush();

  PayloadDictDecoder dict;
  ElementSequence received;
  for (const Frame& frame : sub.DrainFrames()) {
    switch (frame.type) {
      case FrameType::kPayloadDef: {
        PayloadDefMessage def;
        ASSERT_TRUE(DecodePayloadDefPayload(frame.payload, &def).ok());
        ASSERT_TRUE(dict.Define(def.id, std::move(def.payload)).ok());
        break;
      }
      case FrameType::kElementsDict: {
        ElementSequence batch;
        int64_t origin_us = 0;
        ASSERT_TRUE(
            DecodeElementsDictPayload(frame.payload, dict, &batch, &origin_us)
                .ok());
        for (StreamElement& element : batch) {
          received.push_back(std::move(element));
        }
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(received, merged.elements());
  EXPECT_FALSE(received.empty());
}

// Requests a checkpoint through a standby session and returns the parsed
// CUT_CERT plus the reassembled blob.
void RequestCheckpoint(MergeServer* server, TestPeer* standby,
                       CutCertMessage* cut, std::string* blob) {
  ASSERT_TRUE(
      server->OnBytes(standby->session_id, EncodeCheckpointRequestFrame())
          .ok());
  bool have_cert = false;
  uint32_t chunks = 0;
  for (const Frame& frame : standby->DrainFrames()) {
    if (frame.type == FrameType::kCutCert) {
      ASSERT_TRUE(DecodeCutCert(frame.payload, cut).ok());
      have_cert = true;
      continue;
    }
    if (frame.type == FrameType::kCheckpointChunk) {
      ASSERT_TRUE(have_cert);
      CheckpointChunkMessage chunk;
      ASSERT_TRUE(DecodeCheckpointChunk(frame.payload, &chunk).ok());
      ASSERT_EQ(chunk.index, chunks);
      blob->append(chunk.bytes);
      ++chunks;
    }
  }
  ASSERT_TRUE(have_cert);
  ASSERT_EQ(chunks, cut->chunk_count);
  ASSERT_EQ(blob->size(), cut->checkpoint_bytes);
}

TEST(PartitionedServerTest, PartitionedCheckpointCertifiesEveryShard) {
  const LogicalHistory history = ClosedHistory(17);
  VariantOptions variant_options;
  variant_options.disorder_fraction = 0.2;
  variant_options.seed = 171;
  const ElementSequence tape = GeneratePhysicalVariant(history,
                                                       variant_options);

  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  options.merge_threads = 4;
  MergeServer server(options);

  TestPeer standby = ConnectPeer(&server, "standby");
  HelloMessage standby_hello;
  standby_hello.role = PeerRole::kStandby;
  standby_hello.peer_name = "standby";
  ASSERT_TRUE(
      server.OnBytes(standby.session_id, EncodeHelloFrame(standby_hello))
          .ok());
  (void)standby.DrainFrames();  // WELCOME

  TestPeer pub = ConnectPeer(&server, "pub");
  PublisherHandshake(&server, &pub, "pub");
  PublishAll(&server, &pub, tape);
  server.Flush();

  CutCertMessage cut;
  std::string blob;
  RequestCheckpoint(&server, &standby, &cut, &blob);
  ASSERT_TRUE(cut.has_state);
  EXPECT_EQ(cut.cert.variant, MergeVariant::kLMR4);

  // The certificate names all four shard frontiers; the output stable
  // point is their minimum, and at quiesce all frontiers agree (every
  // shard consumed every broadcast stable).
  ASSERT_EQ(cut.cert.shard_stables.size(), 4u);
  Timestamp min_stable = cut.cert.shard_stables[0];
  for (const Timestamp t : cut.cert.shard_stables) {
    min_stable = std::min(min_stable, t);
  }
  EXPECT_EQ(cut.cert.output_stable, min_stable);
  EXPECT_EQ(cut.cert.output_stable, server.output_stable());

  // The blob is an LMPC container of four ordinary checkpoints; the cut
  // certificate rides in shard 0's blob.
  std::vector<std::string> shard_blobs;
  ASSERT_TRUE(SplitPartitionedCheckpoint(blob, &shard_blobs).ok());
  ASSERT_EQ(shard_blobs.size(), 4u);
  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(shard_blobs[0], &info).ok());
  EXPECT_EQ(info.flags, kCheckpointFlagCutCertificate);
  replica::CutCertificate embedded;
  ASSERT_TRUE(
      replica::ParseCutCertificate(info.cut_certificate, &embedded).ok());
  EXPECT_EQ(embedded.shard_stables, cut.cert.shard_stables);

  // A fresh server adopts the partitioned blob, reconstructing the same
  // shard topology at the same frontier.
  MergeServer adopted;  // default options: shard count comes from the blob
  ASSERT_TRUE(adopted.AdoptCheckpoint(blob, cut.cert).ok());
  EXPECT_EQ(adopted.output_stable(), cut.cert.output_stable);
  EXPECT_STREQ(adopted.algorithm_name(), server.algorithm_name());

  // A certificate whose shard frontier does not match the restored state
  // must be refused — restoring against it would fabricate stable history.
  MergeServer rejecting;
  replica::CutCertificate tampered = cut.cert;
  tampered.shard_stables[1] += 1;
  const Status status = rejecting.AdoptCheckpoint(blob, tampered);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("shard 1"), std::string::npos);
}

TEST(PartitionedServerTest, ShardStablesRoundTripAndStayOptional) {
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR3Plus;
  cert.output_stable = 41;
  cert.elements_sent_at_cut = 9;
  replica::CutInputState in;
  in.stream_id = 0;
  in.active = true;
  in.stable_point = 41;
  in.elements_in = 100;
  cert.inputs.push_back(in);

  // Without shard_stables the encoding is the pre-partitioned layout and
  // parses back with the field empty.
  const std::string single = replica::SerializeCutCertificate(cert);
  replica::CutCertificate parsed;
  ASSERT_TRUE(replica::ParseCutCertificate(single, &parsed).ok());
  EXPECT_TRUE(parsed.shard_stables.empty());
  EXPECT_EQ(parsed.output_stable, 41);

  // With shard_stables the trailing section round-trips.
  cert.shard_stables = {41, 55, 47};
  const std::string partitioned = replica::SerializeCutCertificate(cert);
  ASSERT_GT(partitioned.size(), single.size());
  ASSERT_TRUE(replica::ParseCutCertificate(partitioned, &parsed).ok());
  EXPECT_EQ(parsed.shard_stables, cert.shard_stables);
}

}  // namespace
}  // namespace lmerge::net
