// Standby session behaviour on the MergeServer, driven byte-by-byte
// over loopback pairs: role gating, checkpoint serving, chunked transfer
// under live traffic, and the cut certificate's dedup horizon.

#include "net/server.h"

#include <gtest/gtest.h>

#include "common/checkpoint.h"
#include "core/lmerge_r0.h"
#include "core/lmerge_r3.h"
#include "core/lmerge_r4.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "replica/cut_certificate.h"
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

HelloMessage StandbyHello(const std::string& name) {
  HelloMessage hello;
  hello.role = PeerRole::kStandby;
  hello.peer_name = name;
  return hello;
}

HelloMessage PublisherHello(const std::string& name) {
  HelloMessage hello;
  hello.role = PeerRole::kPublisher;
  hello.peer_name = name;
  return hello;
}

// Decodes the element-bearing frames in `frames` (maintaining `dict` from
// their defs sections) and returns the element count.
int64_t CountElements(const std::vector<Frame>& frames,
                      PayloadDictDecoder* dict) {
  int64_t count = 0;
  for (const Frame& frame : frames) {
    switch (frame.type) {
      case FrameType::kElementsDict: {
        ElementSequence elements;
        int64_t origin_us = 0;
        EXPECT_TRUE(DecodeElementsDictPayload(frame.payload, *dict,
                                              &elements, &origin_us)
                        .ok());
        count += static_cast<int64_t>(elements.size());
        break;
      }
      default:
        break;
    }
  }
  return count;
}

// Drains `peer`'s frames after a CHECKPOINT_REQUEST: ELEMENTS_DICT defs
// sections go into `dict`, and the CUT_CERT and the chunks reassemble into
// `blob`.
void ReceiveCheckpoint(TestPeer* peer, PayloadDictDecoder* dict,
                       CutCertMessage* cut, std::string* blob) {
  bool have_cert = false;
  for (const Frame& frame : peer->DrainFrames()) {
    if (frame.type == FrameType::kElementsDict) {
      ElementSequence elements;
      int64_t origin_us = 0;
      ASSERT_TRUE(DecodeElementsDictPayload(frame.payload, *dict, &elements,
                                            &origin_us)
                      .ok());
    } else if (frame.type == FrameType::kCutCert) {
      ASSERT_TRUE(DecodeCutCert(frame.payload, cut).ok());
      have_cert = true;
    } else if (frame.type == FrameType::kCheckpointChunk) {
      CheckpointChunkMessage chunk;
      ASSERT_TRUE(DecodeCheckpointChunk(frame.payload, &chunk).ok());
      blob->append(chunk.bytes);
    }
  }
  ASSERT_TRUE(have_cert);
  ASSERT_EQ(blob->size(), cut->checkpoint_bytes);
}

int64_t CounterSum(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Sum();
}

TEST(CheckpointWireTest, CheckpointRequestFromNonStandbyRejected) {
  MergeServer server;
  TestPeer sub = ConnectPeer(&server, "sub");
  HelloMessage hello;
  hello.role = PeerRole::kSubscriber;
  hello.peer_name = "sub";
  ASSERT_TRUE(
      server.OnBytes(sub.session_id, EncodeHelloFrame(hello)).ok());
  (void)sub.DrainFrames();  // WELCOME
  const Status status =
      server.OnBytes(sub.session_id, EncodeCheckpointRequestFrame());
  EXPECT_FALSE(status.ok());
  const std::vector<Frame> frames = sub.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kBye);
}

TEST(CheckpointWireTest, NoStateYieldsEmptyCutCert) {
  // A standby asking before any publisher exists gets has_state=false and
  // no chunks — it simply subscribes from scratch.
  MergeServer server;
  TestPeer standby = ConnectPeer(&server, "standby");
  ASSERT_TRUE(server
                  .OnBytes(standby.session_id,
                           EncodeHelloFrame(StandbyHello("standby")))
                  .ok());
  std::vector<Frame> frames = standby.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kWelcome);

  ASSERT_TRUE(
      server.OnBytes(standby.session_id, EncodeCheckpointRequestFrame())
          .ok());
  frames = standby.DrainFrames();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kCutCert);
  CutCertMessage cut;
  ASSERT_TRUE(DecodeCutCert(frames[0].payload, &cut).ok());
  EXPECT_FALSE(cut.has_state);
  EXPECT_EQ(cut.chunk_count, 0u);
  EXPECT_EQ(cut.checkpoint_bytes, 0u);
}

TEST(CheckpointWireTest, ServedCheckpointRestoresAndCertifiesTheCut) {
  // Publisher state flows in; the standby's transfer must reassemble into a
  // loadable blob whose certificate matches the server's state and the
  // standby's own subscription ("elements sent at cut" == what the standby
  // had received before the CUT_CERT frame).  The broadcast dictionary
  // holds only the first kDictCapacity payloads: the blob names those by
  // id, writes the rest as rows, and so still spans several chunks.
  constexpr uint32_t kDictCapacity = 64;
  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  options.dict_capacity = kDictCapacity;
  MergeServer server(options);

  TestPeer standby = ConnectPeer(&server, "standby");
  ASSERT_TRUE(server
                  .OnBytes(standby.session_id,
                           EncodeHelloFrame(StandbyHello("standby")))
                  .ok());
  (void)standby.DrainFrames();  // WELCOME

  TestPeer pub = ConnectPeer(&server, "pub");
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeHelloFrame(PublisherHello("pub")))
                  .ok());
  (void)pub.DrainFrames();  // WELCOME

  // Enough distinct payloads that the blob spans several chunks.
  constexpr int kBatch = 500;
  constexpr int kBatches = 12;
  int64_t sent = 0;
  for (int b = 0; b < kBatches; ++b) {
    ElementSequence batch;
    for (int i = 0; i < kBatch; ++i) {
      const int64_t vs = b * kBatch + i + 1;
      batch.push_back(Ins("payload-" + std::to_string(vs) +
                              std::string(64, 'x'),
                          vs, vs + 1000000));
    }
    sent += kBatch;
    ASSERT_TRUE(
        server
            .OnBytes(pub.session_id,
                     EncodeElementsFrame(batch, /*origin_us=*/1000))
            .ok());
  }
  server.Flush();

  ASSERT_TRUE(
      server.OnBytes(standby.session_id, EncodeCheckpointRequestFrame())
          .ok());
  const std::vector<Frame> frames = standby.DrainFrames();

  // Split the drained frames at the CUT_CERT: everything before is live
  // fan-out the certificate must account for.
  PayloadDictDecoder dict;
  std::vector<Frame> before_cut;
  CutCertMessage cut;
  bool have_cert = false;
  std::string blob;
  uint32_t chunks = 0;
  for (const Frame& frame : frames) {
    if (frame.type == FrameType::kCutCert) {
      ASSERT_FALSE(have_cert);
      ASSERT_TRUE(DecodeCutCert(frame.payload, &cut).ok());
      have_cert = true;
      continue;
    }
    if (frame.type == FrameType::kCheckpointChunk) {
      ASSERT_TRUE(have_cert);
      CheckpointChunkMessage chunk;
      ASSERT_TRUE(DecodeCheckpointChunk(frame.payload, &chunk).ok());
      ASSERT_EQ(chunk.index, chunks);
      blob.append(chunk.bytes);
      ++chunks;
      continue;
    }
    ASSERT_FALSE(have_cert) << "element frames after the last chunk";
    before_cut.push_back(frame);
  }
  ASSERT_TRUE(have_cert);
  EXPECT_TRUE(cut.has_state);
  EXPECT_GE(cut.chunk_count, 2u) << "blob too small to test chunking";
  EXPECT_EQ(chunks, cut.chunk_count);
  EXPECT_EQ(blob.size(), cut.checkpoint_bytes);

  // The dedup horizon is exactly what this subscription saw pre-cut.
  const int64_t received_before_cut = CountElements(before_cut, &dict);
  EXPECT_EQ(cut.cert.elements_sent_at_cut, received_before_cut);
  EXPECT_EQ(received_before_cut, sent);  // R4 forwards all distinct inserts

  EXPECT_EQ(cut.cert.variant, MergeVariant::kLMR4);
  ASSERT_EQ(cut.cert.inputs.size(), 1u);
  EXPECT_TRUE(cut.cert.inputs[0].active);
  EXPECT_EQ(cut.cert.inputs[0].elements_in, sent);

  // The reassembled blob is a loadable checkpoint with the same
  // certificate embedded, naming every payload the dictionary defined.
  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_EQ(info.version, kCheckpointVersion);
  EXPECT_EQ(info.flags, kCheckpointFlagCutCertificate);
  EXPECT_EQ(info.pool_refs, kDictCapacity);
  EXPECT_EQ(info.pool_rows, sent - kDictCapacity);
  replica::CutCertificate embedded;
  ASSERT_TRUE(
      replica::ParseCutCertificate(info.cut_certificate, &embedded).ok());
  EXPECT_EQ(embedded.elements_sent_at_cut, cut.cert.elements_sent_at_cut);
  EXPECT_EQ(embedded.output_stable, cut.cert.output_stable);

  // The references resolve only against the subscription's dictionary.
  CollectingSink sink;
  LMergeR4 restored(1, &sink);
  EXPECT_FALSE(LoadCheckpoint(blob, &restored).ok());
  LMergeR4 resolved(1, &sink);
  ASSERT_TRUE(LoadCheckpoint(blob, &resolved, nullptr, &dict).ok());
  EXPECT_EQ(resolved.max_stable(), cut.cert.output_stable);
}

TEST(CheckpointWireTest, LateStandbyResolvesThroughCatchUpFrames) {
  // A standby that subscribes after output has flowed learns the broadcast
  // dictionary from the catch-up frames sent at its registration.  The
  // blob it then receives names every pooled payload by id, and a fresh
  // server adopts it against the dictionary the catch-up built.
  MergeServerOptions options;
  options.variant = MergeVariant::kLMR4;
  MergeServer server(options);
  // A plain subscriber from the start, so output is dictionary-coded.
  TestPeer sub = ConnectPeer(&server, "sub");
  HelloMessage sub_hello;
  sub_hello.role = PeerRole::kSubscriber;
  sub_hello.peer_name = "sub";
  ASSERT_TRUE(server.OnBytes(sub.session_id, EncodeHelloFrame(sub_hello)).ok());
  TestPeer pub = ConnectPeer(&server, "pub");
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeHelloFrame(PublisherHello("pub")))
                  .ok());
  constexpr int kEvents = 100;
  ElementSequence batch;
  for (int i = 1; i <= kEvents; ++i) {
    batch.push_back(Ins("late-" + std::to_string(i), i, i + 1000000));
  }
  ASSERT_TRUE(
      server.OnBytes(pub.session_id, EncodeElementsFrame(batch, /*origin_us=*/1000))
          .ok());
  server.Flush();
  const int64_t tx_entries =
      server.MetricsSnapshot().Value("net.tx.dict.entries", -1);
  EXPECT_EQ(tx_entries, kEvents);

  // The standby's first bytes are its WELCOME and then zero-element
  // catch-up frames defining every broadcast payload.
  TestPeer standby = ConnectPeer(&server, "standby");
  ASSERT_TRUE(server
                  .OnBytes(standby.session_id,
                           EncodeHelloFrame(StandbyHello("standby")))
                  .ok());
  std::string joined;
  ASSERT_TRUE(standby.client->TryReceive(&joined).ok());
  ASSERT_TRUE(standby.assembler.Feed(joined).ok());
  Frame frame;
  ASSERT_TRUE(standby.assembler.Next(&frame));
  ASSERT_EQ(frame.type, FrameType::kWelcome);
  PayloadDictDecoder dict;
  while (standby.assembler.Next(&frame)) {
    ASSERT_EQ(frame.type, FrameType::kElementsDict);
    ElementSequence none;
    int64_t origin_us = -1;
    ASSERT_TRUE(
        DecodeElementsDictPayload(frame.payload, dict, &none, &origin_us)
            .ok());
    EXPECT_TRUE(none.empty());
    EXPECT_EQ(origin_us, 0);
  }
  EXPECT_EQ(dict.entries(), tx_entries);

  const int64_t refs_before = CounterSum("net.checkpoint.tx.pool_refs");
  const int64_t rows_before = CounterSum("net.checkpoint.tx.pool_rows");
  ASSERT_TRUE(
      server.OnBytes(standby.session_id, EncodeCheckpointRequestFrame())
          .ok());
  CutCertMessage cut;
  std::string blob;
  ReceiveCheckpoint(&standby, &dict, &cut, &blob);
  ASSERT_TRUE(cut.has_state);
  EXPECT_EQ(dict.entries(), kEvents);
  EXPECT_EQ(cut.cert.elements_sent_at_cut, 0);

  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_EQ(info.pool_refs, static_cast<uint32_t>(kEvents));
  EXPECT_EQ(info.pool_rows, 0u);
  EXPECT_EQ(CounterSum("net.checkpoint.tx.pool_refs") - refs_before, kEvents);
  EXPECT_EQ(CounterSum("net.checkpoint.tx.pool_rows") - rows_before, 0);

  MergeServer adopted;
  ASSERT_TRUE(adopted.AdoptCheckpoint(blob, cut.cert, &dict).ok());
  EXPECT_EQ(adopted.output_stable(), cut.cert.output_stable);
}

TEST(CheckpointWireTest, PayloadNotYetFannedOutStaysInline) {
  // Under the wait-until-half-frozen policy R3 holds an insert back until
  // the stable point reaches its Vs.  At the barrier one payload has been
  // fanned out, so the broadcast dictionary defines it, and the other has
  // not: the blob names the first by id and writes the second as a row.
  MergeServerOptions options;
  options.variant = MergeVariant::kLMR3Plus;
  options.policy.insert_policy = InsertPolicy::kWaitHalfFrozen;
  MergeServer server(options);
  TestPeer standby = ConnectPeer(&server, "standby");
  ASSERT_TRUE(server
                  .OnBytes(standby.session_id,
                           EncodeHelloFrame(StandbyHello("standby")))
                  .ok());
  (void)standby.DrainFrames();  // WELCOME
  TestPeer pub = ConnectPeer(&server, "pub");
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeHelloFrame(PublisherHello("pub")))
                  .ok());
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeElementsFrame({Ins("out", 5, 100),
                                                Ins("held", 50, 100), Stb(10)},
                                               /*origin_us=*/1000))
                  .ok());
  server.Flush();

  const int64_t refs_before = CounterSum("net.checkpoint.tx.pool_refs");
  const int64_t rows_before = CounterSum("net.checkpoint.tx.pool_rows");
  ASSERT_TRUE(
      server.OnBytes(standby.session_id, EncodeCheckpointRequestFrame())
          .ok());
  PayloadDictDecoder dict;
  CutCertMessage cut;
  std::string blob;
  ReceiveCheckpoint(&standby, &dict, &cut, &blob);
  ASSERT_TRUE(cut.has_state);
  EXPECT_EQ(dict.entries(), 1);

  CheckpointInfo info;
  ASSERT_TRUE(InspectCheckpoint(blob, &info).ok());
  EXPECT_EQ(info.pool_refs, 1u);
  EXPECT_EQ(info.pool_rows, 1u);
  EXPECT_EQ(CounterSum("net.checkpoint.tx.pool_refs") - refs_before, 1);
  EXPECT_EQ(CounterSum("net.checkpoint.tx.pool_rows") - rows_before, 1);

  MergeServer adopted;
  ASSERT_TRUE(adopted.AdoptCheckpoint(blob, cut.cert, &dict).ok());
  EXPECT_EQ(adopted.output_stable(), cut.cert.output_stable);

  // Without the dictionary, or against one that lacks the id, the
  // reference is refused with a Status.
  MergeServer no_dict;
  Status status = no_dict.AdoptCheckpoint(blob, cut.cert);
  EXPECT_NE(status.ToString().find("no dictionary"), std::string::npos)
      << status.ToString();
  const PayloadDictDecoder empty;
  MergeServer wrong_dict;
  status = wrong_dict.AdoptCheckpoint(blob, cut.cert, &empty);
  EXPECT_NE(status.ToString().find("undefined payload id"), std::string::npos)
      << status.ToString();
}

TEST(CheckpointWireTest, AdoptCheckpointRefusedAfterPublishers) {
  // AdoptCheckpoint is a pre-flight operation: once a publisher shaped the
  // algorithm, adopting someone else's state would corrupt the merge.
  MergeServer server;
  TestPeer pub = ConnectPeer(&server, "pub");
  ASSERT_TRUE(server
                  .OnBytes(pub.session_id,
                           EncodeHelloFrame(PublisherHello("pub")))
                  .ok());
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR4;
  CollectingSink sink;
  LMergeR4 donor(1, &sink);
  const std::string blob =
      SaveCheckpoint(donor, replica::SerializeCutCertificate(cert));
  EXPECT_FALSE(server.AdoptCheckpoint(blob, cert).ok());
}

TEST(CheckpointWireTest, PlainBlobWithShardFrontiersIsRefused) {
  // A one-shard checkpoint's certificate names no shard frontiers.  One
  // that names two for a plain blob describes some other cut, so the
  // restore refuses it with a Status — and the refusal leaves the server
  // able to adopt the untampered pair.
  CollectingSink sink;
  LMergeR4 donor(2, &sink);
  ASSERT_TRUE(donor.OnElement(0, Ins("a", 5, 50)).ok());
  ASSERT_TRUE(donor.OnElement(1, Ins("b", 7, 70)).ok());
  ASSERT_TRUE(donor.OnElement(0, Stb(6)).ok());
  ASSERT_EQ(donor.max_stable(), 6);
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR4;
  cert.output_stable = donor.max_stable();
  const std::string blob =
      SaveCheckpoint(donor, replica::SerializeCutCertificate(cert));

  MergeServer server;
  replica::CutCertificate tampered = cert;
  tampered.shard_stables = {cert.output_stable, cert.output_stable};
  const Status status = server.AdoptCheckpoint(blob, tampered);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("names 2 shard frontiers"),
            std::string::npos)
      << status.ToString();

  ASSERT_TRUE(server.AdoptCheckpoint(blob, cert).ok());
  EXPECT_EQ(server.output_stable(), cert.output_stable);
  EXPECT_STREQ(server.algorithm_name(), "R4");
}

TEST(CheckpointWireTest, AdoptCheckpointRejectsTooManyStreams) {
  // A blob naming more streams than one merge may have is refused with a
  // Status before any merger (and its merge thread) is built, on the
  // single and the partitioned restore path.
  CollectingSink sink;
  LMergeR0 wide(static_cast<int>(kMaxStreams) + 1, &sink);
  replica::CutCertificate cert;
  cert.variant = MergeVariant::kLMR0;
  const std::string blob =
      SaveCheckpoint(wide, replica::SerializeCutCertificate(cert));
  {
    MergeServer server;
    const Status status = server.AdoptCheckpoint(blob, cert);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("1025 streams"), std::string::npos)
        << status.ToString();
  }
  {
    MergeServer server;
    EXPECT_FALSE(
        server.AdoptCheckpoint(CombinePartitionedCheckpoint({blob}), cert)
            .ok());
  }
  // A snapshot already at the limit leaves no stream for the primary's
  // output to join as.
  LMergeR3 full(static_cast<int>(kMaxStreams), &sink);
  cert.variant = MergeVariant::kLMR3Plus;
  const std::string full_blob =
      SaveCheckpoint(full, replica::SerializeCutCertificate(cert));
  for (const std::string& candidate :
       {full_blob, CombinePartitionedCheckpoint({full_blob})}) {
    MergeServer server;
    const Status status = server.AdoptCheckpoint(candidate, cert);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("no room for the feed stream"),
              std::string::npos)
        << status.ToString();
  }
  // A partitioned container whose later shard is corrupt or of another
  // width than shard 0 is an error too, not an abort in the constructor.
  LMergeR3 two(2, &sink);
  LMergeR3 three(3, &sink);
  const std::string two_blob =
      SaveCheckpoint(two, replica::SerializeCutCertificate(cert));
  for (const std::string& second :
       {SaveCheckpoint(three), std::string("corrupt")}) {
    MergeServer server;
    EXPECT_FALSE(server
                     .AdoptCheckpoint(
                         CombinePartitionedCheckpoint({two_blob, second}), cert)
                     .ok());
  }
}

}  // namespace
}  // namespace lmerge::net
