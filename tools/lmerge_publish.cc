// lmerge_publish — publish a stream-file tape to an lmerge_served daemon as
// one redundant input replica.
//
//   lmerge_publish <host> <port> <tape.lmst> [--name=replica-a]
//                  [--join-time=T] [--batch=N] [--kill-after=N]
//                  [--ignore-feedback]
//                  [--connect-timeout-ms=N] [--retry=N]
//
// --retry=N retries a failed connect up to N times with exponential
// backoff (100ms doubling to 2s), with --connect-timeout-ms bounding each
// attempt — so scripts start publisher and server concurrently instead of
// sleeping and hoping (scripts/demo_net.sh).
//
// --batch=N (default 64) packs N elements into one dictionary-coded batch
// frame; the server hands each decoded frame to the merge as a single
// batch, so larger values amortize framing and ring-handoff overhead at the
// cost of delivery latency (--batch=1 sends batches of one).
// --kill-after=N drops the connection (no BYE) after N elements, modelling
// a crashed replica; re-running the tool afterwards models the rejoin
// (Sec. V-B).  Unless --ignore-feedback is given, FEEDBACK frames from the
// server fast-forward the tape: elements whose lifetime ended before the
// merged output's stable point are skipped instead of sent (Sec. V-D).

#include <cstdio>

#include "net/client.h"
#include "net/tcp.h"
#include "properties/runtime_stats.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lmerge_publish <host> <port> <tape.lmst> [--name=X]\n"
               "                      [--join-time=T] [--batch=N]\n"
               "                      [--kill-after=N] [--ignore-feedback]\n"
               "                      [--connect-timeout-ms=N] [--retry=N]\n"
               "  --batch=N  elements per batch frame (default 64);\n"
               "             the server merges each frame as one batch\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().size() != 3) return Usage();
  const std::string host = flags.positional()[0];
  const int port = std::stoi(flags.positional()[1]);
  const std::string tape_path = flags.positional()[2];

  ElementSequence tape;
  Status status = ReadStreamFile(tape_path, &tape);
  if (!status.ok()) return Fail(status);

  // Declare the tape's actual shape so the server's factory can pick the
  // cheapest safe algorithm (Sec. IV-G): a full pre-scan of the tape is the
  // runtime-statistics route of Sec. IV-F.
  StreamStatsCollector collector;
  for (const StreamElement& element : tape) collector.Observe(element);
  const StreamProperties properties = collector.ObservedProperties();

  std::unique_ptr<net::Connection> connection;
  net::TcpConnectOptions connect_options;
  connect_options.connect_timeout_ms =
      static_cast<int>(flags.GetInt("connect-timeout-ms", 0));
  connect_options.retries = static_cast<int>(flags.GetInt("retry", 0));
  status = net::TcpConnect(host, port, connect_options, &connection);
  if (!status.ok()) return Fail(status);

  net::PublisherClient publisher(std::move(connection));
  net::WelcomeMessage welcome;
  const Timestamp join_time = flags.GetInt("join-time", kMinTimestamp);
  status = publisher.Handshake(properties, join_time,
                               flags.GetString("name", tape_path), &welcome);
  if (!status.ok()) return Fail(status);
  std::fprintf(stderr,
               "[lmerge_publish] %s: stream %d, server stable %s\n",
               tape_path.c_str(), welcome.stream_id,
               TimestampToString(welcome.output_stable).c_str());

  const int64_t batch_size = flags.GetInt("batch", 64);
  const int64_t kill_after = flags.GetInt("kill-after", -1);
  const bool honor_feedback = !flags.Has("ignore-feedback");

  int64_t sent = 0;
  int64_t skipped = 0;
  ElementSequence batch;
  auto flush = [&]() -> Status {
    if (batch.empty()) return Status::Ok();
    const Status s = publisher.PublishBatch(batch);
    batch.clear();
    return s;
  };
  for (const StreamElement& element : tape) {
    if (kill_after >= 0 && sent >= kill_after) {
      // Simulated crash: vanish mid-stream without BYE.
      (void)flush();
      std::fprintf(stderr,
                   "[lmerge_publish] %s: killed after %lld elements\n",
                   tape_path.c_str(), static_cast<long long>(sent));
      return 0;
    }
    if ((sent + skipped) % 256 == 0) {
      status = publisher.Poll();
      if (!status.ok()) return Fail(status);
      if (publisher.server_said_bye()) {
        std::fprintf(stderr, "[lmerge_publish] server closed session: %s\n",
                     publisher.bye_reason().c_str());
        return 1;
      }
    }
    if (honor_feedback && publisher.ShouldSkip(element)) {
      ++skipped;
      continue;
    }
    batch.push_back(element);
    ++sent;
    if (static_cast<int64_t>(batch.size()) >= batch_size) {
      status = flush();
      if (!status.ok()) return Fail(status);
    }
  }
  status = flush();
  if (!status.ok()) return Fail(status);
  status = publisher.Finish("tape complete");
  if (!status.ok()) return Fail(status);
  std::fprintf(stderr,
               "[lmerge_publish] %s: sent %lld elements, fast-forwarded "
               "past %lld (horizon %s)\n",
               tape_path.c_str(), static_cast<long long>(sent),
               static_cast<long long>(skipped),
               TimestampToString(publisher.feedback_horizon()).c_str());
  return 0;
}
