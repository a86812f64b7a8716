// lmerge_subscribe — subscribe to an lmerge_served daemon and capture the
// merged output stream to a stream file.
//
//   lmerge_subscribe <host> <port> <out.lmst> [--name=X] [--validate]
//                    [--connect-timeout-ms=N] [--retry=N] [--latency]
//
// Receives until the server says BYE or closes, then writes the file.
// --retry=N retries a failed connect with exponential backoff and
// --connect-timeout-ms bounds each attempt, so scripts can start the
// subscriber alongside the server without sleeping first.
// --validate additionally re-validates the received stream and fails if the
// server ever emitted an illegal physical stream.  Note a subscriber only
// sees output from its subscription point onward; subscribe before the
// publishers connect to capture the whole stream.
//
// --latency measures end-to-end publish->delivery latency from the wire:
// batches carry the publisher's send stamp, and this tool diffs it
// against its own steady clock at delivery — an EXTERNAL measurement the
// server cannot flatter.  Per-element samples weight each batch by its
// element count; percentiles print at exit.  Meaningful when publisher and
// subscriber run on the same host (shared steady clock), e.g. the demo
// pipeline; cross-machine numbers include the clock offset.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "net/client.h"
#include "obs/latency.h"
#include "net/tcp.h"
#include "stream/validate.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().size() != 3) {
    std::fprintf(stderr,
                 "usage: lmerge_subscribe <host> <port> <out.lmst> "
                 "[--name=X] [--validate]\n"
                 "                        [--connect-timeout-ms=N] "
                 "[--retry=N] [--latency]\n");
    return 2;
  }
  const std::string host = flags.positional()[0];
  const int port = std::stoi(flags.positional()[1]);
  const std::string out_path = flags.positional()[2];

  std::unique_ptr<net::Connection> connection;
  net::TcpConnectOptions connect_options;
  connect_options.connect_timeout_ms =
      static_cast<int>(flags.GetInt("connect-timeout-ms", 0));
  connect_options.retries = static_cast<int>(flags.GetInt("retry", 0));
  Status status = net::TcpConnect(host, port, connect_options, &connection);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  net::SubscriberClient subscriber(std::move(connection));
  net::WelcomeMessage welcome;
  status = subscriber.Handshake(flags.GetString("name", "subscriber"),
                                &welcome);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[lmerge_subscribe] subscribed (server stable %s)\n",
               TimestampToString(welcome.output_stable).c_str());

  std::vector<int64_t> latency_us;
  if (flags.Has("latency")) {
    subscriber.set_stamp_observer(
        [&latency_us](int64_t origin_us, size_t count) {
          const int64_t sample = obs::MonotonicMicros() - origin_us;
          // One sample per element, so a 64-element batch that aged 10ms
          // weighs 64x a singleton: percentiles are per-element, matching
          // the server-side latency.publish_to_fanout_us histogram.
          latency_us.insert(latency_us.end(), count,
                            sample > 0 ? sample : 0);
        });
  }

  CollectingSink captured;
  status = subscriber.Consume(&captured);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[lmerge_subscribe] stream ended (%s): %lld "
               "elements\n",
               subscriber.bye_reason().empty() ? "eof"
                                               : subscriber.bye_reason().c_str(),
               static_cast<long long>(subscriber.elements_received()));

  if (flags.Has("validate")) {
    StreamValidator validator;
    status = validator.ConsumeAll(captured.elements());
    if (!status.ok()) {
      std::fprintf(stderr, "[lmerge_subscribe] INVALID merged stream: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[lmerge_subscribe] merged stream VALID (%lld TDB "
                 "events)\n",
                 static_cast<long long>(validator.tdb().EventCount()));
  }

  if (flags.Has("latency")) {
    if (latency_us.empty()) {
      std::fprintf(stderr,
                   "[lmerge_subscribe] latency: no stamped batches\n");
    } else {
      std::sort(latency_us.begin(), latency_us.end());
      const auto pct = [&latency_us](double q) {
        const size_t index = static_cast<size_t>(
            q * static_cast<double>(latency_us.size() - 1));
        return static_cast<long long>(latency_us[index]);
      };
      int64_t sum = 0;
      for (const int64_t v : latency_us) sum += v;
      std::fprintf(stderr,
                   "[lmerge_subscribe] publish->delivery latency over %zu "
                   "elements (us): min %lld p50 %lld p90 %lld p99 %lld "
                   "max %lld mean %lld\n",
                   latency_us.size(), pct(0.0), pct(0.5), pct(0.9),
                   pct(0.99), pct(1.0),
                   static_cast<long long>(
                       sum / static_cast<int64_t>(latency_us.size())));
    }
  }

  status = WriteStreamFile(out_path, captured.elements());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s: %zu elements\n", out_path.c_str(),
              captured.elements().size());
  return 0;
}
