// Fan-out scaling: one publisher, N subscribers, measuring what the
// serialize-once fan-out actually costs as N grows.
//
// Every subscriber shares one immutable encoded frame per merged batch
// (net/server.cc FanOutBatchLocked), so the per-batch encode cost —
// net.fanout.encoded_bytes — must be FLAT in the subscriber count: the
// 256-subscriber figure equals the 16-subscriber figure, and exactly one
// frame is encoded per fanned-out batch.  What scales linearly is only the
// transport hand-off, net.tx.fanout.bytes ≈ N * encoded_bytes.  The CI
// bench-fanout-smoke job asserts exactly that from the --json output
// (docs/PERFORMANCE.md "Fan-out scaling").
//
// Loopback direct-drive, like bench_net_throughput: no sockets, no
// scheduler noise — the counters isolate the encode path itself.
//
// Reported counters (per iteration):
//   encoded_bytes    bytes serialized by the fan-out (once per batch)
//   encoded_frames   frame buffers the fan-out built
//   fanout_batches   merged batches fanned out to subscribers
//   tx_fanout_bytes  bytes enqueued across all subscriber connections
//   subscribers      N

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/latency.h"
#include "properties/runtime_stats.h"

namespace lmerge::bench {
namespace {

// Small payloads and a short tape: with 1024 subscribers the drain loop is
// O(frames * N), and the encode-cost story does not need a long stream.
workload::GeneratorConfig FanOutConfig(int64_t num_inserts) {
  workload::GeneratorConfig config = PaperConfig(num_inserts);
  config.payload_string_bytes = 16;
  return config;
}

const ElementSequence& PublisherTape() {
  static const ElementSequence* tape = [] {
    const workload::LogicalHistory history =
        workload::GenerateHistory(FanOutConfig(5000));
    return new ElementSequence(
        MakeReplicas(history, 1, /*disorder=*/0.0, /*split_probability=*/0.0,
                     /*seed=*/7)[0]);
  }();
  return *tape;
}

void BM_FanOutScale(benchmark::State& state) {
  const int num_subscribers = static_cast<int>(state.range(0));
  const ElementSequence& tape = PublisherTape();

  StreamStatsCollector collector;
  for (const StreamElement& element : tape) collector.Observe(element);
  net::HelloMessage pub_hello;
  pub_hello.role = net::PeerRole::kPublisher;
  pub_hello.properties = collector.ObservedProperties();
  pub_hello.peer_name = "bench-publisher";
  const std::string pub_hello_frame = net::EncodeHelloFrame(pub_hello);

  net::HelloMessage sub_hello;
  sub_hello.role = net::PeerRole::kSubscriber;
  const std::string sub_hello_frame = net::EncodeHelloFrame(sub_hello);

  std::vector<std::string> frames;
  constexpr size_t kBatch = 64;
  for (size_t i = 0; i < tape.size(); i += kBatch) {
    const ElementSequence batch(
        tape.begin() + static_cast<ElementSequence::difference_type>(i),
        tape.begin() + static_cast<ElementSequence::difference_type>(
                           std::min(i + kBatch, tape.size())));
    // Batch frames carry a trailing origin stamp.
    frames.push_back(net::EncodeElementsFrame(batch, obs::MonotonicMicros()));
  }

  int64_t delivered = 0;
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    net::MergeServer server;
    std::vector<std::unique_ptr<net::Connection>> ends;
    ends.reserve(static_cast<size_t>(num_subscribers) * 2);
    for (int s = 0; s < num_subscribers; ++s) {
      auto [client, server_end] = net::CreateLoopbackPair();
      const int id = server.OnConnect(server_end.get());
      const Status status = server.OnBytes(id, sub_hello_frame);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      ends.push_back(std::move(client));
      ends.push_back(std::move(server_end));
    }
    auto [client, server_end] = net::CreateLoopbackPair();
    const int publisher = server.OnConnect(server_end.get());
    LM_CHECK(server.OnBytes(publisher, pub_hello_frame).ok());
    for (const std::string& frame : frames) {
      const Status status = server.OnBytes(publisher, frame);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      // Keep subscriber loopback queues bounded.
      for (size_t e = 0; e < ends.size(); e += 2) {
        std::string discard;
        (void)ends[e]->TryReceive(&discard);
      }
    }
    // Fan-out happens on the merge thread; quiesce inside the timed region.
    server.Flush();
    delivered += static_cast<int64_t>(tape.size());
  }
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().Snapshot();
  const double iters = static_cast<double>(state.iterations());
  const auto per_iter = [&](const std::string& name) {
    return static_cast<double>(after.Value(name) - before.Value(name)) /
           iters;
  };
  state.SetItemsProcessed(delivered);
  state.counters["subscribers"] =
      benchmark::Counter(static_cast<double>(num_subscribers));
  state.counters["encoded_bytes"] =
      benchmark::Counter(per_iter("net.fanout.encoded_bytes"));
  state.counters["encoded_frames"] =
      benchmark::Counter(per_iter("net.fanout.encoded_frames"));
  state.counters["fanout_batches"] =
      benchmark::Counter(per_iter("net.fanout.batches"));
  state.counters["tx_fanout_bytes"] =
      benchmark::Counter(per_iter("net.tx.fanout.bytes"));
}

BENCHMARK(BM_FanOutScale)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace
}  // namespace lmerge::bench

int main(int argc, char** argv) {
  return lmerge::bench::RunBenchmarksWithJson(argc, argv);
}
