// Networked-service throughput: elements per second through the full wire
// path — protocol encode, loopback transport, frame reassembly, session
// state machine, merge, fan-out — without socket or scheduler noise.
//
// Acceptance floor for the service layer: >= 100k elements/sec through the
// loopback transport (items_per_second on the _batch benchmarks).
//
// Reported counter: published input elements per second of wall time.
// Every benchmark here uses real time: the merge and fan-out run on other
// threads while the driving thread waits in Flush, so its CPU time would
// understate the elapsed time and overstate the throughput.

#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <thread>

#include "bench_util.h"
#include "engine/partitioned.h"
#include "net/loopback.h"
#include "net/server.h"
#include "obs/latency.h"
#include "properties/runtime_stats.h"
#include "stream/sink.h"

namespace lmerge::bench {
namespace {

// Small payloads: this harness measures the wire path, not memcpy of the
// paper's 1000-byte strings (bench_fig3 covers merge-core throughput).
workload::GeneratorConfig NetConfig(int64_t num_inserts) {
  workload::GeneratorConfig config = PaperConfig(num_inserts);
  config.payload_string_bytes = 16;
  return config;
}

const workload::LogicalHistory& History() {
  static const workload::LogicalHistory* history = [] {
    return new workload::LogicalHistory(
        workload::GenerateHistory(NetConfig(20000)));
  }();
  return *history;
}

// Pre-encoded frames per publisher, so the timed loop measures the
// server-side path (reassembly + session + merge + fan-out).
std::vector<std::string> EncodeTapes(
    const std::vector<ElementSequence>& replicas, size_t batch_size,
    std::vector<std::vector<std::string>>* frames_out) {
  std::vector<std::string> hellos;
  frames_out->clear();
  for (size_t s = 0; s < replicas.size(); ++s) {
    // Declare the tape's observed properties, as lmerge_publish does, so
    // the server's factory picks the cheapest safe algorithm.
    StreamStatsCollector collector;
    for (const StreamElement& element : replicas[s]) {
      collector.Observe(element);
    }
    net::HelloMessage hello;
    hello.role = net::PeerRole::kPublisher;
    hello.properties = collector.ObservedProperties();
    hello.peer_name = "bench-" + std::to_string(s);
    hellos.push_back(net::EncodeHelloFrame(hello));
    std::vector<std::string> frames;
    const ElementSequence& tape = replicas[s];
    for (size_t i = 0; i < tape.size(); i += batch_size) {
      const ElementSequence batch(
          tape.begin() + static_cast<ElementSequence::difference_type>(i),
          tape.begin() + static_cast<ElementSequence::difference_type>(
                             std::min(i + batch_size, tape.size())));
      // Batch frames carry a trailing origin stamp (batch_size 1 sends
      // batches of one).  The tapes are pre-encoded outside the timed loop,
      // so the stamp is stale by publish time — fine for throughput; the
      // latency histograms it feeds are not what this bench reports.
      frames.push_back(
          net::EncodeElementsFrame(batch, obs::MonotonicMicros()));
    }
    frames_out->push_back(std::move(frames));
  }
  return hellos;
}

void NetThroughput(benchmark::State& state, size_t batch_size,
                   double disorder, double split_probability,
                   int num_publishers, int merge_threads = 1) {
  const std::vector<ElementSequence> replicas =
      MakeReplicas(History(), num_publishers, disorder, split_probability,
                   /*seed=*/7);
  int64_t total_elements = 0;
  for (const ElementSequence& tape : replicas) {
    total_elements += static_cast<int64_t>(tape.size());
  }
  std::vector<std::vector<std::string>> frames;
  const std::vector<std::string> hellos =
      EncodeTapes(replicas, batch_size, &frames);

  int64_t delivered = 0;
  LatencySampler latency;
  // Registry counters accumulate across iterations (and across benchmarks
  // in the same process), so wire-path totals are published as the delta
  // over the timed loop — the registry replaces the ad-hoc tallies this
  // harness used to keep by hand.
  const obs::MetricsSnapshot before =
      obs::MetricsRegistry::Global().Snapshot();
  for (auto _ : state) {
    net::MergeServerOptions server_options;
    server_options.merge_threads = merge_threads;
    net::MergeServer server(server_options);
    NullSink sink;
    server.AddOutputSink(&sink);
    std::vector<std::unique_ptr<net::Connection>> clients;
    std::vector<std::unique_ptr<net::Connection>> servers;
    std::vector<int> sessions;
    for (int s = 0; s < num_publishers; ++s) {
      auto [client, server_end] = net::CreateLoopbackPair();
      clients.push_back(std::move(client));
      servers.push_back(std::move(server_end));
      sessions.push_back(server.OnConnect(servers.back().get()));
      const Status status =
          server.OnBytes(sessions.back(), hellos[static_cast<size_t>(s)]);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
    }
    // Round-robin one frame per publisher, like interleaved arrivals.
    size_t next = 0;
    bool any = true;
    while (any) {
      any = false;
      for (int s = 0; s < num_publishers; ++s) {
        const auto& tape_frames = frames[static_cast<size_t>(s)];
        if (next >= tape_frames.size()) continue;
        const auto start = LatencySampler::Clock::now();
        const Status status =
            server.OnBytes(sessions[static_cast<size_t>(s)],
                           tape_frames[next]);
        if ((next & 15) == 0) {
          latency.Record(start, LatencySampler::Clock::now());
        }
        LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
        any = true;
      }
      ++next;
    }
    // The timed region must cover the merge itself, not just the enqueues —
    // and a quiesced server tears down without touching the (already
    // destroyed) loopback connections.
    server.Flush();
    delivered += total_elements;
    // Drain response queues (WELCOME/FEEDBACK) outside the books.
    for (auto& client : clients) {
      std::string discard;
      (void)client->TryReceive(&discard);
    }
  }
  state.SetItemsProcessed(delivered);
  latency.Publish(state);
  state.counters["publishers"] = benchmark::Counter(num_publishers);
  state.counters["batch"] = benchmark::Counter(static_cast<double>(batch_size));
  state.counters["merge_threads"] =
      benchmark::Counter(static_cast<double>(merge_threads));
  const obs::MetricsSnapshot after =
      obs::MetricsRegistry::Global().Snapshot();
  const auto delta = [&](const std::string& name) {
    return static_cast<double>(after.Value(name) - before.Value(name));
  };
  state.counters["rx_frames"] = benchmark::Counter(delta("net.rx.frames"));
  state.counters["rx_bytes"] = benchmark::Counter(delta("net.rx.bytes"));
  state.counters["stalls"] =
      benchmark::Counter(delta("engine.backpressure_stalls"));
  state.counters["merge_batches"] = benchmark::Counter(delta("engine.batches"));
}

// In-order insert-only replicas: the factory picks one of the cheap merge
// cases, so this measures the wire path itself (the >= 100k/s floor).
void BM_NetThroughput_InOrderBatch64(benchmark::State& state) {
  NetThroughput(state, 64, /*disorder=*/0.0, /*split_probability=*/0.0,
                static_cast<int>(state.range(0)));
}
BENCHMARK(BM_NetThroughput_InOrderBatch64)
    ->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_NetThroughput_InOrderSingleElementFrames(benchmark::State& state) {
  NetThroughput(state, 1, /*disorder=*/0.0, /*split_probability=*/0.0,
                static_cast<int>(state.range(0)));
}
BENCHMARK(BM_NetThroughput_InOrderSingleElementFrames)
    ->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Divergent replicas (disorder + revisions): dominated by the general
// merge algorithm, the wire overhead rides on top.
void BM_NetThroughput_DisorderedBatch64(benchmark::State& state) {
  NetThroughput(state, 64, /*disorder=*/0.2, /*split_probability=*/0.1,
                static_cast<int>(state.range(0)));
}
BENCHMARK(BM_NetThroughput_DisorderedBatch64)
    ->DenseRange(1, 3, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Partitioned merge sweep (--merge-threads = range(0)): the merge-heavy
// disordered workload over two divergent publishers, the shape where
// sharding the merge core can pay.  merge_threads=1 is the single-threaded
// ConcurrentMerger baseline.  One thread drives every publisher's OnBytes,
// so ingest bounds this sweep; BM_EngineMergeThreads below measures the
// merge with the wire path taken out (docs/PERFORMANCE.md).
void BM_NetThroughput_MergeThreads(benchmark::State& state) {
  NetThroughput(state, 64, /*disorder=*/0.2, /*split_probability=*/0.1,
                /*num_publishers=*/2,
                /*merge_threads=*/static_cast<int>(state.range(0)));
}
BENCHMARK(BM_NetThroughput_MergeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Engine-only merge-threads sweep (shards = range(0)): the merger MakeMerger
// builds for `--merge-threads=N`, fed pre-decoded tapes with no wire path in
// front of it, so the merge — not the single ingest thread of the sweep
// above — is what has to keep up.  Three divergent LMR3+ replicas (~220k
// elements in all), one producer thread per input delivering 64-element
// TryDeliverBatch calls, timed until the merger is idle.  N=1 is the direct
// ConcurrentMerger (no aggregator hop); N>=2 the PartitionedMerger.
const std::vector<ElementSequence>& EngineTapes() {
  static const std::vector<ElementSequence>* tapes = [] {
    return new std::vector<ElementSequence>(
        MakeReplicas(workload::GenerateHistory(NetConfig(60000)),
                     /*count=*/3, /*disorder=*/0.2,
                     /*split_probability=*/0.1, /*seed=*/7));
  }();
  return *tapes;
}

void BM_EngineMergeThreads(benchmark::State& state) {
  static constexpr size_t kBatch = 64;
  const int shards = static_cast<int>(state.range(0));
  const std::vector<ElementSequence>& tapes = EngineTapes();
  const int num_streams = static_cast<int>(tapes.size());
  int64_t total_elements = 0;
  for (const ElementSequence& tape : tapes) {
    total_elements += static_cast<int64_t>(tape.size());
  }
  int64_t delivered = 0;
  for (auto _ : state) {
    // TryDeliverBatch moves elements out, so each iteration delivers a
    // fresh copy; copying, thread start-up and teardown stay untimed.
    state.PauseTiming();
    std::vector<ElementSequence> inputs = tapes;
    NullSink sink;
    PartitionedMergerOptions options;
    options.shards = shards;
    std::unique_ptr<Merger> merger = MakeMerger(
        [num_streams](int /*shard*/, ElementSink* shard_sink) {
          return CreateMergeAlgorithm(MergeVariant::kLMR3Plus, num_streams,
                                      shard_sink);
        },
        &sink, std::move(options));
    state.ResumeTiming();
    std::vector<std::thread> producers;
    producers.reserve(inputs.size());
    for (int s = 0; s < num_streams; ++s) {
      producers.emplace_back([&merger, &inputs, s] {
        ElementSequence& tape = inputs[static_cast<size_t>(s)];
        for (size_t i = 0; i < tape.size(); i += kBatch) {
          const size_t n = std::min(kBatch, tape.size() - i);
          const Status status = merger->TryDeliverBatch(
              s, std::span<StreamElement>(tape.data() + i, n));
          LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
    merger->WaitIdle();
    state.PauseTiming();
    merger.reset();
    state.ResumeTiming();
    delivered += total_elements;
  }
  state.SetItemsProcessed(delivered);
  state.counters["merge_threads"] =
      benchmark::Counter(static_cast<double>(shards));
}
BENCHMARK(BM_EngineMergeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The fan-out path: one publisher, N subscribers each receiving every
// merged element as an encoded frame.
void BM_NetThroughput_FanOut(benchmark::State& state) {
  const int num_subscribers = static_cast<int>(state.range(0));
  const std::vector<ElementSequence> replicas =
      MakeReplicas(History(), 1, 0.0, 0.0, 7);
  std::vector<std::vector<std::string>> frames;
  const std::vector<std::string> hellos = EncodeTapes(replicas, 64, &frames);

  net::HelloMessage sub_hello;
  sub_hello.role = net::PeerRole::kSubscriber;
  const std::string sub_hello_frame = net::EncodeHelloFrame(sub_hello);

  int64_t delivered = 0;
  for (auto _ : state) {
    net::MergeServer server;
    std::vector<std::unique_ptr<net::Connection>> ends;
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
    LM_CHECK(server.OnBytes(publisher, hellos[0]).ok());
    for (const std::string& frame : frames[0]) {
      const Status status = server.OnBytes(publisher, frame);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      // Keep subscriber queues bounded.
      for (size_t e = 0; e < ends.size(); e += 2) {
        std::string discard;
        (void)ends[e]->TryReceive(&discard);
      }
    }
    // Quiesce inside the timed region: fan-out happens on the merge thread.
    server.Flush();
    delivered += static_cast<int64_t>(replicas[0].size());
  }
  state.SetItemsProcessed(delivered);
  state.counters["subscribers"] = benchmark::Counter(num_subscribers);
}
BENCHMARK(BM_NetThroughput_FanOut)
    ->DenseRange(0, 4, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace lmerge::bench

int main(int argc, char** argv) {
  return lmerge::bench::RunBenchmarksWithJson(argc, argv);
}
