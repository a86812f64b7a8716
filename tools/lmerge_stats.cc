// lmerge_stats — poll a live lmerge_served daemon over the monitor role
// and render its merge stats: per-input element counts, contribution to the
// merged output, stable-point lag behind the leading replica, and
// between-poll throughput.
//
//   lmerge_stats <host> <port> [--interval=SEC] [--count=N] [--json]
//                [--name=X]
//
// One STATS_REQUEST/STATS_RESPONSE round trip per tick (docs/SERVICE.md).
// --count=N stops after N polls (default 0 = until the server goes away);
// --json emits one JSON object per tick on stdout — the per-input table
// plus the server's full metrics-registry snapshot — instead of the text
// table, for scripting (scripts/demo_net.sh asserts on it).
//
// Rates are computed from the *server's* snapshot capture timestamps
// (snapshot.captured_mono_us): the divisor is the time between the two
// snapshots being captured, not between this tool observing them, so a
// stalled monitor link cannot flatter or inflate el/s.  Each tick also
// renders the server's latency.* stage histograms as p50/p99 columns.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "net/tcp.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lmerge_stats <host> <port> [--interval=SEC] "
               "[--count=N] [--json] [--name=X]\n");
  return 2;
}

// Timestamps are kMinTimestamp before any stable element arrived.
std::string StableString(Timestamp t) {
  return t == kMinTimestamp ? std::string("-") : TimestampToString(t);
}

// The wire carries kUnknownAlgorithmCase (0xff) before the first publisher
// instantiates an algorithm; that value is outside the enum's range.
const char* AlgorithmName(uint8_t algorithm_case) {
  if (algorithm_case > static_cast<uint8_t>(AlgorithmCase::kR4)) {
    return "none";
  }
  return AlgorithmCaseName(static_cast<AlgorithmCase>(algorithm_case));
}

// One latency.* histogram as a table line; silent when it has no samples.
void PrintLatencyRow(const net::StatsResponseMessage& stats,
                     const char* name, const char* label) {
  const obs::MetricValue* metric = stats.metrics.Find(name);
  if (metric == nullptr || metric->histogram.count == 0) return;
  const obs::HistogramSnapshot& h = metric->histogram;
  std::printf("  %-18s %8lld samples  p50 %8lld  p99 %8lld  max %8lld us\n",
              label, static_cast<long long>(h.count),
              static_cast<long long>(h.Percentile(50)),
              static_cast<long long>(h.Percentile(99)),
              static_cast<long long>(h.max));
}

void PrintTable(const net::StatsResponseMessage& stats,
                const std::vector<int64_t>& previous_in,
                double elapsed_seconds) {
  std::printf("algorithm %s  publishers %d  subscribers %d  out: %lld ins / "
              "%lld adj, stable %s\n",
              AlgorithmName(stats.algorithm_case),
              stats.publishers, stats.subscribers,
              static_cast<long long>(stats.output_inserts),
              static_cast<long long>(stats.output_adjusts),
              StableString(stats.output_stable).c_str());
  // Lag is measured against the leading replica's stable point: redundant
  // inputs present the same logical stream, so the leader marks how far a
  // healthy replica has reached (Sec. V-D uses the same comparison for
  // feedback).
  Timestamp leader = kMinTimestamp;
  for (const net::StatsInputRow& row : stats.inputs) {
    if (row.stable_point > leader) leader = row.stable_point;
  }
  std::printf("  %-3s %-12s %-5s %10s %10s %10s %10s %10s\n", "in",
              "peer", "state", "elements", "contrib", "dropped", "lag",
              "el/s");
  for (size_t s = 0; s < stats.inputs.size(); ++s) {
    const net::StatsInputRow& row = stats.inputs[s];
    const int64_t elements_in =
        row.inserts_in + row.adjusts_in + row.stables_in;
    std::string rate = "-";
    if (s < previous_in.size() && elapsed_seconds > 0) {
      rate = std::to_string(static_cast<long long>(
          static_cast<double>(elements_in - previous_in[s]) /
          elapsed_seconds));
    }
    std::string lag = "-";
    if (row.stable_point != kMinTimestamp && leader != kMinTimestamp) {
      lag = std::to_string(
          static_cast<long long>(leader - row.stable_point));
    }
    std::printf("  %-3d %-12s %-5s %10lld %10lld %10lld %10s %10s\n",
                row.stream_id,
                row.peer_name.empty() ? "(gone)" : row.peer_name.c_str(),
                row.connected ? (row.active ? "live" : "held")
                              : (row.active ? "lost" : "left"),
                static_cast<long long>(elements_in),
                static_cast<long long>(row.contributed),
                static_cast<long long>(row.dropped), lag.c_str(),
                rate.c_str());
  }
  // Partitioned merge (--merge-threads > 1): summarize how evenly the
  // (Vs, payload) hash spread the work, from the input elements routed to
  // each shard (every stable counts once per shard).  A hot shard means a
  // skewed key distribution — the merge degrades toward single-threaded
  // throughput.
  const int64_t shards = stats.metrics.Value("merge.shards", 0);
  if (shards > 1) {
    int64_t total = 0;
    int64_t busiest = 0;
    int64_t quietest = -1;
    for (int64_t k = 0; k < shards; ++k) {
      const int64_t elements = stats.metrics.Value(
          "merge.shard." + std::to_string(k) + ".elements", 0);
      total += elements;
      busiest = std::max(busiest, elements);
      if (quietest < 0 || elements < quietest) quietest = elements;
    }
    const double even = static_cast<double>(total) /
                        static_cast<double>(shards);
    std::printf("  shards %lld  elements %lld  busiest %lld  quietest %lld"
                "  skew %.2fx\n",
                static_cast<long long>(shards),
                static_cast<long long>(total),
                static_cast<long long>(busiest),
                static_cast<long long>(quietest),
                even > 0 ? static_cast<double>(busiest) / even : 1.0);
  }
  PrintLatencyRow(stats, "latency.rx_to_merge_us", "rx->merge");
  PrintLatencyRow(stats, "latency.merge_us", "merge");
  PrintLatencyRow(stats, "latency.merge_to_fanout_us", "merge->fanout");
  PrintLatencyRow(stats, "latency.fanout_us", "fanout");
  PrintLatencyRow(stats, "latency.publish_to_fanout_us", "publish->fanout");
  const int64_t stable_lag = stats.metrics.Value("merge.stable_lag_ms", -1);
  if (stable_lag >= 0) {
    std::printf("  stable lag %lld ms\n",
                static_cast<long long>(stable_lag));
  }
}

void PrintJson(const net::StatsResponseMessage& stats) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("algorithm");
  writer.String(AlgorithmName(stats.algorithm_case));
  writer.Key("publishers");
  writer.Int(stats.publishers);
  writer.Key("subscribers");
  writer.Int(stats.subscribers);
  writer.Key("output_stable");
  writer.Int(stats.output_stable);
  writer.Key("output_inserts");
  writer.Int(stats.output_inserts);
  writer.Key("output_adjusts");
  writer.Int(stats.output_adjusts);
  writer.Key("inputs");
  writer.BeginArray();
  for (const net::StatsInputRow& row : stats.inputs) {
    writer.BeginObject();
    writer.Key("stream_id");
    writer.Int(row.stream_id);
    writer.Key("peer");
    writer.String(row.peer_name);
    writer.Key("connected");
    writer.Bool(row.connected);
    writer.Key("active");
    writer.Bool(row.active);
    writer.Key("inserts_in");
    writer.Int(row.inserts_in);
    writer.Key("adjusts_in");
    writer.Int(row.adjusts_in);
    writer.Key("stables_in");
    writer.Int(row.stables_in);
    writer.Key("dropped");
    writer.Int(row.dropped);
    writer.Key("contributed");
    writer.Int(row.contributed);
    writer.Key("stable_point");
    writer.Int(row.stable_point);
    writer.EndObject();
  }
  writer.EndArray();
  writer.Key("metrics");
  writer.Raw(stats.metrics.ToJson());
  writer.EndObject();
  std::printf("%s\n", writer.Take().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.positional().size() != 2) return Usage();
  const std::string host = flags.positional()[0];
  const int port = std::stoi(flags.positional()[1]);
  const double interval = flags.GetDouble("interval", 1.0);
  const int64_t count = flags.GetInt("count", 0);
  const bool json = flags.Has("json");

  std::unique_ptr<net::Connection> connection;
  Status status = net::TcpConnect(host, port, &connection);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  net::StatsClient monitor(std::move(connection));
  status = monitor.Handshake(flags.GetString("name", "stats"));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<int64_t> previous_in;
  int64_t previous_mono_us = 0;
  for (int64_t polls = 0; count <= 0 || polls < count; ++polls) {
    if (polls > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
    net::StatsResponseMessage stats;
    status = monitor.PollStats(&stats);
    if (!status.ok()) {
      // Server drained and went away mid-watch: a clean end for a monitor.
      std::fprintf(stderr, "[lmerge_stats] server gone: %s\n",
                   status.ToString().c_str());
      return count > 0 ? 1 : 0;
    }
    // The interval between the server's own snapshot captures: exactly the
    // window the counter deltas accumulated over.
    const double elapsed = static_cast<double>(
                               stats.metrics.captured_mono_us -
                               previous_mono_us) /
                           1e6;
    if (json) {
      PrintJson(stats);
    } else {
      PrintTable(stats, previous_in, polls == 0 ? 0.0 : elapsed);
    }
    previous_mono_us = stats.metrics.captured_mono_us;
    previous_in.clear();
    for (const net::StatsInputRow& row : stats.inputs) {
      previous_in.push_back(row.inserts_in + row.adjusts_in +
                            row.stables_in);
    }
  }
  // Best effort: the polling loop already rendered every snapshot; a
  // failed goodbye cannot change the exit code.
  (void)monitor.Finish("done");
  return 0;
}
