// lmerge_served — the networked LMerge daemon: accepts redundant publisher
// replicas and subscribers over TCP and serves the merged stream.
//
//   lmerge_served --port=7654 [--bind=127.0.0.1] [--http-port=N]
//                 [--variant=auto|R0|R1|R2|R3+|R3-|R4|counting]
//                 [--policy=lazy|eager|conservative] [--stable-lag=T]
//                 [--merge-threads=N] [--io-threads=N]
//                 [--max-outbound-mb=N] [--idle-timeout-ms=N]
//                 [--no-feedback] [--out=merged.lmst]
//                 [--drain-publishers=N] [--quiet]
//                 [--metrics-interval=SEC] [--metrics-out=FILE]
//                 [--trace-out=FILE] [--no-metrics]
//
// --merge-threads=N (default 1) shards the merge core across N threads by
// (payload, Vs) key hash behind a min-frontier stable-point aggregator
// (engine/partitioned.h); N=1 is one merge thread with no aggregator hop.
//
// --io-threads=N (default 1) sizes the epoll event-loop pool owning every
// connection (net/event_loop.h) — there are no per-session threads, so the
// whole transport costs N threads regardless of subscriber count.
// --max-outbound-mb bounds each subscriber's unsent backlog (overflow
// disconnects the slow consumer); --idle-timeout-ms kills peers that stall
// mid-frame (docs/SERVICE.md "Event-loop transport").
//
// With --drain-publishers=N the daemon exits once at least N publishers
// have connected and all publishers have disconnected again (the scripted
// end-to-end mode; see scripts/demo_net.sh).  --out captures the merged
// output to a stream file on exit, independent of any live subscribers.
//
// Observability (docs/OBSERVABILITY.md): --metrics-interval periodically
// snapshots the metrics registry as one JSON object — to --metrics-out
// (rewritten in place each tick, plus a final post-drain snapshot) or as
// stderr lines.  --trace-out enables the span recorder and dumps a Chrome
// trace_event file on exit (load in Perfetto).  --no-metrics flips the
// process-wide kill switch, the A/B baseline for overhead measurements.
//
// --http-port=N serves GET /metrics (OpenMetrics text), /metrics.json,
// /healthz, and /readyz on its own event loop (obs/http_exporter.h);
// /readyz pings the merge thread AND every IO event loop against a
// deadline, so a wedged pipeline turns the probe 503.  Port 0 picks an
// ephemeral port (logged at startup).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/mutex.h"
#include "core/merge_policy.h"
#include "net/server.h"
#include "net/tcp.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/validate.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: lmerge_served --port=N [--bind=ADDR] [--http-port=N]\n"
      "                     [--variant=auto|R4|...]\n"
      "                     [--policy=lazy|eager|conservative]\n"
      "                     [--stable-lag=T] [--merge-threads=N]\n"
      "                     [--io-threads=N] [--max-outbound-mb=N]\n"
      "                     [--idle-timeout-ms=N] [--no-feedback]\n"
      "                     [--out=FILE] [--drain-publishers=N] [--quiet]\n"
      "                     [--metrics-interval=SEC] [--metrics-out=FILE]\n"
      "                     [--trace-out=FILE] [--no-metrics]\n");
  return 2;
}

// Writes `text` to `path` via rename, so a concurrent reader sees either
// the previous snapshot or the new one, never a torn file.
bool WriteTextFile(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    if (!out) return false;
    out << text << "\n";
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool ParseVariant(const std::string& name, MergeVariant* variant) {
  if (name == "R0") *variant = MergeVariant::kLMR0;
  else if (name == "R1") *variant = MergeVariant::kLMR1;
  else if (name == "R2") *variant = MergeVariant::kLMR2;
  else if (name == "R3+" || name == "R3") *variant = MergeVariant::kLMR3Plus;
  else if (name == "R3-") *variant = MergeVariant::kLMR3Minus;
  else if (name == "R4") *variant = MergeVariant::kLMR4;
  else if (name == "counting") *variant = MergeVariant::kCounting;
  else return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (!flags.Has("port") || !flags.positional().empty()) return Usage();
  const int port = static_cast<int>(flags.GetInt("port", 0));

  net::MergeServerOptions options;
  options.verbose = !flags.Has("quiet");
  options.feedback_enabled = !flags.Has("no-feedback");
  const std::string variant_name = flags.GetString("variant", "auto");
  if (variant_name != "auto") {
    MergeVariant variant;
    if (!ParseVariant(variant_name, &variant)) return Usage();
    options.variant = variant;
  }
  const std::string policy_name = flags.GetString("policy", "lazy");
  if (policy_name == "eager") {
    options.policy = MergePolicy::Eager();
  } else if (policy_name == "conservative") {
    options.policy = MergePolicy::Conservative();
  } else if (policy_name != "lazy") {
    return Usage();
  }
  options.policy.stable_lag = flags.GetInt("stable-lag", 0);
  options.merge_threads =
      static_cast<int>(flags.GetInt("merge-threads", 1));
  if (options.merge_threads < 1) return Usage();

  if (flags.Has("no-metrics")) obs::MetricsRegistry::set_enabled(false);
  const std::string trace_path = flags.GetString("trace-out", "");
  if (!trace_path.empty()) obs::TraceRecorder::Global().set_enabled(true);
  const std::string metrics_path = flags.GetString("metrics-out", "");
  const int64_t metrics_interval = flags.GetInt("metrics-interval", 0);

  net::MergeServer server(options);

  CollectingSink captured;
  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty()) server.AddOutputSink(&captured);

  // Periodic metrics snapshots: one thread, woken early on shutdown.  Each
  // tick is a live (non-quiescing) registry snapshot — exactness comes from
  // the final post-drain snapshot written below.
  Mutex metrics_mutex;
  CondVar metrics_cv;
  bool metrics_stop = false;  // guarded by metrics_mutex
  std::thread metrics_thread;
  if (metrics_interval > 0) {
    metrics_thread = std::thread([&] {
      MutexLock lock(metrics_mutex);
      while (!metrics_stop) {
        // Timed park; a spurious wake just emits one snapshot early.
        (void)metrics_cv.WaitFor(lock,
                                 std::chrono::seconds(metrics_interval));
        if (metrics_stop) break;
        lock.Unlock();
        const std::string json = server.MetricsSnapshot().ToJson();
        if (!metrics_path.empty()) {
          WriteTextFile(metrics_path, json);
        } else {
          std::fprintf(stderr, "[lmerge_served] metrics %s\n", json.c_str());
        }
        lock.Lock();
      }
    });
  }

  std::unique_ptr<net::Listener> listener;
  Status status =
      net::TcpListen(port, &listener, flags.GetString("bind", "127.0.0.1"));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[lmerge_served] listening on port %d\n",
               listener->port());

  net::LoopPingRegistry loop_pings;
  std::unique_ptr<obs::HttpExporter> http;
  if (flags.Has("http-port")) {
    obs::HttpExporterOptions http_options;
    http_options.port = static_cast<int>(flags.GetInt("http-port", 0));
    http_options.bind_address = flags.GetString("bind", "127.0.0.1");
    http_options.snapshot_source = [&server] {
      return server.MetricsSnapshot();
    };
    // Readiness = merge thread responsive AND every IO loop responsive,
    // each probed with half the deadline (two sequential waits).
    http_options.ready_check = [&server,
                                &loop_pings](std::chrono::milliseconds t) {
      const std::chrono::milliseconds half = t / 2;
      return server.Ready(half) && loop_pings.Ping(half);
    };
    status = obs::HttpExporter::Start(http_options, &http);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[lmerge_served] metrics http on port %d\n",
                 http->port());
  }

  net::ServeLoopOptions loop_options;
  loop_options.drain_publishers =
      static_cast<int>(flags.GetInt("drain-publishers", 0));
  loop_options.io_threads = static_cast<int>(flags.GetInt("io-threads", 1));
  if (loop_options.io_threads < 1) return Usage();
  const int64_t max_outbound_mb = flags.GetInt("max-outbound-mb", 64);
  if (max_outbound_mb < 1) return Usage();
  loop_options.max_outbound_bytes =
      static_cast<size_t>(max_outbound_mb) * 1024 * 1024;
  loop_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms", 0));
  loop_options.loop_pings = &loop_pings;
  net::ServeLoop(listener.get(), &server, loop_options);

  if (http != nullptr) http->Stop();

  if (metrics_thread.joinable()) {
    {
      MutexLock lock(metrics_mutex);
      metrics_stop = true;
    }
    metrics_cv.NotifyAll();
    metrics_thread.join();
  }

  const MergeOutputStats stats = server.merge_stats();
  std::fprintf(stderr,
               "[lmerge_served] drained: %d publishers served, algorithm "
               "%s\n",
               server.publishers_seen(), server.algorithm_name());
  std::fprintf(stderr,
               "[lmerge_served] in: %lld ins / %lld adj / %lld stb; out: "
               "%lld ins / %lld adj / %lld stb; dropped %lld\n",
               static_cast<long long>(stats.inserts_in),
               static_cast<long long>(stats.adjusts_in),
               static_cast<long long>(stats.stables_in),
               static_cast<long long>(stats.inserts_out),
               static_cast<long long>(stats.adjusts_out),
               static_cast<long long>(stats.stables_out),
               static_cast<long long>(stats.dropped));

  if (!out_path.empty()) {
    // Sanity-check our own output before writing: the merged stream must be
    // a valid physical stream (zero lost or duplicated events is checked
    // end-to-end with lmerge_inspect --equiv).
    StreamValidator validator;
    status = validator.ConsumeAll(captured.elements());
    if (!status.ok()) {
      std::fprintf(stderr, "[lmerge_served] OUTPUT INVALID: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    status = WriteStreamFile(out_path, captured.elements());
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[lmerge_served] wrote %s (%zu elements)\n",
                 out_path.c_str(), captured.elements().size());
  }

  // Final snapshot after the drain + flush above (merge_stats() quiesces),
  // so per-input counters here are exact — what demo_net.sh asserts on.
  if (!metrics_path.empty()) {
    if (WriteTextFile(metrics_path, server.MetricsSnapshot().ToJson())) {
      std::fprintf(stderr, "[lmerge_served] wrote metrics %s\n",
                   metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  if (!trace_path.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (WriteTextFile(trace_path, recorder.DumpChromeTraceJson())) {
      std::fprintf(stderr,
                   "[lmerge_served] wrote trace %s (%lld spans recorded)\n",
                   trace_path.c_str(),
                   static_cast<long long>(recorder.recorded()));
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
