// lmerge_standby — hot standby daemon for an lmerge_served instance
// (docs/REPLICATION.md).
//
//   lmerge_standby --primary-port=7654 --port=7655
//                  [--primary-host=127.0.0.1] [--bind=127.0.0.1]
//                  [--out=merged.lmst] [--drain-publishers=N] [--quiet]
//                  [--metrics-interval=SEC] [--metrics-out=FILE]
//                  [--connect-timeout-ms=N] [--retry=N]
//
// Connects to the primary as a standby, jumpstarts from its checkpoint
// (CHECKPOINT_REQUEST -> CUT_CERT -> chunks, under live traffic), then
// shadows the primary by feeding its merged output into a local
// MergeServer listening on --port.  When the primary goes away the standby
// promotes itself: the feed stream leaves via the ordinary Sec. V-C
// protocol and surviving publishers reconnect here.
//
// With --drain-publishers=N the daemon exits once N *external* publishers
// have been served and all publishers (including the internal feed) have
// disconnected — the scripted-demo mode (scripts/demo_failover.sh).
//
// --out writes the standby's view of the whole logical stream on exit: the
// deduped pre-cut prefix of the primary's output followed by the local
// server's own output.  lmerge_inspect --equiv against the primary's
// capture is the end-to-end zero-loss/zero-duplication check.
//
// --checkpoint-out archives the received blob verbatim for
// lmerge_inspect --checkpoint.  It names the payloads this standby already
// held by their ids in the primary's broadcast dictionary, so restoring
// it needs that dictionary, which only the live subscription holds.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "common/mutex.h"
#include "net/server.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "replica/standby.h"
#include "stream/validate.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: lmerge_standby --primary-port=N --port=N\n"
      "                      [--primary-host=ADDR] [--bind=ADDR]\n"
      "                      [--out=FILE] [--drain-publishers=N] [--quiet]\n"
      "                      [--metrics-interval=SEC] [--metrics-out=FILE]\n"
      "                      [--jumpstart-delay-ms=N] [--checkpoint-out=FILE]\n"
      "                      [--connect-timeout-ms=N] [--retry=N]\n");
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

// Byte-exact write (no trailing newline) for binary artifacts.
bool WriteBinaryFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (!flags.Has("primary-port") || !flags.Has("port") ||
      !flags.positional().empty()) {
    return Usage();
  }
  const bool quiet = flags.Has("quiet");

  replica::StandbyOptions options;
  options.name = "standby";
  options.verbose = !quiet;
  options.server.verbose = !quiet;
  replica::StandbyReplica standby(options);

  CollectingSink captured;
  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty()) standby.server().AddOutputSink(&captured);

  // Local listener first, so subscribers can attach while we shadow.
  std::unique_ptr<net::Listener> listener;
  Status status = net::TcpListen(static_cast<int>(flags.GetInt("port", 0)),
                                 &listener,
                                 flags.GetString("bind", "127.0.0.1"));
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[lmerge_standby] listening on port %d\n",
               listener->port());

  std::unique_ptr<net::Connection> primary;
  net::TcpConnectOptions connect_options;
  connect_options.connect_timeout_ms =
      static_cast<int>(flags.GetInt("connect-timeout-ms", 0));
  connect_options.retries = static_cast<int>(flags.GetInt("retry", 0));
  status = net::TcpConnect(
      flags.GetString("primary-host", "127.0.0.1"),
      static_cast<int>(flags.GetInt("primary-port", 0)), connect_options,
      &primary);
  if (status.ok()) status = standby.Connect(std::move(primary));
  // An optional shadowing window before the jumpstart: output the primary
  // produces meanwhile queues on the subscription and is accounted by the
  // cut certificate's dedup horizon (demos use this to force a mid-stream
  // snapshot).
  const int64_t delay_ms = flags.GetInt("jumpstart-delay-ms", 0);
  if (status.ok() && delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  if (status.ok()) status = standby.Jumpstart();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string checkpoint_path = flags.GetString("checkpoint-out", "");
  if (!checkpoint_path.empty()) {
    if (!WriteBinaryFile(checkpoint_path, standby.checkpoint_blob())) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   checkpoint_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[lmerge_standby] wrote checkpoint %s (%zu bytes)\n",
                 checkpoint_path.c_str(), standby.checkpoint_blob().size());
  }
  std::fprintf(
      stderr,
      "[lmerge_standby] jumpstarted: %s, deduped %lld, replayed %lld\n",
      standby.has_state() ? "snapshot adopted" : "no snapshot",
      static_cast<long long>(standby.deduped_elements()),
      static_cast<long long>(standby.replayed_elements()));

  // Shadow the primary until it dies, then take over.
  std::thread pump([&standby, quiet] {
    Status pump_status = standby.PumpLive();
    if (!pump_status.ok()) {
      std::fprintf(stderr, "[lmerge_standby] pump error: %s\n",
                   pump_status.ToString().c_str());
      return;
    }
    if (!quiet) {
      std::fprintf(stderr,
                   "[lmerge_standby] primary gone (%s), promoting\n",
                   standby.end_reason().c_str());
    }
    pump_status = standby.Promote("primary gone: " + standby.end_reason());
    if (!pump_status.ok()) {
      std::fprintf(stderr, "[lmerge_standby] promote error: %s\n",
                   pump_status.ToString().c_str());
    }
  });

  const std::string metrics_path = flags.GetString("metrics-out", "");
  const int64_t metrics_interval = flags.GetInt("metrics-interval", 0);
  Mutex metrics_mutex;
  CondVar metrics_cv;
  bool metrics_stop = false;  // guarded by metrics_mutex
  std::thread metrics_thread;
  if (metrics_interval > 0) {
    metrics_thread = std::thread([&] {
      MutexLock lock(metrics_mutex);
      while (!metrics_stop) {
        (void)metrics_cv.WaitFor(lock,
                                 std::chrono::seconds(metrics_interval));
        if (metrics_stop) break;
        lock.Unlock();
        const std::string json =
            standby.server().MetricsSnapshot().ToJson();
        if (!metrics_path.empty()) {
          WriteTextFile(metrics_path, json);
        } else {
          std::fprintf(stderr, "[lmerge_standby] metrics %s\n", json.c_str());
        }
        lock.Lock();
      }
    });
  }

  net::ServeLoopOptions loop_options;
  const int drain = static_cast<int>(flags.GetInt("drain-publishers", 0));
  // +1: the internal feed session is a publisher too.
  if (drain > 0) loop_options.drain_publishers = drain + 1;
  net::ServeLoop(listener.get(), &standby.server(), loop_options);
  pump.join();

  if (metrics_thread.joinable()) {
    {
      MutexLock lock(metrics_mutex);
      metrics_stop = true;
    }
    metrics_cv.NotifyAll();
    metrics_thread.join();
  }

  std::fprintf(stderr,
               "[lmerge_standby] drained: %d publishers served, algorithm "
               "%s, feed %lld elements (%lld deduped, %lld replayed)\n",
               standby.server().publishers_seen(),
               standby.server().algorithm_name(),
               static_cast<long long>(standby.feed_elements()),
               static_cast<long long>(standby.deduped_elements()),
               static_cast<long long>(standby.replayed_elements()));

  if (!out_path.empty()) {
    // Prefix (pre-cut primary output, covered by the adopted snapshot) +
    // our own output = the full physical stream; validate before writing.
    ElementSequence full = standby.pre_cut();
    full.insert(full.end(), captured.elements().begin(),
                captured.elements().end());
    StreamValidator validator;
    status = validator.ConsumeAll(full);
    if (!status.ok()) {
      std::fprintf(stderr, "[lmerge_standby] OUTPUT INVALID: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    status = WriteStreamFile(out_path, full);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[lmerge_standby] wrote %s (%zu elements)\n",
                 out_path.c_str(), full.size());
  }

  if (!metrics_path.empty()) {
    if (WriteTextFile(metrics_path,
                      standby.server().MetricsSnapshot().ToJson())) {
      std::fprintf(stderr, "[lmerge_standby] wrote metrics %s\n",
                   metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
  }
  return 0;
}
