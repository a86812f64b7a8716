// End-to-end benchmark harness for the LMerge merge service.
//
// One process, no sockets.  The harness thread is the transport: it hands
// publisher bytes to net::MergeServer::OnBytes through in-process loopback
// pairs and drains the subscriber's end; the merge runs on the server's
// own merge thread.  The server keeps its daemon defaults (factory-chosen
// variant, default policy, one merge thread, metrics on).
//
// A run repeats whole rounds until --seconds have passed (at least three).
// A round is: set-up (input generation and encoding, server start,
// handshakes, an untimed warm-up), an open-loop phase, a closed-loop phase,
// the output check, and failover cycles on fresh primaries.  Per-round
// figures are reported as medians over rounds, latency samples pooled.
//
//   e2ebench --workload divergent3 --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the bounded end-to-end metrics; --trace 1 alternates
// untraced and traced rounds, replays the last traced round through single
// layers, writes the spans to .bench_out/ as Chrome-trace JSON, and prints
// the per-layer metrics and the unbounded end-to-end ones.  Every
// end-to-end metric goes to stderr; the last stdout line is the JSON
// result.

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checker.h"
#include "common/check.h"
#include "core/factory.h"
#include "net/frame.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "replay.h"
#include "replica/standby.h"
#include "spans.h"
#include "stats.h"
#include "stream/element_serde.h"
#include "stream/sink.h"
#include "workload.h"

namespace e2ebench {
namespace {

using lmerge::ElementSequence;
using lmerge::Status;
using lmerge::StreamElement;
using lmerge::Timestamp;
namespace net = lmerge::net;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

// Where a traced run writes its spans, relative to the working directory.
constexpr char kTraceDir[] = ".bench_out";

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int ThreadCount() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
// Sessions

// The subscriber's side of the output: decodes what the server fans out.
class OutputTap {
 public:
  // Decodes every complete frame in `data`; `on_element(element, now_ns)`
  // sees each merged element as its frame is decoded.
  template <typename Fn>
  Status Feed(const std::string& data, Fn&& on_element) {
    bytes_ += static_cast<int64_t>(data.size());
    Status status = assembler_.Feed(data);
    if (!status.ok()) return status;
    net::Frame frame;
    while (assembler_.Next(&frame)) {
      ElementSequence elements;
      int64_t origin_us = 0;
      switch (frame.type) {
        case net::FrameType::kWelcome:
        case net::FrameType::kFeedback:
          continue;
        case net::FrameType::kPayloadDef: {
          net::PayloadDefMessage def;
          status = net::DecodePayloadDefPayload(frame.payload, &def);
          if (status.ok()) status = dict_.Define(def.id, std::move(def.payload));
          if (!status.ok()) return status;
          continue;
        }
        case net::FrameType::kElementsDict:
          status = net::DecodeElementsDictPayload(frame.payload, dict_,
                                                  &elements, &origin_us);
          break;
        case net::FrameType::kElements:
          status = net::DecodeElementsPayload(frame.payload, &elements,
                                              &origin_us);
          break;
        default:
          return Status::Internal(std::string("subscriber got frame ") +
                                  net::FrameTypeName(frame.type));
      }
      if (!status.ok()) return status;
      if (origin_us == 0) ++unstamped_;
      const int64_t now = NowNs();
      for (StreamElement& e : elements) {
        on_element(e, now);
        output_.push_back(std::move(e));
      }
      batch_ends_.push_back(output_.size());
    }
    return Status::Ok();
  }

  const ElementSequence& output() const { return output_; }
  const std::vector<size_t>& batch_ends() const { return batch_ends_; }
  int64_t bytes() const { return bytes_; }
  int64_t unstamped() const { return unstamped_; }

 private:
  net::FrameAssembler assembler_;
  lmerge::PayloadDictDecoder dict_;
  ElementSequence output_;
  std::vector<size_t> batch_ends_;
  int64_t bytes_ = 0;
  int64_t unstamped_ = 0;
};

// A loopback session whose server end is registered with a MergeServer.
struct Session {
  std::unique_ptr<net::Connection> client;
  std::unique_ptr<net::Connection> server_end;
  int id = -1;
};

Session Open(net::MergeServer* server, const std::string& name,
             net::PeerRole role, const lmerge::StreamProperties& properties) {
  Session s;
  auto [client, server_end] =
      net::CreateLoopbackPair("client:" + name, "server:" + name);
  s.client = std::move(client);
  s.server_end = std::move(server_end);
  s.id = server->OnConnect(s.server_end.get());
  net::HelloMessage hello;
  hello.role = role;
  hello.properties = properties;
  hello.peer_name = name;
  LM_CHECK(server->OnBytes(s.id, net::EncodeHelloFrame(hello)).ok());
  return s;
}

// Counts FEEDBACK frames the server pushes to a publisher.
struct FeedbackCounter {
  net::FrameAssembler assembler;
  std::string scratch;
  int64_t frames = 0;

  void Drain(net::Connection* client) {
    scratch.clear();
    LM_CHECK(client->TryReceive(&scratch).ok());
    if (scratch.empty()) return;
    LM_CHECK(assembler.Feed(scratch).ok());
    net::Frame frame;
    while (assembler.Next(&frame)) {
      if (frame.type == net::FrameType::kFeedback) ++frames;
    }
  }
};

// Hands publisher bytes to one server, stamping each frame group with the
// time its last bytes go out and counting the publish operations.
class Sender {
 public:
  Sender(net::MergeServer* server, Inputs* in, SpanLog* spans)
      : server_(server), in_(in), spans_(spans),
        next_stamp_(kPublishers, 0), sessions_(kPublishers) {}

  void Connect(const std::string& prefix) {
    for (int p = 0; p < kPublishers; ++p) {
      sessions_[static_cast<size_t>(p)] =
          Open(server_, prefix + std::to_string(p), net::PeerRole::kPublisher,
               in_->properties);
    }
    DrainFeedback();
  }

  // Sends bytes [begin, end) of publisher `pub`; returns the OnBytes time.
  int64_t Send(int pub, size_t begin, size_t end) {
    PublisherStream& stream = in_->pubs[static_cast<size_t>(pub)];
    size_t& next = next_stamp_[static_cast<size_t>(pub)];
    const int64_t now_us = NowNs() / 1000;
    int64_t groups = 0;
    while (next < stream.groups.size() && stream.groups[next].end - 8 < end) {
      StampGroup(&stream, stream.groups[next], now_us);
      ++next;
      ++groups;
    }
    const int64_t t0 = NowNs();
    const Status status = server_->OnBytes(
        sessions_[static_cast<size_t>(pub)].id, stream.bytes.data() + begin,
        end - begin);
    const int64_t t1 = NowNs();
    spans_->Add("net.server.OnBytes", t0, t1);
    attempted_ += groups;
    if (!status.ok()) {
      failed_ += groups;
      if (first_error_.empty()) first_error_ = status.ToString();
    }
    return t1 - t0;
  }

  void SendStep(const Step& step) {
    const FrameGroup& g =
        in_->pubs[static_cast<size_t>(step.pub)].groups[step.group];
    Send(step.pub, g.begin, g.end);
  }

  void DrainFeedback() {
    for (int p = 0; p < kPublishers; ++p) {
      feedback_[static_cast<size_t>(p)].Drain(
          sessions_[static_cast<size_t>(p)].client.get());
    }
  }

  void Disconnect() {
    for (const Session& s : sessions_) server_->OnDisconnect(s.id);
  }

  int64_t feedback_frames() const {
    int64_t n = 0;
    for (const FeedbackCounter& f : feedback_) n += f.frames;
    return n;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  net::MergeServer* server_;
  Inputs* in_;
  SpanLog* spans_;
  std::vector<size_t> next_stamp_;
  std::vector<Session> sessions_;
  FeedbackCounter feedback_[kPublishers];
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string first_error_;
};

// One OnBytes call's worth of publisher bytes.
struct Unit {
  int pub = 0;
  size_t begin = 0;
  size_t end = 0;
};

// Steps [from, to) as OnBytes units: one frame group each, or (chunk > 0)
// each publisher's bytes cut into chunk-sized reads, in send order.
std::vector<Unit> MakeUnits(const Inputs& in, size_t from, size_t to,
                            size_t chunk) {
  std::vector<Unit> units;
  std::vector<size_t> begin(kPublishers, SIZE_MAX);
  std::vector<size_t> end(kPublishers, 0);
  for (size_t s = from; s < to; ++s) {
    const Step& step = in.order[s];
    const FrameGroup& g =
        in.pubs[static_cast<size_t>(step.pub)].groups[step.group];
    if (chunk == 0) {
      units.push_back({step.pub, g.begin, g.end});
      continue;
    }
    const size_t p = static_cast<size_t>(step.pub);
    if (begin[p] == SIZE_MAX) begin[p] = g.begin;
    end[p] = g.end;
    while (end[p] - begin[p] >= chunk) {
      units.push_back({step.pub, begin[p], begin[p] + chunk});
      begin[p] += chunk;
    }
  }
  for (int p = 0; p < kPublishers; ++p) {
    const size_t i = static_cast<size_t>(p);
    if (begin[i] != SIZE_MAX && end[i] > begin[i]) {
      units.push_back({p, begin[i], end[i]});
    }
  }
  return units;
}

int64_t StepElems(const Inputs& in, size_t from, size_t to) {
  int64_t n = 0;
  for (size_t s = from; s < to; ++s) {
    const Step& step = in.order[s];
    n += static_cast<int64_t>(
        in.pubs[static_cast<size_t>(step.pub)].groups[step.group].elems);
  }
  return n;
}

// ---------------------------------------------------------------------------
// Round

struct RoundResult {
  bool traced = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string failure;

  // End to end.
  double setup_s = 0;
  double ingest_elems_per_s = 0;
  double cpu_us_per_elem = 0;
  std::vector<double> delivery_us;
  std::vector<double> stable_lag_us;
  std::vector<double> stats_rtt_us;
  double state_bytes_peak = 0;
  double fanout_bytes_per_event = 0;
  std::vector<double> checkpoint_bytes;
  std::vector<double> jumpstart_ms;
  int64_t pending_after_open = 0;
  bool selftest_ran = false;
  std::string selftest;  // empty: the checker caught every seeded fault

  // Per layer, measured in situ or from the registry.
  double rx_bytes_per_elem = 0;
  double on_bytes_ns_per_elem = 0;
  std::vector<double> on_bytes_open_us;
  double feedback_frames = 0;
  double batch_elems_mean = 0;
  double backpressure_stalls = 0;
  double flush_ms = 0;
  double index_probes_per_elem = 0;
  double dropped_per_elem = 0;
  double out_per_in = 0;
  double hits_per_intern = 0;
  double entries_peak = 0;
  double encoded_bytes_per_event = 0;
  double frames_per_event = 0;
  double unstamped_frames = 0;
  std::vector<double> deduped;
  std::vector<double> replayed;
  double stats_response_bytes = 0;
  std::vector<double> late_us;
  double threads_peak = 0;
};

// What the traced run's replays need from its last traced round: bytes
// only, so no Row outlives its round (see Inputs).
struct ReplaySource {
  std::unique_ptr<Inputs> main;
  std::unique_ptr<Inputs> failover;
  size_t failover_cut = 0;
  std::string subscriber_bytes;
};

void Count(RoundResult* r, const CheckResult& check, const char* what) {
  r->attempted += check.attempted;
  r->failed += check.failed;
  if (check.failed > 0 && r->failure.empty()) {
    r->failure = std::string(what) + ": " + check.detail;
  }
}

void CountSends(RoundResult* r, const Sender& sender, const char* what) {
  r->attempted += sender.attempted();
  r->failed += sender.failed();
  if (sender.failed() > 0 && r->failure.empty()) {
    r->failure = std::string(what) + ": " + sender.first_error();
  }
}

// One failover cycle, after tests/replica/failover_test.cc: a fresh primary
// serves the three publishers and a standby; the standby jumpstarts after
// `cut` steps, the primary dies after 80% of the steps, and fresh
// publisher sessions replay every stream to the promoted standby.  Returns
// the standby's view of the whole stream: pre_cut() and its own output.
ElementSequence RunFailoverCycle(Inputs* fin, size_t cut, SpanLog* spans,
                                 RoundResult* r) {
  auto primary = std::make_unique<net::MergeServer>();
  lmerge::replica::StandbyReplica standby;
  lmerge::CollectingSink standby_out;
  standby.server().AddOutputSink(&standby_out);

  auto [standby_client, standby_end] =
      net::CreateLoopbackPair("standby", "primary:standby");
  const int standby_session = primary->OnConnect(standby_end.get());

  // The standby's own thread blocks in Connect/Jumpstart/PumpLive; the
  // harness thread forwards its bytes into the primary, as a serve loop
  // would.  Stages: 1 connected, 2 jumpstart may begin, 3 jumpstart done.
  std::atomic<int> stage{0};
  Status connect_status;
  Status jumpstart_status;
  Status pump_status;
  int64_t connect_ns[2] = {0, 0};
  int64_t jumpstart_ns[2] = {0, 0};
  std::thread standby_thread([&, client = std::move(standby_client)]() mutable {
    connect_ns[0] = NowNs();
    connect_status = standby.Connect(std::move(client));
    connect_ns[1] = NowNs();
    stage.store(connect_status.ok() ? 1 : 3);
    stage.notify_all();
    if (!connect_status.ok()) return;
    stage.wait(1);
    jumpstart_ns[0] = NowNs();
    jumpstart_status = standby.Jumpstart();
    jumpstart_ns[1] = NowNs();
    stage.store(3);
    stage.notify_all();
    if (jumpstart_status.ok()) pump_status = standby.PumpLive();
  });

  Status forward_status;
  std::string forward_bytes;
  auto forward = [&] {
    forward_bytes.clear();
    LM_CHECK(standby_end->TryReceive(&forward_bytes).ok());
    if (forward_bytes.empty()) return;
    const Status s = primary->OnBytes(standby_session, forward_bytes);
    if (!s.ok() && forward_status.ok()) forward_status = s;
  };
  auto forward_until = [&](int target) {
    while (stage.load() < target) {
      pollfd pfd{standby_end->readable_fd(), POLLIN, 0};
      (void)::poll(&pfd, 1, 1);
      forward();
    }
  };

  forward_until(1);
  Sender sender(primary.get(), fin, spans);
  sender.Connect("pub-");
  const size_t death = fin->order.size() * 8 / 10;
  for (size_t s = 0; s < cut; ++s) {
    sender.SendStep(fin->order[s]);
    if (s % 64 == 0) sender.DrainFeedback();
  }
  primary->Flush();
  stage.store(2);
  stage.notify_all();
  forward_until(3);
  r->threads_peak =
      std::max(r->threads_peak, static_cast<double>(ThreadCount()));
  const bool jumped = connect_status.ok() && jumpstart_status.ok();
  if (jumped) {
    for (size_t s = cut; s < death; ++s) {
      sender.SendStep(fin->order[s]);
      if (s % 64 == 0) {
        sender.DrainFeedback();
        forward();
      }
    }
    primary->Flush();
  }
  forward();
  // The primary dies: the standby's PumpLive sees EOF.
  primary->OnDisconnect(standby_session);
  standby_end->Close();
  standby_thread.join();
  sender.DrainFeedback();
  sender.Disconnect();
  CountSends(r, sender, "publish to primary");
  primary.reset();

  spans->Add("replica.Connect", connect_ns[0], connect_ns[1], 2);
  spans->Add("replica.Jumpstart", jumpstart_ns[0], jumpstart_ns[1], 2);
  ++r->attempted;  // the jumpstart
  if (!jumped || !forward_status.ok() || !pump_status.ok()) {
    ++r->failed;
    if (r->failure.empty()) {
      r->failure = "jumpstart: " + connect_status.ToString() + " / " +
                   jumpstart_status.ToString() + " / " +
                   forward_status.ToString() + " / " + pump_status.ToString();
    }
    return ElementSequence();
  }
  r->jumpstart_ms.push_back(
      static_cast<double>((connect_ns[1] - connect_ns[0]) +
                          (jumpstart_ns[1] - jumpstart_ns[0])) /
      1e6);
  r->checkpoint_bytes.push_back(
      static_cast<double>(standby.checkpoint_blob().size()));
  r->deduped.push_back(static_cast<double>(standby.deduped_elements()));
  r->replayed.push_back(static_cast<double>(standby.replayed_elements()));

  LM_CHECK(standby.Promote("primary gone").ok());
  {
    Sender rejoin(&standby.server(), fin, spans);
    rejoin.Connect("rejoin-");
    for (size_t s = 0; s < fin->order.size(); ++s) {
      rejoin.SendStep(fin->order[s]);
      if (s % 64 == 0) rejoin.DrainFeedback();
    }
    standby.server().Flush();
    rejoin.DrainFeedback();
    rejoin.Disconnect();
    CountSends(r, rejoin, "publish to promoted standby");
  }
  ElementSequence full = standby.pre_cut();
  full.insert(full.end(), standby_out.elements().begin(),
              standby_out.elements().end());
  return full;
}

lmerge::obs::HistogramSnapshot Histogram(
    const lmerge::obs::MetricsSnapshot& snap, const std::string& name) {
  const lmerge::obs::MetricValue* v = snap.Find(name);
  return v == nullptr ? lmerge::obs::HistogramSnapshot() : v->histogram;
}

// `selftest`: also run the checker's self-test on a failover output.
RoundResult RunRound(const WorkloadSpec& spec, uint64_t seed, bool traced,
                     bool selftest, SpanLog* spans, ReplaySource* keep) {
  RoundResult r;
  r.traced = traced;
  spans->set_enabled(traced);
  const int64_t t_start = NowNs();

  // ---- Set-up: inputs, server, handshakes, warm-up.
  auto in = std::make_unique<Inputs>(MakeInputs(spec, seed, spec.events));
  const uint64_t failover_seed = seed + 0x9e3779b97f4a7c15ULL;
  auto fin = std::make_unique<Inputs>(
      MakeInputs(spec, failover_seed, spec.failover_events));
  spans->Add("setup.inputs", t_start, NowNs());

  const size_t n_steps = in->order.size();
  const size_t warm_end =
      static_cast<size_t>(static_cast<double>(n_steps) * spec.warmup_share);
  const size_t open_end =
      warm_end +
      static_cast<size_t>(static_cast<double>(n_steps) * spec.open_share);
  // The closed loop's first part is timed for throughput; its last part,
  // sent just as fast, carries the stats scrapes, whose cost would
  // otherwise dominate the throughput figure.
  const size_t scrape_begin = open_end + (n_steps - open_end) * 4 / 5;

  auto server = std::make_unique<net::MergeServer>();
  Session sub = Open(server.get(), "subscriber", net::PeerRole::kSubscriber,
                     lmerge::StreamProperties());
  OutputTap tap;
  std::string sub_bytes;
  std::string sub_all;  // every subscriber byte, for the traced replays
  auto no_observer = [](const StreamElement&, int64_t) {};
  auto feed_tap = [&](const std::string& bytes, auto&& observer) {
    if (bytes.empty()) return;
    if (traced) sub_all += bytes;
    const int64_t t0 = NowNs();
    const Status s = tap.Feed(bytes, observer);
    spans->Add("subscriber.decode", t0, NowNs());
    LM_CHECK(s.ok());
  };
  auto drain_sub = [&](auto&& observer) {
    sub_bytes.clear();
    LM_CHECK(sub.client->TryReceive(&sub_bytes).ok());
    feed_tap(sub_bytes, observer);
  };
  Sender sender(server.get(), in.get(), spans);
  sender.Connect("pub-");
  drain_sub(no_observer);

  for (size_t s = 0; s < warm_end; ++s) {
    sender.SendStep(in->order[s]);
    if (s % 64 == 0) {
      sender.DrainFeedback();
      drain_sub(no_observer);
    }
  }
  server->Flush();
  drain_sub(no_observer);
  const int64_t t_first = NowNs();
  spans->Add("setup", t_start, t_first);
  r.setup_s = static_cast<double>(t_first - t_start) / 1e9;
  const lmerge::obs::MetricsSnapshot base = server->MetricsSnapshot();

  // ---- Open loop: frames due on a fixed schedule; latency from due time.
  {
    const int64_t t0 = NowNs();
    const double period_ns = 1e9 / spec.offered_frames_per_s;
    std::unordered_map<Timestamp, int64_t> pending_events;
    pending_events.reserve(static_cast<size_t>(spec.events));
    std::vector<std::pair<Timestamp, int64_t>> pending_stables;
    size_t stable_head = 0;
    auto observe = [&](const StreamElement& e, int64_t now) {
      if (e.is_insert()) {
        const auto it = pending_events.find(e.vs());
        if (it == pending_events.end()) return;
        r.delivery_us.push_back(static_cast<double>(now - it->second) / 1e3);
        pending_events.erase(it);
      } else if (e.is_stable()) {
        while (stable_head < pending_stables.size() &&
               pending_stables[stable_head].first <= e.stable_time()) {
          r.stable_lag_us.push_back(
              static_cast<double>(now - pending_stables[stable_head].second) /
              1e3);
          ++stable_head;
        }
      }
    };
    for (size_t s = warm_end; s < open_end; ++s) {
      const int64_t due =
          t0 + static_cast<int64_t>(static_cast<double>(s - warm_end) *
                                    period_ns);
      // Until the frame is due, keep draining the subscriber's end, as a
      // busy-polling transport would: a thread woken from sleep at each due
      // time pays a scheduler wake-up per frame, which on a virtual machine
      // varies far more than the latency being measured.
      while (NowNs() < due) drain_sub(observe);
      for (const Timestamp vs : in->first_events[s]) pending_events[vs] = due;
      if (in->raised_stable[s] != lmerge::kMinTimestamp) {
        pending_stables.emplace_back(in->raised_stable[s], due);
      }
      r.late_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
      const Step& step = in->order[s];
      const FrameGroup& g =
          in->pubs[static_cast<size_t>(step.pub)].groups[step.group];
      const int64_t ns = sender.Send(step.pub, g.begin, g.end);
      r.on_bytes_open_us.push_back(static_cast<double>(ns) / 1e3);
      if (s % 32 == 0) sender.DrainFeedback();
    }
    server->Flush();
    drain_sub(observe);
    r.pending_after_open = static_cast<int64_t>(
        pending_events.size() + (pending_stables.size() - stable_head));
    spans->Add("phase.open_loop", t0, NowNs());
  }

  // ---- Closed loop: as fast as OnBytes accepts.
  std::string raw;
  {
    const std::vector<Unit> units =
        MakeUnits(*in, open_end, scrape_begin, spec.closed_chunk_bytes);
    const int64_t elems = StepElems(*in, open_end, scrape_begin);
    const lmerge::obs::MetricsSnapshot before = server->MetricsSnapshot();
    int64_t on_bytes_ns = 0;
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < units.size(); ++i) {
      if (i % 64 == 0) {
        sender.DrainFeedback();
        LM_CHECK(sub.client->TryReceive(&raw).ok());
      }
      on_bytes_ns += sender.Send(units[i].pub, units[i].begin, units[i].end);
    }
    const int64_t t_flush = NowNs();
    server->Flush();
    const int64_t t1 = NowNs();
    const int64_t cpu1 = ProcessCpuNs();
    spans->Add("engine.Flush", t_flush, t1);
    spans->Add("phase.closed_loop", t0, t1);
    r.ingest_elems_per_s =
        static_cast<double>(elems) / (static_cast<double>(t1 - t0) / 1e9);
    r.cpu_us_per_elem =
        static_cast<double>(cpu1 - cpu0) / 1e3 / static_cast<double>(elems);
    r.flush_ms = static_cast<double>(t1 - t_flush) / 1e6;
    r.on_bytes_ns_per_elem =
        static_cast<double>(on_bytes_ns) / static_cast<double>(elems);

    // Registry deltas over the timed part, in which only the server
    // interns payloads (the subscriber's bytes wait undecoded).
    const lmerge::obs::MetricsSnapshot after = server->MetricsSnapshot();
    auto delta = [&](const char* name) {
      return static_cast<double>(after.Value(name) - before.Value(name));
    };
    int64_t events = 0;
    for (size_t s = open_end; s < scrape_begin; ++s) {
      events += static_cast<int64_t>(in->first_events[s].size());
    }
    const double ev = static_cast<double>(std::max<int64_t>(1, events));
    const auto h1 = Histogram(after, "engine.batch_size");
    const auto h0 = Histogram(before, "engine.batch_size");
    r.batch_elems_mean = static_cast<double>(h1.sum - h0.sum) /
                         static_cast<double>(std::max<int64_t>(
                             1, h1.count - h0.count));
    const double interns = delta("payload.intern_calls");
    r.hits_per_intern = interns > 0 ? delta("payload.hits") / interns : 0;
    r.encoded_bytes_per_event = delta("net.fanout.encoded_bytes") / ev;
    r.frames_per_event = delta("net.fanout.encoded_frames") / ev;
  }

  // ---- Closed loop, scrape part: StatsSnapshot at fixed positions.
  {
    const std::vector<Unit> units =
        MakeUnits(*in, scrape_begin, n_steps, spec.closed_chunk_bytes);
    constexpr size_t kScrapes = 6;
    size_t next_scrape = 1;
    for (size_t i = 0; i < units.size(); ++i) {
      if (i % 64 == 0) {
        sender.DrainFeedback();
        LM_CHECK(sub.client->TryReceive(&raw).ok());
      }
      while (next_scrape <= kScrapes &&
             i == units.size() * next_scrape / (kScrapes + 1)) {
        const int64_t a = NowNs();
        const net::StatsResponseMessage stats = server->StatsSnapshot();
        const int64_t b = NowNs();
        spans->Add("net.server.StatsSnapshot", a, b);
        r.stats_rtt_us.push_back(static_cast<double>(b - a) / 1e3);
        r.state_bytes_peak =
            std::max(r.state_bytes_peak,
                     static_cast<double>(
                         stats.metrics.Value("merge.state_bytes")));
        r.entries_peak = std::max(
            r.entries_peak,
            static_cast<double>(stats.metrics.Value("payload.entries")));
        if (next_scrape == 1) {
          r.stats_response_bytes = static_cast<double>(
              net::EncodeStatsResponseFrame(stats).size());
        }
        ++next_scrape;
      }
      sender.Send(units[i].pub, units[i].begin, units[i].end);
    }
    server->Flush();
    LM_CHECK(sub.client->TryReceive(&raw).ok());
    feed_tap(raw, no_observer);
    raw.clear();
  }
  sender.DrainFeedback();

  // ---- Round-wide counters.
  {
    const lmerge::MergeOutputStats ms = server->merge_stats();
    const lmerge::obs::MetricsSnapshot end = server->MetricsSnapshot();
    const double in_elems = static_cast<double>(in->total_elems);
    const double events = static_cast<double>(in->events);
    r.index_probes_per_elem =
        static_cast<double>(end.Value("merge.index_probes")) / in_elems;
    r.backpressure_stalls = static_cast<double>(
        end.Value("engine.backpressure_stalls") -
        base.Value("engine.backpressure_stalls"));
    const double elems_in = static_cast<double>(
        ms.inserts_in + ms.adjusts_in + ms.stables_in);
    r.dropped_per_elem = static_cast<double>(ms.dropped) / elems_in;
    r.out_per_in = static_cast<double>(ms.inserts_out + ms.adjusts_out +
                                       ms.stables_out) /
                   elems_in;
    size_t rx = 0;
    for (const PublisherStream& p : in->pubs) rx += p.bytes.size();
    r.rx_bytes_per_elem = static_cast<double>(rx) / in_elems;
    r.fanout_bytes_per_event = static_cast<double>(tap.bytes()) / events;
    r.unstamped_frames = static_cast<double>(tap.unstamped());
    r.feedback_frames = static_cast<double>(sender.feedback_frames());
  }
  r.threads_peak = std::max(r.threads_peak, static_cast<double>(ThreadCount()));
  sender.Disconnect();
  server->OnDisconnect(sub.id);
  CountSends(&r, sender, "publish");
  server.reset();

  // ---- Output check against the generator's own events.
  Count(&r,
        CheckOutput(ReferenceTdb(MakeHistory(spec, seed, spec.events)),
                    tap.output()),
        "subscriber output");
  tap = OutputTap();

  // ---- Failover cycles.  Each output is checked after its servers are
  // gone, and dropped before the next cycle, so no Row carries over.
  const int64_t f0 = NowNs();
  size_t middle_cut = 0;
  for (int c = 0; c < spec.failover_cycles; ++c) {
    const size_t cut = fin->order.size() * static_cast<size_t>(c + 1) /
                       static_cast<size_t>(spec.failover_cycles + 1);
    if (c == spec.failover_cycles / 2) middle_cut = cut;
    const ElementSequence output = RunFailoverCycle(fin.get(), cut, spans, &r);
    const lmerge::Tdb reference = ReferenceTdb(
        MakeHistory(spec, failover_seed, spec.failover_events));
    Count(&r, CheckOutput(reference, output), "failover output");
    if (selftest && c + 1 == spec.failover_cycles) {
      r.selftest = CheckerSelfTest(reference, output);
      r.selftest_ran = true;
    }
  }
  spans->Add("phase.failover", f0, NowNs());

  if (traced && keep != nullptr) {
    keep->main = std::move(in);
    keep->failover = std::move(fin);
    keep->failover_cut = middle_cut;
    keep->subscriber_bytes = std::move(sub_all);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  // End-to-end metrics only: false for the wall-clock figures this host's
  // steal makes unsteady (README "Spread"); those stay out of the untraced
  // JSON result and are re-reported by the traced run as "e2e.<name>".
  bool bounded = true;
};

std::vector<double> Collect(const std::vector<RoundResult>& rounds,
                            double RoundResult::*field) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) v.push_back(r.*field);
  return v;
}

std::vector<double> Pool(const std::vector<RoundResult>& rounds,
                         std::vector<double> RoundResult::*field) {
  std::vector<double> v;
  for (const RoundResult& r : rounds) {
    v.insert(v.end(), (r.*field).begin(), (r.*field).end());
  }
  return v;
}

double MedianOf(const std::vector<RoundResult>& rounds,
                double RoundResult::*field) {
  return Median(Collect(rounds, field));
}

// Per-round values of `field`, or of a quantile of its samples in each
// round (q < 0: the tail quantile the round's samples support).
std::vector<double> PerRound(const std::vector<RoundResult>& rounds,
                             std::vector<double> RoundResult::*field,
                             double q) {
  std::vector<double> per_round;
  for (const RoundResult& r : rounds) {
    if ((r.*field).empty()) continue;
    per_round.push_back(
        Quantile(r.*field, q < 0 ? TailQuantileFor((r.*field).size()) : q));
  }
  return per_round;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}
double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

// Wall-clock timings are taken per round and reported from the best round.
// On a shared virtual machine the host takes a vCPU away for milliseconds
// at a time (steal); that only ever slows a round down, so the best round
// tracks the code more closely than the median round.  Set-up time, CPU
// time and sizes are the median round.  CPU time is unbounded too: it
// counts the ring producer's and the merge thread's idle spinning, which
// varies with timing (README "Spread").
std::vector<Metric> EndToEnd(const std::vector<RoundResult>& rounds) {
  return {
      {"setup_s", MedianOf(rounds, &RoundResult::setup_s), "s"},
      {"ingest_elems_per_s",
       Max(Collect(rounds, &RoundResult::ingest_elems_per_s)), "elem/s",
       false},
      {"cpu_us_per_elem", MedianOf(rounds, &RoundResult::cpu_us_per_elem),
       "us/elem", false},
      {"delivery_p50_us", Min(PerRound(rounds, &RoundResult::delivery_us, 0.5)),
       "us", false},
      {"delivery_p99_us", Min(PerRound(rounds, &RoundResult::delivery_us, -1)),
       "us", false},
      {"stable_lag_p50_us",
       Min(PerRound(rounds, &RoundResult::stable_lag_us, 0.5)), "us", false},
      {"stats_rtt_p50_us",
       Min(PerRound(rounds, &RoundResult::stats_rtt_us, 0.5)), "us", false},
      {"state_bytes_peak", MedianOf(rounds, &RoundResult::state_bytes_peak),
       "B"},
      {"fanout_bytes_per_event",
       MedianOf(rounds, &RoundResult::fanout_bytes_per_event), "B/event"},
      {"checkpoint_bytes",
       Median(PerRound(rounds, &RoundResult::checkpoint_bytes, 0.5)), "B"},
      {"jumpstart_ms", Min(Pool(rounds, &RoundResult::jumpstart_ms)), "ms",
       false},
  };
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& traced,
                             const std::vector<RoundResult>& untraced,
                             const ReplaySource& src, SpanLog* spans) {
  const lmerge::MergeVariant variant =
      lmerge::VariantForCase(lmerge::ChooseAlgorithm(src.main->properties));

  int64_t t0 = NowNs();
  std::vector<DecodedBatch> batches;
  const double decode_ns =
      ReplayDecode(*src.main, src.main->order.size(), &batches);
  spans->Add("replay.net.protocol.decode", t0, NowNs());
  t0 = NowNs();
  const CoreReplay core = ReplayCore(variant, batches);
  spans->Add("replay.core.ProcessBatch", t0, NowNs());
  t0 = NowNs();
  const double stable_us = ReplayStables(variant, batches);
  spans->Add("replay.core.stables", t0, NowNs());
  t0 = NowNs();
  const double handoff_ns = ReplayHandoff(variant, batches);
  spans->Add("replay.engine.ConcurrentMerger", t0, NowNs());
  t0 = NowNs();
  OutputTap tap;
  LM_CHECK(tap.Feed(src.subscriber_bytes,
                    [](const StreamElement&, int64_t) {}).ok());
  const double encode_ns = ReplayEncode(tap.output(), tap.batch_ends());
  spans->Add("replay.net.fanout.encode", t0, NowNs());
  std::vector<DecodedBatch> failover_batches;
  (void)ReplayDecode(*src.failover, src.failover_cut, &failover_batches);
  t0 = NowNs();
  const CheckpointReplay ckpt = ReplayCheckpoint(variant, failover_batches);
  spans->Add("replay.checkpoint", t0, NowNs());

  const double traced_ingest =
      MedianOf(traced, &RoundResult::ingest_elems_per_s);
  const double untraced_ingest =
      MedianOf(untraced, &RoundResult::ingest_elems_per_s);
  const double on_bytes_ns =
      MedianOf(traced, &RoundResult::on_bytes_ns_per_elem);
  const double cpu_ns = MedianOf(traced, &RoundResult::cpu_us_per_elem) * 1e3;
  const double out_per_in = MedianOf(traced, &RoundResult::out_per_in);
  // The single-threaded replays of the layers one input element passes
  // through (decode, merge, and fan-out encode per output element times
  // output elements per input element), against the process CPU the
  // closed loop spent per element.
  const double attributed =
      decode_ns + core.ns_per_elem + encode_ns * out_per_in;

  const std::vector<double> on_bytes_open =
      Pool(traced, &RoundResult::on_bytes_open_us);
  const std::vector<double> late = Pool(traced, &RoundResult::late_us);
  return {
      {"net.protocol.decode_ns_per_elem", decode_ns, "ns/elem"},
      {"net.protocol.rx_bytes_per_elem",
       MedianOf(traced, &RoundResult::rx_bytes_per_elem), "B/elem"},
      {"net.server.on_bytes_ns_per_elem", on_bytes_ns, "ns/elem"},
      {"net.server.on_bytes_p99_us",
       Quantile(on_bytes_open, TailQuantileFor(on_bytes_open.size())), "us"},
      {"net.server.feedback_frames",
       MedianOf(traced, &RoundResult::feedback_frames), "count"},
      {"engine.handoff_ns_per_elem", handoff_ns - core.ns_per_elem,
       "ns/elem"},
      {"engine.batch_elems_mean",
       MedianOf(traced, &RoundResult::batch_elems_mean), "elem"},
      {"engine.backpressure_stalls",
       MedianOf(traced, &RoundResult::backpressure_stalls), "count"},
      {"engine.flush_ms", MedianOf(traced, &RoundResult::flush_ms), "ms"},
      {"core.process_batch_ns_per_elem", core.ns_per_elem, "ns/elem"},
      {"core.stable_us_per_stable", stable_us, "us"},
      {"core.index_probes_per_elem",
       MedianOf(traced, &RoundResult::index_probes_per_elem), "1/elem"},
      {"core.dropped_per_elem",
       MedianOf(traced, &RoundResult::dropped_per_elem), "1/elem"},
      {"core.out_elems_per_in_elem", out_per_in, "ratio"},
      {"core.state_bytes_peak", core.state_bytes_peak, "B"},
      {"payload_store.hits_per_intern",
       MedianOf(traced, &RoundResult::hits_per_intern), "ratio"},
      {"payload_store.entries_peak",
       MedianOf(traced, &RoundResult::entries_peak), "count"},
      {"net.fanout.encode_ns_per_elem", encode_ns, "ns/elem"},
      {"net.fanout.encoded_bytes_per_event",
       MedianOf(traced, &RoundResult::encoded_bytes_per_event), "B/event"},
      {"net.fanout.frames_per_event",
       MedianOf(traced, &RoundResult::frames_per_event), "1/event"},
      {"net.fanout.unstamped_frames",
       MedianOf(traced, &RoundResult::unstamped_frames), "count"},
      {"checkpoint.save_ms", ckpt.save_ms, "ms"},
      {"checkpoint.load_ms", ckpt.load_ms, "ms"},
      {"replica.deduped_elements", Median(Pool(traced, &RoundResult::deduped)),
       "count"},
      {"replica.replayed_elements",
       Median(Pool(traced, &RoundResult::replayed)), "count"},
      {"obs.stats_response_bytes",
       MedianOf(traced, &RoundResult::stats_response_bytes), "B"},
      {"loadgen.late_p99_us", Quantile(late, TailQuantileFor(late.size())),
       "us"},
      {"trace.overhead_pct",
       100.0 * (untraced_ingest / traced_ingest - 1.0), "%"},
      {"ledger.attributed_pct", 100.0 * attributed / cpu_ns, "%"},
      {"harness.threads_peak",
       MedianOf(traced, &RoundResult::threads_peak), "count"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    json += buf;
    json += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      o->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty() && o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 options.workload.c_str());
    for (const std::string& n : WorkloadNames()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }

  // Alternating untraced and traced rounds give the traced run its
  // tracing overhead; an untraced run never records a span.
  const size_t min_rounds = options.trace ? 4 : 3;
  constexpr size_t kMaxRounds = 60;
  SpanLog spans;
  ReplaySource keep;
  std::vector<RoundResult> rounds;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(options.seconds) * 1'000'000'000;
  while (rounds.size() < kMaxRounds &&
         (rounds.size() < min_rounds || NowNs() < deadline)) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    rounds.push_back(RunRound(*spec, options.seed, traced,
                              /*selftest=*/rounds.empty(), &spans, &keep));
    const RoundResult& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu%s: setup %.3fs ingest %.0f elem/s cpu %.3f "
                 "us/elem delivery p50 %.0fus (%zu samples, %lld late) "
                 "jumpstart %.3fms threads %.0f failed %lld/%lld %s\n",
                 rounds.size(), r.traced ? " traced" : "", r.setup_s,
                 r.ingest_elems_per_s, r.cpu_us_per_elem,
                 Median(r.delivery_us), r.delivery_us.size(),
                 static_cast<long long>(r.pending_after_open),
                 Median(r.jumpstart_ms), r.threads_peak,
                 static_cast<long long>(r.failed),
                 static_cast<long long>(r.attempted), r.failure.c_str());
  }
  spans.set_enabled(options.trace);

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }
  const std::string selftest =
      rounds.front().selftest_ran ? rounds.front().selftest
                                  : "no failover output to test on";
  if (!selftest.empty()) {
    std::fprintf(stderr, "checker self-test failed: %s\n", selftest.c_str());
  }
  const bool correct = selftest.empty() && failed == 0;

  std::vector<RoundResult> traced;
  std::vector<RoundResult> untraced;
  for (RoundResult& r : rounds) {
    (r.traced ? traced : untraced).push_back(std::move(r));
  }
  // End-to-end figures come from untraced rounds only.
  const std::vector<Metric> end_to_end = EndToEnd(untraced);
  std::fprintf(stderr, "end to end (%zu untraced rounds):\n", untraced.size());
  for (const Metric& m : end_to_end) {
    std::fprintf(stderr, "  %-38s %14.4f %s%s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.bounded ? "" : "  (unbounded)");
  }
  if (!options.trace) {
    std::vector<Metric> bounded;
    for (const Metric& m : end_to_end) {
      if (m.bounded) bounded.push_back(m);
    }
    PrintResult(correct, attempted, failed, bounded);
    return 0;
  }
  std::vector<Metric> per_layer = PerLayer(traced, untraced, keep, &spans);
  for (const Metric& m : end_to_end) {
    if (!m.bounded) per_layer.push_back({"e2e." + m.name, m.value, m.unit});
  }
  std::error_code ec;
  std::filesystem::create_directories(kTraceDir, ec);
  const std::string path = std::string(kTraceDir) + "/trace-" + spec->name +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (ec || !spans.WriteChromeTrace(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu spans (%lld dropped) to %s\n", spans.size(),
               static_cast<long long>(spans.dropped()), path.c_str());
  std::fprintf(stderr, "per layer (%zu traced rounds):\n", traced.size());
  for (const Metric& m : per_layer) {
    std::fprintf(stderr, "  %-38s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, per_layer);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
