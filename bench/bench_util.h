// Shared workload configuration for the per-figure benchmark harnesses.
//
// Defaults mirror Sec. VI-B: each event carries an integer in [0, 400] and a
// 1000-byte string; StableFreq defaults to 1%; lifetimes are set so that on
// the order of 10K events are "active" at any instant; MaxGap bounds the
// application-time gap between consecutive elements; Disorder defaults to
// 20%.  Scale (number of elements) is reduced relative to the paper's
// 200K-400K so that every figure regenerates in seconds; shapes are
// unaffected.

#ifndef LMERGE_BENCH_BENCH_UTIL_H_
#define LMERGE_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/element.h"
#include "workload/generator.h"

namespace lmerge::bench {

inline workload::GeneratorConfig PaperConfig(int64_t num_inserts,
                                             uint64_t seed = 42) {
  workload::GeneratorConfig config;
  config.num_inserts = num_inserts;
  config.stable_freq = 0.01;           // StableFreq 1%
  config.max_gap = 20;                 // ticks between consecutive starts
  config.event_duration = 100000;      // ~10K active events at a time
  config.duration_jitter = 20000;
  config.disorder_fraction = 0.2;      // 20% disorder
  config.max_disorder_elements = 64;
  config.key_range = 400;              // int field in [0, 400]
  config.payload_string_bytes = 1000;  // 1000-byte string field
  config.seed = seed;
  return config;
}

// The divergent physical replicas fed to LMerge in the general-case
// experiments.
inline std::vector<ElementSequence> MakeReplicas(
    const workload::LogicalHistory& history, int count, double disorder,
    double split_probability, uint64_t seed) {
  std::vector<ElementSequence> replicas;
  replicas.reserve(static_cast<size_t>(count));
  for (int v = 0; v < count; ++v) {
    workload::VariantOptions options;
    options.disorder_fraction = disorder;
    options.max_disorder_elements = 64;
    options.split_probability = split_probability;
    options.seed = seed + static_cast<uint64_t>(v) * 977;
    replicas.push_back(GeneratePhysicalVariant(history, options));
  }
  return replicas;
}

// Round-robin delivery of `inputs` into `algo`; samples StateBytes every
// `sample_every` deliveries and returns the peak.
inline int64_t RoundRobinPeakMemory(MergeAlgorithm* algo,
                                    const std::vector<ElementSequence>& inputs,
                                    int64_t sample_every = 512) {
  size_t max_len = 0;
  for (const auto& input : inputs) max_len = std::max(max_len, input.size());
  int64_t peak = 0;
  int64_t delivered = 0;
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (i >= inputs[s].size()) continue;
      const Status status =
          algo->OnElement(static_cast<int>(s), inputs[s][i]);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      if (++delivered % sample_every == 0) {
        peak = std::max(peak, algo->StateBytes());
      }
    }
  }
  peak = std::max(peak, algo->StateBytes());
  return peak;
}

// Round-robin delivery; returns total elements delivered.
inline int64_t RoundRobinDeliver(MergeAlgorithm* algo,
                                 const std::vector<ElementSequence>& inputs) {
  size_t max_len = 0;
  for (const auto& input : inputs) max_len = std::max(max_len, input.size());
  int64_t delivered = 0;
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (i >= inputs[s].size()) continue;
      const Status status =
          algo->OnElement(static_cast<int>(s), inputs[s][i]);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      ++delivered;
    }
  }
  return delivered;
}

// ---------------------------------------------------------------------------
// Machine-readable results (--json) for the CI bench-smoke job.
//
// Benchmarks publish optional metrics through counters named "p50_us",
// "p99_us", "state_bytes" and "checkpoint_bytes"; RunBenchmarksWithJson
// tees every run into a JSON array written to the path given by
// `--json PATH` (or `--json=PATH`) alongside the normal console output.
// Schema per entry:
//   {"name", "elems_per_sec", "p50_latency_us", "p99_latency_us",
//    "state_bytes", "checkpoint_bytes", "encoded_bytes", "tx_fanout_bytes",
//    "encoded_frames", "fanout_batches", "host_nproc", "build_type",
//    "git_sha"}
// The last three describe the host and build that produced the row, so a
// before/after pair can be checked to come from the same host.
// ---------------------------------------------------------------------------

// Collects sampled per-operation durations and publishes the percentile
// counters the JSON writer picks up.
class LatencySampler {
 public:
  using Clock = std::chrono::steady_clock;

  void Record(Clock::time_point start, Clock::time_point end) {
    samples_.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }

  double PercentileUs(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) *
                            (rank - static_cast<double>(lo));
  }

  void Publish(benchmark::State& state) const {
    state.counters["p50_us"] = benchmark::Counter(PercentileUs(50));
    state.counters["p99_us"] = benchmark::Counter(PercentileUs(99));
  }

 private:
  std::vector<double> samples_;
};

struct BenchJsonEntry {
  std::string name;
  double elems_per_sec = 0;
  double p50_latency_us = 0;
  double p99_latency_us = 0;
  int64_t state_bytes = 0;
  // SaveCheckpoint size of the final state (bench_state_bytes).
  int64_t checkpoint_bytes = 0;
  // Fan-out accounting (bench_fanout_scale): bytes the server serialized
  // once per merged batch vs. bytes actually sent across all subscribers.
  int64_t encoded_bytes = 0;
  int64_t tx_fanout_bytes = 0;
  // Frame buffers encoded vs. batches fanned out: equal when every batch
  // is encoded exactly once.
  int64_t encoded_frames = 0;
  int64_t fanout_batches = 0;
};

// Console output as usual, plus a copy of every run's metrics for the JSON
// file.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const auto counter = [&run](const char* key) {
        const auto it = run.counters.find(key);
        return it == run.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
      };
      BenchJsonEntry entry;
      entry.name = run.benchmark_name();
      entry.elems_per_sec = counter("items_per_second");
      entry.p50_latency_us = counter("p50_us");
      entry.p99_latency_us = counter("p99_us");
      entry.state_bytes = static_cast<int64_t>(counter("state_bytes"));
      entry.checkpoint_bytes =
          static_cast<int64_t>(counter("checkpoint_bytes"));
      entry.encoded_bytes = static_cast<int64_t>(counter("encoded_bytes"));
      entry.tx_fanout_bytes =
          static_cast<int64_t>(counter("tx_fanout_bytes"));
      entry.encoded_frames = static_cast<int64_t>(counter("encoded_frames"));
      entry.fanout_batches = static_cast<int64_t>(counter("fanout_batches"));
      entries_.push_back(std::move(entry));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchJsonEntry>& entries() const { return entries_; }

 private:
  std::vector<BenchJsonEntry> entries_;
};

#ifndef LMERGE_BENCH_BUILD_TYPE
#define LMERGE_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef LMERGE_BENCH_GIT_SHA
#define LMERGE_BENCH_GIT_SHA "unknown"
#endif

// Benchmark names are user-controlled (template args, Args() values), so
// the document goes through JsonWriter: names with quotes/backslashes stay
// valid JSON and keys always appear in this fixed order.
inline bool WriteBenchJson(const std::string& path,
                           const std::vector<BenchJsonEntry>& entries) {
  JsonWriter writer;
  writer.BeginArray();
  for (const BenchJsonEntry& e : entries) {
    writer.BeginObject();
    writer.Key("name");
    writer.String(e.name);
    writer.Key("elems_per_sec");
    writer.Double(e.elems_per_sec);
    writer.Key("p50_latency_us");
    writer.Double(e.p50_latency_us);
    writer.Key("p99_latency_us");
    writer.Double(e.p99_latency_us);
    writer.Key("state_bytes");
    writer.Int(e.state_bytes);
    writer.Key("checkpoint_bytes");
    writer.Int(e.checkpoint_bytes);
    writer.Key("encoded_bytes");
    writer.Int(e.encoded_bytes);
    writer.Key("tx_fanout_bytes");
    writer.Int(e.tx_fanout_bytes);
    writer.Key("encoded_frames");
    writer.Int(e.encoded_frames);
    writer.Key("fanout_batches");
    writer.Int(e.fanout_batches);
    writer.Key("host_nproc");
    writer.Int(static_cast<int64_t>(std::thread::hardware_concurrency()));
    writer.Key("build_type");
    writer.String(LMERGE_BENCH_BUILD_TYPE);
    writer.Key("git_sha");
    writer.String(LMERGE_BENCH_GIT_SHA);
    writer.EndObject();
  }
  writer.EndArray();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string json = writer.Take();
  std::fprintf(file, "%s\n", json.c_str());
  std::fclose(file);
  return true;
}

// Drop-in replacement for BENCHMARK_MAIN(): the standard benchmark CLI plus
//   --json=PATH       tee per-run metrics into a JSON array
//   --obs=on|off|trace  metrics registry on (default), off (the overhead
//                     A/B baseline used by the CI bench-obs-smoke job), or
//                     on with span tracing as well
//   --trace-out=PATH  dump the recorded spans as Chrome trace JSON on exit
inline int RunBenchmarksWithJson(int argc, char** argv) {
  std::string json_path;
  std::string obs_mode = "on";
  std::string trace_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--obs=", 0) == 0) {
      obs_mode = arg.substr(6);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (obs_mode != "on" && obs_mode != "off" && obs_mode != "trace") {
    std::fprintf(stderr, "--obs must be on, off, or trace\n");
    return 1;
  }
  obs::MetricsRegistry::set_enabled(obs_mode != "off");
  obs::TraceRecorder::Global().set_enabled(obs_mode == "trace" ||
                                           !trace_path.empty());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() &&
      !WriteBenchJson(json_path, reporter.entries())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  if (!trace_path.empty()) {
    std::FILE* file = std::fopen(trace_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
      return 1;
    }
    const std::string trace =
        obs::TraceRecorder::Global().DumpChromeTraceJson();
    std::fprintf(file, "%s\n", trace.c_str());
    std::fclose(file);
  }
  return 0;
}

}  // namespace lmerge::bench

#endif  // LMERGE_BENCH_BENCH_UTIL_H_
