// State bytes under payload interning — the memory claim of the end-to-end
// interned-payload refactor, on the paper's general-case workload.
//
// Three divergent physical replicas of one logical history are merged by
// LMR3+ (in2t), LMR3- (per-input deep copies), and LMR4 (in3t).  Payloads
// are drawn from a small pool, the shape that recurs in practice (sensor
// enumerations, templated messages) and that interning collapses: R3/R4
// charge each pooled rep once per index via the identity ledger, while the
// LMR3- baseline duplicates it per input as the paper assumes.
//
// Each variant reports two figures:
//   BM_StateBytes_<V>          peak StateBytes() — interned accounting
//   BM_StateBytes_<V>_Unshared peak StateBytesUnshared() — the pre-interning
//                              per-node-copy model, for the before/after
//                              comparison (expected >= 2x for LMR3+).
//
// Reported counters: state_bytes (peak, sampled every 512 deliveries) and
// checkpoint_bytes (SaveCheckpoint size of the final state; 0 for LMR3-,
// which keeps no checkpointable state).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/checkpoint.h"
#include "stream/sink.h"

namespace lmerge::bench {
namespace {

constexpr int kNumReplicas = 3;

const workload::LogicalHistory& History() {
  static const workload::LogicalHistory* history = [] {
    workload::GeneratorConfig config = PaperConfig(20000);
    // Pooled payloads: 64 distinct blobs recur across the whole history,
    // so sharing (and the wire dictionary) has something to collapse.
    config.payload_pool_size = 64;
    auto* h =
        new workload::LogicalHistory(workload::GenerateHistory(config));
    return h;
  }();
  return *history;
}

const std::vector<ElementSequence>& Replicas() {
  static const std::vector<ElementSequence>* replicas = [] {
    return new std::vector<ElementSequence>(MakeReplicas(
        History(), kNumReplicas, /*disorder=*/0.2,
        /*split_probability=*/0.3, /*seed=*/1234));
  }();
  return *replicas;
}

// Round-robin delivery sampling both accounting models; returns peaks.
struct PeakBytes {
  int64_t shared = 0;
  int64_t unshared = 0;
};

PeakBytes RoundRobinPeakBoth(MergeAlgorithm* algo,
                             const std::vector<ElementSequence>& inputs,
                             int64_t sample_every = 512) {
  size_t max_len = 0;
  for (const auto& input : inputs) max_len = std::max(max_len, input.size());
  PeakBytes peak;
  int64_t delivered = 0;
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (i >= inputs[s].size()) continue;
      const Status status =
          algo->OnElement(static_cast<int>(s), inputs[s][i]);
      LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      if (++delivered % sample_every == 0) {
        peak.shared = std::max(peak.shared, algo->StateBytes());
        peak.unshared = std::max(peak.unshared, algo->StateBytesUnshared());
      }
    }
  }
  peak.shared = std::max(peak.shared, algo->StateBytes());
  peak.unshared = std::max(peak.unshared, algo->StateBytesUnshared());
  return peak;
}

void StateBytesBench(benchmark::State& state, MergeVariant variant,
                     bool unshared) {
  PeakBytes peak;
  size_t checkpoint_bytes = 0;
  for (auto _ : state) {
    NullSink sink;
    auto algo = CreateMergeAlgorithm(variant, kNumReplicas, &sink);
    peak = RoundRobinPeakBoth(algo.get(), Replicas());
    benchmark::DoNotOptimize(peak);
    state.PauseTiming();
    if (algo->checkpointable() != nullptr) {
      checkpoint_bytes = SaveCheckpoint(*algo->checkpointable()).size();
    }
    state.ResumeTiming();
  }
  state.counters["state_bytes"] = benchmark::Counter(
      static_cast<double>(unshared ? peak.unshared : peak.shared));
  state.counters["checkpoint_bytes"] =
      benchmark::Counter(static_cast<double>(checkpoint_bytes));
  state.counters["inputs"] = benchmark::Counter(kNumReplicas);
}

#define STATE_BYTES_BENCH(variant_enum, name)                             \
  void BM_StateBytes_##name(benchmark::State& state) {                    \
    StateBytesBench(state, MergeVariant::variant_enum, false);            \
  }                                                                       \
  BENCHMARK(BM_StateBytes_##name)->Iterations(1)->Unit(                   \
      benchmark::kMillisecond);                                           \
  void BM_StateBytes_##name##_Unshared(benchmark::State& state) {         \
    StateBytesBench(state, MergeVariant::variant_enum, true);             \
  }                                                                       \
  BENCHMARK(BM_StateBytes_##name##_Unshared)                              \
      ->Iterations(1)                                                     \
      ->Unit(benchmark::kMillisecond)

STATE_BYTES_BENCH(kLMR3Plus, LMR3Plus);
STATE_BYTES_BENCH(kLMR3Minus, LMR3Minus);
STATE_BYTES_BENCH(kLMR4, LMR4);

#undef STATE_BYTES_BENCH

}  // namespace
}  // namespace lmerge::bench

int main(int argc, char** argv) {
  return lmerge::bench::RunBenchmarksWithJson(argc, argv);
}
