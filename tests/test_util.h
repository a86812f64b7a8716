// Shared helpers for the test suite.

#ifndef LMERGE_TESTS_TEST_UTIL_H_
#define LMERGE_TESTS_TEST_UTIL_H_

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/row.h"
#include "core/merge_algorithm.h"
#include "engine/merger.h"
#include "stream/element.h"
#include "stream/sink.h"
#include "temporal/tdb.h"

namespace lmerge::testing_util {

// Short payload constructors for hand-built streams ("A", "B", ...).
inline Row P(const std::string& tag) { return Row::OfString(tag); }
inline Row P(int64_t key) { return Row::OfInt(key); }

inline StreamElement Ins(const std::string& tag, Timestamp vs, Timestamp ve) {
  return StreamElement::Insert(P(tag), vs, ve);
}
inline StreamElement Adj(const std::string& tag, Timestamp vs, Timestamp vo,
                         Timestamp ve) {
  return StreamElement::Adjust(P(tag), vs, vo, ve);
}
inline StreamElement Stb(Timestamp t) { return StreamElement::Stable(t); }

// Feeds `inputs[i]` to the algorithm as stream i, interleaving elements in a
// deterministic pseudo-random order (seeded) while preserving each stream's
// internal order.  Elements are delivered through algo->OnElement and must
// all succeed.
inline void InterleaveInto(MergeAlgorithm* algo,
                           const std::vector<ElementSequence>& inputs,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> next(inputs.size(), 0);
  while (true) {
    // Pick a random stream that still has elements.
    std::vector<int> candidates;
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (next[s] < inputs[s].size()) {
        candidates.push_back(static_cast<int>(s));
      }
    }
    if (candidates.empty()) break;
    const int s = candidates[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(candidates.size()) - 1))];
    const Status status = algo->OnElement(
        s, inputs[static_cast<size_t>(s)][next[static_cast<size_t>(s)]]);
    LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
    ++next[static_cast<size_t>(s)];
  }
}

// Round-robin delivery (stream 0 first at every step).
inline void RoundRobinInto(MergeAlgorithm* algo,
                           const std::vector<ElementSequence>& inputs) {
  size_t max_len = 0;
  for (const auto& input : inputs) max_len = std::max(max_len, input.size());
  for (size_t i = 0; i < max_len; ++i) {
    for (size_t s = 0; s < inputs.size(); ++s) {
      if (i < inputs[s].size()) {
        const Status status =
            algo->OnElement(static_cast<int>(s), inputs[s][i]);
        LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      }
    }
  }
}

// Number of elements of each kind in a sequence.
struct KindCounts {
  int64_t inserts = 0;
  int64_t adjusts = 0;
  int64_t stables = 0;
};

inline KindCounts CountKinds(const ElementSequence& elements) {
  KindCounts counts;
  for (const StreamElement& e : elements) {
    switch (e.kind()) {
      case ElementKind::kInsert:
        ++counts.inserts;
        break;
      case ElementKind::kAdjust:
        ++counts.adjusts;
        break;
      case ElementKind::kStable:
        ++counts.stables;
        break;
    }
  }
  return counts;
}

// Delivers one element as a one-element batch; Ok means enqueued.
inline Status DeliverOne(Merger* merger, int stream, StreamElement element) {
  return merger->TryDeliverBatch(stream, std::span(&element, 1));
}

// Delivers `inputs[i]` as stream i from one thread per input, one element at
// a time (cross-stream interleaving is up to the scheduler), joins them, and
// waits until everything is merged.  Aborts on delivery errors (the inputs
// are trusted replicas).
inline void RunReplicas(Merger* merger,
                        const std::vector<ElementSequence>& inputs) {
  std::vector<std::thread> threads;
  threads.reserve(inputs.size());
  for (size_t s = 0; s < inputs.size(); ++s) {
    threads.emplace_back([merger, s, &inputs] {
      for (const StreamElement& element : inputs[s]) {
        const Status status =
            DeliverOne(merger, static_cast<int>(s), element);
        LM_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  merger->WaitIdle();
  const Status status = merger->error();
  LM_CHECK_MSG(status.ok(), "concurrent delivery failed: %s",
               status.ToString().c_str());
}

}  // namespace lmerge::testing_util

#endif  // LMERGE_TESTS_TEST_UTIL_H_
