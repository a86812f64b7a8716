#include "replay.h"

#include <memory>
#include <span>

#include "common/check.h"
#include "common/checkpoint.h"
#include "engine/concurrent.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "spans.h"
#include "stats.h"
#include "stream/element_serde.h"
#include "stream/sink.h"

namespace e2ebench {

using lmerge::ElementSequence;
using lmerge::MergeAlgorithm;
using lmerge::MergeVariant;
using lmerge::StreamElement;

namespace {

// Timed replays are repeated this often and report the median.
constexpr int kRepeats = 3;

class NullSink : public lmerge::ElementSink {
 public:
  void OnElement(const StreamElement& element) override { (void)element; }
};

std::unique_ptr<MergeAlgorithm> NewAlgorithm(MergeVariant variant,
                                             lmerge::ElementSink* sink) {
  return lmerge::CreateMergeAlgorithm(variant, kPublishers, sink);
}

int64_t ElementCount(const std::vector<DecodedBatch>& batches) {
  int64_t n = 0;
  for (const DecodedBatch& b : batches) {
    n += static_cast<int64_t>(b.elements.size());
  }
  return n;
}

}  // namespace

double ReplayDecode(const Inputs& in, size_t steps,
                    std::vector<DecodedBatch>* batches) {
  std::vector<double> ns;
  int64_t elems = 0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    batches->clear();
    std::vector<lmerge::net::FrameAssembler> assemblers(kPublishers);
    std::vector<lmerge::PayloadDictDecoder> dicts(kPublishers);
    lmerge::net::Frame frame;
    elems = 0;
    const int64_t t0 = NowNs();
    for (size_t s = 0; s < steps; ++s) {
      const Step& step = in.order[s];
      const PublisherStream& pub = in.pubs[static_cast<size_t>(step.pub)];
      const FrameGroup& group = pub.groups[step.group];
      lmerge::net::FrameAssembler& assembler =
          assemblers[static_cast<size_t>(step.pub)];
      LM_CHECK(assembler.Feed(pub.bytes.data() + group.begin,
                              group.end - group.begin)
                   .ok());
      while (assembler.Next(&frame)) {
        if (frame.type == lmerge::net::FrameType::kPayloadDef) {
          lmerge::net::PayloadDefMessage def;
          LM_CHECK(lmerge::net::DecodePayloadDefPayload(frame.payload, &def)
                       .ok());
          LM_CHECK(dicts[static_cast<size_t>(step.pub)]
                       .Define(def.id, std::move(def.payload))
                       .ok());
          continue;
        }
        LM_CHECK(frame.type == lmerge::net::FrameType::kElementsDict);
        DecodedBatch batch;
        batch.pub = step.pub;
        int64_t origin_us = 0;
        LM_CHECK(lmerge::net::DecodeElementsDictPayload(
                     frame.payload, dicts[static_cast<size_t>(step.pub)],
                     &batch.elements, &origin_us)
                     .ok());
        elems += static_cast<int64_t>(batch.elements.size());
        batches->push_back(std::move(batch));
      }
    }
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns) / static_cast<double>(std::max<int64_t>(1, elems));
}

CoreReplay ReplayCore(MergeVariant variant,
                      const std::vector<DecodedBatch>& batches) {
  CoreReplay result;
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    NullSink sink;
    auto algorithm = NewAlgorithm(variant, &sink);
    const int64_t t0 = NowNs();
    for (const DecodedBatch& b : batches) {
      LM_CHECK(algorithm->ProcessBatch(b.pub, std::span(b.elements)).ok());
    }
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  const int64_t elems = ElementCount(batches);
  result.ns_per_elem =
      Median(ns) / static_cast<double>(std::max<int64_t>(1, elems));

  // Untimed pass for the state peak, sampled at 256 fixed positions.
  NullSink sink;
  auto algorithm = NewAlgorithm(variant, &sink);
  const size_t every = std::max<size_t>(1, batches.size() / 256);
  for (size_t i = 0; i < batches.size(); ++i) {
    const DecodedBatch& b = batches[i];
    LM_CHECK(algorithm->ProcessBatch(b.pub, std::span(b.elements)).ok());
    if (i % every == 0 || i + 1 == batches.size()) {
      result.state_bytes_peak =
          std::max(result.state_bytes_peak,
                   static_cast<double>(algorithm->StateBytes()));
    }
  }
  result.stats = algorithm->stats();
  return result;
}

double ReplayStables(MergeVariant variant,
                     const std::vector<DecodedBatch>& batches) {
  std::vector<double> us_per_stable;
  for (int rep = 0; rep < kRepeats; ++rep) {
    NullSink sink;
    auto algorithm = NewAlgorithm(variant, &sink);
    int64_t stable_ns = 0;
    int64_t stables = 0;
    for (const DecodedBatch& b : batches) {
      const std::span<const StreamElement> all(b.elements);
      size_t run = 0;
      for (size_t i = 0; i < all.size(); ++i) {
        if (!all[i].is_stable()) continue;
        if (i > run) {
          LM_CHECK(
              algorithm->ProcessBatch(b.pub, all.subspan(run, i - run)).ok());
        }
        const int64_t t0 = NowNs();
        LM_CHECK(algorithm->ProcessBatch(b.pub, all.subspan(i, 1)).ok());
        stable_ns += NowNs() - t0;
        ++stables;
        run = i + 1;
      }
      if (run < all.size()) {
        LM_CHECK(algorithm->ProcessBatch(b.pub, all.subspan(run)).ok());
      }
    }
    us_per_stable.push_back(static_cast<double>(stable_ns) / 1000.0 /
                            static_cast<double>(std::max<int64_t>(1, stables)));
  }
  return Median(us_per_stable);
}

double ReplayHandoff(MergeVariant variant,
                     const std::vector<DecodedBatch>& batches) {
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    std::vector<DecodedBatch> copies = batches;  // delivery moves them out
    NullSink sink;
    auto algorithm = NewAlgorithm(variant, &sink);
    lmerge::ConcurrentMergerOptions options;
    options.metrics_scope = "e2ebench.replay";
    lmerge::ConcurrentMerger merger(algorithm.get(), std::move(options));
    const int64_t t0 = NowNs();
    for (DecodedBatch& b : copies) {
      LM_CHECK(merger.TryDeliverBatch(b.pub, std::span(b.elements)).ok());
    }
    merger.WaitIdle();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(ns) /
         static_cast<double>(std::max<int64_t>(1, ElementCount(batches)));
}

double ReplayEncode(const ElementSequence& output,
                    const std::vector<size_t>& batch_ends) {
  std::vector<ElementSequence> frames;
  size_t begin = 0;
  for (const size_t end : batch_ends) {
    frames.emplace_back(output.begin() + static_cast<ptrdiff_t>(begin),
                        output.begin() + static_cast<ptrdiff_t>(end));
    begin = end;
  }
  std::vector<double> ns;
  for (int rep = 0; rep < kRepeats; ++rep) {
    lmerge::PayloadDictEncoder dict;
    size_t bytes = 0;
    const int64_t t0 = NowNs();
    for (const ElementSequence& f : frames) {
      const lmerge::net::DictBatchParts parts =
          lmerge::net::EncodeDictBatchParts(f, &dict);
      bytes += parts.defs.size() + parts.body.size();
    }
    ns.push_back(static_cast<double>(NowNs() - t0));
    LM_CHECK(bytes > 0 || output.empty());
  }
  return Median(ns) /
         static_cast<double>(std::max<size_t>(1, output.size()));
}

CheckpointReplay ReplayCheckpoint(MergeVariant variant,
                                  const std::vector<DecodedBatch>& batches) {
  constexpr int kCheckpointRepeats = 5;
  CheckpointReplay result;
  NullSink sink;
  auto algorithm = NewAlgorithm(variant, &sink);
  for (const DecodedBatch& b : batches) {
    LM_CHECK(algorithm->ProcessBatch(b.pub, std::span(b.elements)).ok());
  }
  if (algorithm->checkpointable() == nullptr) return result;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::string blob;
  for (int rep = 0; rep < kCheckpointRepeats; ++rep) {
    const int64_t t0 = NowNs();
    blob = lmerge::SaveCheckpoint(*algorithm->checkpointable());
    save_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  for (int rep = 0; rep < kCheckpointRepeats; ++rep) {
    NullSink restored_sink;
    auto restored = NewAlgorithm(variant, &restored_sink);
    const int64_t t0 = NowNs();
    LM_CHECK(lmerge::LoadCheckpoint(blob, restored->checkpointable()).ok());
    load_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  result.save_ms = Median(save_ms);
  result.load_ms = Median(load_ms);
  return result;
}

}  // namespace e2ebench
