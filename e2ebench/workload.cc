#include "workload.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/check.h"
#include "net/protocol.h"
#include "stream/element_serde.h"

namespace e2ebench {

using lmerge::ElementSequence;
using lmerge::StreamElement;
using lmerge::Timestamp;

namespace {

// Sizes are chosen so that one round (set-up, the three timed phases and
// the failover cycles) takes one to two seconds on a 4-core host; the
// harness repeats rounds for the run length and reports medians.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* all = new std::vector<WorkloadSpec>();
    WorkloadSpec divergent;
    divergent.name = "divergent3";
    divergent.events = 60000;
    divergent.failover_events = 3000;
    divergent.payload_bytes = 48;
    divergent.stable_freq = 0.01;
    divergent.event_duration = 2'000'000;  // ~4000 live events
    divergent.max_gap = 1'000;
    divergent.in_order = false;
    divergent.frame_elems = 64;  // the lmerge_publish default
    divergent.warmup_share = 0.1;
    divergent.open_share = 0.15;
    divergent.offered_frames_per_s = 2000;
    divergent.closed_chunk_bytes = 0;
    divergent.failover_cycles = 3;
    all->push_back(divergent);

    WorkloadSpec inorder;
    inorder.name = "inorder_frames";
    inorder.events = 60000;
    inorder.failover_events = 2000;
    inorder.payload_bytes = 48;
    inorder.stable_freq = 0.01;
    inorder.event_duration = 200'000;
    inorder.max_gap = 1'000;
    inorder.in_order = true;
    inorder.frame_elems = 1;
    inorder.warmup_share = 0.1;
    inorder.open_share = 0.1;
    inorder.offered_frames_per_s = 40000;
    inorder.closed_chunk_bytes = 16 * 1024;  // one TCP TryReceive read
    inorder.failover_cycles = 3;
    all->push_back(inorder);

    WorkloadSpec lagging = divergent;
    lagging.name = "lagging";
    // Longer than the longest lifetime (2 s + 25% jitter), so the laggard
    // delivers events that are already fully frozen at the output: the
    // regime of Fig. 5 where LMerge drops them cheaply.
    lagging.lag_span = 3'000'000;
    all->push_back(lagging);
    return all;
  }();
  return *specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

lmerge::workload::LogicalHistory MakeHistory(const WorkloadSpec& spec,
                                             uint64_t seed, int64_t events) {
  lmerge::workload::GeneratorConfig config;
  config.num_inserts = events;
  config.stable_freq = spec.stable_freq;
  config.event_duration = spec.event_duration;
  config.duration_jitter = spec.event_duration / 4;
  config.max_gap = spec.max_gap;
  config.payload_string_bytes = spec.payload_bytes;
  config.seed = seed;
  lmerge::workload::LogicalHistory history =
      lmerge::workload::GenerateHistory(config);
  Timestamp max_ve = 0;
  for (const lmerge::Event& e : history.events) max_ve = std::max(max_ve, e.ve);
  history.stable_times.push_back(max_ve + 1);
  return history;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, int64_t events) {
  Inputs in;
  in.events = events;
  std::vector<ElementSequence> streams(kPublishers);
  {
    const lmerge::workload::LogicalHistory history =
        MakeHistory(spec, seed, events);
    for (int p = 0; p < kPublishers; ++p) {
      if (spec.in_order) {
        streams[static_cast<size_t>(p)] =
            lmerge::workload::RenderInOrder(history);
      } else {
        lmerge::workload::VariantOptions options;
        options.disorder_fraction = 0.2;
        options.split_probability = 0.3;
        options.seed = seed * 7919 + static_cast<uint64_t>(p) + 1;
        streams[static_cast<size_t>(p)] =
            lmerge::workload::GeneratePhysicalVariant(history, options);
      }
    }
    if (spec.in_order) {
      in.properties = lmerge::StreamProperties::Strongest();
      for (size_t i = 1; i < history.events.size(); ++i) {
        LM_CHECK(history.events[i - 1].vs < history.events[i].vs);
      }
    } else {
      // Divergent presentations with revisions: only (Vs, payload) is a key.
      in.properties.vs_payload_key = true;
    }
  }

  // Frame groups, and each group's application-time progress: the running
  // maximum insert/adjust Vs, so a stable does not pull its group ahead.
  // The last publisher's progress is shifted back by lag_span.
  struct Keyed {
    Timestamp key;
    Step step;
  };
  std::vector<Keyed> keyed;
  in.pubs.resize(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    const ElementSequence& elements = streams[static_cast<size_t>(p)];
    PublisherStream& pub = in.pubs[static_cast<size_t>(p)];
    const Timestamp shift = p == kPublishers - 1 ? spec.lag_span : 0;
    Timestamp progress = lmerge::kMinTimestamp;
    lmerge::PayloadDictEncoder dict;
    for (size_t i = 0; i < elements.size(); i += spec.frame_elems) {
      const size_t n = std::min(spec.frame_elems, elements.size() - i);
      const ElementSequence batch(
          elements.begin() + static_cast<ptrdiff_t>(i),
          elements.begin() + static_cast<ptrdiff_t>(i + n));
      FrameGroup group;
      group.begin = pub.bytes.size();
      pub.bytes += lmerge::net::EncodeElementsDictFrame(batch, &dict,
                                                        /*origin_us=*/1);
      group.end = pub.bytes.size();
      group.elems = n;
      for (const StreamElement& e : batch) {
        if (!e.is_stable()) progress = std::max(progress, e.vs());
      }
      keyed.push_back({progress + shift, Step{p, pub.groups.size()}});
      pub.groups.push_back(group);
    }
    in.total_elems += static_cast<int64_t>(elements.size());
  }

  // Global order: by progress; ties go to the lower publisher, then the
  // earlier group.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.key != b.key) return a.key < b.key;
                     return a.step.pub < b.step.pub;
                   });
  in.order.reserve(keyed.size());
  for (const Keyed& k : keyed) in.order.push_back(k.step);

  // What each step carries first, in send order.
  in.first_events.resize(in.order.size());
  in.raised_stable.assign(in.order.size(), lmerge::kMinTimestamp);
  std::unordered_set<Timestamp> seen;
  seen.reserve(static_cast<size_t>(events) * 2);
  Timestamp max_stable = lmerge::kMinTimestamp;
  for (size_t s = 0; s < in.order.size(); ++s) {
    const Step& step = in.order[s];
    const ElementSequence& elements = streams[static_cast<size_t>(step.pub)];
    const size_t first = step.group * spec.frame_elems;
    const size_t n = in.pubs[static_cast<size_t>(step.pub)].groups[step.group].elems;
    for (size_t i = first; i < first + n; ++i) {
      const StreamElement& e = elements[i];
      if (e.is_stable()) {
        if (e.stable_time() > max_stable) {
          max_stable = e.stable_time();
          in.raised_stable[s] = max_stable;
        }
      } else if (e.is_insert() && seen.insert(e.vs()).second) {
        in.first_events[s].push_back(e.vs());
      }
    }
  }
  return in;
}

void StampGroup(PublisherStream* pub, const FrameGroup& group,
                int64_t origin_us) {
  // The v5 ELEMENTS_DICT payload ends with the little-endian i64 stamp;
  // frames carry no checksum, so the bytes can be rewritten in place.
  static_assert(sizeof(origin_us) == 8);
  std::memcpy(pub->bytes.data() + group.end - 8, &origin_us, 8);
}

}  // namespace e2ebench
