// Workload definitions and input preparation for the end-to-end benchmark.
//
// A workload is a traffic mix for one MergeServer: three publishers sending
// physical presentations of one generated logical history, and one v5
// subscriber.  Everything the server sees is made here, from the workload
// seed alone: the history, each publisher's element stream, its v5
// dictionary-coded frames, and the global order in which the harness hands
// the frames to MergeServer::OnBytes.

#ifndef LMERGE_E2EBENCH_WORKLOAD_H_
#define LMERGE_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/timestamp.h"
#include "properties/properties.h"
#include "stream/element.h"
#include "workload/generator.h"

namespace e2ebench {

inline constexpr int kPublishers = 3;

struct WorkloadSpec {
  std::string name;
  // Events in the logical history the open- and closed-loop phases send,
  // and in the smaller history each failover cycle sends.
  int64_t events = 0;
  int64_t failover_events = 0;
  int64_t payload_bytes = 0;
  double stable_freq = 0;
  lmerge::Timestamp event_duration = 0;
  lmerge::Timestamp max_gap = 0;
  // True: every publisher sends the history in order, insert-only.  False:
  // each sends its own divergent presentation (20% disorder, split events).
  bool in_order = false;
  // Elements per ELEMENTS_DICT frame.
  size_t frame_elems = 1;
  // Application time by which the last publisher trails the other two.
  lmerge::Timestamp lag_span = 0;
  // Shares of the global frame order sent as warm-up and open loop; the
  // rest is the closed loop.
  double warmup_share = 0;
  double open_share = 0;
  // Open-loop offered rate, frames per second over all publishers.
  double offered_frames_per_s = 0;
  // Closed loop: 0 hands each frame (with its PAYLOAD_DEFs) to OnBytes on
  // its own; otherwise publisher bytes go in chunks of this size, cut
  // wherever the chunk ends, as a socket read would cut them.
  size_t closed_chunk_bytes = 0;
  // Failover cycles per round; cycle c takes its checkpoint after
  // (c + 1) / (cycles + 1) of the failover frames.
  int failover_cycles = 0;
};

// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// One frame group of a publisher: zero or more PAYLOAD_DEF frames followed
// by one stamped ELEMENTS_DICT frame, at bytes [begin, end) of the
// publisher's encoded stream.  The origin stamp is the group's last 8 bytes.
struct FrameGroup {
  size_t begin = 0;
  size_t end = 0;
  size_t elems = 0;
};

struct PublisherStream {
  std::string bytes;  // every frame group, back to back
  std::vector<FrameGroup> groups;
};

// One frame group in the global send order.
struct Step {
  int pub = 0;
  size_t group = 0;
};

// The harness holds no payload Row of its own while a server runs: Rows
// are interned process-wide (common/payload_store.h), so a Row the harness
// kept would turn the server's first intern of that payload into a hit.
// Inputs therefore keep only encoded bytes and the Vs/stable facts the
// latency measures need; the history is regenerated for the output check.
struct Inputs {
  // What each publisher declares in its HELLO.
  lmerge::StreamProperties properties;
  std::vector<PublisherStream> pubs;
  // Every frame group of every publisher, ordered by application-time
  // progress (the laggard's shifted by lag_span).
  std::vector<Step> order;
  // Per step of `order`: the Vs of each event this step carries first (its
  // first insert in send order), and the stable point it announces if it
  // raises the highest one announced so far (else kMinTimestamp).
  std::vector<std::vector<lmerge::Timestamp>> first_events;
  std::vector<lmerge::Timestamp> raised_stable;
  int64_t events = 0;
  int64_t total_elems = 0;
};

// The closed logical history of `events` events: the generated history
// plus a final stable past every event's end, so every event freezes and
// every output must reconstitute to the whole history.
lmerge::workload::LogicalHistory MakeHistory(const WorkloadSpec& spec,
                                             uint64_t seed, int64_t events);

// Builds the inputs for `spec` with a history of `events` events.
// Deterministic in (spec, seed, events).
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, int64_t events);

// Writes `origin_us` into the stamp of `group` (publisher bytes are sent
// with the stamp of the moment they go out, as PublisherClient does).
void StampGroup(PublisherStream* pub, const FrameGroup& group,
                int64_t origin_us);

}  // namespace e2ebench

#endif  // LMERGE_E2EBENCH_WORKLOAD_H_
