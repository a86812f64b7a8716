// End-to-end latency plumbing: the ingest stamp a batch of elements carries
// from the wire to the fan-out, and the per-stage histograms it feeds
// (docs/OBSERVABILITY.md "Latency pipeline").
//
// An IngestStamp names two points on the monotonic clock:
//   origin_us  when the *publisher* serialized the batch (every batch frame
//              carries it; 0 = unknown).  Publisher and server clocks are
//              only comparable
//              on the same host — cross-machine, origin-relative latencies
//              include the clock offset and should be read as trends.
//   rx_us      when the server's IO thread read the bytes off the socket;
//              always stamped.
//
// The stamp is deliberately NOT a StreamElement field: elements are the hot
// currency of the whole engine and widening them taxes every ring, index,
// and checkpoint.  Instead the stamp rides *beside* batches (per-input stamp
// rings in engine/concurrent.cc) and is republished per merge batch through
// a thread-local, which the fan-out sink reads synchronously on the same
// thread.  Losing a stamp under overload drops a latency *sample*, never an
// element.
//
// Stamps always flow (two int64 copies per batch) even when metrics are
// disabled: `lmerge_subscribe --latency` measures publish→delivery from the
// wire stamp alone, with the registry off.

#ifndef LMERGE_OBS_LATENCY_H_
#define LMERGE_OBS_LATENCY_H_

#include <chrono>
#include <cstdint>

namespace lmerge {
namespace obs {

struct IngestStamp {
  int64_t origin_us = 0;  // publisher steady clock at send; 0 = unknown
  int64_t rx_us = 0;      // server steady clock at socket read; 0 = unknown

  bool empty() const { return origin_us == 0 && rx_us == 0; }

  friend bool operator==(const IngestStamp&, const IngestStamp&) = default;

  // Componentwise fold toward the *oldest* known stamp: an output batch
  // that coalesces several ingest batches is charged the age of its
  // earliest-ingested element, so latency percentiles report the worst
  // element in the batch, not the luckiest.  0 (unknown) never wins.
  void FoldOldest(const IngestStamp& other) {
    if (other.origin_us != 0 &&
        (origin_us == 0 || other.origin_us < origin_us)) {
      origin_us = other.origin_us;
    }
    if (other.rx_us != 0 && (rx_us == 0 || other.rx_us < rx_us)) {
      rx_us = other.rx_us;
    }
  }
};

// Microseconds on the steady clock, the time base of every stamp.
inline int64_t MonotonicMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The stamp of the batch the calling thread is currently processing.  The
// merger sets it (always — to the empty stamp when unknown, so a previous
// batch's stamp can never leak) immediately before running the algorithm;
// any sink invoked synchronously downstream on the same thread may read it.
void SetCurrentIngestStamp(const IngestStamp& stamp);
const IngestStamp& CurrentIngestStamp();

}  // namespace obs
}  // namespace lmerge

#endif  // LMERGE_OBS_LATENCY_H_
