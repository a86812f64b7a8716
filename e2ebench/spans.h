// Spans the harness records around its calls into each layer, kept in
// memory and written out as Chrome-trace JSON (chrome://tracing, Perfetto)
// when the run ends.  Recording is off in untraced rounds, so an untraced
// round pays one branch per call site.

#ifndef LMERGE_E2EBENCH_SPANS_H_
#define LMERGE_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  // Spans beyond this many are counted but not kept, bounding memory and
  // the trace file on long runs.
  static constexpr size_t kMaxSpans = 400000;

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // `name` must be a string literal.  `tid` separates the harness thread
  // (1) from the standby's own thread (2) in the viewer.
  void Add(const char* name, int64_t begin_ns, int64_t end_ns, int tid = 1) {
    if (!enabled_) return;
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, begin_ns, end_ns, tid});
  }

  // Writes every kept span as a complete ("X") event; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const { return spans_.size(); }
  int64_t dropped() const { return dropped_; }

 private:
  struct Span {
    const char* name;
    int64_t begin_ns;
    int64_t end_ns;
    int tid;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  int64_t dropped_ = 0;
};

}  // namespace e2ebench

#endif  // LMERGE_E2EBENCH_SPANS_H_
