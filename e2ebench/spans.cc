#include "spans.h"

#include <cstdio>

namespace e2ebench {

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", s.name, s.tid,
                 static_cast<double>(s.begin_ns - origin) / 1000.0,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1000.0);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
