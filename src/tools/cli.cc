#include "tools/cli.h"

#include <cstdio>
#include <cstdlib>

#include "common/payload_ledger.h"
#include "stream/element_serde.h"

namespace lmerge::tools {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

int64_t Flags::GetInt(const std::string& key, int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return std::strtod(it->second.c_str(), nullptr);
}

Status WriteStreamFile(const std::string& path,
                       const ElementSequence& elements) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const std::string body = SerializeSequence(elements);
  bool ok = std::fwrite(kStreamFileMagic, 1, sizeof(kStreamFileMagic),
                        file) == sizeof(kStreamFileMagic);
  ok = ok && std::fwrite(body.data(), 1, body.size(), file) == body.size();
  ok = std::fclose(file) == 0 && ok;
  if (!ok) return Status::Internal("short write to " + path);
  return Status::Ok();
}

Status ReadStreamFile(const std::string& path, ElementSequence* elements) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string bytes;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  std::fclose(file);
  if (bytes.size() < sizeof(kStreamFileMagic) ||
      bytes.compare(0, sizeof(kStreamFileMagic), kStreamFileMagic,
                    sizeof(kStreamFileMagic)) != 0) {
    return Status::InvalidArgument("not a stream file: " + path);
  }
  return DeserializeSequence(bytes.substr(sizeof(kStreamFileMagic)),
                             elements);
}

PayloadStatsReport ComputePayloadStats(const ElementSequence& elements) {
  // One SharedPayloadLedger replay over the tape: AddRef charges a rep's
  // shared bytes exactly once, as the payload store does for the registry's
  // payload.bytes_held gauge, so the two agree on the same live payloads.
  PayloadStatsReport report;
  SharedPayloadLedger ledger;
  for (const StreamElement& element : elements) {
    if (element.is_stable()) continue;
    const Row& payload = element.payload();
    if (payload.identity() == nullptr) continue;
    ++report.payload_refs;
    report.deep_bytes += payload.DeepSizeBytes();
    ledger.AddRef(payload);
  }
  report.distinct_payloads = ledger.distinct();
  report.shared_bytes = ledger.bytes();
  return report;
}

std::string FormatPayloadStats(const PayloadStatsReport& report,
                               const PayloadStore::Stats& store) {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "  payloads: %lld references -> %lld distinct "
                "(dedup %.2fx)\n",
                static_cast<long long>(report.payload_refs),
                static_cast<long long>(report.distinct_payloads),
                report.DedupRatio());
  out += line;
  std::snprintf(line, sizeof(line),
                "  bytes: %lld shared vs %lld copied (%lld saved)\n",
                static_cast<long long>(report.shared_bytes),
                static_cast<long long>(report.deep_bytes),
                static_cast<long long>(report.BytesSaved()));
  out += line;
  std::snprintf(line, sizeof(line),
                "  store: %lld entries, %lld live refs, %lld bytes, "
                "%d shards\n",
                static_cast<long long>(store.entries),
                static_cast<long long>(store.live_refs),
                static_cast<long long>(store.payload_bytes),
                store.shard_count);
  out += line;
  std::snprintf(line, sizeof(line),
                "  store lifetime: %lld interns, %lld hits "
                "(dedup %.2fx), %lld bytes saved\n",
                static_cast<long long>(store.intern_calls),
                static_cast<long long>(store.hits), store.DedupRatio(),
                static_cast<long long>(store.bytes_saved));
  out += line;
  return out;
}

}  // namespace lmerge::tools
