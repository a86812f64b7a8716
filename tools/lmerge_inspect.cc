// lmerge_inspect — examine a stream file: validate it, summarize its
// logical content, optionally dump elements, payload-interning statistics,
// or compare with another tape.  With --checkpoint, examine a checkpoint
// blob instead: header, section sizes, pool entry counts (dictionary
// references and inline rows), and the embedded cut certificate.
//
//   lmerge_inspect tape.lmst [--dump[=N]] [--payload-stats[=N]]
//                  [--equiv=other.lmst]
//   lmerge_inspect --checkpoint=state.ckpt

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "common/checkpoint.h"
#include "common/payload_store.h"
#include "replica/cut_certificate.h"
#include "stream/validate.h"
#include "temporal/tdb.h"
#include "tools/cli.h"

using namespace lmerge;
using namespace lmerge::tools;

namespace {

int InspectCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  CheckpointInfo info;
  Status status = InspectCheckpoint(bytes, &info);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s: checkpoint v%u (magic LMCG), %zu bytes\n", path.c_str(),
              info.version, info.total_bytes);
  std::printf("  flags: 0x%02x%s\n", info.flags,
              (info.flags & kCheckpointFlagCutCertificate) != 0
                  ? " (cut certificate)"
                  : "");
  std::printf("  sections: cut cert %zu bytes, payload pool %zu bytes "
              "(%u entries: %u references, %u inline), body %zu bytes\n",
              info.cut_certificate_bytes, info.pool_bytes, info.pool_entries,
              info.pool_refs, info.pool_rows, info.body_bytes);
  if (info.cut_certificate.empty()) return 0;

  replica::CutCertificate cert;
  status = replica::ParseCutCertificate(info.cut_certificate, &cert);
  if (!status.ok()) {
    std::fprintf(stderr, "error: bad cut certificate: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("  cut: %s, output stable %s, dedup horizon %lld elements\n",
              MergeVariantName(cert.variant),
              TimestampToString(cert.output_stable).c_str(),
              static_cast<long long>(cert.elements_sent_at_cut));
  for (const replica::CutInputState& input : cert.inputs) {
    std::printf("    input %d: %s, stable to %s, %lld elements in\n",
                input.stream_id, input.active ? "active" : "detached",
                TimestampToString(input.stable_point).c_str(),
                static_cast<long long>(input.elements_in));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("checkpoint")) {
    std::string path = flags.GetString("checkpoint", "");
    // Bare `--checkpoint <file>` parses as the flag's implicit "true" plus a
    // positional; accept both spellings.
    if ((path.empty() || path == "true") && !flags.positional().empty()) {
      path = flags.positional()[0];
    }
    if (path.empty()) {
      std::fprintf(stderr, "usage: lmerge_inspect --checkpoint=<file>\n");
      return 2;
    }
    return InspectCheckpointFile(path);
  }
  if (flags.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: lmerge_inspect <tape.lmst> [--dump[=N]] "
                 "[--payload-stats[=N]] [--equiv=other.lmst] | "
                 "--checkpoint=<file>\n");
    return 2;
  }
  ElementSequence elements;
  Status status = ReadStreamFile(flags.positional()[0], &elements);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  StreamValidator validator;
  int64_t inserts = 0;
  int64_t adjusts = 0;
  int64_t stables = 0;
  for (const StreamElement& e : elements) {
    status = validator.Consume(e);
    if (!status.ok()) {
      std::fprintf(stderr, "INVALID at element %lld: %s\n",
                   static_cast<long long>(validator.element_count()),
                   status.ToString().c_str());
      return 1;
    }
    switch (e.kind()) {
      case ElementKind::kInsert:
        ++inserts;
        break;
      case ElementKind::kAdjust:
        ++adjusts;
        break;
      case ElementKind::kStable:
        ++stables;
        break;
    }
  }
  const Tdb& tdb = validator.tdb();
  std::printf("%s: VALID physical stream\n", flags.positional()[0].c_str());
  std::printf("  %zu elements: %lld inserts, %lld adjusts (%.1f%%), %lld "
              "stables\n",
              elements.size(), static_cast<long long>(inserts),
              static_cast<long long>(adjusts),
              elements.empty()
                  ? 0.0
                  : 100.0 * static_cast<double>(adjusts) /
                        static_cast<double>(elements.size()),
              static_cast<long long>(stables));
  std::printf("  logical TDB: %lld events (%lld distinct), stable to %s, "
              "max Vs %s, (Vs,payload) key: %s\n",
              static_cast<long long>(tdb.EventCount()),
              static_cast<long long>(tdb.DistinctEventCount()),
              TimestampToString(tdb.stable_point()).c_str(),
              TimestampToString(validator.max_vs()).c_str(),
              tdb.VsPayloadIsKey() ? "yes" : "no");

  if (flags.Has("dump")) {
    const int64_t limit = flags.GetInt("dump", 20);
    int64_t shown = 0;
    for (const StreamElement& e : elements) {
      if (shown++ >= limit) break;
      std::printf("  %s\n", e.ToString().c_str());
    }
    if (static_cast<int64_t>(elements.size()) > limit) {
      std::printf("  ... (%zu more)\n",
                  elements.size() - static_cast<size_t>(limit));
    }
  }

  if (flags.Has("payload-stats")) {
    // Decoding the tape interned every payload into the global store, so
    // the tape summary and the store counters describe the same rows.
    std::printf("payload interning:\n");
    const PayloadStatsReport report = ComputePayloadStats(elements);
    PayloadStore& store = PayloadStore::Global();
    std::printf("%s", FormatPayloadStats(report, store.GetStats()).c_str());

    // The most-shared entries, by live reference count.
    struct EntryLine {
      int64_t refs;
      int64_t bytes;
      std::string preview;
    };
    std::vector<EntryLine> entries;
    store.ForEach([&entries](const RowRep& rep, int64_t refs) {
      // Format from the raw fields: constructing a Row here would intern
      // under the shard lock ForEach already holds.
      std::string preview = "(";
      const std::span<const Value> fields = rep.fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) preview += ", ";
        preview += fields[i].ToString();
      }
      preview += ")";
      if (preview.size() > 48) preview = preview.substr(0, 45) + "...";
      entries.push_back({refs, rep.deep_bytes, std::move(preview)});
    });
    std::sort(entries.begin(), entries.end(),
              [](const EntryLine& a, const EntryLine& b) {
                return a.refs > b.refs;
              });
    const int64_t limit = flags.GetInt("payload-stats", 10);
    int64_t shown = 0;
    for (const EntryLine& entry : entries) {
      if (shown++ >= limit) break;
      std::printf("  %6lld refs  %8lld bytes  %s\n",
                  static_cast<long long>(entry.refs),
                  static_cast<long long>(entry.bytes),
                  entry.preview.c_str());
    }
    if (static_cast<int64_t>(entries.size()) > limit) {
      std::printf("  ... (%zu more entries)\n",
                  entries.size() - static_cast<size_t>(limit));
    }
  }

  const std::string other_path = flags.GetString("equiv", "");
  if (!other_path.empty()) {
    ElementSequence other;
    status = ReadStreamFile(other_path, &other);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    const bool equal = tdb.Equals(Tdb::Reconstitute(other));
    std::printf("  logically equivalent to %s: %s\n", other_path.c_str(),
                equal ? "YES" : "NO");
    return equal ? 0 : 3;
  }
  return 0;
}
