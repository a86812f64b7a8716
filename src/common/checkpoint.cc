#include "common/checkpoint.h"

#include <utility>

#include "common/check.h"

namespace lmerge {

namespace {

// Reads and validates the magic + version prefix.
Status ReadHeader(Decoder* decoder, uint32_t* version) {
  uint32_t magic = 0;
  Status status = decoder->ReadU32(&magic);
  if (!status.ok()) return status;
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a checkpoint (bad magic)");
  }
  status = decoder->ReadU32(version);
  if (!status.ok()) return status;
  if (*version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(*version));
  }
  return Status::Ok();
}

// Reads the sections following the header.  Any output may be null when
// the caller does not need it.
Status ReadSections(Decoder* decoder, uint8_t* flags_out,
                      std::string* cut_certificate, std::string* pool_section,
                      std::string* body) {
  uint8_t flags = 0;
  Status status = decoder->ReadU8(&flags);
  if (!status.ok()) return status;
  if ((flags & ~kCheckpointFlagCutCertificate) != 0) {
    return Status::InvalidArgument("unknown checkpoint flags " +
                                   std::to_string(flags));
  }
  if (flags_out != nullptr) *flags_out = flags;
  std::string cut;
  if ((flags & kCheckpointFlagCutCertificate) != 0) {
    if (!(status = decoder->ReadVarString(&cut)).ok()) return status;
  }
  if (cut_certificate != nullptr) *cut_certificate = std::move(cut);
  std::string pool;
  if (!(status = decoder->ReadVarString(&pool)).ok()) return status;
  if (pool_section != nullptr) *pool_section = std::move(pool);
  std::string state;
  if (!(status = decoder->ReadVarString(&state)).ok()) return status;
  if (body != nullptr) *body = std::move(state);
  if (!decoder->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  return Status::Ok();
}

// Resolves every dictionary reference to the empty row, counting them:
// how inspection tells references from rows without the dictionary.
struct RefCounter final : PayloadIdResolver {
  Status Resolve(uint32_t /*id*/, Row* payload) const override {
    *payload = Row();
    ++count;
    return Status::Ok();
  }
  mutable uint32_t count = 0;
};

}  // namespace

std::string SaveCheckpoint(const Checkpointable& target,
                           const std::string& cut_certificate,
                           const PayloadIdLookup* dict,
                           CheckpointPoolCounts* pool_counts) {
  // Two-phase encode: the body first (interning payloads into the pool as
  // WriteRowRef encounters them), then the assembled blob with the pool
  // section ahead of the body so restore can resolve references in one pass.
  RowPoolEncoder pool;
  Encoder body;
  body.set_row_pool(&pool);
  target.SaveState(&body);
  Encoder pool_section;
  const int64_t refs = pool.EncodeTo(&pool_section, dict);
  if (pool_counts != nullptr) {
    pool_counts->refs = refs;
    pool_counts->rows = pool.entries() - refs;
  }

  Encoder out;
  out.Reserve(body.bytes().size() + pool_section.bytes().size() +
              cut_certificate.size() + 40);
  out.WriteU32(kCheckpointMagic);
  out.WriteU32(kCheckpointVersion);
  const uint8_t flags =
      cut_certificate.empty() ? 0 : kCheckpointFlagCutCertificate;
  out.WriteU8(flags);
  if (!cut_certificate.empty()) out.WriteVarString(cut_certificate);
  out.WriteVarString(pool_section.bytes());
  out.WriteVarString(body.bytes());
  return out.TakeBytes();
}

Status LoadCheckpoint(const std::string& bytes, Checkpointable* target,
                      std::string* cut_certificate,
                      const PayloadIdResolver* dict) {
  if (cut_certificate != nullptr) cut_certificate->clear();
  Decoder decoder(bytes);
  uint32_t version = 0;
  Status status = ReadHeader(&decoder, &version);
  if (!status.ok()) return status;

  std::string pool_section;
  std::string body;
  status = ReadSections(&decoder, nullptr, cut_certificate, &pool_section,
                        &body);
  if (!status.ok()) return status;

  RowPoolDecoder pool;
  {
    Decoder pool_decoder(pool_section);
    status = pool.DecodeFrom(&pool_decoder, dict);
    if (!status.ok()) return status;
    if (!pool_decoder.AtEnd()) {
      return Status::InvalidArgument("trailing bytes after row pool");
    }
  }
  Decoder body_decoder(body);
  body_decoder.set_row_pool(&pool);
  status = target->RestoreState(&body_decoder);
  if (!status.ok()) return status;
  if (!body_decoder.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  return Status::Ok();
}

Status InspectCheckpoint(const std::string& bytes, CheckpointInfo* info) {
  *info = CheckpointInfo();
  info->total_bytes = bytes.size();
  Decoder decoder(bytes);
  Status status = ReadHeader(&decoder, &info->version);
  if (!status.ok()) return status;

  std::string cut;
  std::string pool_section;
  std::string body;
  status = ReadSections(&decoder, &info->flags, &cut, &pool_section, &body);
  if (!status.ok()) return status;
  info->cut_certificate_bytes = cut.size();
  info->cut_certificate = std::move(cut);
  info->pool_bytes = pool_section.size();
  info->body_bytes = body.size();

  // Parse the pool with references counted instead of resolved.
  RefCounter refs;
  RowPoolDecoder pool;
  Decoder pool_decoder(pool_section);
  status = pool.DecodeFrom(&pool_decoder, &refs);
  if (!status.ok()) return status;
  if (!pool_decoder.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after row pool");
  }
  info->pool_entries = static_cast<uint32_t>(pool.entries());
  info->pool_refs = refs.count;
  info->pool_rows = info->pool_entries - refs.count;
  return Status::Ok();
}

std::string CombinePartitionedCheckpoint(std::vector<std::string> shard_blobs) {
  LM_CHECK(!shard_blobs.empty());
  if (shard_blobs.size() == 1) return std::move(shard_blobs[0]);
  size_t total = 16;
  for (const std::string& blob : shard_blobs) total += blob.size() + 8;
  Encoder out;
  out.Reserve(total);
  out.WriteU32(kPartitionedCheckpointMagic);
  out.WriteU32(kPartitionedCheckpointVersion);
  out.WriteU32(static_cast<uint32_t>(shard_blobs.size()));
  for (const std::string& blob : shard_blobs) out.WriteString(blob);
  return out.TakeBytes();
}

Status SplitPartitionedCheckpoint(const std::string& bytes,
                                  std::vector<std::string>* shard_blobs) {
  shard_blobs->clear();
  Decoder decoder(bytes);
  uint32_t magic = 0;
  if (!decoder.ReadU32(&magic).ok() || magic != kPartitionedCheckpointMagic) {
    shard_blobs->push_back(bytes);
    return Status::Ok();
  }
  Status status;
  uint32_t version = 0;
  if (!(status = decoder.ReadU32(&version)).ok()) return status;
  if (version != kPartitionedCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported partitioned checkpoint version " +
        std::to_string(version));
  }
  uint32_t shard_count = 0;
  if (!(status = decoder.ReadU32(&shard_count)).ok()) return status;
  if (shard_count == 0 || shard_count > decoder.remaining() + 1) {
    return Status::InvalidArgument("partitioned shard count invalid");
  }
  shard_blobs->reserve(shard_count);
  for (uint32_t i = 0; i < shard_count; ++i) {
    std::string blob;
    if (!(status = decoder.ReadString(&blob)).ok()) return status;
    shard_blobs->push_back(std::move(blob));
  }
  if (!decoder.AtEnd()) {
    return Status::InvalidArgument(
        "trailing bytes after partitioned checkpoint");
  }
  return Status::Ok();
}

}  // namespace lmerge
