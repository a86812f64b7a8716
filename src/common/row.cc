#include "common/row.h"

#include <vector>

#include "common/check.h"
#include "common/hash.h"

namespace lmerge {

uint64_t Row::HashFields(std::span<const Value> fields) {
  uint64_t h = kEmptyHash;
  for (const Value& v : fields) h = HashCombine(h, v.Hash());
  return h;
}

Row::Row(std::span<const Value> fields) {
  if (fields.empty()) return;  // empty row = null handle
  rep_ = PayloadStore::Global().Intern(fields, HashFields(fields));
}

Row Row::WithField(int64_t i, Value value) const {
  LM_CHECK(i >= 0 && i < field_count());
  std::vector<Value> fields(this->fields().begin(), this->fields().end());
  fields[static_cast<size_t>(i)] = std::move(value);
  return Row(fields);
}

Row Row::DeepCopy() const {
  if (rep_ == nullptr) return Row();
  return Row(PayloadStore::MakePrivate(rep_->fields(), rep_->hash));
}

int Row::CompareSlow(const Row& other) const {
  const std::span<const Value> a = fields();
  const std::span<const Value> b = other.fields();
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

std::string Row::ToString() const {
  std::string out = "(";
  const std::span<const Value> fs = fields();
  for (size_t i = 0; i < fs.size(); ++i) {
    if (i > 0) out += ", ";
    out += fs[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace lmerge
