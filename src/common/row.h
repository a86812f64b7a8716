// Row: an event payload — a relational tuple of Values.
//
// A Row is a pointer-sized handle onto an immutable, ref-counted payload
// representation interned in the process-wide PayloadStore: one flat block
// holding a 32-byte header, the 16-byte field Values and their string bytes.
// Copying a Row copies a pointer and bumps an atomic count — never the
// fields — so the same allocation flows from wire decode through the SPSC
// rings, the in2t/in3t indexes, and subscriber fan-out.  fields() is a view
// into the block; copy a Value out of it to keep it past the row.  Two
// interned rows with equal content share one rep, which gives
// Compare/operator== an O(1) compare-by-identity fast path (falling back to
// deep field comparison for private copies or cross-store handles).
//
// The LMerge algorithms key their indexes on (Vs, payload), so cheap
// comparison and hashing of Rows is on the hot path; the hash is computed
// once at intern time and cached in the rep.

#ifndef LMERGE_COMMON_ROW_H_
#define LMERGE_COMMON_ROW_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>

#include "common/payload_store.h"
#include "common/value.h"

namespace lmerge {

class Row {
 public:
  // The empty row is the null handle: no allocation, no refcount traffic
  // (important — default-constructed payloads travel inside every stable()
  // element, and a shared empty rep would be a contended cache line).
  Row() = default;
  // Interns a copy of `fields`.
  explicit Row(std::span<const Value> fields);
  Row(std::initializer_list<Value> fields)
      : Row(std::span<const Value>(fields.begin(), fields.size())) {}

  Row(const Row& other) : rep_(other.rep_) { PayloadStore::AddRef(rep_); }
  Row(Row&& other) noexcept : rep_(std::exchange(other.rep_, nullptr)) {}
  Row& operator=(const Row& other) {
    if (rep_ != other.rep_) {
      PayloadStore::AddRef(other.rep_);
      PayloadStore::Release(rep_);
      rep_ = other.rep_;
    }
    return *this;
  }
  Row& operator=(Row&& other) noexcept {
    if (this != &other) {
      PayloadStore::Release(rep_);
      rep_ = std::exchange(other.rep_, nullptr);
    }
    return *this;
  }
  ~Row() { PayloadStore::Release(rep_); }

  // Convenience factories for common payload shapes.  String arguments are
  // interned straight from the caller's bytes, with no temporary copy.
  static Row OfInt(int64_t v) { return Row({Value(v)}); }
  static Row OfString(std::string_view v) {
    return Row({Value::Borrowed(v)});
  }
  // The paper's generated payloads: an integer in [0,400] plus a string blob.
  static Row OfIntAndString(int64_t v, std::string_view s) {
    return Row({Value(v), Value::Borrowed(s)});
  }

  int64_t field_count() const {
    return rep_ == nullptr ? 0 : static_cast<int64_t>(rep_->field_count);
  }
  // Borrowed views into the rep, valid while this row (or any handle on the
  // same rep) lives.
  const Value& field(int64_t i) const {
    return fields()[static_cast<size_t>(i)];
  }
  std::span<const Value> fields() const {
    return rep_ == nullptr ? std::span<const Value>() : rep_->fields();
  }

  // Returns a new row with `value` replacing field `i`.
  Row WithField(int64_t i, Value value) const;

  uint64_t hash() const { return rep_ == nullptr ? kEmptyHash : rep_->hash; }

  // The shared rep this handle points at.  Two handles with the same
  // identity are equal; accounting code uses identity to charge a shared
  // payload's bytes once per store entry instead of once per reference.
  const void* identity() const { return rep_; }
  // True when the rep lives in a PayloadStore (equal content is guaranteed
  // to share); false for the empty row and for private deep copies.
  bool interned() const { return rep_ != nullptr && rep_->store != nullptr; }

  // A private, non-interned copy of this row's content: equal by value but
  // sharing no storage with any other handle.  The LMR3- baseline uses
  // this so its per-input indexes really duplicate payloads the way the
  // paper's memory comparison assumes.
  Row DeepCopy() const;

  int Compare(const Row& other) const {
    if (rep_ == other.rep_) return 0;  // identity fast path
    return CompareSlow(other);
  }

  // Bytes attributable to this row when charged in full: the handle plus
  // the shared rep (header, field slots, string bytes).
  int64_t DeepSizeBytes() const {
    return static_cast<int64_t>(sizeof(Row)) + SharedSizeBytes();
  }
  // Bytes of the shared rep alone — what a PayloadStore entry holds once no
  // matter how many handles reference it.
  int64_t SharedSizeBytes() const {
    return rep_ == nullptr ? 0 : rep_->deep_bytes;
  }

  std::string ToString() const;

  friend bool operator==(const Row& a, const Row& b) {
    if (a.rep_ == b.rep_) return true;  // identity fast path
    return a.hash() == b.hash() && a.CompareSlow(b) == 0;
  }
  friend bool operator!=(const Row& a, const Row& b) { return !(a == b); }
  friend bool operator<(const Row& a, const Row& b) {
    return a.Compare(b) < 0;
  }

 private:
  // Hash of the empty field tuple; matches the intern-time hash seed so
  // hashing is consistent across empty and non-empty rows.
  static constexpr uint64_t kEmptyHash = 0x51ed270b9f1c2b5dULL;

  explicit Row(RowRep* adopted) : rep_(adopted) {}

  int CompareSlow(const Row& other) const;

  static uint64_t HashFields(std::span<const Value> fields);

  RowRep* rep_ = nullptr;
};

struct RowHash {
  uint64_t operator()(const Row& row) const { return row.hash(); }
};

}  // namespace lmerge

#endif  // LMERGE_COMMON_ROW_H_
