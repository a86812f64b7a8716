// A dynamically typed relational value: the atom of event payloads.
//
// The paper models a payload as a relational tuple p.  Value is one field of
// such a tuple; Row (row.h) is the tuple itself.
//
// A Value is 16 bytes: a type tag, a u32 string length and an 8-byte union
// (bool, int64, double or string pointer).  A stand-alone Value owns its
// string bytes on the heap.  The fields of an interned payload live inside
// the payload's single allocation (common/payload_store.h) and point at
// string bytes in that same block: such a borrowed Value frees nothing, and
// copying it — like copying any Value — yields an owning Value.

#ifndef LMERGE_COMMON_VALUE_H_
#define LMERGE_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/hash.h"

namespace lmerge {

enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

// Returns a human-readable name for `type` ("int64", "string", ...).
const char* ValueTypeName(ValueType type);

// A single typed field value.  Values are totally ordered (first by type tag,
// then by content) so that payload tuples can key ordered indexes such as the
// in2t/in3t top tier.
class Value {
 public:
  Value() { u_.i = 0; }
  explicit Value(bool v) : type_(ValueType::kBool) { u_.b = v; }
  explicit Value(int64_t v) : type_(ValueType::kInt64) { u_.i = v; }
  explicit Value(double v) : type_(ValueType::kDouble) { u_.d = v; }
  // Copies the bytes of `v` into a heap block this Value owns.  LM_CHECK-
  // fails on a string longer than UINT32_MAX bytes.
  explicit Value(std::string_view v);
  explicit Value(const std::string& v) : Value(std::string_view(v)) {}
  explicit Value(const char* v) : Value(std::string_view(v)) {}

  Value(const Value& other);
  // A moved-from Value is null: the string block, if any, moved here.
  Value(Value&& other) noexcept : type_(other.type_), owned_(other.owned_),
                                  size_(other.size_), u_(other.u_) {
    other.type_ = ValueType::kNull;
    other.owned_ = false;
    other.size_ = 0;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() { FreeString(); }

  static Value Null() { return Value(); }

  ValueType type() const { return type_; }
  bool is_null() const { return type() == ValueType::kNull; }

  // Typed accessors; LM_CHECK-fail on type mismatch.  The view returned by
  // AsString() lives as long as this Value (or the row holding it).
  bool AsBool() const;
  int64_t AsInt64() const;
  double AsDouble() const;
  std::string_view AsString() const;

  // Total order: type tag first, then content.
  int Compare(const Value& other) const;

  uint64_t Hash() const;

  // Bytes attributable to this value for operator state accounting
  // (sizeof(Value) plus the owned string bytes).
  int64_t DeepSizeBytes() const;

  std::string ToString() const;

  friend bool operator==(const Value& a, const Value& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return a.Compare(b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return a.Compare(b) < 0;
  }

 private:
  // Only the payload store (which places string bytes in a rep's block),
  // the decoder and Row's factories (which hand fields to Intern without a
  // copy) make borrowed Values; none lets one outlive the bytes it points
  // at.
  friend class PayloadStore;
  friend class Decoder;
  friend class Row;

  // A string Value that points at `bytes` without owning them.
  static Value Borrowed(std::string_view bytes);

  std::string_view StringView() const { return {u_.s, size_}; }
  void FreeString() {
    if (owned_) delete[] u_.s;
  }

  ValueType type_ = ValueType::kNull;
  // True when u_.s is a heap block this Value must free.
  bool owned_ = false;
  uint32_t size_ = 0;  // string length in bytes; 0 for other types
  union {
    bool b;
    int64_t i;
    double d;
    const char* s;
  } u_;
};

static_assert(sizeof(Value) == 16, "Value is a tag, a length and 8 bytes");

}  // namespace lmerge

#endif  // LMERGE_COMMON_VALUE_H_
