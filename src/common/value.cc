#include "common/value.h"

#include <cstring>
#include <limits>

#include "common/check.h"

namespace lmerge {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return "bool";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

// A heap copy of `bytes`, or null for the empty string.
const char* CopyBytes(std::string_view bytes) {
  if (bytes.empty()) return nullptr;
  char* block = new char[bytes.size()];
  std::memcpy(block, bytes.data(), bytes.size());
  return block;
}

}  // namespace

Value::Value(std::string_view v) : type_(ValueType::kString) {
  LM_CHECK(v.size() <= std::numeric_limits<uint32_t>::max());
  size_ = static_cast<uint32_t>(v.size());
  u_.s = CopyBytes(v);
  owned_ = u_.s != nullptr;
}

Value Value::Borrowed(std::string_view bytes) {
  LM_CHECK(bytes.size() <= std::numeric_limits<uint32_t>::max());
  Value value;
  value.type_ = ValueType::kString;
  value.size_ = static_cast<uint32_t>(bytes.size());
  value.u_.s = bytes.data();
  return value;
}

Value::Value(const Value& other)
    : type_(other.type_), size_(other.size_), u_(other.u_) {
  if (type_ == ValueType::kString) {
    u_.s = CopyBytes(other.StringView());
    owned_ = u_.s != nullptr;
  }
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    FreeString();
    type_ = other.type_;
    owned_ = other.owned_;
    size_ = other.size_;
    u_ = other.u_;
    other.type_ = ValueType::kNull;
    other.owned_ = false;
    other.size_ = 0;
  }
  return *this;
}

bool Value::AsBool() const {
  LM_CHECK(type() == ValueType::kBool);
  return u_.b;
}

int64_t Value::AsInt64() const {
  LM_CHECK(type() == ValueType::kInt64);
  return u_.i;
}

double Value::AsDouble() const {
  LM_CHECK(type() == ValueType::kDouble);
  return u_.d;
}

std::string_view Value::AsString() const {
  LM_CHECK(type() == ValueType::kString);
  return StringView();
}

int Value::Compare(const Value& other) const {
  if (type() != other.type()) {
    return static_cast<int>(type()) < static_cast<int>(other.type()) ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool: {
      const bool a = u_.b;
      const bool b = other.u_.b;
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kInt64: {
      const int64_t a = u_.i;
      const int64_t b = other.u_.i;
      return a == b ? 0 : (a < b ? -1 : 1);
    }
    case ValueType::kDouble: {
      const double a = u_.d;
      const double b = other.u_.d;
      if (a == b) return 0;
      return a < b ? -1 : 1;
    }
    case ValueType::kString: {
      const int c = StringView().compare(other.StringView());
      return c == 0 ? 0 : (c < 0 ? -1 : 1);
    }
  }
  return 0;
}

uint64_t Value::Hash() const {
  const uint64_t tag = static_cast<uint64_t>(type());
  switch (type()) {
    case ValueType::kNull:
      return Mix64(tag);
    case ValueType::kBool:
      return HashCombine(tag, u_.b ? 1 : 0);
    case ValueType::kInt64:
      return HashCombine(tag, static_cast<uint64_t>(u_.i));
    case ValueType::kDouble: {
      const double d = u_.d;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      // Normalize -0.0 to +0.0 so equal values hash equally.
      if (d == 0.0) bits = 0;
      return HashCombine(tag, bits);
    }
    case ValueType::kString:
      return HashCombine(tag, HashString(StringView()));
  }
  return 0;
}

int64_t Value::DeepSizeBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  if (owned_) bytes += static_cast<int64_t>(size_);
  return bytes;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kBool:
      return u_.b ? "true" : "false";
    case ValueType::kInt64:
      return std::to_string(u_.i);
    case ValueType::kDouble:
      return std::to_string(u_.d);
    case ValueType::kString: {
      std::string quoted;
      quoted.reserve(size_ + 2);
      quoted += '"';
      quoted += StringView();
      quoted += '"';
      return quoted;
    }
  }
  return "?";
}

}  // namespace lmerge
