#include "common/value.h"

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/row.h"

namespace lmerge {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_EQ(Value(true).AsBool(), true);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hello").AsString(), "hello");
}

TEST(ValueTest, CompareWithinType) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value(int64_t{3}), Value(int64_t{3}));
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value(1.0), Value(1.5));
  EXPECT_LT(Value(false), Value(true));
}

TEST(ValueTest, CompareAcrossTypesUsesTypeTag) {
  // null < bool < int64 < double < string by tag.
  EXPECT_LT(Value::Null(), Value(true));
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{99}), Value(0.0));
  EXPECT_LT(Value(1e300), Value(""));
}

TEST(ValueTest, EqualValuesHashEqually) {
  EXPECT_EQ(Value(int64_t{7}).Hash(), Value(int64_t{7}).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_EQ(Value(0.0).Hash(), Value(-0.0).Hash());  // -0.0 == 0.0
}

TEST(ValueTest, DistinctValuesUsuallyHashDifferently) {
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(int64_t{2}).Hash());
  EXPECT_NE(Value("a").Hash(), Value("b").Hash());
  // Same content, different type: must not collide by construction.
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(true).Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(int64_t{5}).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value(true).ToString(), "true");
}

TEST(ValueTest, DeepSizeCountsStringHeap) {
  const Value small("ab");  // fits SSO
  const Value large(std::string(1000, 'x'));
  EXPECT_GE(large.DeepSizeBytes(),
            small.DeepSizeBytes() + 900);  // heap blob counted
}

TEST(ValueTest, IsSixteenBytes) { EXPECT_EQ(sizeof(Value), 16u); }

TEST(ValueTest, EmptyStringAndNull) {
  const Value empty("");
  EXPECT_EQ(empty.type(), ValueType::kString);
  EXPECT_EQ(empty.AsString(), "");
  EXPECT_EQ(empty.DeepSizeBytes(), static_cast<int64_t>(sizeof(Value)));
  const Value copy = empty;
  EXPECT_EQ(copy, empty);
  EXPECT_NE(empty, Value());
  EXPECT_LT(Value(), empty);  // null sorts before every string
  EXPECT_EQ(Value().Compare(Value::Null()), 0);
}

TEST(ValueTest, CopyMoveAndSelfAssignOwnedStrings) {
  const std::string text(64, 'o');
  Value a(text);
  Value b = a;  // deep copy: independent bytes
  EXPECT_EQ(b.AsString(), text);
  EXPECT_NE(b.AsString().data(), a.AsString().data());
  Value c = std::move(a);  // steals the block
  EXPECT_EQ(c.AsString(), text);
  EXPECT_TRUE(a.is_null());  // NOLINT(bugprone-use-after-move)
  a = Value(int64_t{3});  // a moved-from Value can be reassigned
  EXPECT_EQ(a.AsInt64(), 3);
  Value& alias = c;
  c = alias;  // self copy-assignment keeps the content
  EXPECT_EQ(c.AsString(), text);
  c = std::move(alias);  // self move-assignment too
  EXPECT_EQ(c.AsString(), text);
  b = c;  // copy-assign over an owned string frees the old block
  EXPECT_EQ(b.AsString(), text);
  b = Value(1.5);
  EXPECT_DOUBLE_EQ(b.AsDouble(), 1.5);
}

TEST(ValueTest, FieldCopiedOutOfARowOutlivesTheRow) {
  const std::string text(48, 'r');
  Value copied;
  Value moved;
  {
    // A private rep dies with its last handle (an interned one might be
    // kept alive by an equal row elsewhere).
    const Row row = Row::OfIntAndString(9, text).DeepCopy();
    const Value& borrowed = row.field(1);
    copied = borrowed;
    Value tmp(borrowed);
    moved = std::move(tmp);
    EXPECT_NE(copied.AsString().data(), borrowed.AsString().data());
    EXPECT_EQ(copied.DeepSizeBytes(),
              static_cast<int64_t>(sizeof(Value) + text.size()));
  }
  // The row's block is gone; the copies own their bytes (ASan checks).
  EXPECT_EQ(copied.AsString(), text);
  EXPECT_EQ(moved.AsString(), text);
  Value self = copied;
  Value& alias = self;
  self = alias;
  EXPECT_EQ(self.AsString(), text);
}

// Hash and Compare feed tree order, shard choice and every output; these
// are the values of the 40-byte std::variant Value this layout replaced.
TEST(ValueTest, HashAndComparePinnedAcrossLayouts) {
  EXPECT_EQ(Value().Hash(), 0x0000000000000000ULL);
  EXPECT_EQ(Value(true).Hash(), 0xf634b442398af0a7ULL);
  EXPECT_EQ(Value(int64_t{-42}).Hash(), 0x94aaa114b6fbe01cULL);
  EXPECT_EQ(Value(2.5).Hash(), 0x1585a680c14d4068ULL);
  EXPECT_EQ(Value("hello").Hash(), 0x609da6f18e652255ULL);
  EXPECT_EQ(Value("").Hash(), 0x56d15b407e921becULL);
  EXPECT_EQ(Value(-0.0).Hash(), 0x316cd9d710d679a7ULL);
  EXPECT_EQ(Row::OfIntAndString(7, std::string(48, 'p')).hash(),
            0x5a0acd001763a837ULL);
  EXPECT_EQ(Value("abc").Compare(Value("abd")), -1);
  EXPECT_EQ(Value("b").Compare(Value("ab")), 1);
  EXPECT_EQ(Value("ab").Compare(Value("abc")), -1);
  // Bytes compare unsigned, as std::string::compare does.
  EXPECT_EQ(Value("\xff").Compare(Value("a")), 1);
  EXPECT_EQ(Value(false).Compare(Value(true)), -1);
  EXPECT_EQ(Value(int64_t{-1}).Compare(Value(int64_t{1})), -1);
  EXPECT_EQ(Value(2.5).Compare(Value(2.5)), 0);
}

TEST(ValueTest, TypeNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
}

}  // namespace
}  // namespace lmerge
