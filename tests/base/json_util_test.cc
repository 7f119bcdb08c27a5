// The JSON reader (src/base/json_util.h) is what every tool parses BENCH
// reports, trajectory histories and health snapshots with, so it must read
// back exactly what the writers emit and refuse anything that is not JSON.
#include "src/base/json_util.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "src/base/rng.h"

namespace potemkin {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &value, &error)) << text << ": " << error;
  return value;
}

TEST(JsonReaderTest, ParsesEveryValueType) {
  const JsonValue doc = MustParse(
      " {\"n\": null, \"t\": true, \"f\": false, \"num\": -1.5e3,\n"
      "  \"s\": \"a\\\"b\\\\c\\/\\n\\t\\u0041\\u00e9\", \"arr\": [1, [2], {}],"
      " \"obj\": {\"k\": 0}} ");
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  ASSERT_EQ(doc.members.size(), 7u);
  EXPECT_EQ(doc.members[0].first, "n");  // document order
  EXPECT_EQ(doc.Find("n")->type, JsonValue::Type::kNull);
  EXPECT_TRUE(doc.Find("t")->boolean);
  EXPECT_EQ(doc.Find("f")->type, JsonValue::Type::kBool);
  EXPECT_FALSE(doc.Find("f")->boolean);
  EXPECT_EQ(doc.Find("num")->number, -1500.0);
  EXPECT_EQ(doc.Find("s")->string, "a\"b\\c/\n\tA\xc3\xa9");
  const JsonValue* arr = doc.Find("arr");
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_EQ(arr->items[1].items[0].number, 2.0);
  EXPECT_EQ(arr->items[2].type, JsonValue::Type::kObject);
  EXPECT_EQ(doc.Find("obj")->Find("k")->number, 0.0);
  EXPECT_EQ(doc.Find("missing"), nullptr);
  EXPECT_EQ(arr->Find("k"), nullptr);  // not an object
}

TEST(JsonReaderTest, ReadsBackWhatTheWritersEmit) {
  for (const std::string& text :
       {std::string("plain"), std::string("quote\" back\\slash"),
        std::string("line\nbreak\ttab\x01\x1f"), std::string("caf\xc3\xa9"),
        std::string()}) {
    std::string json;
    AppendJsonString(json, text);
    EXPECT_EQ(MustParse(json).string, text);
  }
  for (const double number :
       {0.0, 533.0, 0.512, 1e15, 12.800000000000001, -3.25, 1e-300,
        7415225.8883178988}) {
    std::string json;
    AppendJsonNumber(json, number);
    EXPECT_EQ(MustParse(json).number, number) << json;
  }
  std::string json;
  AppendJsonNumber(json, std::nan(""));
  EXPECT_EQ(MustParse(json).type, JsonValue::Type::kNull);
}

TEST(JsonReaderTest, RejectsMalformedInput) {
  const std::string deep(100, '[');
  for (const std::string& text :
       {std::string(""), std::string("{"), std::string("{\"a\":1,}"),
        std::string("[1,]"), std::string("[1 2]"), std::string("{\"a\" 1}"),
        std::string("{a:1}"), std::string("{'a':1}"), std::string("01"),
        std::string("1."), std::string("-"), std::string(".5"),
        std::string("1e"), std::string("+1"), std::string("NaN"),
        std::string("\"abc"), std::string("\"a\\x\""),
        std::string("\"\\u12G4\""), std::string("\"raw\ttab\""),
        std::string("tru"), std::string("nul"), std::string("{} x"),
        std::string("[] []"), std::string("{}\0", 3), deep}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &value, &error)) << text;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << text;
  }
}

TEST(JsonReaderTest, ReadJsonFileReportsUnreadablePath) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(
      ReadJsonFile("/nonexistent/json_util_test.json", &value, &error));
  EXPECT_EQ(error, "cannot read file");
}

TEST(FileIoTest, WriteStringToFileRoundTrips) {
  const std::string path =
      std::string(::testing::TempDir()) + "/json_util_test_write.json";
  const std::string text = "{\"a\": [1, 2]}\n";
  ASSERT_TRUE(WriteStringToFile(path, text));
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back));
  EXPECT_EQ(back, text);
  // A second write replaces the file rather than appending to it.
  ASSERT_TRUE(WriteStringToFile(path, "{}"));
  ASSERT_TRUE(ReadFileToString(path, &back));
  EXPECT_EQ(back, "{}");
}

TEST(FileIoTest, WriteStringToFileReportsFailure) {
  EXPECT_FALSE(WriteStringToFile("/nonexistent/json_util_test.json", "{}"));
  // /dev/full accepts the open and fails the flush: the data never lands, so
  // the write must not report success.
  EXPECT_FALSE(WriteStringToFile("/dev/full", std::string(8192, 'x')));
}

TEST(JsonFieldsTest, ReadsTypedMembersAndRecordsTheFirstBadKey) {
  const JsonValue doc = MustParse(
      "{\"s\": \"x\", \"n\": 2.5, \"z\": null, \"b\": true, \"a\": [1, 2]}");
  JsonFields fields(doc);
  EXPECT_EQ(fields.String("s"), "x");
  EXPECT_EQ(fields.Number("n"), 2.5);
  EXPECT_TRUE(std::isnan(fields.NumberOrNull("z")));
  EXPECT_EQ(fields.NumberOrNull("n"), 2.5);
  EXPECT_TRUE(fields.Bool("b"));
  EXPECT_EQ(fields.Array("a").size(), 2u);
  EXPECT_TRUE(fields.ok());

  EXPECT_EQ(fields.Number("s"), 0.0);
  EXPECT_EQ(fields.String("absent"), "");
  EXPECT_TRUE(fields.Array("n").empty());
  EXPECT_FALSE(fields.ok());
  EXPECT_EQ(fields.error(), "\"s\" is not a number");

  JsonFields missing(doc);
  missing.NumberOrNull("absent");
  EXPECT_EQ(missing.error(), "\"absent\" missing");

  JsonFields not_object(MustParse("[1]"));
  EXPECT_FALSE(not_object.ok());
}

// The exact bytes every writer emits: CI byte-compares artifacts across runs
// and commits, so these renderings may only change on purpose.
TEST(JsonWriterTest, GoldenNumbersAndStrings) {
  auto number = [](double value) {
    std::string out;
    AppendJsonNumber(out, value);
    return out;
  };
  EXPECT_EQ(number(-0.0), "-0");
  EXPECT_EQ(number(0.5), "0.5");
  EXPECT_EQ(number(1e15 - 1), "999999999999999");
  EXPECT_EQ(number(1e15), "1000000000000000");
  EXPECT_EQ(number(-1e15), "-1000000000000000");
  EXPECT_EQ(number(0.1), "0.10000000000000001");
  EXPECT_EQ(number(5e-324), "4.9406564584124654e-324");
  EXPECT_EQ(number(1.7976931348623157e308), "1.7976931348623157e+308");
  EXPECT_EQ(number(std::nan("")), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  std::string text;
  AppendJsonString(text, "q\"b\\n\nc\x1f\x01");
  EXPECT_EQ(text, "\"q\\\"b\\\\n\\nc\\u001f\\u0001\"");
}

TEST(JsonWriterTest, IntegersAreExactAndFixed3HasThreeDecimals) {
  std::string out;
  AppendJsonInt(out, (uint64_t{1} << 53) + 1);  // not representable as double
  out += ' ';
  AppendJsonInt(out, std::numeric_limits<uint64_t>::max());
  out += ' ';
  AppendJsonInt(out, std::numeric_limits<int64_t>::min());
  out += ' ';
  AppendJsonFixed3(out, 1003.751);
  out += ' ';
  AppendJsonFixed3(out, -0.0);
  out += ' ';
  AppendJsonFixed3(out, 2.0);
  EXPECT_EQ(out,
            "9007199254740993 18446744073709551615 -9223372036854775808 "
            "1003.751 -0.000 2.000");
}

// The appenders promise printf's bytes (`%.0f` below 1e15, `%.17g` otherwise,
// `%.3f` for Chrome timestamps) without printf; check that promise on random
// bit patterns and on the integral/fractional values exports carry.
TEST(JsonWriterTest, NumbersMatchPrintfRendering) {
  Rng rng(20261022);
  char buffer[512];
  for (int i = 0; i < 20000; ++i) {
    uint64_t bits = rng.NextU64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (i % 4 == 1) {
      value = static_cast<double>(bits >> (bits & 63));  // integral values
    } else if (i % 4 == 2) {
      value = static_cast<double>(bits >> 20) / 1e3;  // microsecond stamps
    }
    if (!std::isfinite(value)) {
      continue;
    }
    std::string got;
    AppendJsonNumber(got, value);
    const bool integral = value == std::floor(value) && std::fabs(value) < 1e15;
    std::snprintf(buffer, sizeof(buffer), integral ? "%.0f" : "%.17g", value);
    ASSERT_EQ(got, buffer) << "bits " << bits;
    got.clear();
    AppendJsonFixed3(got, value);
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
    ASSERT_EQ(got, buffer) << "bits " << bits;
  }
}

}  // namespace
}  // namespace potemkin
