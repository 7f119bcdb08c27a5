// The farm's one JSON module: emission helpers for every artifact writer (BENCH
// reports, health snapshots, telemetry time series, trajectory lines) and the
// reader the tools parse those artifacts back with.
//
// One definition of the escaping and number-formatting rules keeps artifacts
// byte-level comparable across tools: the CI jobs byte-compare repeated runs,
// so two writers disagreeing about how to format `1e15` or escape a quote
// would silently break those gates.
//
// Appenders never allocate beyond growing `out` — callers that pre-reserve the
// destination string (the telemetry exporter's line ring does) stay
// allocation-free in steady state.
#ifndef SRC_BASE_JSON_UTIL_H_
#define SRC_BASE_JSON_UTIL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace potemkin {

// Appends `value` as a quoted JSON string. Escapes `"` `\` `\n` like the
// historical per-tool copies did, plus `\uXXXX` for any other control byte
// (< 0x20) so a hostile metric label can never produce invalid JSON.
void AppendJsonString(std::string& out, std::string_view value);

// Appends `value` as a JSON number: integral values below 1e15 print as
// integers (`%.0f`), everything else round-trips via `%.17g`; non-finite
// values emit `null` (JSON has no NaN/Inf).
void AppendJsonNumber(std::string& out, double value);

// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  // The member named `key`, or nullptr when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Parses exactly one JSON document (RFC 8259, surrounding whitespace allowed).
// On malformed input returns false and describes the first error, with its
// byte offset, in `*error`.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Reads the file at `path` and parses it as one JSON document; on failure
// `*error` says why (callers prefix the path).
bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error);

// Reads the whole file at `path`; false when it cannot be opened.
bool ReadFileToString(const std::string& path, std::string* out);

// Writes `text` to the file at `path`, replacing it; false when the file cannot
// be opened, the write comes up short or the close fails.
bool WriteStringToFile(const std::string& path, std::string_view text);

// Typed member access for schema checks: a missing or mistyped member reads
// as zero/empty/false and the first such key is recorded in error(), so a
// parser reads every field and checks ok() once.
class JsonFields {
 public:
  explicit JsonFields(const JsonValue& object);

  std::string String(std::string_view key) {
    return Get(key, JsonValue::Type::kString).string;
  }
  double Number(std::string_view key) {
    return Get(key, JsonValue::Type::kNumber).number;
  }
  // Like Number, but `null` is accepted and reads as NaN.
  double NumberOrNull(std::string_view key);
  bool Bool(std::string_view key) {
    return Get(key, JsonValue::Type::kBool).boolean;
  }
  const std::vector<JsonValue>& Array(std::string_view key) {
    return Get(key, JsonValue::Type::kArray).items;
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  const JsonValue& Get(std::string_view key, JsonValue::Type type);

  const JsonValue& object_;
  std::string error_;
};

}  // namespace potemkin

#endif  // SRC_BASE_JSON_UTIL_H_
