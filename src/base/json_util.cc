#include "src/base/json_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace potemkin {

void AppendJsonString(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    out += buffer;
    return;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

namespace {

// Recursive-descent parser over one document (RFC 8259). Nesting is capped so
// hostile input cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Document(JsonValue* out, std::string* error) {
    bool ok = Value(out, 0);
    Peek();
    if (ok && pos_ != text_.size()) {
      ok = Fail("trailing data");
    }
    if (ok) {
      return true;
    }
    *error = error_ + " at byte " + std::to_string(pos_);
    return false;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* what) {
    error_ = what;
    return false;
  }
  // Skips whitespace; returns the next byte, or '\0' at the end.
  char Peek() {
    static constexpr std::string_view kSpace = " \t\n\r";
    while (pos_ < text_.size() && kSpace.find(text_[pos_]) != kSpace.npos) {
      ++pos_;
    }
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool Eat(char c) {
    if (Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }
  bool At(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  size_t Digits() {
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }
  bool Word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    switch (Peek()) {
      case '{':
        out->type = JsonValue::Type::kObject;
        ++pos_;
        if (Eat('}')) {
          return true;
        }
        do {
          auto& [key, value] = out->members.emplace_back();
          if (Peek() != '"') {
            return Fail("expected member name");
          }
          if (!String(&key)) {
            return false;
          }
          if (!Eat(':')) {
            return Fail("expected ':'");
          }
          if (!Value(&value, depth + 1)) {
            return false;
          }
        } while (Eat(','));
        return Eat('}') || Fail("expected ',' or '}'");
      case '[':
        out->type = JsonValue::Type::kArray;
        ++pos_;
        if (Eat(']')) {
          return true;
        }
        do {
          if (!Value(&out->items.emplace_back(), depth + 1)) {
            return false;
          }
        } while (Eat(','));
        return Eat(']') || Fail("expected ',' or ']'");
      case '"':
        out->type = JsonValue::Type::kString;
        return String(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Word("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        return Word("false");
      case 'n':
        return Word("null");
      default:
        return Number(out);
    }
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(JsonValue* out) {
    const size_t start = pos_;
    if (At('-')) {
      ++pos_;
    }
    const bool leading_zero = At('0');
    const size_t integral = Digits();
    if (integral == 0 || (leading_zero && integral > 1)) {
      return Fail("invalid value");
    }
    if (At('.')) {
      ++pos_;
      if (Digits() == 0) {
        return Fail("invalid number");
      }
    }
    if (At('e') || At('E')) {
      ++pos_;
      if (At('+') || At('-')) {
        ++pos_;
      }
      if (Digits() == 0) {
        return Fail("invalid number");
      }
    }
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(
        std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
    return true;
  }

  bool String(std::string* out) {
    // (escape letter, the byte it stands for) pairs.
    static constexpr std::string_view kEscapes = "\"\"\\\\//b\bf\fn\nr\rt\t";
    for (++pos_; pos_ < text_.size();) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      const char escape = pos_ < text_.size() ? text_[pos_++] : '\0';
      unsigned code = 0;
      if (escape != 'u') {
        const size_t at = kEscapes.find(escape);
        if (at == std::string_view::npos || at % 2 != 0) {
          return Fail("invalid escape");
        }
        *out += kEscapes[at + 1];
      } else if (const char* hex = text_.data() + pos_;
                 text_.size() - pos_ < 4 ||
                 std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
        return Fail("invalid \\u escape");
      } else {
        // UTF-8 for one UTF-16 unit (no artifact writer emits surrogates).
        pos_ += 4;
        if (code < 0x80) {
          *out += static_cast<char>(code);
        } else if (code < 0x800) {
          *out += static_cast<char>(0xC0 | code >> 6);
          *out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          *out += static_cast<char>(0xE0 | code >> 12);
          *out += static_cast<char>(0x80 | (code >> 6 & 0x3F));
          *out += static_cast<char>(0x80 | (code & 0x3F));
        }
      }
    }
    return Fail("unterminated string");
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue();
  return Parser(text).Document(out, error);
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  out->clear();
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  std::fclose(file);
  return true;
}

bool WriteStringToFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && written;
}

bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot read file";
    return false;
  }
  return ParseJson(text, out, error);
}

JsonFields::JsonFields(const JsonValue& object) : object_(object) {
  if (object.type != JsonValue::Type::kObject) {
    error_ = "expected a JSON object";
  }
}

const JsonValue& JsonFields::Get(std::string_view key, JsonValue::Type type) {
  static const JsonValue kAbsent;
  static constexpr const char* kTypeNames[] = {
      "null", "a boolean", "a number", "a string", "an array", "an object"};
  const JsonValue* value = object_.Find(key);
  if (value != nullptr && value->type == type) {
    return *value;
  }
  if (error_.empty()) {
    error_.append("\"").append(key).append("\" ").append(
        value == nullptr ? "missing" : "is not ");
    if (value != nullptr) {
      error_ += kTypeNames[static_cast<int>(type)];
    }
  }
  return kAbsent;
}

double JsonFields::NumberOrNull(std::string_view key) {
  const JsonValue* value = object_.Find(key);
  return value != nullptr && value->type == JsonValue::Type::kNull
             ? std::nan("")
             : Number(key);
}

}  // namespace potemkin
