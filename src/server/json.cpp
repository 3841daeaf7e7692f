#include "server/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/json.hpp"

namespace rmts::server {

double JsonValue::as_double() const noexcept {
  if (kind_ != Kind::kNumber) return 0.0;
  const char* first = doc_->text.data() + pos_;
  double value = 0.0;
  if (std::from_chars(first, first + size_, value).ec == std::errc()) {
    return value;
  }
  // Out of double range: strtod's answer (+-HUGE_VAL, or the underflowed
  // value).  The token is followed by a delimiter or the string's NUL, so
  // strtod stops at its end.
  return std::strtod(first, nullptr);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  const JsonValue* tape = doc_->tape.data();
  const JsonValue* member = tape + pos_;
  for (std::uint32_t i = 0; i < size_; ++i) {
    const JsonValue* value = member + 1;  // a key is a scalar: one node
    if (member->as_string() == key) return value;
    member = tape + value->next_;
  }
  return nullptr;
}

/// Single-pass recursive-descent parser writing the tape in document
/// order.  It works on the document's own copy of the text, so string
/// escapes are decoded in place (a decoded string is never longer than
/// its escaped form).  Depth is capped so a hostile "[[[[..." line cannot
/// blow the stack; every error names the byte offset for the protocol's
/// error replies.
class JsonParser {
 public:
  JsonParser(detail::JsonDocument& doc, std::string& error)
      : doc_(doc), text_(doc.text.data()), size_(doc.text.size()), error_(error) {}

  bool parse() {
    skip_whitespace();
    if (!parse_value(0)) return false;
    skip_whitespace();
    if (pos_ != size_) return fail("trailing garbage");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    error_ = what;
    error_ += " at offset ";
    error_ += std::to_string(pos_);
    return false;
  }

  void skip_whitespace() {
    while (pos_ < size_) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= size_; }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  [[nodiscard]] bool at_digit() const {
    return !at_end() && peek() >= '0' && peek() <= '9';
  }

  /// Appends a scalar node (its subtree is itself) and returns it.
  JsonValue& push(JsonValue::Kind kind) {
    JsonValue& node = doc_.tape.emplace_back();
    node.doc_ = &doc_;
    node.kind_ = kind;
    node.next_ = static_cast<std::uint32_t>(doc_.tape.size());
    return node;
  }

  bool consume_literal(std::string_view literal) {
    if (std::string_view(text_ + pos_, size_ - pos_).substr(0, literal.size()) !=
        literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_container(JsonValue::Kind::kObject, depth);
      case '[': return parse_container(JsonValue::Kind::kArray, depth);
      case '"': return parse_string();
      case 't':
        push(JsonValue::Kind::kBool).flags_ = JsonValue::kTrue;
        return consume_literal("true");
      case 'f':
        push(JsonValue::Kind::kBool);
        return consume_literal("false");
      case 'n':
        push(JsonValue::Kind::kNull);
        return consume_literal("null");
      default: return parse_number();
    }
  }

  /// An object's children are its members' key and value nodes, an
  /// array's its elements; the container node learns its child count and
  /// subtree end once the closing bracket is seen.
  bool parse_container(JsonValue::Kind kind, int depth) {
    const bool object = kind == JsonValue::Kind::kObject;
    const char close = object ? '}' : ']';
    const auto at = static_cast<std::uint32_t>(doc_.tape.size());
    push(kind);
    std::uint32_t count = 0;
    ++pos_;  // '{' or '['
    skip_whitespace();
    if (!at_end() && peek() == close) {
      ++pos_;
      return finish(at, count);
    }
    while (true) {
      skip_whitespace();
      if (object) {
        if (at_end() || peek() != '"') return fail("expected member key");
        if (!parse_string()) return false;
        skip_whitespace();
        if (at_end() || peek() != ':') return fail("expected ':'");
        ++pos_;
        skip_whitespace();
      }
      if (!parse_value(depth + 1)) return false;
      ++count;
      skip_whitespace();
      if (at_end()) {
        return fail(object ? "unterminated object" : "unterminated array");
      }
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == close) {
        ++pos_;
        return finish(at, count);
      }
      return fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
    }
  }

  bool finish(std::uint32_t at, std::uint32_t count) {
    JsonValue& node = doc_.tape[at];
    node.pos_ = at + 1;
    node.size_ = count;
    node.next_ = static_cast<std::uint32_t>(doc_.tape.size());
    return true;
  }

  bool parse_string() {
    ++pos_;  // opening quote
    const std::size_t start = pos_;
    // Until the first escape the decoded bytes are the raw bytes, already
    // in place; from there on `out` trails `pos_`.
    while (pos_ < size_) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    std::size_t out = pos_;
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        text_[out++] = c;
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': text_[out++] = '"'; break;
        case '\\': text_[out++] = '\\'; break;
        case '/': text_[out++] = '/'; break;
        case 'b': text_[out++] = '\b'; break;
        case 'f': text_[out++] = '\f'; break;
        case 'n': text_[out++] = '\n'; break;
        case 'r': text_[out++] = '\r'; break;
        case 't': text_[out++] = '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          // Surrogate pair: a high surrogate must be followed by \u + low.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= size_ || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid surrogate pair");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          out = put_utf8(out, code);
          break;
        }
        default: --pos_; return fail("invalid escape");
      }
    }
    JsonValue& node = push(JsonValue::Kind::kString);
    node.pos_ = static_cast<std::uint32_t>(start);
    node.size_ = static_cast<std::uint32_t>(out - start);
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > size_) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        return fail("invalid hex digit");
      }
    }
    return true;
  }

  /// Writes `code` as UTF-8 at `at`; returns the end of what it wrote.
  std::size_t put_utf8(std::size_t at, unsigned code) {
    const auto byte = [&](unsigned bits) { text_[at++] = static_cast<char>(bits); };
    if (code < 0x80) {
      byte(code);
    } else if (code < 0x800) {
      byte(0xC0 | (code >> 6));
      byte(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      byte(0xE0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    } else {
      byte(0xF0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3F));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    }
    return at;
  }

  /// Validates the RFC 8259 number grammar and accumulates the integer
  /// part in the same pass; the value is an int iff it is integral and
  /// fits int64.
  bool parse_number() {
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 63;  // |INT64_MIN|
    const std::size_t start = pos_;
    const bool negative = !at_end() && peek() == '-';
    if (negative) ++pos_;
    // Integer part: 0 | [1-9][0-9]*
    if (!at_digit()) return fail("invalid number");
    // Up to 19 digits the magnitude is exact in 64 bits; a longer one
    // wraps, but is no int64 anyway.
    const std::size_t digits = pos_;
    std::uint64_t magnitude = 0;
    if (peek() == '0') {
      ++pos_;
    } else {
      while (at_digit()) {
        magnitude = magnitude * 10 + static_cast<std::uint64_t>(peek() - '0');
        ++pos_;
      }
    }
    const bool fits = pos_ - digits <= 19 &&
                      (negative ? magnitude <= kLimit : magnitude < kLimit);
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (!at_digit()) return fail("invalid fraction");
      while (at_digit()) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!at_digit()) return fail("invalid exponent");
      while (at_digit()) ++pos_;
    }
    JsonValue& node = push(JsonValue::Kind::kNumber);
    node.pos_ = static_cast<std::uint32_t>(start);
    node.size_ = static_cast<std::uint32_t>(pos_ - start);
    if (integral && fits) {
      node.flags_ = JsonValue::kHasInt;
      // Two's-complement wrap: kLimit negated is INT64_MIN.
      node.int_ = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
    }
    return true;
  }

  detail::JsonDocument& doc_;
  char* text_;
  std::size_t size_;
  std::string& error_;
  std::size_t pos_{0};
};

bool json_parse(std::string_view text, JsonValue& out, std::string& error) {
  if (!out.owned_) out.owned_ = std::make_unique<detail::JsonDocument>();
  detail::JsonDocument& doc = *out.owned_;
  out.doc_ = &doc;
  out.kind_ = JsonValue::Kind::kNull;  // what a failed parse leaves
  out.flags_ = 0;
  doc.tape.clear();
  // Offsets and tape indices are 32-bit.
  if (text.size() >= std::numeric_limits<std::uint32_t>::max()) {
    error = "document too large";
    return false;
  }
  doc.text.assign(text);
  if (!JsonParser(doc, error).parse()) return false;
  const JsonValue& root = doc.tape.front();
  out.int_ = root.int_;
  out.pos_ = root.pos_;
  out.size_ = root.size_;
  out.next_ = root.next_;
  out.kind_ = root.kind_;
  out.flags_ = root.flags_;
  return true;
}

namespace {

/// Appends the shortest decimal that reads back as `value` (std::to_chars
/// is locale-independent); non-finite values append null.
void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

std::string json_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

void JsonWriter::separate() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = true;
}

void JsonWriter::open(char bracket) {
  separate();
  out_.push_back(bracket);
  need_comma_ = false;
}

void JsonWriter::close(char bracket) {
  out_.push_back(bracket);
  need_comma_ = true;
}

void JsonWriter::key(std::string_view name) {
  separate();
  out_.push_back('"');
  json_escape_append(out_, name);
  out_ += "\":";
  need_comma_ = false;
}

void JsonWriter::value(std::string_view text) {
  separate();
  out_.push_back('"');
  json_escape_append(out_, text);
  out_.push_back('"');
}

void JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
}

void JsonWriter::value(double number) {
  separate();
  append_number(out_, number);
}

void JsonWriter::value(std::int64_t number) {
  separate();
  append_int(out_, number);
}

void JsonWriter::value(std::uint64_t number) {
  separate();
  append_int(out_, number);
}

void JsonWriter::null() {
  separate();
  out_ += "null";
}

void JsonWriter::value(const JsonValue& scalar) {
  switch (scalar.kind()) {
    case JsonValue::Kind::kBool: value(scalar.as_bool()); return;
    case JsonValue::Kind::kNumber:
      if (scalar.is_int()) {
        value(scalar.as_int());
      } else {
        value(scalar.as_double());
      }
      return;
    case JsonValue::Kind::kString: value(scalar.as_string()); return;
    default: null(); return;
  }
}

}  // namespace rmts::server
