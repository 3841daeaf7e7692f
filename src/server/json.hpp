// Minimal JSON document model for the admission-control protocol.
//
// The wire format (server/protocol.hpp) is one JSON object per line, so
// the parser only has to handle small, bounded documents; it is strict
// (RFC 8259 grammar, no comments, no trailing commas) and defensive:
// nesting depth is capped, and every failure returns an error message
// naming the offset instead of throwing -- malformed requests are an
// expected input, not a caller contract violation.
//
// A parsed document is a flat tape of JsonValue nodes in document order
// over the document's own copy of the line: a container is followed by
// its children (an object's as key, value, key, value, ...), and every
// node records the tape index just past its subtree, so siblings are one
// hop apart.  Strings are views of the copy -- escaped ones were decoded
// in place while the parser validated them -- and integers are converted
// once, during the parse; other numbers are read from their text on
// as_double().  Parsing again into the same JsonValue reuses the copy's
// and the tape's capacity, so a steady-state parse allocates nothing.
//
// The writer half (JsonWriter) appends straight into its output buffer,
// escaping with the shared escaper of common/json.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rmts::server {

class JsonValue;

namespace detail {

/// What a parsed JsonValue owns: its copy of the input and the tape.
struct JsonDocument {
  std::string text;
  std::vector<JsonValue> tape;
};

}  // namespace detail

/// One parsed JSON value: a node of its document's tape.  The value
/// json_parse() fills owns the document; every value reached from it
/// through find() or items() lives in that document and is valid until
/// the owner is destroyed or parsed into again.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// The elements of an array, in document order.
  class Items {
   public:
    /// Steps from an element to the node just past its subtree.
    class iterator {
     public:
      iterator(const JsonValue* tape, const JsonValue* node)
          : tape_(tape), node_(node) {}
      const JsonValue& operator*() const noexcept { return *node_; }
      iterator& operator++() noexcept {
        node_ = tape_ + node_->next_;
        return *this;
      }
      bool operator==(const iterator& other) const noexcept = default;

     private:
      const JsonValue* tape_;
      const JsonValue* node_;
    };

    Items() = default;
    Items(const JsonValue* tape, const JsonValue* first, const JsonValue* last,
          std::size_t count)
        : tape_(tape), first_(first), last_(last), count_(count) {}

    [[nodiscard]] iterator begin() const noexcept { return {tape_, first_}; }
    [[nodiscard]] iterator end() const noexcept { return {tape_, last_}; }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    /// Walks `index` siblings: O(index), which is O(1) for the pairs the
    /// protocol indexes.
    [[nodiscard]] const JsonValue& operator[](std::size_t index) const noexcept {
      iterator it = begin();
      for (; index > 0; --index) ++it;
      return *it;
    }

   private:
    const JsonValue* tape_{nullptr};
    const JsonValue* first_{nullptr};
    const JsonValue* last_{nullptr};
    std::size_t count_{0};
  };

  /// Move-only: a value is a node of a document, and a document owner
  /// is the unique owner of it.
  JsonValue() = default;
  JsonValue(JsonValue&&) noexcept = default;
  JsonValue& operator=(JsonValue&&) noexcept = default;
  JsonValue(const JsonValue&) = delete;
  JsonValue& operator=(const JsonValue&) = delete;
  ~JsonValue() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  /// True for numbers written without fraction/exponent that fit int64.
  [[nodiscard]] bool is_int() const noexcept {
    return is_number() && (flags_ & kHasInt) != 0;
  }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Accessors assume the matching kind (callers check first; the router
  /// validates every field before reading it) and return false / 0 / ""
  /// / no items otherwise.
  [[nodiscard]] bool as_bool() const noexcept { return (flags_ & kTrue) != 0; }
  [[nodiscard]] double as_double() const noexcept;
  [[nodiscard]] std::int64_t as_int() const noexcept { return int_; }
  [[nodiscard]] std::string_view as_string() const noexcept {
    if (kind_ != Kind::kString) return {};
    return {doc_->text.data() + pos_, size_};
  }
  [[nodiscard]] Items items() const noexcept {
    if (kind_ != Kind::kArray) return {};
    const JsonValue* tape = doc_->tape.data();
    return {tape, tape + pos_, tape + next_, size_};
  }

  /// First member named `key`, or nullptr.  Valid for objects only.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  friend class JsonParser;
  friend bool json_parse(std::string_view text, JsonValue& out,
                         std::string& error);

  static constexpr std::uint8_t kHasInt = 1;
  static constexpr std::uint8_t kTrue = 2;

  /// The tape and text this node indexes into.
  const detail::JsonDocument* doc_{nullptr};
  /// Set on the value json_parse() filled: the document it owns.
  std::unique_ptr<detail::JsonDocument> owned_;
  /// The integer value of an is_int() number.
  std::int64_t int_{0};
  /// String: offset of the decoded bytes in the text.  Number: offset of
  /// its token.  Array/object: tape index of the first child.
  std::uint32_t pos_{0};
  /// String: decoded length.  Number: token length.  Array: element
  /// count.  Object: member count.
  std::uint32_t size_{0};
  /// Tape index just past this node's subtree: its next sibling.
  std::uint32_t next_{0};
  Kind kind_{Kind::kNull};
  std::uint8_t flags_{0};
};

/// Parses `text` as one complete JSON document (trailing whitespace
/// allowed, trailing garbage rejected) into `out`, which keeps its own
/// copy of `text`.  Returns true on success; on failure `error`
/// describes the problem and the byte offset, and `out` is null.
bool json_parse(std::string_view text, JsonValue& out, std::string& error);

/// Locale-independent shortest-roundtrip rendering of a double; non-finite
/// values render as null (JSON has no inf/nan).
[[nodiscard]] std::string json_number(double value);

/// Streaming writer for protocol replies.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("ok"); w.value(true);
///   w.key("margin"); w.value(1.25);
///   w.end_object();
///   w.str();  // the document
/// Commas are inserted automatically; keys use the shared escaper.
class JsonWriter {
 public:
  JsonWriter() { out_.reserve(256); }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  /// Starts an object member; must be followed by exactly one value (or
  /// container).
  void key(std::string_view name);
  /// key(name) then value(v): one whole scalar member.
  template <typename T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool flag);
  void value(double number);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void null();
  /// Re-emits a parsed scalar (used to echo request ids verbatim);
  /// arrays/objects echo as null.
  void value(const JsonValue& scalar);

  [[nodiscard]] const std::string& str() const noexcept { return out_; }
  /// Moves the document out; the writer is empty afterwards.
  [[nodiscard]] std::string take() noexcept { return std::move(out_); }

 private:
  void open(char bracket);
  void close(char bracket);
  void separate();

  std::string out_;
  /// True after a value or a closed container: the next value or key at
  /// this level needs a leading comma.  An open bracket or a key clears it.
  bool need_comma_{false};
};

}  // namespace rmts::server
