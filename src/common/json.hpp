// JSON string escaping shared by every JSON emitter in the repo (the
// bench reports and the admission-control server's protocol encoder).
//
// RFC 8259 requires escaping of '"', '\\' and all control characters
// below 0x20; emitting a raw newline or tab inside a string silently
// corrupts the document for strict parsers.  Cell contents in the bench
// tables and error messages echoed by the server can both contain such
// bytes, so everything funnels through this one escaper.
#pragma once

#include <string>
#include <string_view>

namespace rmts {

/// Appends `raw` to `out` with '"', '\\' and control characters (< 0x20)
/// escaped so that surrounding the result with quotes yields a valid JSON
/// string.  Common controls use the short forms (\n, \t, \r, \b, \f); the
/// rest use \u00XX.  Bytes >= 0x80 pass through untouched (UTF-8 is valid
/// JSON).  Runs of bytes that need no escape are appended in one piece.
inline void json_escape_append(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

/// `raw` with the escapes of json_escape_append() applied.
inline std::string json_escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  json_escape_append(out, raw);
  return out;
}

}  // namespace rmts
