//===- support/Json.h - Streaming JSON writer -------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_JSON_H
#define BSAA_SUPPORT_JSON_H

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace bsaa {
namespace support {

/// Appends one JSON document to a string; the one place that decides
/// JSON syntax. Calls mirror the document -- begin/end brackets, key()
/// before each object member, value() for scalars -- and the writer
/// places every separator, in one compact layout: {"k": v, "k2": [a, b]}.
/// Strings are escaped (quote, backslash, \n, \t, other control bytes
/// as \u00XX); a non-finite double and an absent optional render null;
/// numbers print exactly (doubles in the shortest form that reads back
/// to the same value).
class JsonWriter {
public:
  JsonWriter &beginObject() { return open('{'); }
  JsonWriter &endObject() { return close('}'); }
  JsonWriter &beginArray() { return open('['); }
  JsonWriter &endArray() { return close(']'); }

  JsonWriter &key(std::string_view K) {
    separate();
    appendString(K);
    Out += ": ";
    return *this;
  }

  JsonWriter &value(bool B) { return scalar(B ? "true" : "false"); }
  JsonWriter &value(double D) {
    return std::isfinite(D) ? number(D) : null();
  }
  JsonWriter &value(std::optional<double> D) {
    return D ? value(*D) : null();
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonWriter &value(T V) {
    return number(V);
  }
  JsonWriter &value(std::string_view S) {
    separate();
    appendString(S);
    NeedComma = true;
    return *this;
  }
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &null() { return scalar("null"); }

  /// key(K) followed by value(V).
  template <typename T> JsonWriter &field(std::string_view K, const T &V) {
    return key(K).value(V);
  }

  const std::string &str() const { return Out; }

private:
  void separate() {
    if (NeedComma)
      Out += ", ";
    NeedComma = false;
  }
  JsonWriter &open(char Bracket) {
    separate();
    Out += Bracket;
    return *this;
  }
  JsonWriter &close(char Bracket) {
    Out += Bracket;
    NeedComma = true;
    return *this;
  }
  JsonWriter &scalar(std::string_view Text) {
    separate();
    Out += Text;
    NeedComma = true;
    return *this;
  }
  template <typename T> JsonWriter &number(T V) {
    char Buf[32];
    return scalar({Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr});
  }
  void appendString(std::string_view S) {
    Out += '"';
    for (char C : S) {
      unsigned char U = static_cast<unsigned char>(C);
      if (C == '"' || C == '\\') {
        Out += '\\';
        Out += C;
      } else if (C == '\n') {
        Out += "\\n";
      } else if (C == '\t') {
        Out += "\\t";
      } else if (U < 0x20) {
        Out += "\\u00";
        Out += "0123456789abcdef"[U >> 4];
        Out += "0123456789abcdef"[U & 0xf];
      } else {
        Out += C;
      }
    }
    Out += '"';
  }

  std::string Out;
  /// True after a complete value: the next item needs ", " first.
  bool NeedComma = false;
};

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_JSON_H
