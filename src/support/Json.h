//===- support/Json.h - JSON string escaping --------------------*- C++ -*-===//
//
// Part of the bsaa project (Kahlon, PLDI 2008 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef BSAA_SUPPORT_JSON_H
#define BSAA_SUPPORT_JSON_H

#include <cstdio>
#include <ostream>
#include <string>

namespace bsaa {
namespace support {

/// Writes \p S to \p OS as a quoted JSON string: quote and backslash
/// escaped, control bytes as \n, \t or \u00XX, everything else verbatim.
/// The one escaper every hand-written JSON emitter shares.
inline void appendJsonString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (C == '"' || C == '\\') {
      OS << '\\' << C;
    } else if (C == '\n') {
      OS << "\\n";
    } else if (C == '\t') {
      OS << "\\t";
    } else if (U < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", unsigned(U));
      OS << Buf;
    } else {
      OS << C;
    }
  }
  OS << '"';
}

} // namespace support
} // namespace bsaa

#endif // BSAA_SUPPORT_JSON_H
