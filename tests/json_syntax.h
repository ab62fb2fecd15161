#ifndef FRESQUE_TESTS_JSON_SYNTAX_H_
#define FRESQUE_TESTS_JSON_SYNTAX_H_

#include <cctype>
#include <cstddef>
#include <cstring>
#include <string>

#include "common/status.h"

namespace fresque {

/// JSON well-formedness check (RFC 8259 grammar) for the JSON the obs
/// plane serves: /statusz, /flightz and FlightRecorder::DumpJson. It
/// walks the text once and keeps no values.
class JsonSyntaxCheck {
 public:
  explicit JsonSyntaxCheck(const std::string& text) : s_(text) {}

  /// OK, or Corruption naming the offset where the grammar breaks.
  Status Run() {
    if (Value(0)) {
      SkipWs();
      if (pos_ == s_.size()) return Status::OK();
    }
    return Status::Corruption("json: syntax error at offset " +
                              std::to_string(pos_));
  }

 private:
  static constexpr int kMaxDepth = 64;

  /// The byte at the cursor, or '\0' past the end (never valid there).
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  bool Skip(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  void SkipWs() {
    while (Skip(' ') || Skip('\t') || Skip('\n') || Skip('\r')) {
    }
  }

  bool Eat(char c) {
    SkipWs();
    return Skip(c);
  }

  bool Value(int depth) {
    SkipWs();
    if (depth > kMaxDepth) return false;
    if (Peek() == '{' || Peek() == '[') return Container(depth);
    if (Peek() == '"') return String();
    return Literal("true") || Literal("false") || Literal("null") || Number();
  }

  /// An object or an array: comma-separated members, each a
  /// "key": value pair in an object.
  bool Container(int depth) {
    const bool object = Peek() == '{';
    const char close = object ? '}' : ']';
    ++pos_;
    if (Eat(close)) return true;
    do {
      if (object) {
        SkipWs();
        if (Peek() != '"' || !String() || !Eat(':')) return false;
      }
      if (!Value(depth + 1)) return false;
    } while (Eat(','));
    return Eat(close);
  }

  bool String() {
    ++pos_;  // the opening quote
    while (!Skip('"')) {
      const char c = Peek();
      ++pos_;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // or the end
      if (c != '\\') continue;
      const char e = Peek();
      ++pos_;
      if (e == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (!std::isxdigit(static_cast<unsigned char>(Peek()))) return false;
        }
      } else if (e == '\0' || std::strchr("\"\\/bfnrt", e) == nullptr) {
        return false;
      }
    }
    return true;
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number() {
    Skip('-');
    if (!Skip('0') && !Digits()) return false;
    if (Skip('.') && !Digits()) return false;
    if (Skip('e') || Skip('E')) {
      if (!Skip('+')) Skip('-');
      return Digits();
    }
    return true;
  }

  bool Digits() {
    const size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

inline Status ValidateJsonSyntax(const std::string& text) {
  return JsonSyntaxCheck(text).Run();
}

}  // namespace fresque

#endif  // FRESQUE_TESTS_JSON_SYNTAX_H_
