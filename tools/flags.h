// Flag reading shared by the command-line front ends (placer3d_cli, placed):
// the "--flag value" / "--flag=value" splitter and a strict number parser.
//
// A number must be the whole value string, finite, and inside the range the
// caller names ("2x", "abc", "1e999" and an out-of-range "70000" for a port
// are all rejected). Every reader prints a message naming the flag before it
// returns false; the front ends then exit 2 (usage error).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>

namespace p3d::tools {

class FlagReader {
 public:
  FlagReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next argument; false after the last. name() is then
  /// the argument without any "=value" suffix.
  bool Next() {
    if (++i_ >= argc_) return false;
    name_ = argv_[i_];
    has_inline_ = false;
    if (name_.size() > 2 && name_[0] == '-' && name_[1] == '-') {
      const std::size_t eq = name_.find('=');
      if (eq != std::string::npos) {
        inline_value_ = name_.substr(eq + 1);
        name_.resize(eq);
        has_inline_ = true;
      }
    }
    return true;
  }

  const std::string& name() const { return name_; }

  /// Reads the current flag's value as text.
  bool Text(std::string* out) {
    const char* v = Value();
    if (v == nullptr) return false;
    *out = v;
    return true;
  }

  /// Reads the current flag's value as a T in [lo, hi].
  template <typename T>
  bool Number(T* out, T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max()) {
    const char* v = Value();
    if (v == nullptr) return false;
    const char* end = v + std::strlen(v);
    T parsed{};
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>) {
      ok = ok && std::isfinite(parsed);
    }
    if (ok && parsed >= lo && parsed <= hi) {
      *out = parsed;
      return true;
    }
    // Name only the bounds the caller set (an unsigned type's 0 counts).
    const bool has_lo =
        lo != std::numeric_limits<T>::lowest() || std::is_unsigned_v<T>;
    const bool has_hi = hi != std::numeric_limits<T>::max();
    std::ostringstream want;
    want << (std::is_floating_point_v<T> ? "a finite number" : "an integer");
    if (has_lo && has_hi) {
      want << " in [" << lo << ", " << hi << "]";
    } else if (has_lo) {
      want << " >= " << lo;
    } else if (has_hi) {
      want << " <= " << hi;
    }
    std::fprintf(stderr, "bad value for %s: '%s' (want %s)\n", name_.c_str(),
                 v, want.str().c_str());
    return false;
  }

 private:
  /// The current flag's value: its "=value" part, else the next argument.
  const char* Value() {
    if (has_inline_) return inline_value_.c_str();
    if (i_ + 1 >= argc_) {
      std::fprintf(stderr, "missing value for %s\n", name_.c_str());
      return nullptr;
    }
    return argv_[++i_];
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  std::string name_;
  std::string inline_value_;
  bool has_inline_ = false;
};

}  // namespace p3d::tools
