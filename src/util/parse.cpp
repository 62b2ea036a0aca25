#include "util/parse.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace scanc::util {

std::uint64_t parse_uint(std::string_view what, std::string_view text,
                         std::uint64_t lo, std::uint64_t hi) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("bad value for " + std::string(what) + ": '" +
                                std::string(text) + "' (" + why + ")");
  };
  if (text.empty()) fail("expected a non-negative integer");
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') fail("expected a non-negative integer");
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) {
      fail("out of range");
    }
    v = v * 10 + d;
  }
  if (v < lo || v > hi) {
    fail("expected " + std::to_string(lo) + ".." + std::to_string(hi));
  }
  return v;
}

double parse_seconds(std::string_view what, std::string_view text,
                     bool allow_zero) {
  const std::string s(text);  // strtod needs a terminator
  // A leading digit or point rules out signs, spaces, "inf" and "nan".
  const bool starts_ok =
      !s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) != 0 ||
                     s[0] == '.');
  char* end = nullptr;
  const double v = starts_ok ? std::strtod(s.c_str(), &end) : 0.0;
  if (!starts_ok || end != s.c_str() + s.size() || !std::isfinite(v) ||
      !(v > 0.0 || (allow_zero && v == 0.0))) {
    throw std::invalid_argument("bad time for " + std::string(what) + ": '" +
                                s + "' (expected " +
                                (allow_zero ? "seconds >= 0" : "seconds > 0") +
                                ")");
  }
  return v;
}

}  // namespace scanc::util
