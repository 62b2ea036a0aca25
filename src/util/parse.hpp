// Strict parsing of numeric command-line values.
//
// Flags and SCANC_* environment variables reach the programs as text.  A
// typo must fail loudly with std::invalid_argument, never quietly become
// 0 or a default: `--threads=abc` would otherwise ask for one worker per
// hardware thread, and `--executors=-1` for 2^64-1 executor threads.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace scanc::util {

/// Parses `text` as an unsigned decimal integer in [lo, hi]: a non-empty
/// string of ASCII digits (no sign, space or suffix) whose value fits in
/// 64 bits.  Throws std::invalid_argument naming `what` (the flag or
/// variable) otherwise.
[[nodiscard]] std::uint64_t parse_uint(
    std::string_view what, std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Parses `text` as a time in (fractional) seconds: the whole string
/// must be a finite decimal number greater than zero, or equal to zero
/// when `allow_zero` (for options where 0 means "off").  Throws
/// std::invalid_argument naming `what` otherwise.
[[nodiscard]] double parse_seconds(std::string_view what,
                                   std::string_view text,
                                   bool allow_zero = false);

}  // namespace scanc::util
