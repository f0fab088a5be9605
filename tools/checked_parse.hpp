/// \file checked_parse.hpp
/// \brief Range-validated numeric parsing shared by the command-line tools.
///
/// The tools parse every numeric flag through these helpers instead of raw
/// `std::atoi`/`std::strtoull`/`std::strtod`, which silently accept
/// garbage, overflow, and trailing junk (`--port 70000` used to wrap
/// through a uint16_t cast into port 4464). A failed parse prints a
/// diagnostic naming the flag and the accepted range to stderr and returns
/// false; callers then show usage and exit non-zero.
///
/// Header-only on purpose: every file under tools/ becomes its own
/// executable (CMake globs them), so a shared .cpp would need a library.

#ifndef UTS_TOOLS_CHECKED_PARSE_HPP_
#define UTS_TOOLS_CHECKED_PARSE_HPP_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace uts::tools {

/// Parse `text` as an unsigned integer in [min, max]. The whole string must
/// parse (no trailing junk, no leading '-'); on failure a diagnostic naming
/// `flag` is printed to stderr and false is returned.
inline bool ParseU64(const char* flag, const char* text, std::uint64_t min,
                     std::uint64_t max, std::uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", flag,
                 text == nullptr ? "" : text);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: expected an unsigned integer, got '%s'\n", flag,
                 text);
    return false;
  }
  if (value < min || value > max) {
    std::fprintf(stderr, "%s: %llu is out of range [%llu, %llu]\n", flag,
                 value, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

/// ParseU64 into a size_t-typed destination.
inline bool ParseSize(const char* flag, const char* text, std::size_t* out) {
  std::uint64_t value = 0;
  if (!ParseU64(flag, text, 0, std::numeric_limits<std::size_t>::max(),
                &value)) {
    return false;
  }
  *out = static_cast<std::size_t>(value);
  return true;
}

/// ParseU64 into a u32-typed destination.
inline bool ParseU32(const char* flag, const char* text, std::uint32_t* out) {
  std::uint64_t value = 0;
  if (!ParseU64(flag, text, 0, std::numeric_limits<std::uint32_t>::max(),
                &value)) {
    return false;
  }
  *out = static_cast<std::uint32_t>(value);
  return true;
}

/// Parse a TCP port: an integer in [0, 65535] (0 = ephemeral). This is the
/// check `--port 70000` used to skip by wrapping through a uint16_t cast.
inline bool ParsePort(const char* flag, const char* text, std::uint16_t* out) {
  std::uint64_t value = 0;
  if (!ParseU64(flag, text, 0, 65535, &value)) {
    return false;
  }
  *out = static_cast<std::uint16_t>(value);
  return true;
}

/// Parse `text` as a finite double. The whole string must parse; overflow
/// (ERANGE), NaN and infinity spellings ("nan", "inf", "infinity") and
/// trailing junk are rejected with a stderr diagnostic.
inline bool ParseDouble(const char* flag, const char* text, double* out) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s: expected a number, got ''\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0' ||
      !std::isfinite(value)) {
    std::fprintf(stderr, "%s: expected a finite number, got '%s'\n", flag,
                 text);
    return false;
  }
  *out = value;
  return true;
}

}  // namespace uts::tools

#endif  // UTS_TOOLS_CHECKED_PARSE_HPP_
