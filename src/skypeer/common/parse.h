#ifndef SKYPEER_COMMON_PARSE_H_
#define SKYPEER_COMMON_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace skypeer {

/// \file
/// Strict numeric parsing for command-line flags, shared by the CLI and
/// the benches. The whole token must be a number within the given range;
/// anything else prints a diagnostic naming the flag and exits nonzero.
/// `atoi`-style silent zeros would quietly run (or bench) a zero-sized
/// configuration — `--peers 10k` must be an error, not 0 peers.

/// Parses `text` as a base-10 integer in [min_value, max_value].
inline long long ParseIntFlag(const char* flag, const char* text,
                              long long min_value, long long max_value) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: '%s' is not an integer\n", flag, text);
    std::exit(1);
  }
  if (value < min_value || value > max_value) {
    std::fprintf(stderr, "%s: %lld out of range [%lld, %lld]\n", flag, value,
                 min_value, max_value);
    std::exit(1);
  }
  return value;
}

/// Parses `text` as a non-negative base-10 integer into the full uint64
/// range (seeds, counts).
inline uint64_t ParseU64Flag(const char* flag, const char* text) {
  errno = 0;
  char* end = nullptr;
  if (text[0] == '-') {
    std::fprintf(stderr, "%s: '%s' must be non-negative\n", flag, text);
    std::exit(1);
  }
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: '%s' is not an unsigned integer\n", flag, text);
    std::exit(1);
  }
  return value;
}

/// Parses `text` as a finite double in [min_value, max_value]. NaN and
/// infinities are rejected (a NaN would slip through naive range checks —
/// every comparison against it is false).
inline double ParseDoubleFlag(const char* flag, const char* text,
                              double min_value, double max_value) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    std::fprintf(stderr, "%s: '%s' is not a finite number\n", flag, text);
    std::exit(1);
  }
  if (value < min_value || value > max_value) {
    std::fprintf(stderr, "%s: %g out of range [%g, %g]\n", flag, value,
                 min_value, max_value);
    std::exit(1);
  }
  return value;
}

}  // namespace skypeer

#endif  // SKYPEER_COMMON_PARSE_H_
