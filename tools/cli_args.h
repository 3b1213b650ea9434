// Strict numeric parsing for the command-line tools: a value is accepted
// only if the whole string is one number in range, so a typo is a usage
// error (exit 2) instead of a silent 0.

#ifndef VAQ_TOOLS_CLI_ARGS_H_
#define VAQ_TOOLS_CLI_ARGS_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace vaq {

/// Parses a decimal integer in [0, `max`]. Rejects signs, whitespace,
/// trailing characters and overflow.
inline bool ParseUint(const char* s, std::uint64_t* out,
                      std::uint64_t max = UINT64_MAX) {
  if (!std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0' || v > max) return false;
  *out = v;
  return true;
}

/// Parses a finite decimal floating-point number. Rejects leading
/// whitespace, trailing characters, infinities and NaN.
inline bool ParseFinite(const char* s, double* out) {
  if (s[0] == '\0' || std::isspace(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (*end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace vaq

#endif  // VAQ_TOOLS_CLI_ARGS_H_
