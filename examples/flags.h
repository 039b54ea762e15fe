#ifndef RAQO_EXAMPLES_FLAGS_H_
#define RAQO_EXAMPLES_FLAGS_H_

// `--name value` flags of the server examples. A value is parsed whole;
// one that is malformed or out of range is reported on one line and the
// program exits with status 2.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace raqo::examples {

/// The value after flag `name`, or nullptr when the flag is absent.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

[[noreturn]] inline void BadFlag(const char* name, const char* value,
                                 const char* want) {
  std::fprintf(stderr, "%s: '%s' is not %s\n", name, value, want);
  std::exit(2);
}

/// Parses all of `v` into *out.
template <typename T>
bool ParseWhole(const char* v, T* out) {
  const char* end = v + std::strlen(v);
  const auto [stop, error] = std::from_chars(v, end, *out);
  return error == std::errc() && stop == end;
}

/// Flag `name` as an integer in [lo, hi]; `fallback` when absent.
inline int64_t IntFlag(int argc, char** argv, const char* name, int64_t lo,
                       int64_t hi, int64_t fallback) {
  const char* v = FlagValue(argc, argv, name);
  if (v == nullptr) return fallback;
  int64_t parsed = 0;
  if (!ParseWhole(v, &parsed) || parsed < lo || parsed > hi) {
    char want[96];
    std::snprintf(want, sizeof(want), "an integer from %lld to %lld",
                  static_cast<long long>(lo), static_cast<long long>(hi));
    BadFlag(name, v, want);
  }
  return parsed;
}

/// Flag `name` as a finite number, above 0 when `positive` and at least
/// 0 otherwise; `fallback` when absent.
inline double NumberFlag(int argc, char** argv, const char* name,
                         bool positive, double fallback) {
  const char* v = FlagValue(argc, argv, name);
  if (v == nullptr) return fallback;
  double parsed = 0.0;
  if (!ParseWhole(v, &parsed) || !std::isfinite(parsed) || parsed < 0.0 ||
      (positive && parsed == 0.0)) {
    BadFlag(name, v,
            positive ? "a positive finite number"
                     : "a non-negative finite number");
  }
  return parsed;
}

}  // namespace raqo::examples

#endif  // RAQO_EXAMPLES_FLAGS_H_
