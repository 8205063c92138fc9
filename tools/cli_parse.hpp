// Strict whole-token parsers for the tools' command-line values, with no
// dependency beyond the standard library (slspvr-check and slspvr-mkvolume
// use them without linking the pvr layer; render_cli.hpp builds
// slspvr-render's flag grammar on them).
//
// Modeled on bench/bench_common.hpp: the helpers throw ParseError (never
// exit), so the test suite covers the grammar directly; a tool catches
// ParseError and exits 2.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace slspvr::tools {

/// Malformed or contradictory command-line value. The tool turns this into
/// exit(2); tests assert on the message instead.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Strict positive-integer parse: every character must be a decimal digit
/// (stoi's whitespace/sign tolerance is rejected) and the value strictly
/// positive.
[[nodiscard]] inline int parse_positive_int(const std::string& token,
                                            const std::string& what) {
  bool digits = !token.empty();
  for (const char c : token) digits = digits && c >= '0' && c <= '9';
  std::size_t used = 0;
  int value = 0;
  if (digits) {
    try {
      value = std::stoi(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (!digits || used != token.size()) {
    throw ParseError(what + ": '" + token + "' is not an integer");
  }
  if (value <= 0) {
    throw ParseError(what + ": '" + token + "' must be positive");
  }
  return value;
}

/// Strict finite-float parse: the whole token is one number as strtod reads
/// it (no leading space, no suffix), and its value is a finite float, so
/// "1e40", "inf" and "nan" are rejected. The value comes back as the double
/// strtod read: --scale keeps the decimal value it always had.
[[nodiscard]] inline double parse_finite_float(const std::string& token,
                                               const std::string& what) {
  const char* begin = token.c_str();
  char* end = nullptr;
  double value = 0.0;
  const bool number = !token.empty() && std::isspace(static_cast<unsigned char>(token[0])) == 0;
  if (number) value = std::strtod(begin, &end);
  if (!number || end != begin + token.size()) {
    throw ParseError(what + ": '" + token + "' is not a number");
  }
  if (!std::isfinite(value) || std::fabs(value) > std::numeric_limits<float>::max()) {
    throw ParseError(what + ": '" + token + "' is not a finite float");
  }
  return value;
}

/// Strict unsigned 64-bit parse: the whole token is one number as strtoull
/// reads it in base 0 (decimal, 0x hexadecimal or 0-prefixed octal), with no
/// space, sign or suffix, and in range.
[[nodiscard]] inline std::uint64_t parse_u64(const std::string& token, const std::string& what) {
  const char* begin = token.c_str();
  char* end = nullptr;
  unsigned long long value = 0;
  const bool number = !token.empty() && token[0] >= '0' && token[0] <= '9';
  if (number) {
    errno = 0;
    value = std::strtoull(begin, &end, 0);
  }
  if (!number || end != begin + token.size() || errno == ERANGE) {
    throw ParseError(what + ": '" + token + "' is not an unsigned 64-bit integer");
  }
  return static_cast<std::uint64_t>(value);
}

/// Strict non-negative-integer parse (same whole-token grammar as
/// parse_positive_int, but 0 is allowed — e.g. --respawn-max 0 means
/// "demote on first death").
[[nodiscard]] inline int parse_non_negative_int(const std::string& token,
                                                const std::string& what) {
  bool digits = !token.empty();
  for (const char c : token) digits = digits && c >= '0' && c <= '9';
  std::size_t used = 0;
  int value = -1;
  if (digits) {
    try {
      value = std::stoi(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
  }
  if (!digits || used != token.size()) {
    throw ParseError(what + ": '" + token + "' is not a non-negative integer");
  }
  return value;
}

/// The comma-separated fields of `token`, empty ones included ("1,,2" has
/// three fields, "" has one).
[[nodiscard]] inline std::vector<std::string> split_commas(const std::string& token) {
  std::vector<std::string> fields;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = token.find(',', begin);
    fields.push_back(token.substr(begin, comma - begin));
    if (comma == std::string::npos) return fields;
    begin = comma + 1;
  }
}

/// Strict comma list of `min_fields`..`max_fields` signed integers, as the
/// fault rules read them ("1,-1,5"; -1 = any rank or tag): each field is an
/// optional '-' and decimal digits, with nothing else in the token.
[[nodiscard]] inline std::vector<int> parse_int_list(const std::string& token,
                                                     const std::string& what,
                                                     std::size_t min_fields,
                                                     std::size_t max_fields) {
  const auto fail = [&]() {
    return ParseError(what + ": '" + token + "' is not a comma list of " +
                      std::to_string(min_fields) +
                      (max_fields == min_fields ? "" : " to " + std::to_string(max_fields)) +
                      " integers");
  };
  const std::vector<std::string> fields = split_commas(token);
  if (fields.size() < min_fields || fields.size() > max_fields) throw fail();
  std::vector<int> values;
  for (const std::string& field : fields) {
    const std::size_t sign = !field.empty() && field[0] == '-' ? 1 : 0;
    bool digits = field.size() > sign;
    for (std::size_t i = sign; i < field.size(); ++i) {
      digits = digits && field[i] >= '0' && field[i] <= '9';
    }
    std::size_t used = 0;
    if (digits) {
      try {
        values.push_back(std::stoi(field, &used));
      } catch (const std::exception&) {
        used = 0;
      }
    }
    if (!digits || used != field.size()) throw fail();
  }
  return values;
}

/// Strict comma list of exactly `count` finite floats (--tf lo,hi,opacity):
/// each field is read by parse_finite_float.
[[nodiscard]] inline std::vector<double> parse_float_list(const std::string& token,
                                                          const std::string& what,
                                                          std::size_t count) {
  const std::vector<std::string> fields = split_commas(token);
  if (fields.size() != count) {
    throw ParseError(what + ": '" + token + "' is not " + std::to_string(count) +
                     " comma-separated numbers");
  }
  std::vector<double> values;
  for (const std::string& field : fields) values.push_back(parse_finite_float(field, what));
  return values;
}

}  // namespace slspvr::tools
