// Small string helpers shared by the procfs layer and the CLI parser.
#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rtdvs {

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// Splits on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char sep);

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

// Strict numeric parsers: the whole (trimmed) string must be consumed.
// ParseDouble also rejects non-finite results ("nan", "inf", "1e400"), so
// no input file or flag can carry one past its range checks.
std::optional<double> ParseDouble(std::string_view text);
std::optional<int64_t> ParseInt(std::string_view text);

}  // namespace rtdvs

#endif  // SRC_UTIL_STRINGS_H_
