#include "src/util/strings.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace rtdvs {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), static_cast<size_t>(needed) + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      return parts;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view text) {
  auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v';
  };
  size_t begin = 0;
  while (begin < text.size() && is_space(text[begin])) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && is_space(text[end - 1])) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<double> ParseDouble(std::string_view text) {
  std::string trimmed(Trim(text));
  if (trimmed.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size() || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<int64_t> ParseInt(std::string_view text) {
  std::string trimmed(Trim(text));
  if (trimmed.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  long long value = std::strtoll(trimmed.c_str(), &end, 10);
  if (end != trimmed.c_str() + trimmed.size()) {
    return std::nullopt;
  }
  return static_cast<int64_t>(value);
}

}  // namespace rtdvs
