#include "src/util/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rtdvs {
namespace {

// -1 = not yet initialized; the first GetLogLevel() consults RTDVS_LOG.
constexpr int kUninitialized = -1;

std::atomic<int> g_min_level{kUninitialized};

// Accepts level names (debug|info|warn|warning|error) or the numeric enum
// values 0-3; anything else falls back to the kWarning default.
int LevelFromEnv() {
  const char* env = std::getenv("RTDVS_LOG");
  if (env == nullptr || *env == '\0') return static_cast<int>(LogLevel::kWarning);
  if (std::strcmp(env, "debug") == 0 || std::strcmp(env, "0") == 0) {
    return static_cast<int>(LogLevel::kDebug);
  }
  if (std::strcmp(env, "info") == 0 || std::strcmp(env, "1") == 0) {
    return static_cast<int>(LogLevel::kInfo);
  }
  if (std::strcmp(env, "warn") == 0 || std::strcmp(env, "warning") == 0 ||
      std::strcmp(env, "2") == 0) {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (std::strcmp(env, "error") == 0 || std::strcmp(env, "3") == 0) {
    return static_cast<int>(LogLevel::kError);
  }
  std::fprintf(stderr, "[WARN logging.cc] unrecognized RTDVS_LOG=%s (want debug|info|warn|error or 0-3)\n",
               env);
  return static_cast<int>(LogLevel::kWarning);
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel GetLogLevel() {
  int level = g_min_level.load();
  if (level == kUninitialized) {
    // Benign race: every loser computes the same value from the environment.
    level = LevelFromEnv();
    int expected = kUninitialized;
    g_min_level.compare_exchange_strong(expected, level);
    level = g_min_level.load();
  }
  return static_cast<LogLevel>(level);
}

namespace internal {

void EmitLogLine(LogLevel level, const char* file, int line, const std::string& message) {
  // Strip directories for readability; paths are repo-root-relative anyway.
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level), base, line, message.c_str());
}

}  // namespace internal
}  // namespace rtdvs
