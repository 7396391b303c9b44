// Minimal leveled logging to stderr.
//
// The simulator is a library first; logging defaults to kWarning so that
// benches and tests stay quiet unless something is wrong. The RTDVS_LOG
// environment variable (debug|info|warn|error, or 0-3) overrides the default
// without recompiling.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace rtdvs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

// Process-wide minimum level; messages below it are discarded.
LogLevel GetLogLevel();

namespace internal {

void EmitLogLine(LogLevel level, const char* file, int line, const std::string& message);

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() { EmitLogLine(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace rtdvs

#define RTDVS_LOG(level)                                                      \
  if (::rtdvs::LogLevel::level < ::rtdvs::GetLogLevel()) {                    \
  } else /* NOLINT */                                                         \
    ::rtdvs::internal::LogMessage(::rtdvs::LogLevel::level, __FILE__, __LINE__)

#endif  // SRC_UTIL_LOGGING_H_
