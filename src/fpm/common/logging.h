// Check macros for the fpm library.
//
// FPM_CHECK is used for internal invariants (programming errors), never
// for user-input validation — that path returns Status.

#ifndef FPM_COMMON_LOGGING_H_
#define FPM_COMMON_LOGGING_H_

#include <sstream>

namespace fpm {
namespace internal {

/// Stream-style message that writes `[E file:line] <message>` to stderr
/// on destruction and aborts the process.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  FatalLogMessage(const FatalLogMessage&) = delete;
  FatalLogMessage& operator=(const FatalLogMessage&) = delete;

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace fpm

#define FPM_CHECK(cond)                                            \
  if (!(cond))                                                     \
  ::fpm::internal::FatalLogMessage(__FILE__, __LINE__)             \
      << "Check failed: " #cond " "

#define FPM_CHECK_OK(expr)                                         \
  if (::fpm::Status fpm_check_status_ = (expr); !fpm_check_status_.ok()) \
  ::fpm::internal::FatalLogMessage(__FILE__, __LINE__)             \
      << "Status not OK: " << fpm_check_status_.ToString() << " "

#ifdef NDEBUG
#define FPM_DCHECK(cond) \
  if (false) FPM_CHECK(cond)
#else
#define FPM_DCHECK(cond) FPM_CHECK(cond)
#endif

#endif  // FPM_COMMON_LOGGING_H_
