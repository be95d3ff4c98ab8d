#include "fpm/common/logging.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace fpm {
namespace internal {

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[E " << base << ":" << line << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  const std::string msg = stream_.str();
  std::fprintf(stderr, "%s\n", msg.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace internal
}  // namespace fpm
