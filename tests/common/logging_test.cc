#include "fpm/common/logging.h"

#include <gtest/gtest.h>

#include "fpm/common/status.h"

namespace fpm {
namespace {

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(FPM_CHECK(1 == 2) << "math broke",
               "\\[E logging_test\\.cc:[0-9]+\\] Check failed: 1 == 2 "
               "math broke");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(FPM_CHECK_OK(Status::Internal("bad state")), "bad state");
}

TEST(LoggingTest, CheckPassesSilently) {
  FPM_CHECK(true) << "never shown";
  FPM_CHECK_OK(Status::OK()) << "never shown";
}

TEST(LoggingTest, DcheckPassesSilently) { FPM_DCHECK(2 + 2 == 4); }

}  // namespace
}  // namespace fpm
