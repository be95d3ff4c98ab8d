#include "fpm/cluster/peer_client.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>

#include "fpm/service/line_io.h"

namespace fpm {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsUntil(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

Status PeerError(const Endpoint& endpoint, const std::string& what) {
  return Status::Unavailable("peer " + endpoint.ToString() + ": " + what);
}

}  // namespace

Result<std::string> PeerClient::Call(const Endpoint& endpoint,
                                     const std::string& line,
                                     double deadline_seconds,
                                     const AbortFn& abort) {
  const bool bounded = deadline_seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             bounded ? deadline_seconds : 0.0));
  const auto expired = [&] { return bounded && SecondsUntil(deadline) <= 0; };
  const auto deadline_status = [&] {
    return Status::DeadlineExceeded("peer " + endpoint.ToString() +
                                    ": deadline exceeded");
  };
  const auto cancelled_status = [&] {
    return Status::Cancelled("peer " + endpoint.ToString() +
                             ": call aborted");
  };

  if (abort && abort()) return cancelled_status();
  // The connect gets the remaining budget, capped so the abort hook
  // stays responsive even while a TCP connect is pending.
  double connect_budget = bounded ? SecondsUntil(deadline) : 5.0;
  if (connect_budget <= 0.0) return deadline_status();
  FPM_ASSIGN_OR_RETURN(const int fd, DialEndpoint(endpoint, connect_budget));

  if (expired()) {
    ::close(fd);
    return deadline_status();
  }
  if (abort && abort()) {
    ::close(fd);
    return cancelled_status();
  }
  const Status sent = WriteLine(fd, line);
  if (!sent.ok()) {
    ::close(fd);
    return PeerError(endpoint, sent.message());
  }

  LineReader reader(fd);
  std::string_view reply;
  while (!reader.Next(&reply)) {
    if (expired()) {
      ::close(fd);
      return deadline_status();
    }
    if (abort && abort()) {
      ::close(fd);
      return cancelled_status();
    }
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready < 0) {
      const int err = errno;
      ::close(fd);
      return PeerError(endpoint, std::string("poll: ") + std::strerror(err));
    }
    if (ready == 0) continue;  // tick: re-check abort/deadline
    const Status filled = reader.Fill();
    if (!filled.ok()) {
      ::close(fd);
      switch (filled.code()) {
        case StatusCode::kResourceExhausted:
          return LineTooLong("peer " + endpoint.ToString() + ": reply");
        case StatusCode::kUnavailable:
          return PeerError(endpoint, "connection closed before response");
        default:
          return PeerError(endpoint, filled.message());
      }
    }
  }
  std::string result(reply);
  ::close(fd);
  return result;
}

}  // namespace fpm
