#include "fpm/cluster/endpoint.h"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fpm {

namespace {

// Backlog of every listening socket.
constexpr int kListenBacklog = 64;

// "<action> <endpoint>: <stage>: <detail>", action "dial" or "listen".
Status EndpointError(const char* action, const Endpoint& endpoint,
                     const std::string& stage, const std::string& detail) {
  return Status::Unavailable(std::string(action) + " " + endpoint.ToString() +
                             ": " + stage + ": " + detail);
}

Status EndpointErrno(const char* action, const Endpoint& endpoint,
                     const std::string& stage, int err) {
  return EndpointError(action, endpoint, stage, std::strerror(err));
}

/// The fd of a new socket of `family`/`protocol`, bound to `addr` and
/// listening; closes it on failure.
Result<int> BindAndListen(const Endpoint& endpoint, int family,
                          int protocol, const sockaddr* addr,
                          socklen_t addr_len) {
  const int fd = ::socket(family, SOCK_STREAM, protocol);
  if (fd < 0) return EndpointErrno("listen", endpoint, "socket", errno);
  if (family != AF_UNIX) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  const char* stage = nullptr;
  if (::bind(fd, addr, addr_len) != 0) {
    stage = "bind";
  } else if (::listen(fd, kListenBacklog) != 0) {
    stage = "listen";
  }
  if (stage != nullptr) {
    const int err = errno;
    ::close(fd);
    return EndpointErrno("listen", endpoint, stage, err);
  }
  return fd;
}

/// Resolves a TCP endpoint; AI_PASSIVE for a listener.
Result<addrinfo*> Resolve(const char* action, const Endpoint& endpoint,
                          int flags) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = flags;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(endpoint.host.c_str(),
                               std::to_string(endpoint.port).c_str(), &hints,
                               &results);
  if (rc != 0) {
    return EndpointError(action, endpoint, "resolve", ::gai_strerror(rc));
  }
  return results;
}

/// `endpoint`'s sockaddr_un; false when the path does not fit.
bool UnixAddress(const Endpoint& endpoint, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  if (endpoint.unix_path.size() >= sizeof(addr->sun_path)) return false;
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, endpoint.unix_path.c_str(),
               sizeof(addr->sun_path) - 1);
  return true;
}

/// Completes a non-blocking connect() within `timeout_seconds`, then
/// restores the fd to blocking mode. Closes the fd on failure.
Status FinishConnect(int fd, const Endpoint& endpoint, const sockaddr* addr,
                     socklen_t addr_len, double timeout_seconds) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, addr_len) != 0 && errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    return EndpointErrno("dial", endpoint, "connect", err);
  }
  pollfd pfd{fd, POLLOUT, 0};
  const int timeout_ms =
      timeout_seconds <= 0.0 ? -1 : static_cast<int>(timeout_seconds * 1000.0);
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready == 0) {
    ::close(fd);
    return Status::DeadlineExceeded("dial " + endpoint.ToString() +
                                    ": connect timed out");
  }
  if (ready < 0) {
    const int err = errno;
    ::close(fd);
    return EndpointErrno("dial", endpoint, "poll", err);
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
      so_error != 0) {
    const int err = so_error != 0 ? so_error : errno;
    ::close(fd);
    return EndpointErrno("dial", endpoint, "connect", err);
  }
  ::fcntl(fd, F_SETFL, flags);
  return Status::OK();
}

}  // namespace

std::string Endpoint::ToString() const {
  if (is_unix()) return unix_path;
  return host + ":" + std::to_string(port);
}

Result<Endpoint> ParseEndpoint(const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("endpoint must not be empty");
  }
  Endpoint endpoint;
  if (spec.find('/') != std::string::npos) {
    endpoint.unix_path = spec;
    return endpoint;
  }
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument(
        "endpoint '" + spec + "': expected HOST:PORT or a Unix socket path");
  }
  endpoint.host = spec.substr(0, colon);
  if (endpoint.host.empty()) {
    return Status::InvalidArgument("endpoint '" + spec +
                                   "': host must not be empty");
  }
  const std::string port_text = spec.substr(colon + 1);
  long port = 0;
  bool numeric = !port_text.empty();
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      numeric = false;
      break;
    }
    port = port * 10 + (c - '0');
    if (port > 65535) break;
  }
  if (!numeric || port < 1 || port > 65535) {
    return Status::InvalidArgument("endpoint '" + spec + "': port '" +
                                   port_text +
                                   "' must be a number in [1, 65535]");
  }
  endpoint.port = static_cast<uint16_t>(port);
  return endpoint;
}

Result<std::vector<Endpoint>> ParseEndpointList(const std::string& csv) {
  std::vector<Endpoint> endpoints;
  size_t start = 0;
  while (start <= csv.size()) {
    size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    const std::string entry = csv.substr(start, comma - start);
    if (entry.empty()) {
      return Status::InvalidArgument(
          "endpoint list '" + csv + "': empty entry");
    }
    FPM_ASSIGN_OR_RETURN(Endpoint endpoint, ParseEndpoint(entry));
    if (endpoint.is_unix()) {
      return Status::InvalidArgument(
          "endpoint list '" + csv + "': '" + entry +
          "' is a Unix socket path; cluster peers must be HOST:PORT");
    }
    endpoints.push_back(std::move(endpoint));
    start = comma + 1;
  }
  return endpoints;
}

Result<int> DialEndpoint(const Endpoint& endpoint, double timeout_seconds) {
  if (endpoint.is_unix()) {
    sockaddr_un addr;
    if (!UnixAddress(endpoint, &addr)) {
      return EndpointError("dial", endpoint, "connect", "socket path too long");
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return EndpointErrno("dial", endpoint, "socket", errno);
    const Status connected =
        FinishConnect(fd, endpoint, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr), timeout_seconds);
    if (!connected.ok()) return connected;
    return fd;
  }

  FPM_ASSIGN_OR_RETURN(addrinfo* const results, Resolve("dial", endpoint, 0));
  Status last = EndpointError("dial", endpoint, "resolve", "no addresses");
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = EndpointErrno("dial", endpoint, "socket", errno);
      continue;
    }
    last = FinishConnect(fd, endpoint, ai->ai_addr, ai->ai_addrlen,
                         timeout_seconds);
    if (last.ok()) {
      ::freeaddrinfo(results);
      return fd;
    }
  }
  ::freeaddrinfo(results);
  return last;
}

Result<int> ListenEndpoint(const Endpoint& endpoint) {
  if (endpoint.is_unix()) {
    sockaddr_un addr;
    if (!UnixAddress(endpoint, &addr)) {
      return EndpointError("listen", endpoint, "bind", "socket path too long");
    }
    struct stat st;
    if (::lstat(addr.sun_path, &st) == 0 && S_ISSOCK(st.st_mode)) {
      ::unlink(addr.sun_path);
    }
    return BindAndListen(endpoint, AF_UNIX, 0,
                         reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }

  FPM_ASSIGN_OR_RETURN(addrinfo* const results,
                       Resolve("listen", endpoint, AI_PASSIVE));
  Result<int> fd = EndpointError("listen", endpoint, "resolve", "no addresses");
  for (addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    fd = BindAndListen(endpoint, ai->ai_family, ai->ai_protocol, ai->ai_addr,
                       ai->ai_addrlen);
    if (fd.ok()) break;
  }
  ::freeaddrinfo(results);
  return fd;
}

}  // namespace fpm
