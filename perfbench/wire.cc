#include "wire.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "procs.h"

namespace perfbench {
namespace {

constexpr size_t kReadChunk = 256 * 1024;

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

std::unique_ptr<Connection> Connection::Unix(const std::string& path,
                                             std::string* error) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    *error = "socket path too long: " + path;
    return nullptr;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return nullptr;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = Errno("connect " + path);
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Connection>(new Connection(fd));
}

std::unique_ptr<Connection> Connection::Tcp(int port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = Errno("socket");
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = Errno("connect 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() { ::close(fd_); }

bool Connection::Exchange(std::string_view request, std::string_view* reply,
                          ExchangeTimes* times, std::string* error) {
  // Drop the previous reply; keep any bytes that followed it.
  buffer_.erase(0, consumed_);
  consumed_ = 0;

  std::string line(request);
  line.push_back('\n');
  times->start = NowMs();
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      *error = Errno("send");
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  times->written = NowMs();

  size_t scanned = 0;
  size_t used = buffer_.size();
  times->first_byte = used > 0 ? times->written : 0.0;
  while (true) {
    const void* newline =
        std::memchr(buffer_.data() + scanned, '\n', used - scanned);
    if (newline != nullptr) {
      times->last_byte = NowMs();
      const size_t end = static_cast<const char*>(newline) - buffer_.data();
      times->bytes = end;
      consumed_ = end + 1;
      buffer_.resize(used);
      *reply = std::string_view(buffer_.data(), end);
      return true;
    }
    scanned = used;
    if (buffer_.size() < used + kReadChunk) buffer_.resize(used + kReadChunk);
    const ssize_t n = ::recv(fd_, buffer_.data() + used, kReadChunk, 0);
    if (n <= 0) {
      buffer_.resize(used);
      *error = n == 0 ? std::string("connection closed by fpmd")
                      : Errno("recv");
      return false;
    }
    if (times->first_byte == 0.0) times->first_byte = NowMs();
    used += static_cast<size_t>(n);
  }
}

}  // namespace perfbench
