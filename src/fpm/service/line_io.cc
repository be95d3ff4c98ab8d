#include "fpm/service/line_io.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "fpm/common/logging.h"

namespace fpm {

Status LineTooLong(std::string_view what) {
  return Status::ResourceExhausted(std::string(what) + " exceeds " +
                                   std::to_string(kMaxLineBytes) + " bytes");
}

bool LineReader::Scan() {
  if (scan_ == end_) return false;
  const char* data = buffer_.get();
  const void* newline = std::memchr(data + scan_, '\n', end_ - scan_);
  if (newline == nullptr) {
    scanned_ += end_ - scan_;
    scan_ = end_;
    return false;
  }
  const size_t at =
      static_cast<size_t>(static_cast<const char*>(newline) - data);
  scanned_ += at - scan_;
  scan_ = at;
  return true;
}

bool LineReader::Next(std::string_view* line) {
  if (!Scan()) return false;
  *line = std::string_view(buffer_.get() + begin_, scan_ - begin_);
  ++scanned_;  // the newline itself
  begin_ = scan_ = scan_ + 1;
  return true;
}

Status LineReader::Fill() {
  FPM_DCHECK(scan_ == end_) << "Fill() with a whole line still buffered";
  const size_t pending = end_ - begin_;  // the partial line so far
  if (pending > kMaxLineBytes) return LineTooLong("line");  // rejected before
  if (pending == 0) begin_ = scan_ = end_ = 0;
  if (capacity_ - end_ < kMinReadBytes) {
    // Move the partial line to the front, into a larger buffer when it
    // would leave less than one read free. Each byte moves at most once
    // per doubling or once per consumed line, so the cost stays linear.
    if (pending + kMinReadBytes > capacity_) {
      // Double, but jump straight to the cap rather than allocating a
      // kMaxLineBytes buffer only to outgrow it by one read.
      size_t capacity = std::max(2 * capacity_, pending + kMinReadBytes);
      if (capacity >= kMaxLineBytes) capacity = kMaxLineBytes + kMinReadBytes;
      std::unique_ptr<char[]> grown =
          std::make_unique_for_overwrite<char[]>(capacity);
      if (pending > 0) {
        std::memcpy(grown.get(), buffer_.get() + begin_, pending);
      }
      buffer_ = std::move(grown);
      capacity_ = capacity;
    } else {
      std::memmove(buffer_.get(), buffer_.get() + begin_, pending);
    }
    begin_ = 0;
    scan_ = end_ = pending;
  }
  ssize_t n = 0;
  do {
    n = ::recv(fd_, buffer_.get() + end_, capacity_ - end_, 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return Status::Unavailable("connection closed");
  if (n < 0) {
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
  end_ += static_cast<size_t>(n);
  // Reject on the read that crosses the bound, unless a newline ends
  // the line within it: a peer that stops sending there must not leave
  // the caller waiting for the next read.
  if (end_ - begin_ > kMaxLineBytes &&
      (!Scan() || scan_ - begin_ > kMaxLineBytes)) {
    return LineTooLong("line");
  }
  return Status::OK();
}

Result<std::string_view> LineReader::ReadLine() {
  std::string_view line;
  while (!Next(&line)) FPM_RETURN_IF_ERROR(Fill());
  return line;
}

Status WriteLine(int fd, std::string_view line) {
  char newline = '\n';
  iovec parts[2];
  parts[0] = {const_cast<char*>(line.data()), line.size()};
  parts[1] = {&newline, 1};
  iovec* next = parts;
  size_t count = 2;
  while (count > 0) {
    msghdr message{};
    message.msg_iov = next;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::Unavailable(std::string("send: ") + std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= next->iov_len) {
      sent -= next->iov_len;
      ++next;
      --count;
    }
    if (count > 0) {
      next->iov_base = static_cast<char*>(next->iov_base) + sent;
      next->iov_len -= sent;
    }
  }
  return Status::OK();
}

}  // namespace fpm
