// Newline framing for the fpmd wire protocol (protocol.h): the one line
// reader and the one line writer that fpmd's connection threads, the
// cluster PeerClient and fpm_client all use.
//
// LineReader searches each received byte for '\n' once and hands lines
// out by offset, so an n-byte line costs O(n) however many recv() calls
// it arrives in. A line holds at most kMaxLineBytes bytes before its
// newline: once more than that are buffered without one, Fill() fails
// with RESOURCE_EXHAUSTED and the caller closes the connection. The
// buffer never holds more than kMaxLineBytes + kMinReadBytes bytes,
// whatever the other side sends.
//
// WriteLine sends a line and its newline as one gathered write (the
// payload is never copied) and finishes partial writes.
//
// Both work on a connected, blocking stream socket they do not own.

#ifndef FPM_SERVICE_LINE_IO_H_
#define FPM_SERVICE_LINE_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "fpm/common/status.h"

namespace fpm {

/// The longest line either side of the wire accepts, newline excluded:
/// 256 MiB, 5x the largest answer measured (47 MB).
inline constexpr size_t kMaxLineBytes = size_t{256} << 20;

/// RESOURCE_EXHAUSTED "<what> exceeds 268435456 bytes": the one wording
/// of an over-long line, whichever side saw it.
Status LineTooLong(std::string_view what);

/// Reads the lines of one connection, in order.
class LineReader {
 public:
  /// Every recv() is offered at least this much free buffer.
  static constexpr size_t kMinReadBytes = 4096;

  explicit LineReader(int fd) : fd_(fd) {}

  /// Takes the next whole line already buffered (newline stripped)
  /// without touching the socket; false when none is. Only bytes not
  /// searched before are searched. The view stays valid until Fill().
  bool Next(std::string_view* line);

  /// Reads once from the socket; call it when Next() returned false.
  /// Errors: UNAVAILABLE "connection closed" at end of stream (also in
  /// the middle of a line), IO_ERROR "recv: ..." on a socket error, and
  /// LineTooLong("line") from the read that leaves more than
  /// kMaxLineBytes bytes buffered without a newline.
  Status Fill();

  /// Next(), reading until a whole line has arrived.
  Result<std::string_view> ReadLine();

  /// Bytes searched for '\n' so far; each received byte counts once.
  uint64_t scanned_bytes() const { return scanned_; }

 private:
  /// Advances scan_ to the next '\n' (true) or to end_ (false).
  bool Scan();

  int fd_;
  std::unique_ptr<char[]> buffer_;  ///< doubles up to kMaxLineBytes + 4 KiB
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< first byte not yet handed out as a line
  size_t scan_ = 0;   ///< [begin_, scan_) holds no '\n'; never rescanned
  size_t end_ = 0;    ///< one past the last received byte
  uint64_t scanned_ = 0;
};

/// Sends `line` followed by '\n'. UNAVAILABLE "send: ..." when the
/// socket fails before every byte is out.
Status WriteLine(int fd, std::string_view line);

}  // namespace fpm

#endif  // FPM_SERVICE_LINE_IO_H_
