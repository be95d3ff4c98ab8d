// The wire framing every fpmd hop uses (fpm/service/line_io.h), over a
// socketpair: lines come back exactly as splitting the bytes on '\n',
// whatever pieces they were written in; each byte is searched once;
// the kMaxLineBytes bound holds at both edges; end of stream inside a
// line is a close; and WriteLine delivers a long line whole.

#include "fpm/service/line_io.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fpm {
namespace {

constexpr size_t kMiB = size_t{1} << 20;

// A connected Unix stream pair: reader() for the LineReader side,
// writer() for the side the test scripts.
class SocketPair {
 public:
  SocketPair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      ADD_FAILURE() << "socketpair failed";
      fds_[0] = fds_[1] = -1;
      return;
    }
    // A reader that blocks where it should not fails the test instead
    // of hanging it.
    timeval timeout{};
    timeout.tv_sec = 60;
    ::setsockopt(fds_[0], SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~SocketPair() {
    CloseReader();
    CloseWriter();
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  int reader() const { return fds_[0]; }
  int writer() const { return fds_[1]; }
  void CloseReader() { Close(&fds_[0]); }
  void CloseWriter() { Close(&fds_[1]); }

 private:
  static void Close(int* fd) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  int fds_[2];
};

void SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return;
    data.remove_prefix(static_cast<size_t>(n));
  }
}

// Sends `count` bytes in 1 MiB blocks; block i is filled with
// BlockByte(i), so a lost or reordered block shows in the content.
char BlockByte(size_t i) { return static_cast<char>('a' + i % 26); }

void SendBlocks(int fd, size_t count) {
  std::string block;
  for (size_t i = 0; i * kMiB < count; ++i) {
    block.assign(std::min(kMiB, count - i * kMiB), BlockByte(i));
    SendAll(fd, block);
  }
}

// Waits until the other side closes.
void AwaitClose(int fd) {
  char c = 0;
  while (::recv(fd, &c, 1, 0) > 0) {
  }
}

std::vector<std::string> SplitOnNewlines(const std::string& bytes) {
  std::vector<std::string> lines;
  size_t begin = 0;
  for (size_t at; (at = bytes.find('\n', begin)) != std::string::npos;
       begin = at + 1) {
    lines.push_back(bytes.substr(begin, at - begin));
  }
  return lines;
}

TEST(LineReaderTest, RandomPiecesReadBackAsTheBytesSplitOnNewlines) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    const auto uniform = [&rng](size_t lo, size_t hi) {
      return std::uniform_int_distribution<size_t>(lo, hi)(rng);
    };
    // 300 lines: a fifth empty, most short, some up to 100 KiB, and one
    // of several MiB; any byte but '\n', NUL included.
    const size_t big = uniform(0, 299);
    std::string bytes;
    for (size_t i = 0; i < 300; ++i) {
      size_t length = 0;
      if (i == big) {
        length = uniform(2 * kMiB, 5 * kMiB);
      } else if (uniform(0, 4) != 0) {
        length = uniform(0, 9) == 0 ? uniform(1, 100 << 10) : uniform(1, 200);
      }
      for (size_t j = 0; j < length; ++j) {
        char c = static_cast<char>(uniform(0, 255));
        bytes.push_back(c == '\n' ? ' ' : c);
      }
      bytes.push_back('\n');
    }
    const std::vector<std::string> want = SplitOnNewlines(bytes);
    ASSERT_EQ(want.size(), 300u);

    SocketPair pair;
    // Pieces of 1 B to 64 KiB, log-uniform so tiny ones are common.
    std::vector<size_t> pieces;
    for (size_t sent = 0; sent < bytes.size();) {
      const size_t most = size_t{1} << uniform(0, 16);
      const size_t piece = std::min(uniform(1, most), bytes.size() - sent);
      pieces.push_back(piece);
      sent += piece;
    }
    std::thread writer([&] {
      size_t at = 0;
      for (const size_t piece : pieces) {
        SendAll(pair.writer(), std::string_view(bytes).substr(at, piece));
        at += piece;
      }
      pair.CloseWriter();
    });
    LineReader reader(pair.reader());
    std::vector<std::string> got;
    while (true) {
      const Result<std::string_view> line = reader.ReadLine();
      if (!line.ok()) {
        EXPECT_EQ(line.status().code(), StatusCode::kUnavailable)
            << line.status();
        break;
      }
      got.emplace_back(line.value());
    }
    writer.join();
    EXPECT_TRUE(got == want) << "got " << got.size() << " lines";
    EXPECT_EQ(reader.scanned_bytes(), bytes.size());
  }
}

TEST(LineReaderTest, LongLineInSmallPiecesIsScannedOnce) {
  // Searching the whole buffer after every 4 KiB read would cost about
  // n^2 / 8192 = 2^35 bytes for this line.
  const size_t length = 16 * kMiB;
  SocketPair pair;
  std::thread writer([&] {
    const std::string piece(4096, 'x');
    for (size_t sent = 0; sent < length; sent += piece.size()) {
      SendAll(pair.writer(), piece);
    }
    SendAll(pair.writer(), "\n");
  });
  LineReader reader(pair.reader());
  const Result<std::string_view> line = reader.ReadLine();
  writer.join();
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line.value().size(), length);
  EXPECT_LE(reader.scanned_bytes(), length + 1);
}

TEST(LineReaderTest, LineOfExactlyTheBoundIsAccepted) {
  SocketPair pair;
  std::thread writer([&] {
    SendBlocks(pair.writer(), kMaxLineBytes);
    SendAll(pair.writer(), "\n");
    pair.CloseWriter();
  });
  LineReader reader(pair.reader());
  const Result<std::string_view> line = reader.ReadLine();
  writer.join();
  ASSERT_TRUE(line.ok()) << line.status();
  ASSERT_EQ(line.value().size(), kMaxLineBytes);
  for (size_t i = 0; i * kMiB < kMaxLineBytes; ++i) {
    const std::string_view block = line.value().substr(i * kMiB, kMiB);
    ASSERT_EQ(block.find_first_not_of(BlockByte(i)), std::string_view::npos)
        << "block " << i;
  }
  const Result<std::string_view> after = reader.ReadLine();
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);
}

TEST(LineReaderTest, OneByteOverTheBoundIsRejectedWithoutWaiting) {
  SocketPair pair;
  // The writer keeps its end open: the reader must give up on the
  // buffered bytes alone, not wait for a newline or a close.
  std::thread writer([&] {
    SendBlocks(pair.writer(), kMaxLineBytes + 1);
    AwaitClose(pair.writer());
  });
  LineReader reader(pair.reader());
  const Result<std::string_view> line = reader.ReadLine();
  pair.CloseReader();
  writer.join();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(line.status().message(), "line exceeds 268435456 bytes");
  EXPECT_EQ(reader.scanned_bytes(), kMaxLineBytes + 1);
}

TEST(LineReaderTest, NewlineJustPastTheBoundComesTooLate) {
  SocketPair pair;
  // The newline ends a line one byte too long, and more follows it;
  // the reader takes at most one read past the bound.
  std::thread writer([&] {
    SendBlocks(pair.writer(), kMaxLineBytes + 1);
    SendAll(pair.writer(), "\n");
    SendBlocks(pair.writer(), 8 * kMiB);
    AwaitClose(pair.writer());
  });
  LineReader reader(pair.reader());
  const Result<std::string_view> line = reader.ReadLine();
  pair.CloseReader();
  writer.join();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kResourceExhausted);
  // Every buffered byte is scanned, so this is the most ever buffered.
  EXPECT_GT(reader.scanned_bytes(), kMaxLineBytes);
  EXPECT_LE(reader.scanned_bytes(), kMaxLineBytes + LineReader::kMinReadBytes);
}

TEST(LineReaderTest, EndOfStreamInsideALineIsAClose) {
  SocketPair pair;
  SendAll(pair.writer(), "{\"ok\":true}\n{\"ok\":tr");
  pair.CloseWriter();
  LineReader reader(pair.reader());
  const Result<std::string_view> first = reader.ReadLine();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first.value(), "{\"ok\":true}");
  const Result<std::string_view> second = reader.ReadLine();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(second.status().message(), "connection closed");
}

TEST(WriteLineTest, LongLineReachesASlowReaderWholeWithOneNewline) {
  std::string line(6 * kMiB, '\0');
  for (size_t i = 0; i < line.size(); ++i) {
    line[i] = static_cast<char>('a' + i % 23);
  }
  SocketPair pair;
  std::string received;
  std::thread slow_reader([&] {
    char chunk[16384];
    ssize_t n;
    while ((n = ::recv(pair.reader(), chunk, sizeof(chunk), 0)) > 0) {
      received.append(chunk, static_cast<size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  const Status written = WriteLine(pair.writer(), line);
  pair.CloseWriter();
  slow_reader.join();
  ASSERT_TRUE(written.ok()) << written;
  ASSERT_EQ(received.size(), line.size() + 1);
  EXPECT_EQ(std::count(received.begin(), received.end(), '\n'), 1);
  EXPECT_EQ(received.back(), '\n');
  EXPECT_TRUE(std::string_view(received).substr(0, line.size()) == line);
}

TEST(WriteLineTest, EmptyLineIsANewline) {
  SocketPair pair;
  ASSERT_TRUE(WriteLine(pair.writer(), "").ok());
  pair.CloseWriter();
  LineReader reader(pair.reader());
  const Result<std::string_view> line = reader.ReadLine();
  ASSERT_TRUE(line.ok()) << line.status();
  EXPECT_EQ(line.value(), "");
  EXPECT_EQ(reader.scanned_bytes(), 1u);
}

TEST(WriteLineTest, ClosedPeerIsUnavailable) {
  SocketPair pair;
  pair.CloseReader();
  const Status written = WriteLine(pair.writer(), "{\"op\":\"ping\"}");
  EXPECT_EQ(written.code(), StatusCode::kUnavailable);
  EXPECT_EQ(written.message(), "send: Broken pipe");
}

}  // namespace
}  // namespace fpm
