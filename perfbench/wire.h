// A client connection to fpmd: one newline-terminated JSON request out,
// one reply line back, with the times of the exchange's stages.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// Steady-clock times (ms, see NowMs) of one exchange.
struct ExchangeTimes {
  double start = 0.0;       ///< before the first request byte is written
  double written = 0.0;     ///< after the last request byte is written
  double first_byte = 0.0;  ///< the first reply byte arrived
  double last_byte = 0.0;   ///< the reply's newline arrived
  size_t bytes = 0;         ///< reply length, newline excluded
};

class Connection {
 public:
  static std::unique_ptr<Connection> Unix(const std::string& path,
                                          std::string* error);
  static std::unique_ptr<Connection> Tcp(int port, std::string* error);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `request` and a newline, then reads one reply line. On
  /// success `*reply` views the line (valid until the next call).
  bool Exchange(std::string_view request, std::string_view* reply,
                ExchangeTimes* times, std::string* error);

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
  size_t consumed_ = 0;  ///< bytes of buffer_ the previous reply used
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
