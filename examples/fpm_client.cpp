// fpm_client — command-line client for fpmd (examples/fpmd.cpp).
//
//   ./fpm_client --socket=/tmp/fpmd.sock ping
//   ./fpm_client --socket=/tmp/fpmd.sock metrics
//   ./fpm_client --socket=/tmp/fpmd.sock stats
//       live service state: registry datasets, cache, scheduler queue
//       and in-flight jobs, rolling latency windows, watchdog counters.
//   ./fpm_client --socket=/tmp/fpmd.sock metrics-text
//       prints the metrics snapshot in Prometheus text exposition
//       format (the decoded "text" field; --json keeps the raw JSON
//       envelope). Pipe to a node_exporter textfile collector.
//   ./fpm_client --socket=/tmp/fpmd.sock shutdown
//   ./fpm_client --socket=/tmp/fpmd.sock query <dataset> <min_support>
//       [--task=frequent|closed|maximal|top_k|rules] [--top-k=N]
//       [--min-confidence=X] [--min-lift=X] [--max-consequent=N]
//       [--algorithm=NAME] [--patterns=all|none] [--priority=N]
//       [--timeout=SEC] [--count-only] [--repeat=N]
//   ./fpm_client --socket=/tmp/fpmd.sock batch <file>
//       <file> holds one JSON query object per line (the "query" op's
//       fields); they are sent as one {"op":"batch"} request and the
//       tagged response lines print in the daemon's completion order.
//   ./fpm_client --socket=/tmp/fpmd.sock open <dataset>
//       loads (or hits) the dataset and prints its handle: the "ds-N"
//       id that addresses it in the streaming ops below.
//   ./fpm_client --socket=/tmp/fpmd.sock append <ds-id> <fimi-file>
//       appends the file's transactions (FIMI: space-separated items,
//       one transaction per line) as a new dataset version.
//   ./fpm_client --socket=/tmp/fpmd.sock expire <ds-id> <count>
//       expires the count oldest live transactions as a new version.
//   ./fpm_client --socket=/tmp/fpmd.sock window <ds-id>
//       [--last-n=N] [--last-seconds=X]
//       installs a sliding-window policy (overflow expires immediately).
//   ./fpm_client --socket=/tmp/fpmd.sock dataset-info <ds-id>
//       prints the id, window policy and full version chain.
//   ./fpm_client --endpoint=HOST:PORT cluster-info [dataset]
//       prints the daemon's cluster view: peers, health, ping
//       latencies, coordinator counters; with a dataset argument, also
//       the dataset's placement (digest + replica owners).
//
// --endpoint=SPEC addresses the daemon by TCP host:port or by Unix
// socket path (anything containing '/'); it shares the dialer with the
// cluster PeerClient, so the address grammar and error messages are
// identical to the --cluster flag's. --socket=PATH remains as the
// Unix-only spelling.
//
// "query" also accepts a "ds-N" handle id in place of the dataset path
// (add --version=N to pin an older version; default is latest).
//
// "query" accepts --trace-id=STR, an opaque tag echoed in the response
// and the daemon's query log — thread your own request id through.
//
// Prints one response line per request to stdout (raw protocol JSON —
// pipe through jq for pretty output). --repeat issues the same request
// N times on one connection, which is how the CI smoke test drives the
// daemon's result cache. Each reply is checked in one pass that builds
// nothing (ReplyStatus, fpm/service/protocol.h). Exit code: 0 when every
// reply is a line in fpmd's form whose "ok" is true or absent (the
// metrics snapshot has none), 1 for an error envelope or any other
// line.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "fpm/cluster/endpoint.h"
#include "fpm/common/json_writer.h"
#include "fpm/service/json.h"
#include "fpm/service/line_io.h"
#include "fpm/service/protocol.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --endpoint=HOST:PORT|PATH "
               "ping|metrics|stats|metrics-text|shutdown [--json]\n"
               "       %s --endpoint=SPEC query DATASET|DS-ID MIN_SUPPORT "
               "[--task=NAME] [--top-k=N] [--min-confidence=X] "
               "[--min-lift=X] [--max-consequent=N] [--version=N] "
               "[--trace-id=STR] [--algorithm=NAME] "
               "[--patterns=all|none] [--priority=N] [--timeout=SEC] "
               "[--count-only] [--repeat=N]\n"
               "       %s --endpoint=SPEC batch FILE\n"
               "       %s --endpoint=SPEC open DATASET\n"
               "       %s --endpoint=SPEC append DS-ID FIMI_FILE\n"
               "       %s --endpoint=SPEC expire DS-ID COUNT\n"
               "       %s --endpoint=SPEC window DS-ID [--last-n=N] "
               "[--last-seconds=X]\n"
               "       %s --endpoint=SPEC dataset-info DS-ID\n"
               "       %s --endpoint=SPEC cluster-info [DATASET]\n"
               "--socket=PATH is an alias for --endpoint with a Unix "
               "socket path.\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
               argv0);
  return 2;
}

/// True for a registry handle id ("ds-" + digits) — how "query" decides
/// between path and id addressing.
bool IsHandleRef(const std::string& s) {
  if (s.rfind("ds-", 0) != 0 || s.size() == 3) return false;
  for (size_t i = 3; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// Writes a FIMI transaction file as a JSON array of item arrays.
/// Returns false (with a message on stderr) on unreadable file, a
/// non-numeric token, or zero transactions.
bool WriteFimiTransactions(const std::string& path, fpm::JsonWriter& w) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  w.BeginArray();
  std::string line;
  std::vector<long> txn;
  size_t count = 0;
  while (std::getline(file, line)) {
    txn.clear();
    const char* p = line.c_str();
    while (*p != '\0') {
      while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
      if (*p == '\0') break;
      char* end = nullptr;
      const long item = std::strtol(p, &end, 10);
      if (end == p || item < 0) {
        std::fprintf(stderr, "%s: bad item token in '%s'\n", path.c_str(),
                     line.c_str());
        return false;
      }
      txn.push_back(item);
      p = end;
    }
    if (txn.empty()) continue;
    w.BeginArray();
    for (long item : txn) w.Int(item);
    w.EndArray();
    ++count;
  }
  w.EndArray();
  if (count == 0) {
    std::fprintf(stderr, "%s: no transactions\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string endpoint_spec;
  std::string op;
  std::string dataset;  // batch: query file; append/expire/...: ds id
  std::string arg2;     // third positional, interpreted per op
  long min_support = 0;
  std::string task;
  long top_k = 0;
  double min_confidence = -1.0;
  double min_lift = -1.0;
  long max_consequent = 0;
  std::string algorithm;
  std::string patterns;
  long priority = 0;
  double timeout_seconds = 0.0;
  bool count_only = false;
  long repeat = 1;
  long version = 0;
  long last_n = -1;
  double last_seconds = -1.0;
  std::string trace_id;
  bool json_output = false;

  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      endpoint_spec = arg.substr(9);
    } else if (arg.rfind("--endpoint=", 0) == 0) {
      endpoint_spec = arg.substr(11);
    } else if (arg.rfind("--task=", 0) == 0) {
      task = arg.substr(7);
    } else if (arg.rfind("--top-k=", 0) == 0) {
      top_k = std::atol(arg.c_str() + 8);
    } else if (arg.rfind("--min-confidence=", 0) == 0) {
      min_confidence = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--min-lift=", 0) == 0) {
      min_lift = std::atof(arg.c_str() + 11);
    } else if (arg.rfind("--max-consequent=", 0) == 0) {
      max_consequent = std::atol(arg.c_str() + 17);
    } else if (arg.rfind("--algorithm=", 0) == 0) {
      algorithm = arg.substr(12);
    } else if (arg.rfind("--patterns=", 0) == 0) {
      patterns = arg.substr(11);
    } else if (arg.rfind("--priority=", 0) == 0) {
      priority = std::atol(arg.c_str() + 11);
    } else if (arg.rfind("--timeout=", 0) == 0) {
      timeout_seconds = std::atof(arg.c_str() + 10);
    } else if (arg == "--count-only") {
      count_only = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::atol(arg.c_str() + 9);
    } else if (arg.rfind("--version=", 0) == 0) {
      version = std::atol(arg.c_str() + 10);
    } else if (arg.rfind("--last-n=", 0) == 0) {
      last_n = std::atol(arg.c_str() + 9);
    } else if (arg.rfind("--last-seconds=", 0) == 0) {
      last_seconds = std::atof(arg.c_str() + 15);
    } else if (arg.rfind("--trace-id=", 0) == 0) {
      trace_id = arg.substr(11);
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else if (positional == 0) {
      op = arg;
      ++positional;
    } else if (positional == 1) {
      dataset = arg;
      ++positional;
    } else if (positional == 2) {
      arg2 = arg;
      min_support = std::atol(arg.c_str());
      ++positional;
    } else {
      return Usage(argv[0]);
    }
  }
  if (endpoint_spec.empty() || op.empty() || repeat < 1) {
    return Usage(argv[0]);
  }
  const bool is_query = op == "query";
  if (is_query && (dataset.empty() || min_support < 1)) {
    return Usage(argv[0]);
  }
  if (op == "batch" && dataset.empty()) return Usage(argv[0]);
  const bool is_dataset_op = op == "open" || op == "append" ||
                             op == "expire" || op == "window" ||
                             op == "dataset-info";
  if (is_dataset_op && dataset.empty()) return Usage(argv[0]);
  if ((op == "append" || op == "expire") && arg2.empty()) {
    return Usage(argv[0]);
  }
  if (!is_query && !is_dataset_op && op != "batch" && op != "ping" &&
      op != "metrics" && op != "stats" && op != "metrics-text" &&
      op != "shutdown" && op != "cluster-info") {
    return Usage(argv[0]);
  }

  size_t expected_responses = 1;
  // The wire op names: "dataset-info" -> "dataset_info",
  // "metrics-text" -> "metrics_text" (CLI spelling uses dashes).
  std::string wire_op = op;
  if (op == "dataset-info") wire_op = "dataset_info";
  if (op == "metrics-text") wire_op = "metrics_text";
  if (op == "cluster-info") wire_op = "cluster_info";
  // Keys go out in ascending order, like every encoder's.
  std::string line;
  fpm::JsonWriter request(&line);
  request.BeginObject();
  if (is_query) {
    const bool by_id = IsHandleRef(dataset);
    if (!algorithm.empty()) request.Key("algorithm").String(algorithm);
    if (count_only) request.Key("count_only").Bool(true);
    if (!by_id) request.Key("dataset").String(dataset);
    if (by_id) request.Key("id").String(dataset);
    if (top_k > 0) request.Key("k").Int(top_k);
    if (max_consequent > 0) {
      request.Key("max_consequent").Int(max_consequent);
    }
    if (min_confidence >= 0.0) {
      request.Key("min_confidence").Number(min_confidence);
    }
    if (min_lift >= 0.0) request.Key("min_lift").Number(min_lift);
    request.Key("min_support").Int(min_support);
    request.Key("op").String(wire_op);
    if (!patterns.empty()) request.Key("patterns").String(patterns);
    if (priority != 0) request.Key("priority").Int(priority);
    if (!task.empty()) request.Key("task").String(task);
    if (timeout_seconds > 0.0) {
      request.Key("timeout_s").Number(timeout_seconds);
    }
    if (!trace_id.empty()) request.Key("trace_id").String(trace_id);
    if (by_id && version > 0) request.Key("version").Int(version);
  } else if (op == "cluster-info") {
    if (!dataset.empty()) request.Key("dataset").String(dataset);
    request.Key("op").String(wire_op);
    repeat = 1;
  } else if (op == "batch") {
    // One JSON query object per file line, embedded as written once the
    // parser accepts it; the daemon answers with exactly one tagged
    // line per entry.
    std::ifstream file(dataset);
    if (!file) {
      std::fprintf(stderr, "cannot read %s\n", dataset.c_str());
      return 1;
    }
    request.Key("op").String(wire_op).Key("queries").BeginArray();
    std::string file_line;
    size_t count = 0;
    while (std::getline(file, file_line)) {
      if (file_line.empty()) continue;
      auto parsed = fpm::ParseJson(file_line);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: bad query line: %s\n", dataset.c_str(),
                     parsed.status().message().c_str());
        return 1;
      }
      request.Raw(file_line);
      ++count;
    }
    if (count == 0) {
      std::fprintf(stderr, "%s: no queries\n", dataset.c_str());
      return 1;
    }
    request.EndArray();
    expected_responses = count;
    repeat = 1;
  } else if (is_dataset_op) {
    if (op == "expire") {
      const long count = std::atol(arg2.c_str());
      if (count < 1) {
        std::fprintf(stderr, "expire: COUNT must be >= 1\n");
        return Usage(argv[0]);
      }
      request.Key("count").Int(count);
    }
    request.Key(op == "open" ? "dataset" : "id").String(dataset);
    if (op == "window") {
      if (last_n < 0 && last_seconds < 0.0) {
        std::fprintf(stderr,
                     "window: need --last-n=N and/or --last-seconds=X\n");
        return Usage(argv[0]);
      }
      if (last_n >= 0) request.Key("last_n").Int(last_n);
      if (last_seconds >= 0.0) {
        request.Key("last_seconds").Number(last_seconds);
      }
    }
    request.Key("op").String(wire_op);
    if (op == "append") {
      request.Key("transactions");
      if (!WriteFimiTransactions(arg2, request)) return 1;
    }
    repeat = 1;
  } else {
    request.Key("op").String(wire_op);
    repeat = 1;
  }
  request.EndObject();

  // One dialer for Unix paths and TCP host:port — the same helper the
  // cluster's PeerClient uses, so error messages match the daemon's.
  auto endpoint = fpm::ParseEndpoint(endpoint_spec);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "%s\n", endpoint.status().message().c_str());
    return 1;
  }
  auto dialed = fpm::DialEndpoint(endpoint.value(), /*timeout_seconds=*/5.0);
  if (!dialed.ok()) {
    std::fprintf(stderr, "%s\n", dialed.status().message().c_str());
    return 1;
  }
  const int fd = dialed.value();

  fpm::LineReader reader(fd);
  bool all_ok = true;
  for (long i = 0; i < repeat; ++i) {
    if (!fpm::WriteLine(fd, line).ok()) {
      std::fprintf(stderr, "send failed\n");
      ::close(fd);
      return 1;
    }
    for (size_t r = 0; r < expected_responses; ++r) {
      const fpm::Result<std::string_view> read = reader.ReadLine();
      if (!read.ok()) {
        const std::string message =
            read.status().code() == fpm::StatusCode::kResourceExhausted
                ? fpm::LineTooLong("reply").message()
                : "connection closed before response";
        std::fprintf(stderr, "%s\n", message.c_str());
        ::close(fd);
        return 1;
      }
      const std::string_view response = read.value();
      if (op == "metrics-text" && !json_output) {
        // Unwrap the exposition text so the output pipes straight into
        // a Prometheus textfile collector.
        const fpm::Result<std::string> text =
            fpm::DecodeMetricsTextResponse(response);
        if (text.ok()) {
          std::fwrite(text->data(), 1, text->size(), stdout);
          continue;
        }
      }
      std::fwrite(response.data(), 1, response.size(), stdout);
      std::fputc('\n', stdout);
      if (!fpm::ReplyStatus(response).ok()) all_ok = false;
    }
  }
  ::close(fd);
  return all_ok ? 0 : 1;
}
