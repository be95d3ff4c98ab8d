// perfbench — runs one workload of the end-to-end benchmark and prints
// its metrics. README.md says what each workload is for; run.py builds
// this binary, generates the inputs and calls it as
//
//   perfbench --workload=W --seed=N --seconds=S --trace=0|1
//             --bin=DIR --inputs=DIR --run-dir=DIR
//   perfbench --self-test
//
// The last line of stdout is one JSON object: correct, attempted,
// failed, metrics (name -> {value, unit}), absent (name -> reason), host
// and budget. The lines before it are a human-readable report.

#include <sched.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "fpm/core/mine.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/obs/metrics.h"
#include "json.h"
#include "procs.h"
#include "wire.h"

namespace perfbench {
namespace {

// Answer sizes are chosen where they are stable across seeds (README.md).
constexpr uint64_t kForwardSupport = 600;  // 3% of 20K docs: ~11.8K sets
constexpr uint64_t kQuestSupport = 450;    // 3% of 15K transactions
// serve_forward runs a fixed number of ops (20 per second of --seconds):
// fpmd keeps one thread per peer connection until it exits, and the entry
// opens a connection per probe, so memory grows per op.
constexpr double kForwardOpsPerSecond = 20.0;
// Left alone, the scheduler runs serve_forward's whole serial chain
// (client, entry, owner) on one CPU for the whole run, so a run would
// measure that one CPU's share of its neighbours' load. Moving the chain
// to the next CPU every kOpsPerCpu ops (about a second) spreads each run
// evenly over every CPU (README.md, "Bounds and host noise").
constexpr long kOpsPerCpu = 25;
constexpr int kDirectAsks = 20;          // owner-direct samples for hop_ms
constexpr int kSetups = 5;               // fresh set-ups per run
constexpr double kDaemonReadyMs = 30000.0;
constexpr double kDaemonExitMs = 10000.0;

double Mb(double bytes) { return bytes / (1024.0 * 1024.0); }

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// ---------------------------------------------------------------------
// Result of a run.

class Output {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Absent(const std::string& name, const std::string& reason) {
    absent_.emplace_back(name, reason);
  }
  void Attempt() { ++attempted_; }
  void Fail(const std::string& what) {
    ++failed_;
    Report(what);
  }
  /// A failed check outside any op, such as a daemon that did not exit
  /// cleanly: the run is not correct, but no op failed.
  void FailCheck(const std::string& what) {
    checks_failed_ = true;
    Report(what);
  }
  bool correct() const { return failed_ == 0 && !checks_failed_; }

  void Print(const std::string& extra) const {
    for (const std::string& f : failures_) {
      std::printf("FAILED: %s\n", f.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::string line = "{\"correct\":" + std::string(correct() ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted_) +
                       ",\"failed\":" + std::to_string(failed_) +
                       ",\"metrics\":{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      line += (i > 0 ? "," : "") + Quote(metrics_[i].name) +
              ":{\"value\":" + Number(metrics_[i].value) +
              ",\"unit\":" + Quote(metrics_[i].unit) + "}";
    }
    line += "},\"absent\":{";
    for (size_t i = 0; i < absent_.size(); ++i) {
      line += (i > 0 ? "," : "") + Quote(absent_[i].first) + ":" +
              Quote(absent_[i].second);
    }
    line += "}" + extra + "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void Report(const std::string& what) {
    if (failures_.size() < 5) failures_.push_back(what);
  }

  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> absent_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_failed_ = false;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------
// Spans, recorded in memory around every call the benchmark makes and
// written out when a traced run ends.

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int64_t Add(const std::string& name, double start, double end,
              int64_t parent, uint64_t op) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent, op});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "\n") << "{\"id\":" << i
          << ",\"name\":" << Quote(s.name) << ",\"op\":" << s.op
          << ",\"parent\":" << s.parent << ",\"start_ms\":" << Number(s.start)
          << ",\"end_ms\":" << Number(s.end) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int64_t parent;  // index of the parent span, -1 for an op
    uint64_t op;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Exchanges with fpmd and the ops built from them.

struct Step {
  std::string kind;
  ExchangeTimes times;
  double parsed = 0.0;
  double queue_ms = 0.0;
  double mine_ms = 0.0;  // the daemon's cache lookup/derive/kernel time
  std::string cache;     // empty for replies that are not query answers

  double write_ms() const { return times.written - times.start; }
  double ttfb_ms() const { return times.first_byte - times.start; }
  double transfer_ms() const { return times.last_byte - times.first_byte; }
  double parse_ms() const { return parsed - times.last_byte; }
  /// Daemon time to the first reply byte beyond queueing and the work it
  /// reports; dominated by encoding on large answers.
  double encode_ms() const {
    return std::max(0.0, ttfb_ms() - write_ms() - queue_ms - mine_ms);
  }
};

struct Op {
  double start = 0.0;
  double end = 0.0;
  double ttfb = 0.0;
  std::vector<Step> steps;
};

/// Sends a request answered by a v2 query reply and parses the reply.
bool Ask(Connection* conn, const std::string& request, const char* kind,
         Step* step, QueryAnswer* answer, std::string* error) {
  step->kind = kind;
  std::string_view reply;
  if (!conn->Exchange(request, &reply, &step->times, error)) return false;
  std::string parse_error;
  const bool parsed = ParseQueryAnswer(reply, answer, &parse_error);
  step->parsed = NowMs();
  if (!parsed) {
    *error = std::string(kind) + ": unparsable reply: " + parse_error;
    return false;
  }
  if (!answer->ok) {
    *error = std::string(kind) + ": " + answer->error;
    return false;
  }
  step->queue_ms = answer->queue_ms;
  step->mine_ms = answer->mine_ms;
  step->cache = answer->cache;
  return true;
}

/// Sends a control request (open, append, stats, ...) and parses the
/// reply into a tree. An {"ok":false} reply is an error.
bool Control(Connection* conn, const std::string& request, Json* reply,
             std::string* error, Step* step = nullptr) {
  Step local;
  Step* s = step != nullptr ? step : &local;
  std::string_view text;
  if (!conn->Exchange(request, &text, &s->times, error)) return false;
  const bool parsed = ParseJson(text, reply, error);
  s->parsed = NowMs();
  if (!parsed) return false;
  const Json* ok = reply->Find("ok");
  if (ok != nullptr && !ok->boolean) {
    *error = request.substr(0, 48) + ": " + reply->Str("error.code") + ": " +
             reply->Str("error.message");
    return false;
  }
  return true;
}

std::string QueryByPath(const std::string& path, uint64_t min_support) {
  return "{\"op\":\"query\",\"dataset\":" + Quote(path) +
         ",\"min_support\":" + std::to_string(min_support) +
         ",\"algorithm\":\"lcm\"}";
}

void RecordSpans(Spans* spans, const std::string& name, uint64_t id,
                 const Op& op) {
  const int64_t root = spans->Add(name, op.start, op.end, -1, id);
  for (const Step& s : op.steps) {
    const int64_t step = spans->Add(s.kind, s.times.start, s.parsed, root, id);
    spans->Add("write", s.times.start, s.times.written, step, id);
    spans->Add("first_byte", s.times.written, s.times.first_byte, step, id);
    spans->Add("last_byte", s.times.first_byte, s.times.last_byte, step, id);
    spans->Add("parse", s.times.last_byte, s.parsed, step, id);
  }
}

// ---------------------------------------------------------------------
// Inputs, built before any clock starts.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin;
  std::string inputs;
  std::string run_dir;
  int nproc = 1;
};

struct Inputs {
  std::string webdocs;  // 20K docs
  std::string quest;    // T60I10D15K
  ListingDigest forward_reference;
  KernelAnswer quest_reference;
};

/// Options of every mine of the Quest data. One thread runs the
/// sequential kernel, more the parallel driver.
fpm::MineOptions QuestOptions(fpm::Algorithm algorithm, int threads) {
  fpm::MineOptions options;
  options.algorithm = algorithm;
  options.min_support = kQuestSupport;
  options.patterns = fpm::PatternSet::All();
  options.execution.num_threads = static_cast<uint32_t>(threads);
  return options;
}

/// The sequential LCM kernel's answer on the Quest data: the reference
/// every mine_parallel answer must equal. It never enters the parallel
/// driver, whose class decomposition all three timed kernels share.
bool LoadKernelReference(const std::string& path, KernelAnswer* reference,
                         std::string* error) {
  fpm::Result<fpm::Database> db = fpm::ReadFimiFile(path);
  if (!db.ok()) {
    *error = db.status().ToString();
    return false;
  }
  fpm::CountingSink sink;
  const fpm::Result<fpm::MineStats> stats =
      fpm::Mine(db.value(), QuestOptions(fpm::Algorithm::kLcm, 1), &sink);
  if (!stats.ok()) {
    *error = "sequential lcm: " + stats.status().ToString();
    return false;
  }
  *reference = {"sequential lcm", sink.count(), sink.checksum()};
  return true;
}

bool LoadReference(const std::string& path, ListingDigest* digest,
                   std::string* error) {
  Listing listing;
  if (!ReadMineCliListing(path, &listing, error)) return false;
  *digest = DigestOf(listing);
  if (digest->count == 0) *error = path + " holds no itemsets";
  return digest->count > 0;
}

// ---------------------------------------------------------------------
// Daemons a set-up starts.

class Daemons {
 public:
  ~Daemons() { Stop(); }

  /// Starts one fpmd listening on <run-dir>/<name>.sock.
  bool Start(const Config& config, const std::string& name,
             const std::vector<std::string>& flags, bool traced,
             std::string* error) {
    Entry entry;
    entry.socket = config.run_dir + "/" + name + ".sock";
    std::vector<std::string> argv{config.bin + "/fpmd",
                                  "--socket=" + entry.socket};
    argv.insert(argv.end(), flags.begin(), flags.end());
    if (traced) {
      argv.push_back("--query-log=" + config.run_dir + "/" + name + ".qlog");
    }
    entry.daemon = Daemon::Start(argv, kDaemonReadyMs, error);
    if (!entry.daemon) return false;
    entries_.push_back(std::move(entry));
    return true;
  }

  const std::string& socket(size_t i) const { return entries_[i].socket; }
  pid_t pid(size_t i) const { return entries_[i].daemon->pid(); }

  /// Sends "shutdown" to every daemon, then waits for each with a bounded
  /// timeout and kills any still running. Callers close their own
  /// connections first: fpmd joins every connection thread before exiting.
  /// Returns the first thing that went wrong, empty when every daemon
  /// acknowledged the shutdown and exited by itself with status 0.
  std::string Stop() {
    std::string failure;
    for (const Entry& entry : entries_) {
      std::string error;
      Json reply;
      std::unique_ptr<Connection> conn = Connection::Unix(entry.socket, &error);
      if ((!conn || !Control(conn.get(), "{\"op\":\"shutdown\"}", &reply,
                             &error)) &&
          failure.empty()) {
        failure = entry.socket + ": shutdown: " + error;
      }
    }
    for (Entry& entry : entries_) {
      if (!entry.daemon->WaitOrKill(kDaemonExitMs) && failure.empty()) {
        failure = entry.socket + ": fpmd was killed or exited nonzero";
      }
    }
    entries_.clear();
    return failure;
  }

 private:
  struct Entry {
    std::unique_ptr<Daemon> daemon;
    std::string socket;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------
// Workloads.

/// What a measured phase observed.
struct Pass {
  std::vector<Op> ops;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  // the daemon(s), or this process on mine_parallel
  double rss_mb = 0.0;
  double steal_pct = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Pool threads and client connections the workload occupies.
  virtual int threads() const = 0;
  virtual int connections() const = 0;
  /// Fresh set-up: start what the workload drives and warm the caches
  /// its measured phase relies on. All of it counts toward setup_s.
  virtual bool Setup(bool traced, std::string* error) = 0;
  /// The measured phase: `seconds` long, or a fixed amount of work sized
  /// by `seconds` where memory grows per op (serve_forward).
  /// Checks each op as it completes.
  virtual Pass Measure(double seconds, Output* out, Spans* spans) = 0;
  /// Per-layer metrics of a traced pass.
  virtual void Layers(const Pass& pass, Output* out) = 0;
  /// Closes the client connections, then stops the daemons. Returns what
  /// went wrong, empty when every daemon exited cleanly.
  virtual std::string Stop() = 0;
};

/// Stage medians over serve_forward's ops: per op, each stage summed over
/// the op's exchanges.
void ClientStages(const Pass& pass, Output* out) {
  std::vector<double> write, parse, transfer, bytes, queue, encode;
  for (const Op& op : pass.ops) {
    double w = 0, p = 0, t = 0, b = 0, q = 0, e = 0;
    for (const Step& s : op.steps) {
      w += s.write_ms();
      p += s.parse_ms();
      t += s.transfer_ms();
      b += static_cast<double>(s.times.bytes);
      if (!s.cache.empty()) {
        q += s.queue_ms;
        e += s.encode_ms();
      }
    }
    write.push_back(w);
    parse.push_back(p);
    transfer.push_back(t);
    bytes.push_back(b);
    queue.push_back(q);
    encode.push_back(e);
  }
  out->Add("client.write_ms", Median(write), "ms");
  out->Add("client.parse_ms", Median(parse), "ms");
  out->Add("fpmd.transfer_ms", Median(transfer), "ms");
  out->Add("service.response_bytes", Median(bytes), "bytes");
  out->Add("service.queue_ms", Median(queue), "ms");
  out->Add("service.encode_ms", Median(encode), "ms");
}

/// Cache outcomes per op, and the daemon's median time on a hit.
void Outcomes(const Pass& pass, Output* out) {
  std::vector<double> hit_ms;
  double misses = 0;
  for (const Op& op : pass.ops) {
    for (const Step& s : op.steps) {
      if (s.cache == "hit") hit_ms.push_back(s.mine_ms);
      if (s.cache == "miss") ++misses;
    }
  }
  const double ops = static_cast<double>(std::max<size_t>(pass.ops.size(), 1));
  out->Add("service.outcome.hit", static_cast<double>(hit_ms.size()) / ops,
           "count/op");
  out->Add("service.outcome.miss", misses / ops, "count/op");
  if (!hit_ms.empty()) out->Add("service.hit_ms", Median(hit_ms), "ms");
}

/// Bytes the result cache holds per cached itemset, where it holds one
/// listing of known size.
void CacheBytesPerItemset(const Json& stats, uint64_t itemsets, Output* out) {
  if (stats.Num("cache.resident_entries") == 1 && itemsets > 0) {
    out->Add("service.cache_bytes_per_itemset",
             stats.Num("cache.resident_bytes") / static_cast<double>(itemsets),
             "bytes");
  } else {
    out->Absent("service.cache_bytes_per_itemset",
                "the cache does not hold exactly one listing");
  }
}

/// One query whose answer must be an exact cache hit equal to `reference`
/// (and served by `peer` when it is not empty). Appends its step to `op`;
/// returns false when the connection is unusable, and sets `*failure`
/// when the answer fails its check.
bool AskChecked(Connection* conn, const std::string& request,
                const ListingDigest& reference, const std::string& peer,
                Op* op, std::string* failure) {
  op->steps.emplace_back();
  Step& step = op->steps.back();
  QueryAnswer answer;
  const bool ok = Ask(conn, request, "query", &step, &answer, failure);
  if (!ok) return false;
  if (answer.cache != "hit") {
    *failure = "cache outcome '" + answer.cache + "'";
  } else if (!peer.empty() && answer.peer != peer) {
    *failure = "served by '" + answer.peer + "', not the owner " + peer;
  } else {
    *failure = CheckListing(answer.itemsets, reference);
  }
  return true;
}

/// Sends `request` `count` times on `conn`, each after the previous answer
/// is parsed, and checks each answer. One op is one query, from its first
/// request byte to its parsed answer. Every kOpsPerCpu ops this thread
/// and every thread of `daemons` move together to the next CPU, outside
/// any op, so that each CPU serves the same share of the ops; at the end
/// they may run anywhere again.
std::vector<Op> Queries(Connection* conn, const std::string& request,
                        const ListingDigest& reference, const std::string& peer,
                        long count, const std::vector<pid_t>& daemons,
                        Output* out) {
  const std::vector<int> cpus = AllowedCpus();
  const auto run_on = [&daemons](const std::vector<int>& set) {
    RunOn(set);
    for (const pid_t pid : daemons) MoveProcess(pid, set);
  };
  std::vector<Op> ops;
  for (long i = 0; i < count; ++i) {
    if (i % kOpsPerCpu == 0) {
      run_on({cpus[static_cast<size_t>(i / kOpsPerCpu) % cpus.size()]});
    }
    Op op;
    std::string failure;
    const bool usable = AskChecked(conn, request, reference, peer, &op, &failure);
    const Step& step = op.steps.back();
    op.start = step.times.start;
    op.ttfb = step.ttfb_ms();
    op.end = step.parsed;
    out->Attempt();
    if (!failure.empty()) out->Fail("serve_forward: " + failure);
    ops.push_back(std::move(op));
    if (!usable) break;
  }
  run_on(cpus);
  return ops;
}

// serve_forward: the same kind of hit at 3% support, sent over loopback
// TCP to the non-owner node of a two-node cluster, which probes the
// owner's cache and relays its answer.
class ServeForward : public Workload {
 public:
  /// `ports` and `owner` (0 or 1: which port owns the dataset) are fixed
  /// per run by Place() before any set-up is timed.
  ServeForward(const Config& config, const Inputs& inputs, int instance,
               const int ports[2], int owner)
      : config_(config), inputs_(inputs), instance_(instance), owner_(owner) {
    ports_[0] = ports[0];
    ports_[1] = ports[1];
  }

  int threads() const override { return 2; }  // one per node
  int connections() const override { return 1; }

  static std::string Endpoint(int port) {
    return "127.0.0.1:" + std::to_string(port);
  }

  /// Starts one node on `ports` and asks it which of the two owns the
  /// dataset (0 or 1), or -1.
  static int Place(const Config& config, const Inputs& inputs,
                   const int ports[2], std::string* error) {
    Daemons probe;
    const std::string cluster = Endpoint(ports[0]) + "," + Endpoint(ports[1]);
    if (!probe.Start(config, "place", {"--threads=1", "--cluster=" + cluster,
                                       "--self=" + Endpoint(ports[0]),
                                       "--replicas=1"},
                     false, error)) {
      return -1;
    }
    std::unique_ptr<Connection> conn = Connection::Unix(probe.socket(0), error);
    Json info;
    if (!conn || !Control(conn.get(),
                          "{\"op\":\"cluster_info\",\"dataset\":" +
                              Quote(inputs.webdocs) + "}",
                          &info, error)) {
      return -1;
    }
    conn.reset();
    *error = probe.Stop();
    if (!error->empty()) return -1;
    const Json* owners = info.Path("cluster.placement.owners");
    if (owners == nullptr || owners->array.size() != 1) {
      *error = "cluster_info gave no single owner";
      return -1;
    }
    for (int i = 0; i < 2; ++i) {
      if (owners->array[0].string == Endpoint(ports[i])) return i;
    }
    *error = "owner " + owners->array[0].string + " is not a node";
    return -1;
  }

  bool Setup(bool traced, std::string* error) override {
    // The owner starts first, so the entry's first health ping finds it
    // listening.
    const std::string cluster =
        Endpoint(ports_[0]) + "," + Endpoint(ports_[1]);
    const int order[2] = {owner_, 1 - owner_};
    for (const int node : order) {
      if (!daemons_.Start(
              config_,
              "fwd" + std::to_string(instance_) + (node == owner_ ? "o" : "e"),
              {"--threads=1", "--cluster=" + cluster,
               "--self=" + Endpoint(ports_[node]), "--replicas=1"},
              traced, error)) {
        return false;
      }
    }
    const std::string request = QueryByPath(inputs_.webdocs, kForwardSupport);
    Step step;
    QueryAnswer answer;
    {
      std::unique_ptr<Connection> owner = Connection::Tcp(ports_[owner_], error);
      if (!owner || !Ask(owner.get(), request, "cold", &step, &answer, error)) {
        return false;
      }
    }
    *error = CheckListing(answer.itemsets, inputs_.forward_reference);
    if (!error->empty()) return false;
    entry_ = Connection::Tcp(ports_[1 - owner_], error);
    if (!entry_ || !Ask(entry_.get(), request, "warm", &step, &answer, error)) {
      return false;
    }
    itemsets_ = answer.num_results;
    return true;
  }

  Pass Measure(double seconds, Output* out, Spans* spans) override {
    Snapshot(&before_);
    const std::string request = QueryByPath(inputs_.webdocs, kForwardSupport);
    const std::string owner = Endpoint(ports_[owner_]);
    Pass pass;
    const HostTicks ticks = ReadHostTicks();
    const double cpu_owner = ProcessCpuMs(daemons_.pid(0));
    const double cpu_entry = ProcessCpuMs(daemons_.pid(1));
    const double start = NowMs();
    pass.ops = Queries(entry_.get(), request, inputs_.forward_reference, owner,
                       std::lround(seconds * kForwardOpsPerSecond),
                       {daemons_.pid(0), daemons_.pid(1)}, out);
    pass.wall_ms = NowMs() - start;
    owner_cpu_ms_ = ProcessCpuMs(daemons_.pid(0)) - cpu_owner;
    entry_cpu_ms_ = ProcessCpuMs(daemons_.pid(1)) - cpu_entry;
    pass.cpu_ms = owner_cpu_ms_ + entry_cpu_ms_;
    const double owner_rss = PeakRssMb(daemons_.pid(0));
    const double entry_rss = PeakRssMb(daemons_.pid(1));
    std::printf("peak rss: owner %.1f MB, entry %.1f MB\n", owner_rss, entry_rss);
    pass.rss_mb = owner_rss + entry_rss;
    pass.steal_pct = StealPct(ticks, ReadHostTicks());
    Snapshot(&after_);
    for (size_t i = 0; i < pass.ops.size(); ++i) {
      RecordSpans(spans, "serve_forward.op", i, pass.ops[i]);
    }
    return pass;
  }

  void Layers(const Pass& pass, Output* out) override {
    const double ops = static_cast<double>(pass.ops.size());
    ClientStages(pass, out);
    Outcomes(pass, out);
    out->Add("service.cache_mb",
             Mb(after_.owner_stats.Num("cache.resident_bytes")), "MB");
    out->Add("service.registry_mb",
             Mb(after_.owner_stats.Num("registry.resident_bytes")), "MB");
    CacheBytesPerItemset(after_.owner_stats, itemsets_, out);
    out->Add("cluster.cpu_ms_per_op.entry", entry_cpu_ms_ / ops, "ms");
    out->Add("cluster.cpu_ms_per_op.owner", owner_cpu_ms_ / ops, "ms");
    static const char* const kCounters[] = {"probe_hits", "forwards",
                                            "failovers", "local_fallbacks"};
    for (const char* counter : kCounters) {
      const std::string path = std::string("cluster.counters.") + counter;
      if (after_.entry_info.Path(path) == nullptr) {
        out->Absent(std::string("cluster.") + counter,
                    "cluster_info no longer reports " + path);
        continue;
      }
      out->Add(std::string("cluster.") + counter,
               (after_.entry_info.Num(path) - before_.entry_info.Num(path)) / ops,
               "count/op");
    }
    bool rtt = false;
    if (const Json* peers = after_.entry_info.Path("cluster.peers")) {
      for (const Json& peer : peers->array) {
        if (peer.Str("endpoint") == Endpoint(ports_[owner_]) &&
            peer.Find("rtt_p50_ms") != nullptr) {
          out->Add("cluster.peer_rtt_p50_ms", peer.Num("rtt_p50_ms"), "ms");
          rtt = true;
        }
      }
    }
    if (!rtt) out->Absent("cluster.peer_rtt_p50_ms", "no RTT for the owner");

    // The hop: forwarded ttfb against asking the owner directly for the
    // same answer, after the measured phase.
    std::vector<double> forwarded;
    for (const Op& op : pass.ops) forwarded.push_back(op.ttfb);
    std::vector<double> direct;
    std::string error;
    std::unique_ptr<Connection> owner = Connection::Tcp(ports_[owner_], &error);
    const std::string request = QueryByPath(inputs_.webdocs, kForwardSupport);
    for (int i = 0; owner && i < kDirectAsks; ++i) {
      Step step;
      QueryAnswer answer;
      if (!Ask(owner.get(), request, "direct", &step, &answer, &error)) break;
      direct.push_back(step.ttfb_ms());
    }
    if (direct.size() == kDirectAsks) {
      out->Add("cluster.hop_ms", Median(forwarded) - Median(direct), "ms");
    } else {
      out->Absent("cluster.hop_ms", "asking the owner directly failed: " + error);
    }
  }

  std::string Stop() override {
    entry_.reset();
    return daemons_.Stop();
  }

 private:
  struct Snap {
    Json owner_stats;
    Json entry_info;
  };

  void Snapshot(Snap* snap) {
    std::string error;
    for (int i = 0; i < 2; ++i) {
      std::unique_ptr<Connection> conn =
          Connection::Unix(daemons_.socket(i), &error);
      if (!conn) continue;
      if (i == 0) {
        Control(conn.get(), "{\"op\":\"stats\"}", &snap->owner_stats, &error);
      } else {
        Control(conn.get(), "{\"op\":\"cluster_info\"}", &snap->entry_info,
                &error);
      }
    }
  }

  const Config& config_;
  const Inputs& inputs_;
  int instance_;
  int ports_[2];
  int owner_;
  Daemons daemons_;  // [0] the owner, [1] the entry
  // Declared after the daemons so that it closes first.
  std::unique_ptr<Connection> entry_;
  uint64_t itemsets_ = 0;
  double owner_cpu_ms_ = 0.0;
  double entry_cpu_ms_ = 0.0;
  Snap before_, after_;
};

// mine_parallel: each op is a round in which LCM, Eclat and FP-Growth
// each mine the same dataset once through Mine() on every hardware
// thread. The only workload that runs the parallel driver.
class MineParallel : public Workload {
 public:
  MineParallel(const Config& config, const Inputs& inputs)
      : config_(config), inputs_(inputs) {}

  int threads() const override { return config_.nproc; }
  int connections() const override { return 0; }

  bool Setup(bool traced, std::string* error) override {
    fpm::MetricsRegistry::Default().set_enabled(traced);
    fpm::Result<fpm::Database> db = fpm::ReadFimiFile(inputs_.quest);
    if (!db.ok()) {
      *error = db.status().ToString();
      return false;
    }
    db_ = std::make_unique<fpm::Database>(std::move(db.value()));
    Round round;
    *error = RunRound(&round);
    return error->empty();
  }

  Pass Measure(double seconds, Output* out, Spans* spans) override {
    fpm::MetricsRegistry& registry = fpm::MetricsRegistry::Default();
    const fpm::MetricsSnapshot before = registry.Snapshot();
    Pass pass;
    const HostTicks ticks = ReadHostTicks();
    const double cpu = SelfCpuMs();
    const double start = NowMs();
    const double deadline = start + seconds * 1000.0;
    while (NowMs() < deadline) {
      Round round;
      out->Attempt();
      const std::string failure = RunRound(&round);
      if (!failure.empty()) out->Fail("mine_parallel: " + failure);
      const uint64_t id = pass.ops.size();
      const int64_t root =
          spans->Add("mine_parallel.round", round.op.start, round.op.end, -1, id);
      for (const Step& s : round.op.steps) {
        spans->Add("Mine." + s.kind, s.times.start, s.parsed, root, id);
      }
      pass.ops.push_back(round.op);
      rounds_.push_back(std::move(round));
    }
    pass.wall_ms = NowMs() - start;
    pass.cpu_ms = SelfCpuMs() - cpu;
    pass.rss_mb = PeakRssMb(0);
    pass.steal_pct = StealPct(ticks, ReadHostTicks());
    delta_ = registry.Snapshot().DeltaSince(before);
    return pass;
  }

  void Layers(const Pass& pass, Output* out) override {
    const double ops = static_cast<double>(pass.ops.size());
    for (size_t k = 0; k < kKernels.size(); ++k) {
      std::vector<double> total, prepare, build, mine;
      for (const Round& r : rounds_) {
        total.push_back(r.op.steps[k].parsed - r.op.steps[k].times.start);
        prepare.push_back(r.stats[k].phase_seconds(fpm::PhaseId::kPrepare) * 1e3);
        build.push_back(r.stats[k].phase_seconds(fpm::PhaseId::kBuild) * 1e3);
        mine.push_back(r.stats[k].phase_seconds(fpm::PhaseId::kMine) * 1e3);
      }
      const std::string name = kKernels[k].name;
      out->Add("core.mine_ms." + name, Median(total), "ms");
      out->Add("parallel.prepare_ms." + name, Median(prepare), "ms");
      out->Add("algo.build_ms." + name, Median(build), "ms");
      out->Add("algo.mine_ms." + name, Median(mine), "ms");
    }
    double itemsets = 0.0;
    double peak = 0.0;
    for (const fpm::MineStats& s : rounds_.back().stats) {
      itemsets += static_cast<double>(s.num_frequent);
      peak = std::max(peak, static_cast<double>(s.peak_structure_bytes));
    }
    out->Add("algo.itemsets", itemsets, "count/op");
    out->Add("algo.peak_structure_mb", Mb(peak), "MB");
    const auto counter = [&](const char* metric, const std::string& name) {
      const bool exported =
          std::any_of(delta_.counters.begin(), delta_.counters.end(),
                      [&](const fpm::CounterSample& c) { return c.name == metric; });
      if (exported) {
        out->Add(name, static_cast<double>(delta_.counter(metric)) / ops,
                 "count/op");
      } else {
        out->Absent(name, std::string("the library does not export ") + metric);
      }
    };
    counter("fpm.parallel.classes", "parallel.classes");
    counter("fpm.task.spawns", "parallel.spawns");
    counter("fpm.pool.steals", "parallel.steals");
    const bool imbalance =
        std::any_of(delta_.gauges.begin(), delta_.gauges.end(),
                    [](const fpm::GaugeSample& g) {
                      return g.name == "fpm.task.imbalance_milli";
                    });
    if (imbalance) {
      out->Add("parallel.imbalance_milli",
               static_cast<double>(delta_.gauge("fpm.task.imbalance_milli")),
               "milli");
    } else {
      out->Absent("parallel.imbalance_milli",
                  "the library does not export fpm.task.imbalance_milli");
    }
    out->Add("parallel.cpu_util",
             pass.cpu_ms / (pass.wall_ms * static_cast<double>(config_.nproc)),
             "fraction");
  }

  std::string Stop() override { return ""; }

 private:
  struct Kernel {
    const char* name;
    fpm::Algorithm algorithm;
  };
  static constexpr std::array<Kernel, 3> kKernels{{
      {"lcm", fpm::Algorithm::kLcm},
      {"eclat", fpm::Algorithm::kEclat},
      {"fpgrowth", fpm::Algorithm::kFpGrowth},
  }};

  struct Round {
    Op op;
    std::vector<fpm::MineStats> stats;
  };

  /// Mines with every kernel, then checks each answer against the
  /// sequential reference (outside the timed spans). Returns the failure,
  /// empty when the round passed.
  std::string RunRound(Round* round) {
    std::vector<KernelAnswer> answers;
    round->op.start = NowMs();
    for (const Kernel& kernel : kKernels) {
      const fpm::MineOptions options =
          QuestOptions(kernel.algorithm, config_.nproc);
      fpm::CountingSink sink;
      Step step;
      step.kind = kernel.name;
      step.times.start = NowMs();
      fpm::Result<fpm::MineStats> stats = fpm::Mine(*db_, options, &sink);
      step.parsed = NowMs();
      if (!stats.ok()) return std::string(kernel.name) + ": " + stats.status().ToString();
      if (round->op.steps.empty()) round->op.ttfb = step.parsed - round->op.start;
      round->op.steps.push_back(step);
      round->stats.push_back(stats.value());
      answers.push_back({kernel.name, sink.count(), sink.checksum()});
    }
    round->op.end = NowMs();
    return CheckKernels(answers, inputs_.quest_reference);
  }

  const Config& config_;
  const Inputs& inputs_;
  std::unique_ptr<fpm::Database> db_;
  std::vector<Round> rounds_;
  fpm::MetricsSnapshot delta_;
};

// ---------------------------------------------------------------------
// Running one workload.

void EndToEnd(const Pass& pass, const std::vector<double>& setups, Output* out) {
  std::vector<double> latency, ttfb;
  for (const Op& op : pass.ops) {
    latency.push_back(op.end - op.start);
    ttfb.push_back(op.ttfb);
  }
  const double ops = static_cast<double>(std::max<size_t>(pass.ops.size(), 1));
  out->Add("setup_s", Median(setups) / 1000.0, "s");
  out->Add("latency_p50_ms", Percentile(latency, 0.5), "ms");
  out->Add("latency_p90_ms", Percentile(latency, 0.9), "ms");
  out->Add("ttfb_p50_ms", Percentile(ttfb, 0.5), "ms");
  out->Add("throughput_ops", ops / (pass.wall_ms / 1000.0), "ops/s");
  out->Add("cpu_ms_per_op", pass.cpu_ms / ops, "ms");
  out->Add("peak_rss_mb", pass.rss_mb, "MB");
}

int CountCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

bool LoadInputs(const Config& config, Inputs* inputs, std::string* error) {
  inputs->webdocs = config.inputs + "/webdocs.dat";
  inputs->quest = config.inputs + "/quest.dat";
  if (config.workload == "serve_forward") {
    return LoadReference(config.inputs + "/webdocs.600.txt",
                         &inputs->forward_reference, error);
  }
  return LoadKernelReference(inputs->quest, &inputs->quest_reference, error);
}

int Run(const Config& config) {
  Inputs inputs;
  std::string error;
  if (!LoadInputs(config, &inputs, &error)) {
    std::fprintf(stderr, "perfbench: inputs: %s\n", error.c_str());
    return 1;
  }
  int ports[2] = {0, 0};
  int owner = -1;
  if (config.workload == "serve_forward") {
    // The nodes inherit one malloc arena. Each probe reaches the owner on
    // a fresh connection thread, and glibc gives such threads new arenas
    // by a race: with its default limit the owner's peak RSS lands on 58,
    // 73 or 88 MB at random. With one arena it repeats; each node runs one
    // pool thread, so the arena lock is not contended. Set before any
    // thread of this process starts.
    ::setenv("MALLOC_ARENA_MAX", "1", 1);
    for (int attempt = 0; attempt < 3 && owner < 0; ++attempt) {
      ports[0] = FreeTcpPort();
      ports[1] = FreeTcpPort();
      if (ports[0] > 0 && ports[1] > 0 && ports[0] != ports[1]) {
        owner = ServeForward::Place(config, inputs, ports, &error);
      }
    }
    if (owner < 0) {
      std::fprintf(stderr, "perfbench: cluster placement: %s\n", error.c_str());
      return 1;
    }
  }
  int instance = 0;
  const auto make = [&]() -> std::unique_ptr<Workload> {
    ++instance;
    if (config.workload == "serve_forward") {
      return std::make_unique<ServeForward>(config, inputs, instance, ports,
                                            owner);
    }
    return std::make_unique<MineParallel>(config, inputs);
  };

  std::unique_ptr<Workload> workload = make();
  const int threads = workload->threads();
  const int connections = workload->connections();
  if (threads + connections > config.nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d threads + %d connections, more than "
                 "the %d CPUs here; refusing to run it\n",
                 config.workload.c_str(), threads, connections, config.nproc);
    return 2;
  }

  Output out;
  Spans spans(config.trace);
  const HostTicks host_before = ReadHostTicks();
  const auto setup = [&](std::unique_ptr<Workload>* w, bool traced,
                         double* ms) {
    const double start = NowMs();
    const bool ok = (*w)->Setup(traced, &error);
    *ms = NowMs() - start;
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   config.workload.c_str(), error.c_str());
    }
    return ok;
  };

  // Stops the current workload; a daemon that does not exit cleanly
  // fails the run.
  const auto stop = [&]() {
    const std::string failure = workload->Stop();
    if (!failure.empty()) {
      out.FailCheck(config.workload + ": teardown: " + failure);
    }
  };

  Pass pass;
  std::vector<double> setups;
  double overhead_p50[2] = {0, 0};
  if (!config.trace) {
    for (int i = 0; i < kSetups; ++i) {
      if (i > 0) {
        stop();
        workload = make();
      }
      double ms = 0;
      if (!setup(&workload, false, &ms)) return 1;
      setups.push_back(ms);
    }
    pass = workload->Measure(config.seconds, &out, &spans);
    EndToEnd(pass, setups, &out);
  } else {
    // Two halves: untraced, then traced with --query-log, the metrics
    // registry and daemon snapshots. Their p50 ratio is the overhead.
    for (int traced = 0; traced < 2; ++traced) {
      if (traced) {
        stop();
        workload = make();
      }
      double ms = 0;
      if (!setup(&workload, traced == 1, &ms)) return 1;
      Spans untraced(false);
      pass = workload->Measure(config.seconds / 2.0, &out,
                               traced ? &spans : &untraced);
      std::vector<double> latency;
      for (const Op& op : pass.ops) latency.push_back(op.end - op.start);
      overhead_p50[traced] = Median(latency);
    }
    workload->Layers(pass, &out);
    out.Add("host.steal_pct", pass.steal_pct, "%");
    out.Add("obs.trace_overhead_pct",
            overhead_p50[0] > 0 ? (overhead_p50[1] / overhead_p50[0] - 1.0) * 100.0
                                : 0.0,
            "%");
    const std::string path = config.run_dir + "/spans.json";
    if (spans.Write(path)) {
      std::printf("trace: %zu spans in %s\n", spans.size(), path.c_str());
    }
  }
  stop();  // before the result is printed

  std::vector<double> latency;
  for (const Op& op : pass.ops) latency.push_back(op.end - op.start);
  std::printf("%s seed %llu: %zu ops in %.2f s; setups(ms):", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), pass.ops.size(),
              pass.wall_ms / 1000.0);
  for (double s : setups) std::printf(" %.1f", s);
  std::printf("\n");
  const size_t beyond_p90 = latency.size() - static_cast<size_t>(
      std::ceil(0.9 * static_cast<double>(latency.size())));
  std::printf("samples: %zu ops, %zu beyond p90%s\n", latency.size(), beyond_p90,
              beyond_p90 < 10 ? " (fewer than 10: p90 reads as the slowest ops)"
                              : "");
  out.Print(",\"host\":{\"steal_pct\":" +
            Number(StealPct(host_before, ReadHostTicks())) +
            ",\"load1\":" + Number(LoadAverage1()) +
            "},\"budget\":{\"threads\":" + std::to_string(threads) +
            ",\"connections\":" + std::to_string(connections) +
            ",\"nproc\":" + std::to_string(config.nproc) +
            "},\"samples\":" + std::to_string(latency.size()));
  return out.correct() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Config;
  Config config;
  config.nproc = perfbench::CountCpus();
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* key) -> const char* {
      const std::string prefix = std::string("--") + key + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (arg == "--self-test") {
      self_test = true;
    } else if (const char* v = value("workload")) {
      config.workload = v;
    } else if (const char* v = value("seed")) {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("seconds")) {
      config.seconds = std::atof(v);
    } else if (const char* v = value("trace")) {
      config.trace = std::string(v) == "1";
    } else if (const char* v = value("bin")) {
      config.bin = v;
    } else if (const char* v = value("inputs")) {
      config.inputs = v;
    } else if (const char* v = value("run-dir")) {
      config.run_dir = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (self_test) {
    const std::string failures = perfbench::SelfTest();
    std::printf("self-test: %s\n", failures.empty() ? "every checker rejects "
                                                      "its corrupted input"
                                                    : failures.c_str());
    return failures.empty() ? 0 : 1;
  }
  static const char* const kWorkloads[] = {"mine_parallel", "serve_forward"};
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                config.workload) == std::end(kWorkloads) ||
      config.seconds <= 0 || config.bin.empty() || config.inputs.empty() ||
      config.run_dir.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=mine_parallel|serve_forward "
                 "--seed=N --seconds=S --trace=0|1 --bin=DIR --inputs=DIR "
                 "--run-dir=DIR\n"
                 "       perfbench --self-test\n");
    return 2;
  }
  return perfbench::Run(config);
}
