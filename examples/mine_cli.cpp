// Command-line frequent itemset miner over FIMI-format files — the
// interface the FIMI workshop implementations the paper studies expose.
//
//   ./mine_cli <input.dat> <min_support> [options]
//     --algorithm=lcm|eclat|fpgrowth|apriori|auto   (default lcm)
//     --patterns=<list>|all|none|auto          (default auto: the advisor)
//     --task=frequent|closed|maximal|top_k|rules    (default frequent)
//     --top-k=N                                (top_k: how many itemsets)
//     --min-confidence=X                       (rules; default 0.5)
//     --min-lift=X                             (rules; default 0)
//     --output=<file>                          (default: count only)
//     --threads=N                              (default 1: sequential;
//                                               0: all hardware threads)
//     --timeout=SEC                            (cancel mining after SEC
//                                               seconds; reports patterns
//                                               found so far, exits 3)
//     --nondeterministic                       (allow any emission order)
//     --stats                                  (print timing breakdown)
//     --perf                                   (per-phase CPI/MPKI table)
//     --trace-out=FILE                         (chrome://tracing span JSON)
//     --metrics-out=FILE                       (metrics snapshot JSON)
//     --query-log=FILE                         (append one JSON line for
//                                               this run, same schema as
//                                               fpmd's --query-log)
//     --append=FILE                            (repeatable: append FILE's
//                                               transactions as a new
//                                               dataset version before
//                                               mining; mines the latest)
//     --window=N                               (sliding window: keep only
//                                               the last N transactions,
//                                               older ones expire)
//     --packed                                 (input is a packed database
//                                               from fpm_pack: mmap it
//                                               instead of parsing FIMI;
//                                               packed files are also
//                                               auto-detected by magic)
//
// Example:
//   ./mine_cli retail.dat 100 --algorithm=eclat --patterns=P1,P8
//              --output=itemsets.txt

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpm/common/cancel.h"
#include "fpm/common/timer.h"
#include "fpm/core/mine.h"
#include "fpm/core/pattern_advisor.h"
#include "fpm/dataset/fimi_io.h"
#include "fpm/dataset/packed.h"
#include "fpm/dataset/stats.h"
#include "fpm/dataset/versioned.h"
#include "fpm/obs/metrics.h"
#include "fpm/obs/query_log.h"
#include "fpm/obs/trace.h"
#include "fpm/parallel/thread_pool.h"
#include "fpm/perf/harness.h"
#include "fpm/perf/perf_sampler.h"

namespace {

using namespace fpm;

// Streams "item item ... (support)" lines to a file, FIMI output style.
class FileSink : public ItemsetSink {
 public:
  explicit FileSink(std::ofstream out) : out_(std::move(out)) {}

  void Emit(std::span<const Item> itemset, Support support) override {
    for (size_t i = 0; i < itemset.size(); ++i) {
      if (i > 0) out_ << ' ';
      out_ << itemset[i];
    }
    out_ << " (" << support << ")\n";
    ++count_;
  }

  uint64_t count() const { return count_; }

 private:
  std::ofstream out_;
  uint64_t count_ = 0;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.dat> <min_support> [--algorithm=NAME] "
               "[--patterns=LIST|all|none|auto] "
               "[--task=frequent|closed|maximal|top_k|rules] [--top-k=N] "
               "[--min-confidence=X] [--min-lift=X] [--output=FILE] "
               "[--threads=N (0 = all hardware threads)] [--timeout=SEC] "
               "[--nondeterministic] [--stats] [--perf] "
               "[--trace-out=FILE] [--metrics-out=FILE] [--query-log=FILE] "
               "[--append=FILE ...] [--window=N] [--packed]\n",
               argv0);
  return 2;
}

// Truncate-opens `path`, reporting a clear error on failure. All output
// files are opened before mining so a bad path fails in milliseconds,
// not after a long run.
bool OpenOutput(const std::string& path, std::ofstream* out) {
  out->open(path, std::ios::trunc);
  if (!*out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  const std::string input = argv[1];
  const long support_arg = std::atol(argv[2]);
  if (support_arg < 1) {
    std::fprintf(stderr, "min_support must be >= 1\n");
    return 2;
  }

  std::string algorithm_name = "lcm";
  std::string pattern_spec = "auto";
  std::string task_name = "frequent";
  long top_k = 0;
  double min_confidence = -1.0;
  double min_lift = -1.0;
  std::string output_path;
  std::string trace_path;
  std::string metrics_path;
  std::string query_log_path;
  bool show_stats = false;
  bool show_perf = false;
  long threads = 1;
  double timeout_seconds = 0.0;
  bool deterministic = true;
  std::vector<std::string> append_paths;
  long window_n = 0;
  bool packed = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--algorithm=", 0) == 0) {
      algorithm_name = arg.substr(12);
    } else if (arg.rfind("--patterns=", 0) == 0) {
      pattern_spec = arg.substr(11);
    } else if (arg.rfind("--task=", 0) == 0) {
      task_name = arg.substr(7);
    } else if (arg.rfind("--top-k=", 0) == 0) {
      top_k = std::atol(arg.c_str() + 8);
      if (top_k < 1) {
        std::fprintf(stderr, "--top-k must be >= 1\n");
        return 2;
      }
    } else if (arg.rfind("--min-confidence=", 0) == 0) {
      min_confidence = std::atof(arg.c_str() + 17);
    } else if (arg.rfind("--min-lift=", 0) == 0) {
      min_lift = std::atof(arg.c_str() + 11);
    } else if (arg.rfind("--output=", 0) == 0) {
      output_path = arg.substr(9);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || threads < 0) {
        std::fprintf(stderr,
                     "--threads must be >= 0 (0 = all hardware threads)\n");
        return 2;
      }
      if (threads == 0) {
        threads = static_cast<long>(ThreadPool::HardwareThreads());
        std::fprintf(stderr, "--threads=0: using %ld hardware threads\n",
                     threads);
      }
    } else if (arg.rfind("--timeout=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      timeout_seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || timeout_seconds <= 0.0 ||
          !TimeoutInRange(timeout_seconds)) {
        std::fprintf(stderr, "--timeout must be a positive number <= %lld\n",
                     static_cast<long long>(kMaxTimeoutSeconds));
        return 2;
      }
    } else if (arg == "--nondeterministic") {
      deterministic = false;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--perf") {
      show_perf = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(14);
    } else if (arg.rfind("--query-log=", 0) == 0) {
      query_log_path = arg.substr(12);
    } else if (arg.rfind("--append=", 0) == 0) {
      append_paths.push_back(arg.substr(9));
    } else if (arg.rfind("--window=", 0) == 0) {
      window_n = std::atol(arg.c_str() + 9);
      if (window_n < 1) {
        std::fprintf(stderr, "--window must be >= 1\n");
        return 2;
      }
    } else if (arg == "--packed") {
      packed = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  // Every output file is opened before mining: a typo'd path should
  // fail now, not after minutes of work.
  std::ofstream output_file;
  std::ofstream trace_file;
  std::ofstream metrics_file;
  if (!output_path.empty() && !OpenOutput(output_path, &output_file)) return 1;
  if (!trace_path.empty() && !OpenOutput(trace_path, &trace_file)) return 1;
  if (!metrics_path.empty() && !OpenOutput(metrics_path, &metrics_file)) {
    return 1;
  }
  QueryLog query_log;
  if (!query_log_path.empty()) {
    if (const Status opened = query_log.OpenFile(query_log_path);
        !opened.ok()) {
      std::fprintf(stderr, "error: --query-log: %s\n",
                   opened.message().c_str());
      return 1;
    }
  }

  // Observability is enabled before the load so the fimi/read span and
  // parse counters land in the outputs too.
  if (!trace_path.empty()) Tracer::Default().set_enabled(true);
  if (!metrics_path.empty()) MetricsRegistry::Default().set_enabled(true);

  // --perf installs a hardware-counter sampler on the default tracer;
  // phase spans then latch CPI / MPKI deltas into MineStats (and, when
  // --metrics-out is on, into fpm.phase.* metrics). Degrades gracefully:
  // on refusing kernels (perf_event_paranoid) the run proceeds unsampled
  // and the reason is printed once.
  std::unique_ptr<PerfSampler> perf_sampler;
  if (show_perf) {
    auto sampler = PerfSampler::Create();
    if (sampler.ok()) {
      perf_sampler = std::move(sampler).value();
      Tracer::Default().set_phase_sampler(perf_sampler.get());
      for (const auto& [event, reason] : perf_sampler->dropped()) {
        std::fprintf(stderr, "perf: dropped %s (%s)\n",
                     std::string(PerfEventName(event)).c_str(),
                     reason.c_str());
      }
    } else {
      std::fprintf(stderr,
                   "perf: hardware counters unavailable, continuing "
                   "without --perf data (%s)\n",
                   sampler.status().message().c_str());
    }
  }

  // --packed (or a sniffed FPMPACK1 magic) maps the file read-only
  // instead of parsing it: the CSR arrays are mined straight off the
  // page cache, so load time is O(header) and the heap stays small.
  WallTimer load_timer;
  if (!packed && IsPackedFile(input)) packed = true;
  auto dbr = packed ? OpenMapped(input) : ReadFimiFile(input);
  if (!dbr.ok()) {
    std::fprintf(stderr, "%s\n", dbr.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu transactions, %zu items in %.3fs (%s)\n",
               dbr.value().num_transactions(), dbr.value().num_items(),
               load_timer.ElapsedSeconds(),
               StorageKindName(dbr.value().storage_kind()));

  // --append/--window route the load through a VersionedDataset: each
  // append file becomes one immutable version, the window policy
  // expires overflow, and mining runs on the latest version's database.
  std::unique_ptr<VersionedDataset> versioned;
  if (!append_paths.empty() || window_n > 0) {
    versioned = std::make_unique<VersionedDataset>(std::move(dbr).value(),
                                                   /*digest=*/"cli-base");
    if (window_n > 0) {
      WindowPolicy policy;
      policy.last_n = static_cast<uint64_t>(window_n);
      versioned->SetPolicy(policy);
    }
    for (const std::string& path : append_paths) {
      auto appended = ReadFimiFile(path);
      if (!appended.ok()) {
        std::fprintf(stderr, "%s\n", appended.status().ToString().c_str());
        return 1;
      }
      std::vector<Itemset> txns;
      txns.reserve(appended.value().num_transactions());
      for (Tid t = 0; t < appended.value().num_transactions(); ++t) {
        const auto span = appended.value().transaction(t);
        txns.emplace_back(span.begin(), span.end());
      }
      auto result = versioned->Append(txns);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      const DatasetVersion& v = *result.value();
      std::fprintf(stderr,
                   "appended %zu transactions from %s -> version %llu "
                   "(digest %s, %llu live)\n",
                   txns.size(), path.c_str(),
                   static_cast<unsigned long long>(v.number),
                   v.digest.c_str(),
                   static_cast<unsigned long long>(
                       versioned->live_transactions()));
    }
  }
  const Database& db =
      versioned ? *versioned->latest().database : dbr.value();

  MineOptions options;
  options.min_support = static_cast<Support>(support_arg);
  if (algorithm_name == "auto") {
    const MiningAdvice advice = AdviseMining(ComputeStats(db));
    options.algorithm = advice.algorithm;
    std::fprintf(stderr, "advisor selected algorithm: %s\n",
                 AlgorithmName(options.algorithm));
  } else {
    auto algorithm = ParseAlgorithm(algorithm_name);
    if (!algorithm.ok()) {
      std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
      return 2;
    }
    options.algorithm = algorithm.value();
  }
  if (pattern_spec == "auto") {
    const PatternAdvice advice =
        AdvisePatterns(options.algorithm, ComputeStats(db));
    options.patterns = advice.patterns;
    std::fprintf(stderr, "advisor selected patterns: %s\n",
                 options.patterns.ToString().c_str());
  } else {
    auto parsed = PatternSet::Parse(pattern_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    options.patterns = parsed.value();
  }
  options.execution.num_threads = static_cast<uint32_t>(threads);
  options.execution.deterministic = deterministic;

  // The task family (closed/maximal/top-k/rules) rides the same miner
  // through the MiningQuery dispatch; "frequent" keeps the classic
  // FIMI-style path below.
  MiningQuery query = MiningQuery::Frequent(options.min_support);
  {
    auto task = ParseTask(task_name);
    if (!task.ok()) {
      std::fprintf(stderr, "%s\n", task.status().ToString().c_str());
      return 2;
    }
    query.task = task.value();
  }
  if (top_k > 0) query.k = static_cast<uint64_t>(top_k);
  if (min_confidence >= 0.0) query.min_confidence = min_confidence;
  if (min_lift >= 0.0) query.min_lift = min_lift;
  if (Status valid = query.Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  // --timeout arms a deadline the kernels poll at frame boundaries; an
  // expired run stops within one frame and Mine() reports
  // DEADLINE_EXCEEDED with the partial count still in the sink.
  CancelToken cancel;
  if (timeout_seconds > 0.0) {
    cancel.SetTimeout(std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(timeout_seconds)));
    options.cancel = &cancel;
  }

  MineStats stats;
  WallTimer mine_timer;
  Result<MineStats> run = Status::Internal("not run");
  uint64_t count = 0;
  if (query.task == MiningTask::kFrequent) {
    if (output_path.empty()) {
      CountingSink sink;
      run = Mine(db, options, &sink);
      count = sink.count();
    } else {
      FileSink sink(std::move(output_file));
      run = Mine(db, options, &sink);
      count = sink.count();
    }
  } else {
    auto miner = CreateMiner(options);
    if (!miner.ok()) {
      std::fprintf(stderr, "%s\n", miner.status().ToString().c_str());
      return 2;
    }
    if (query.task == MiningTask::kRules) {
      std::vector<AssociationRule> rules;
      run = miner.value()->MineRules(db, query, &rules);
      count = rules.size();
      if (run.ok() && !output_path.empty()) {
        for (const AssociationRule& r : rules) {
          for (size_t i = 0; i < r.antecedent.size(); ++i) {
            if (i > 0) output_file << ' ';
            output_file << r.antecedent[i];
          }
          output_file << " =>";
          for (Item it : r.consequent) output_file << ' ' << it;
          char metrics_buf[64];
          std::snprintf(metrics_buf, sizeof(metrics_buf),
                        " (support=%llu conf=%.4f lift=%.4f)\n",
                        static_cast<unsigned long long>(r.itemset_support),
                        r.confidence, r.lift);
          output_file << metrics_buf;
        }
      }
    } else if (output_path.empty()) {
      CountingSink sink;
      run = miner.value()->Mine(db, query, &sink);
      count = sink.count();
    } else {
      FileSink sink(std::move(output_file));
      run = miner.value()->Mine(db, query, &sink);
      count = sink.count();
    }
  }
  // One query-log line per run, same schema as the daemon's, so offline
  // and service runs share one analysis pipeline.
  if (query_log.enabled()) {
    QueryLogEntry entry;
    entry.query_id = 1;
    entry.op = "cli";
    entry.task = TaskName(query.task);
    entry.dataset = input;
    entry.algorithm = AlgorithmName(options.algorithm);
    entry.min_support = static_cast<uint64_t>(support_arg);
    if (query.task == MiningTask::kTopK) entry.k = query.k;
    entry.mine_ms = mine_timer.ElapsedSeconds() * 1000.0;
    entry.cache = "miss";
    entry.num_results = count;
    if (run.ok()) {
      entry.peak_bytes = run->peak_structure_bytes;
      entry.status = "ok";
    } else {
      const StatusCode code = run.status().code();
      entry.status = code == StatusCode::kDeadlineExceeded ? "deadline"
                     : code == StatusCode::kCancelled      ? "cancelled"
                                                           : "error";
      entry.reason = run.status().message();
    }
    query_log.Write(entry);
  }

  if (!run.ok()) {
    const StatusCode code = run.status().code();
    if (code == StatusCode::kDeadlineExceeded ||
        code == StatusCode::kCancelled) {
      std::fprintf(stderr,
                   "cancelled after %llu patterns (%.3fs elapsed, "
                   "--timeout=%g)\n",
                   static_cast<unsigned long long>(count),
                   mine_timer.ElapsedSeconds(), timeout_seconds);
      return 3;
    }
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  stats = *run;

  switch (query.task) {
    case MiningTask::kTopK:
      std::printf("%llu of top-%llu itemsets by support (floor >= %ld) "
                  "in %.3fs\n",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(query.k), support_arg,
                  mine_timer.ElapsedSeconds());
      break;
    case MiningTask::kRules:
      std::printf("%llu association rules (support >= %ld, "
                  "confidence >= %g, lift >= %g) in %.3fs\n",
                  static_cast<unsigned long long>(count), support_arg,
                  query.min_confidence, query.min_lift,
                  mine_timer.ElapsedSeconds());
      break;
    default:
      std::printf("%llu %s itemsets (support >= %ld) in %.3fs\n",
                  static_cast<unsigned long long>(count),
                  TaskName(query.task), support_arg,
                  mine_timer.ElapsedSeconds());
      break;
  }
  if (show_stats) {
    std::printf("  prepare: %.3fs  build: %.3fs  mine: %.3fs\n",
                stats.phase_seconds(PhaseId::kPrepare),
                stats.phase_seconds(PhaseId::kBuild),
                stats.phase_seconds(PhaseId::kMine));
    std::printf("  peak main structure: %zu bytes\n",
                stats.peak_structure_bytes);
  }
  if (show_perf) {
    if (stats.has_phase_counters()) {
      std::printf("%s", FormatPhaseCounterTable(stats).c_str());
    } else {
      std::printf("  (no hardware counter data for this run)\n");
    }
  }

  if (!trace_path.empty()) {
    const std::vector<TraceSpan> spans = Tracer::Default().CollectSpans();
    WriteChromeTracing(spans, trace_file);
    std::fprintf(stderr,
                 "wrote %zu spans to %s (open in chrome://tracing)\n",
                 spans.size(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    MetricsRegistry::Default()
        .Snapshot(/*per_thread=*/true)
        .WriteJson(metrics_file);
    metrics_file << '\n';
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
  }
  if (perf_sampler) Tracer::Default().set_phase_sampler(nullptr);
  return 0;
}
