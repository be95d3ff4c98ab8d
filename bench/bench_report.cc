#include "bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "fpm/common/json_writer.h"
#include "fpm/obs/trace.h"
#include "fpm/perf/perf_counters.h"
#include "fpm/perf/perf_sampler.h"
#include "fpm/perf/platform_info.h"

namespace fpm::bench {
namespace {

void AppendNumber(std::string* out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out->append(buf);
}

}  // namespace

void BenchRow::Key(std::string_view key) {
  if (!json_.empty()) json_.push_back(',');
  AppendJsonString(&json_, key);
  json_.push_back(':');
}

BenchRow& BenchRow::Str(std::string_view key, std::string_view value) {
  Key(key);
  AppendJsonString(&json_, value);
  return *this;
}

BenchRow& BenchRow::Num(std::string_view key, double value) {
  Key(key);
  AppendNumber(&json_, value);
  return *this;
}

BenchRow& BenchRow::Int(std::string_view key, uint64_t value) {
  Key(key);
  json_ += std::to_string(value);
  return *this;
}

BenchRow& BenchRow::Bool(std::string_view key, bool value) {
  Key(key);
  json_ += value ? "true" : "false";
  return *this;
}

BenchRow& BenchRow::Measurement(const fpm::Measurement& m) {
  Str("name", m.name);
  Num("seconds", m.seconds);
  Int("itemsets", m.num_frequent);
  Int("checksum", m.checksum);
  return Phases(m.stats);
}

BenchRow& BenchRow::Phases(const MineStats& stats) {
  const bool have_counters = stats.has_phase_counters();
  if (!have_counters && stats.total_seconds() == 0.0) return *this;
  Key("phases");
  json_.push_back('{');
  bool first_phase = true;
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseId phase = static_cast<PhaseId>(p);
    const PhaseCounterDeltas& counters = stats.phase_counters(phase);
    const double seconds = stats.phase_seconds(phase);
    if (counters.empty() && seconds == 0.0) continue;
    if (!first_phase) json_.push_back(',');
    first_phase = false;
    AppendJsonString(&json_, PhaseName(phase));
    json_ += ":{\"seconds\":";
    AppendNumber(&json_, seconds);
    if (!counters.empty()) {
      json_ += ",\"counters\":{";
      for (size_t i = 0; i < counters.size(); ++i) {
        if (i > 0) json_.push_back(',');
        AppendJsonString(&json_, counters[i].first);
        json_.push_back(':');
        json_ += std::to_string(counters[i].second);
      }
      json_.push_back('}');
      std::vector<std::pair<std::string, uint64_t>> gauges;
      AppendDerivedPerfGauges(counters, &gauges);
      if (!gauges.empty()) {
        json_ += ",\"derived\":{";
        for (size_t i = 0; i < gauges.size(); ++i) {
          if (i > 0) json_.push_back(',');
          AppendJsonString(&json_, gauges[i].first);
          json_.push_back(':');
          json_ += std::to_string(gauges[i].second);
        }
        json_.push_back('}');
      }
    }
    json_.push_back('}');
  }
  json_.push_back('}');
  return *this;
}

BenchReport::BenchReport(std::string_view name, std::string_view title)
    : name_(name), title_(title) {
  const Status status = PerfCountersStatus();
  perf_available_ = status.ok();
  if (!perf_available_) perf_reason_ = status.message();
}

BenchRow& BenchReport::AddRow() {
  rows_.emplace_back();
  return rows_.back();
}

std::string BenchReport::ToJson() const {
  const PlatformInfo host = PlatformInfo::Detect();
  std::string out = "{\"schema_version\":";
  out += std::to_string(kBenchSchemaVersion);
  out += ",\"bench\":";
  AppendJsonString(&out, name_);
  out += ",\"title\":";
  AppendJsonString(&out, title_);
  out += ",\"host\":{\"cpu_model\":";
  AppendJsonString(&out, host.cpu_model);
  out += ",\"logical_cpus\":" + std::to_string(host.logical_cpus);
  out += ",\"l1d_bytes\":" + std::to_string(host.l1d_bytes);
  out += ",\"l2_bytes\":" + std::to_string(host.l2_bytes);
  out += ",\"l3_bytes\":" + std::to_string(host.l3_bytes);
  out += "},\"perf_counters\":{\"available\":";
  out += perf_available_ ? "true" : "false";
  if (!perf_available_) {
    out += ",\"reason\":";
    AppendJsonString(&out, perf_reason_);
  }
  out += "},\"scale\":";
  AppendNumber(&out, BenchScale());
  out += ",\"repeats\":" + std::to_string(BenchRepeats());
  out += ",\"rows\":[";
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out.push_back('{');
    out += rows_[i].json_;
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

bool BenchReport::Write() const {
  std::string path;
  if (const char* dir = std::getenv("FPM_BENCH_JSON_DIR")) {
    path = std::string(dir);
    if (!path.empty() && path.back() != '/') path.push_back('/');
  }
  path += "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (out) out << ToJson();
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  // The host's parallelism is part of the result, not a footnote:
  // consumers comparing thread-scaling rows across runs need to see it
  // without opening the JSON (validate_bench_json.py warns when
  // threads > 1 rows were recorded on a 1-logical-CPU host).
  const int logical_cpus = PlatformInfo::Detect().logical_cpus;
  std::printf("wrote %zu row%s to %s (host: %d logical CPU%s)\n",
              rows_.size(), rows_.size() == 1 ? "" : "s", path.c_str(),
              logical_cpus, logical_cpus == 1 ? "" : "s");
  if (logical_cpus == 1) {
    std::printf(
        "NOTE: 1 logical CPU — any thread-scaling rows in this report "
        "measure overhead, not speedup\n");
  }
  return true;
}

ScopedPerfSampler::ScopedPerfSampler() {
  auto sampler = PerfSampler::Create();
  if (sampler.ok()) {
    sampler_ = std::move(sampler).value();
    Tracer::Default().set_phase_sampler(sampler_.get());
    std::printf("hardware counters: live (per-phase CPI/MPKI attached)\n\n");
  } else {
    std::printf("hardware counters: unavailable (%s)\n\n",
                std::string(sampler.status().message()).c_str());
  }
}

ScopedPerfSampler::~ScopedPerfSampler() {
  if (sampler_ != nullptr) Tracer::Default().set_phase_sampler(nullptr);
}

}  // namespace fpm::bench
