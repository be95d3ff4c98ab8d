#include "fpm/perf/perf_counters.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace fpm {

std::string_view PerfEventName(PerfEventId id) {
  switch (id) {
    case PerfEventId::kCycles: return "cycles";
    case PerfEventId::kInstructions: return "instructions";
    case PerfEventId::kCacheReferences: return "cache_references";
    case PerfEventId::kCacheMisses: return "cache_misses";
    case PerfEventId::kL1dReadMisses: return "l1d_read_misses";
    case PerfEventId::kDtlbReadMisses: return "dtlb_read_misses";
    case PerfEventId::kBranchMisses: return "branch_misses";
  }
  return "unknown";
}

std::span<const PerfEventId> PerfCounterGroup::DefaultEvents() {
  static constexpr PerfEventId kDefault[] = {
      PerfEventId::kCycles,          PerfEventId::kInstructions,
      PerfEventId::kCacheReferences, PerfEventId::kCacheMisses,
      PerfEventId::kL1dReadMisses,   PerfEventId::kDtlbReadMisses,
      PerfEventId::kBranchMisses,
  };
  return kDefault;
}

Result<PerfGroupReading> ParseGroupReadBuffer(
    std::span<const uint64_t> words, std::span<const PerfEventId> events) {
  if (words.size() < 3) {
    return Status::InvalidArgument("group read buffer shorter than header");
  }
  const uint64_t nr = words[0];
  if (nr != events.size()) {
    return Status::InvalidArgument("group read nr does not match event set");
  }
  if (words.size() < 3 + nr) {
    return Status::InvalidArgument("group read buffer truncated");
  }
  PerfGroupReading out;
  out.time_enabled_ns = words[1];
  out.time_running_ns = words[2];
  out.events.reserve(nr);
  for (uint64_t i = 0; i < nr; ++i) {
    PerfEventReading e;
    e.id = events[i];
    e.raw = words[3 + i];
    if (out.time_running_ns == 0) {
      // Never scheduled: no basis for an estimate.
      e.value = 0;
    } else if (out.time_running_ns >= out.time_enabled_ns) {
      e.value = e.raw;
    } else {
      // Multiplexed: scale to the full enabled window, rounding to
      // nearest. long double keeps 64-bit counts exact enough here.
      const long double scaled =
          static_cast<long double>(e.raw) *
          static_cast<long double>(out.time_enabled_ns) /
          static_cast<long double>(out.time_running_ns);
      e.value = static_cast<uint64_t>(scaled + 0.5L);
    }
    out.events.push_back(e);
  }
  return out;
}

#if defined(__linux__)

namespace {

struct EventSpec {
  uint32_t type;
  uint64_t config;
};

EventSpec SpecFor(PerfEventId id) {
  constexpr auto hw_cache = [](uint64_t cache, uint64_t op, uint64_t result) {
    return cache | (op << 8) | (result << 16);
  };
  switch (id) {
    case PerfEventId::kCycles:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
    case PerfEventId::kInstructions:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS};
    case PerfEventId::kCacheReferences:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES};
    case PerfEventId::kCacheMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES};
    case PerfEventId::kL1dReadMisses:
      return {PERF_TYPE_HW_CACHE,
              hw_cache(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                       PERF_COUNT_HW_CACHE_RESULT_MISS)};
    case PerfEventId::kDtlbReadMisses:
      return {PERF_TYPE_HW_CACHE,
              hw_cache(PERF_COUNT_HW_CACHE_DTLB, PERF_COUNT_HW_CACHE_OP_READ,
                       PERF_COUNT_HW_CACHE_RESULT_MISS)};
    case PerfEventId::kBranchMisses:
      return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES};
  }
  return {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES};
}

int OpenEvent(PerfEventId id, int group_fd) {
  const EventSpec spec = SpecFor(id);
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.type = spec.type;
  attr.size = sizeof(attr);
  attr.config = spec.config;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  attr.disabled = (group_fd == -1) ? 1 : 0;  // only the leader toggles
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                                  /*cpu=*/-1, group_fd, /*flags=*/0));
}

std::string ParanoidHint() {
  std::string hint = " (check /proc/sys/kernel/perf_event_paranoid";
  if (FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "r")) {
    int level = 0;
    if (std::fscanf(f, "%d", &level) == 1) {
      hint += " = " + std::to_string(level);
    }
    std::fclose(f);
  }
  hint += ")";
  return hint;
}

}  // namespace

Result<PerfCounterGroup> PerfCounterGroup::Create(
    std::span<const PerfEventId> requested) {
  if (requested.empty()) {
    return Status::InvalidArgument("empty perf event set");
  }
  PerfCounterGroup group;
  std::string leader_error;
  for (PerfEventId id : requested) {
    const int group_fd = group.fds_.empty() ? -1 : group.fds_[0];
    const int fd = OpenEvent(id, group_fd);
    if (fd < 0) {
      const std::string err = strerror(errno);
      if (group.fds_.empty() && leader_error.empty()) leader_error = err;
      group.dropped_.emplace_back(id,
                                  "perf_event_open: " + err);
      continue;
    }
    group.fds_.push_back(fd);
    group.events_.push_back(id);
  }
  if (group.fds_.empty()) {
    return Status::IOError("perf_event_open failed for every event: " +
                           leader_error + ParanoidHint());
  }
  return group;
}

Status PerfCounterGroup::Start() {
  if (fds_.empty()) return Status::Internal("counter group moved-from");
  if (ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    return Status::IOError("failed to enable perf counter group");
  }
  return Status::OK();
}

Status PerfCounterGroup::Stop() {
  if (fds_.empty()) return Status::Internal("counter group moved-from");
  if (ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP) != 0) {
    return Status::IOError("failed to disable perf counter group");
  }
  return Status::OK();
}

Result<PerfGroupReading> PerfCounterGroup::Read() const {
  if (fds_.empty()) return Status::Internal("counter group moved-from");
  std::vector<uint64_t> words(3 + fds_.size(), 0);
  const size_t want = words.size() * sizeof(uint64_t);
  const ssize_t n = read(fds_[0], words.data(), want);
  if (n < 0 || static_cast<size_t>(n) < 3 * sizeof(uint64_t)) {
    return Status::IOError("short read from perf counter group");
  }
  return ParseGroupReadBuffer(
      std::span<const uint64_t>(words.data(), n / sizeof(uint64_t)), events_);
}

void PerfCounterGroup::Close() {
  // Leader last: member events belong to the group while it exists.
  for (size_t i = fds_.size(); i-- > 0;) close(fds_[i]);
  fds_.clear();
  events_.clear();
}

Status PerfCountersStatus() {
  constexpr PerfEventId kProbe[] = {PerfEventId::kCycles};
  auto probe = PerfCounterGroup::Create(kProbe);
  return probe.ok() ? Status::OK() : probe.status();
}

#else  // !__linux__

Result<PerfCounterGroup> PerfCounterGroup::Create(
    std::span<const PerfEventId>) {
  return Status::Unimplemented("perf counters require Linux");
}
Status PerfCounterGroup::Start() { return Status::Unimplemented("no perf"); }
Status PerfCounterGroup::Stop() { return Status::Unimplemented("no perf"); }
Result<PerfGroupReading> PerfCounterGroup::Read() const {
  return Status::Unimplemented("no perf");
}
void PerfCounterGroup::Close() {}
Status PerfCountersStatus() {
  return Status::Unimplemented("perf counters require Linux");
}

#endif  // __linux__

PerfCounterGroup::PerfCounterGroup(PerfCounterGroup&& other) noexcept
    : fds_(std::move(other.fds_)),
      events_(std::move(other.events_)),
      dropped_(std::move(other.dropped_)) {
  other.fds_.clear();
  other.events_.clear();
}

PerfCounterGroup& PerfCounterGroup::operator=(
    PerfCounterGroup&& other) noexcept {
  if (this != &other) {
    Close();
    fds_ = std::move(other.fds_);
    events_ = std::move(other.events_);
    dropped_ = std::move(other.dropped_);
    other.fds_.clear();
    other.events_.clear();
  }
  return *this;
}

PerfCounterGroup::~PerfCounterGroup() { Close(); }

}  // namespace fpm
