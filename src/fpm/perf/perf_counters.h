// Hardware performance counters via perf_event_open (Linux).
//
// The paper's architecture-level claims (Figure 2, Tables 4-5) rest on
// on-chip PMC readings: CPI, cache misses, TLB misses. PerfCounterGroup
// opens a configurable event set as ONE perf event group for the calling
// thread, so all events are scheduled together and a single
// time_enabled/time_running pair describes the group. Reads use
// PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
// PERF_FORMAT_TOTAL_TIME_RUNNING; when the PMU multiplexes (more events
// than hardware counters, or competing sessions) counts are scaled by
// time_enabled/time_running to estimates of the full-window value.
//
// Degradation is per event: an event the kernel or hardware refuses is
// dropped from the group with its errno recorded (dropped()), and the
// group carries on with what opened. Only when *nothing* opens — the
// common case in containers with perf_event_paranoid >= 2 and no
// CAP_PERFMON — does Create() fail; callers then fall back to the
// software path (simcache model or wall-time shares), saying so.
//
// Buffer parsing and multiplex scaling are pure functions
// (ParseGroupReadBuffer) so they are testable without the syscall.

#ifndef FPM_PERF_PERF_COUNTERS_H_
#define FPM_PERF_PERF_COUNTERS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fpm/common/status.h"

namespace fpm {

/// The portable event set. Generic PERF_TYPE_HARDWARE events plus the
/// two PERF_TYPE_HW_CACHE reads the paper's analysis leans on (L1D and
/// dTLB read misses).
enum class PerfEventId {
  kCycles = 0,           ///< PERF_COUNT_HW_CPU_CYCLES
  kInstructions,         ///< PERF_COUNT_HW_INSTRUCTIONS
  kCacheReferences,      ///< PERF_COUNT_HW_CACHE_REFERENCES (usually LLC)
  kCacheMisses,          ///< PERF_COUNT_HW_CACHE_MISSES (usually LLC)
  kL1dReadMisses,        ///< HW_CACHE: L1D | READ | MISS
  kDtlbReadMisses,       ///< HW_CACHE: DTLB | READ | MISS
  kBranchMisses,         ///< PERF_COUNT_HW_BRANCH_MISSES
};

inline constexpr int kNumPerfEvents = 7;

/// Stable snake_case name ("cycles", "l1d_read_misses", ...) used as the
/// counter key in MineStats tables, metrics, and bench JSON.
std::string_view PerfEventName(PerfEventId id);

/// One event's value from a group read.
struct PerfEventReading {
  PerfEventId id{};
  uint64_t value = 0;  ///< multiplex-scaled estimate (== raw when not multiplexed)
  uint64_t raw = 0;    ///< unscaled count as the kernel reported it
};

/// A decoded group read.
struct PerfGroupReading {
  std::vector<PerfEventReading> events;  ///< in group (open) order
  uint64_t time_enabled_ns = 0;
  uint64_t time_running_ns = 0;

  /// True when the group was descheduled part of the window and the
  /// values are scaled estimates.
  bool multiplexed() const { return time_running_ns < time_enabled_ns; }

  /// Scaled value of `id`, or nullptr when the event is not in the set.
  const PerfEventReading* Find(PerfEventId id) const {
    for (const PerfEventReading& e : events) {
      if (e.id == id) return &e;
    }
    return nullptr;
  }
};

/// Decodes a PERF_FORMAT_GROUP | TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING
/// read buffer: words = {nr, time_enabled, time_running, value[0..nr-1]}
/// with value[i] belonging to events[i] (group open order). Applies
/// multiplex scaling: value = raw * time_enabled / time_running, rounded
/// to nearest; raw values pass through when the group ran the whole
/// window, and a never-scheduled group (time_running == 0) reads 0.
/// Fails with InvalidArgument on a short buffer or an nr mismatch.
Result<PerfGroupReading> ParseGroupReadBuffer(
    std::span<const uint64_t> words, std::span<const PerfEventId> events);

/// A perf event group counting the calling thread. Movable, not
/// copyable. The group starts disabled; Start() resets and enables it.
class PerfCounterGroup {
 public:
  /// The full default event set, in open order (cycles first, so the
  /// leader is the event most likely to be grantable).
  static std::span<const PerfEventId> DefaultEvents();

  /// Opens `requested` as one group for the calling thread (user-space
  /// only: exclude_kernel/hv). Events the kernel refuses are dropped
  /// individually and recorded with their errno in dropped(); Create()
  /// fails only when no event at all opens (the leader error message
  /// then carries the perf_event_paranoid hint).
  static Result<PerfCounterGroup> Create(
      std::span<const PerfEventId> requested = DefaultEvents());

  PerfCounterGroup(PerfCounterGroup&& other) noexcept;
  PerfCounterGroup& operator=(PerfCounterGroup&& other) noexcept;
  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;
  ~PerfCounterGroup();

  /// Resets all counters and enables the group.
  Status Start();

  /// Disables the group (values stay latched and readable).
  Status Stop();

  /// Reads the group — valid both while running (latches the moment) and
  /// after Stop(). Returns scaled values per event in open order.
  Result<PerfGroupReading> Read() const;

  /// Events that actually opened, in group order.
  std::span<const PerfEventId> events() const { return events_; }

  /// Requested events that did not open, with the reason each was
  /// dropped ("perf_event_open: Permission denied", ...).
  const std::vector<std::pair<PerfEventId, std::string>>& dropped() const {
    return dropped_;
  }

 private:
  PerfCounterGroup() = default;
  void Close();

  std::vector<int> fds_;  // fds_[0] is the group leader
  std::vector<PerfEventId> events_;
  std::vector<std::pair<PerfEventId, std::string>> dropped_;
};

/// OK when PerfCounterGroup::Create() is expected to succeed (a cheap
/// cycles-counter probe); otherwise the reason it will not — errno text
/// plus the perf_event_paranoid value when readable. Callers print this
/// when falling back to the software path.
Status PerfCountersStatus();

}  // namespace fpm

#endif  // FPM_PERF_PERF_COUNTERS_H_
