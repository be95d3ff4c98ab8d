// Processes the benchmark starts (fpmd daemons) and what it reads about
// processes and the host from /proc.

#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock.
double NowMs();

/// User+system CPU of process `pid` from /proc/<pid>/stat, in ms
/// (clock-tick resolution). -1 when unreadable.
double ProcessCpuMs(pid_t pid);

/// User+system CPU of this process (all threads), in ms.
double SelfCpuMs();

/// VmHWM of process `pid` (0 = this process) in MB; -1 when unreadable.
double PeakRssMb(pid_t pid);

/// Aggregate CPU ticks from /proc/stat.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks();

/// Share of CPU time stolen by the hypervisor between two readings, %.
double StealPct(const HostTicks& before, const HostTicks& after);

/// 1-minute load average.
double LoadAverage1();

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus();

/// Restricts the calling thread to `cpus`.
void RunOn(const std::vector<int>& cpus);

/// Restricts every thread of process `pid` to `cpus`. Threads it starts
/// later inherit the mask of the thread that starts them.
void MoveProcess(pid_t pid, const std::vector<int>& cpus);

/// A daemon started by the benchmark. Start() returns once the daemon
/// has printed its ready line ("listening on") on stderr; its stderr is
/// drained by a thread until it exits. The destructor kills a daemon that
/// is still running and always reaps it.
class Daemon {
 public:
  static std::unique_ptr<Daemon> Start(const std::vector<std::string>& argv,
                                       double timeout_ms, std::string* error);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Waits up to `timeout_ms` for the daemon to exit by itself, then
  /// kills it. True when it exited by itself with status 0.
  bool WaitOrKill(double timeout_ms);

 private:
  Daemon(pid_t pid, int stderr_fd) : pid_(pid), stderr_fd_(stderr_fd) {}

  pid_t pid_;
  int stderr_fd_;
  bool reaped_ = false;
  std::thread drain_;
};

/// A TCP port on 127.0.0.1 that was free when asked.
int FreeTcpPort();

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
