#include "procs.h"

#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  if (!std::getline(in, text)) return -1.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double SelfCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1.0;
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  in >> cpu;
  for (int i = 0; i < 8; ++i) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double StealPct(const HostTicks& before, const HostTicks& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double LoadAverage1() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

namespace {

cpu_set_t CpuSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return set;
}

}  // namespace

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void RunOn(const std::vector<int>& cpus) {
  const cpu_set_t set = CpuSet(cpus);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void MoveProcess(pid_t pid, const std::vector<int>& cpus) {
  const cpu_set_t set = CpuSet(cpus);
  DIR* tasks = ::opendir(("/proc/" + std::to_string(pid) + "/task").c_str());
  if (tasks == nullptr) return;
  while (const dirent* task = ::readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(task->d_name));
    if (tid > 0) ::sched_setaffinity(tid, sizeof(set), &set);
  }
  ::closedir(tasks);
}

std::unique_ptr<Daemon> Daemon::Start(const std::vector<std::string>& argv,
                                      double timeout_ms, std::string* error) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    *error = "spawn " + argv[0] + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<Daemon> daemon(new Daemon(pid, pipe_fds[0]));

  // Read stderr until the ready line, the daemon's exit, or the timeout.
  std::string log;
  const double deadline = NowMs() + timeout_ms;
  bool ready = false;
  while (!ready) {
    pollfd fd{daemon->stderr_fd_, POLLIN, 0};
    const int wait = static_cast<int>(deadline - NowMs());
    if (wait <= 0 || ::poll(&fd, 1, wait) <= 0) {
      *error = argv[0] + " printed no ready line in time: " + log;
      return nullptr;  // the destructor kills and reaps it
    }
    char chunk[512];
    const ssize_t n = ::read(daemon->stderr_fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      *error = argv[0] + " exited before it was ready: " + log;
      return nullptr;
    }
    log.append(chunk, static_cast<size_t>(n));
    ready = log.find("listening on") != std::string::npos;
  }
  const int fd = daemon->stderr_fd_;
  daemon->drain_ = std::thread([fd] {
    char chunk[512];
    while (::read(fd, chunk, sizeof(chunk)) > 0) {
    }
  });
  return daemon;
}

bool Daemon::WaitOrKill(double timeout_ms) {
  if (reaped_) return false;
  bool exited = false;
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid_, 0));
  if (pidfd >= 0) {
    pollfd fd{pidfd, POLLIN, 0};
    exited = ::poll(&fd, 1, static_cast<int>(timeout_ms)) > 0;
    ::close(pidfd);
  }
  if (!exited) ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  if (drain_.joinable()) drain_.join();
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Daemon::~Daemon() {
  if (!reaped_) WaitOrKill(0);
  if (drain_.joinable()) drain_.join();
  ::close(stderr_fd_);
}

int FreeTcpPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = -1;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

}  // namespace perfbench
