// A vcfd child process for the end-to-end benchmark: spawn, handshake,
// /proc sampling and SIGTERM shutdown with its exit status checked.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace vcf::bench {

/// Counters summed over every task of a process, read from /proc. Taken at
/// phase edges; the benchmark reports the differences.
struct ProcSample {
  double utime_s = 0.0;  ///< user CPU over all tasks
  double stime_s = 0.0;  ///< system CPU over all tasks
  std::uint64_t minflt = 0;
  std::uint64_t ctxsw = 0;   ///< voluntary + involuntary, over all tasks
  std::uint64_t syscr = 0;   ///< read-class syscalls (/proc/<pid>/io)
  std::uint64_t syscw = 0;   ///< write-class syscalls
  std::uint64_t rss_bytes = 0;
};

/// Reads a ProcSample for `pid`; false when the process is gone.
bool ReadProcSample(pid_t pid, ProcSample* out);

class VcfdProcess {
 public:
  VcfdProcess() = default;
  ~VcfdProcess();  ///< SIGKILLs and reaps a child still running

  VcfdProcess(const VcfdProcess&) = delete;
  VcfdProcess& operator=(const VcfdProcess&) = delete;

  /// Starts `binary` with `args` (vcfd flags, no argv[0]) and waits for the
  /// "vcfd listening on 127.0.0.1:<port>" handshake on its stdout. vcfd's
  /// stderr goes to `log_path`. False with *error on failure.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);

  /// SIGTERM, then waits up to `timeout_s` for the exit. Returns the exit
  /// code, or -1 when the process died on a signal or had to be killed.
  int Stop(double timeout_s = 60.0);

  pid_t pid() const noexcept { return pid_; }
  std::uint16_t port() const noexcept { return port_; }

  /// The poller backend named on vcfd's "serving ..." stderr line
  /// ("io_uring", "epoll", "poll"), or "unknown".
  std::string Backend() const;

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string log_path_;
};

}  // namespace vcf::bench
