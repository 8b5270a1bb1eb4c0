#include "vcfd_process.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace vcf::bench {

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Value of a "Name:   123 ..." line in a /proc status-style file.
std::uint64_t FieldValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + ":";
  std::size_t pos = ("\n" + text).find(key);
  if (pos == std::string::npos) return 0;
  pos += name.size() + 1;  // into `text` coordinates: key minus the '\n'
  return std::strtoull(text.c_str() + pos, nullptr, 10);
}

}  // namespace

bool ReadProcSample(pid_t pid, ProcSample* out) {
  const std::string dir = "/proc/" + std::to_string(pid);
  std::string stat;
  if (!ReadFile(dir + "/stat", &stat)) return false;
  // Fields after the parenthesised comm: state(3) ... minflt(10) ...
  // utime(14) stime(15), counted from 1 with comm as field 2.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return false;
  std::istringstream fields(stat.substr(close + 2));
  std::string tok;
  std::uint64_t minflt = 0, utime = 0, stime = 0;
  for (int field = 3; field <= 15 && fields >> tok; ++field) {
    if (field == 10) minflt = std::strtoull(tok.c_str(), nullptr, 10);
    if (field == 14) utime = std::strtoull(tok.c_str(), nullptr, 10);
    if (field == 15) stime = std::strtoull(tok.c_str(), nullptr, 10);
  }
  const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  ProcSample s;
  s.utime_s = static_cast<double>(utime) / tick;
  s.stime_s = static_cast<double>(stime) / tick;
  s.minflt = minflt;

  std::string text;
  if (ReadFile(dir + "/status", &text)) {
    s.rss_bytes = FieldValue(text, "VmRSS") * 1024;
  }
  if (ReadFile(dir + "/io", &text)) {
    s.syscr = FieldValue(text, "syscr");
    s.syscw = FieldValue(text, "syscw");
  }
  // Context switches are per task; /proc/<pid>/status shows only the
  // leader's, so sum the task directory.
  if (DIR* d = opendir((dir + "/task").c_str())) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      if (ReadFile(dir + "/task/" + e->d_name + "/status", &text)) {
        s.ctxsw += FieldValue(text, "voluntary_ctxt_switches") +
                   FieldValue(text, "nonvoluntary_ctxt_switches");
      }
    }
    closedir(d);
  }
  *out = s;
  return true;
}

VcfdProcess::~VcfdProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

bool VcfdProcess::Start(const std::string& binary,
                        const std::vector<std::string>& args,
                        const std::string& log_path, std::string* error) {
  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = "pipe: " + std::string(std::strerror(errno));
    return false;
  }
  const int log_fd =
      open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    close(out_pipe[0]);
    close(out_pipe[1]);
    return false;
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork: " + std::string(std::strerror(errno));
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(log_fd);
    return false;
  }
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  close(log_fd);
  pid_ = pid;
  log_path_ = log_path;

  // Handshake: one flushed stdout line once the socket is bound.
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool got_line = false;
  while (!got_line && std::chrono::steady_clock::now() < deadline) {
    pollfd p{out_pipe[0], POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char buf[256];
    const ssize_t n = read(out_pipe[0], buf, sizeof(buf));
    if (n <= 0) break;  // vcfd exited before listening
    line.append(buf, static_cast<std::size_t>(n));
    got_line = line.find('\n') != std::string::npos;
  }
  close(out_pipe[0]);
  const std::string tag = "vcfd listening on 127.0.0.1:";
  const std::size_t at = line.find(tag);
  if (!got_line || at == std::string::npos) {
    *error = "vcfd did not report listening (see " + log_path + ")";
    return false;
  }
  port_ = static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + at + tag.size(), nullptr, 10));
  return true;
}

int VcfdProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  int status = 0;
  pid_t got = 0;
  while ((got = waitpid(pid_, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (got == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return -1;
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string VcfdProcess::Backend() const {
  std::string log;
  if (!ReadFile(log_path_, &log)) return "unknown";
  for (const char* name : {"io_uring", "epoll", "poll"}) {
    if (log.find(std::string(name) + " backend") != std::string::npos) {
      return name;
    }
  }
  return "unknown";
}

}  // namespace vcf::bench
