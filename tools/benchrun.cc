// benchrun: tiny parallel bench launcher. Runs each argument as a shell
// command, up to -j at a time, capturing each command's stdout+stderr to its
// own log file, and prints a pass/fail + wall-clock summary. Used by CI (and
// locally) to fan the bench suite out across cores without interleaving
// output:
//
//   benchrun -j 4 -l build/bench/logs "bench/fig04_tlb_cdf" "bench/fig07_fio"
//
// Exit status is 0 when every command passed; otherwise the highest non-zero
// per-command exit code (clamped to 255), so a caller sees the worst
// underlying failure instead of a bare failure count.
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace {

uint64_t WallMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-file stem for a command: basename of its first token, sanitized.
std::string Slug(const std::string& command, size_t index) {
  std::string first = command.substr(0, command.find_first_of(" \t"));
  const size_t slash = first.find_last_of('/');
  if (slash != std::string::npos) {
    first = first.substr(slash + 1);
  }
  std::string out;
  for (char c : first) {
    out += (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' || c == '.')
               ? c
               : '_';
  }
  if (out.empty()) {
    out = "cmd";
  }
  return std::to_string(index) + "_" + out;
}

struct Job {
  std::string command;
  std::string log_path;
  pid_t pid = -1;
  uint64_t start_ms = 0;
  uint64_t elapsed_ms = 0;
  int exit_code = -1;
  bool done = false;
};

bool Launch(Job& job) {
  const int log_fd = ::open(job.log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    std::fprintf(stderr, "benchrun: cannot open %s: %s\n", job.log_path.c_str(),
                 std::strerror(errno));
    return false;
  }
  job.start_ms = WallMs();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    std::fprintf(stderr, "benchrun: fork failed: %s\n", std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execl("/bin/sh", "sh", "-c", job.command.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  ::close(log_fd);
  job.pid = pid;
  return true;
}

// Blocks until one running job exits; records its result.
void ReapOne(std::vector<Job>& jobs, size_t* running) {
  int status = 0;
  const pid_t pid = ::waitpid(-1, &status, 0);
  if (pid < 0) {
    return;
  }
  for (Job& job : jobs) {
    if (job.pid != pid || job.done) {
      continue;
    }
    job.done = true;
    job.elapsed_ms = WallMs() - job.start_ms;
    job.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    (*running)--;
    std::printf("[%s] %s  (%.1fs, log: %s)\n", job.exit_code == 0 ? "ok" : "FAIL",
                job.command.c_str(), static_cast<double>(job.elapsed_ms) / 1000.0,
                job.log_path.c_str());
    std::fflush(stdout);
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned jobs_limit = std::max(1u, std::thread::hardware_concurrency());
  std::string log_dir = "benchrun-logs";
  std::vector<std::string> commands;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "-j" && i + 1 < argc) {
      jobs_limit = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "-l" && i + 1 < argc) {
      log_dir = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      std::printf("usage: benchrun [-j N] [-l logdir] \"cmd\" [\"cmd\" ...]\n");
      return 0;
    } else {
      commands.push_back(arg);
    }
  }
  if (commands.empty()) {
    std::fprintf(stderr, "benchrun: no commands given (see --help)\n");
    return 2;
  }
  if (::mkdir(log_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "benchrun: cannot create %s: %s\n", log_dir.c_str(),
                 std::strerror(errno));
    return 2;
  }

  std::vector<Job> jobs(commands.size());
  for (size_t i = 0; i < commands.size(); i++) {
    jobs[i].command = commands[i];
    jobs[i].log_path = log_dir + "/" + Slug(commands[i], i) + ".log";
  }

  std::printf("benchrun: %zu commands, %u parallel, logs in %s\n", commands.size(), jobs_limit,
              log_dir.c_str());
  const uint64_t suite_start = WallMs();
  size_t running = 0;
  size_t next = 0;
  size_t failed = 0;
  while (next < jobs.size() || running > 0) {
    while (next < jobs.size() && running < jobs_limit) {
      if (Launch(jobs[next])) {
        running++;
      } else {
        jobs[next].done = true;
        jobs[next].exit_code = 126;
      }
      next++;
    }
    if (running > 0) {
      ReapOne(jobs, &running);
    }
  }
  int worst_exit = 0;
  for (const Job& job : jobs) {
    if (job.exit_code != 0) {
      failed++;
      worst_exit = std::max(worst_exit, job.exit_code);
    }
  }
  std::printf("benchrun: %zu/%zu passed in %.1fs\n", jobs.size() - failed, jobs.size(),
              static_cast<double>(WallMs() - suite_start) / 1000.0);
  return worst_exit > 255 ? 255 : worst_exit;
}
