#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "net/client.h"

namespace autodetect::bench {

namespace {

/// The fixed server shape: 1 acceptor + 2 engine workers + the client thread
/// fill a 4-core machine. The memory budget and the tenant table sit on the
/// request path but never refuse a request at this load.
const std::vector<std::string> kServeFlags = {
    "--acceptors", "1", "--jobs", "2", "--dispatch-threads", "2", "--cache-mb", "32",
    "--mem-budget-mb", "512", "--request-budget-mb", "32", "--tenants", "*=1024:block"};

constexpr auto kReadyTimeout = std::chrono::seconds(30);
constexpr auto kStopTimeout = std::chrono::seconds(20);

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(const std::string& cli,
                                                            const std::string& model_path,
                                                            const std::string& work_dir,
                                                            int index) {
  const std::string port_file = StrFormat("%s/serve-%d.port", work_dir.c_str(), index);
  const std::string log_path = StrFormat("%s/serve-%d.log", work_dir.c_str(), index);
  std::error_code ec;
  std::filesystem::remove(port_file, ec);

  std::vector<std::string> args = {cli,      "serve",       "--model",  model_path,
                                   "--port", "0",           "--port-file", port_file};
  args.insert(args.end(), kServeFlags.begin(), kServeFlags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = getpid();
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IOError("cannot create " + log_path);
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server must not
    // outlive the benchmark, even when the benchmark is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, log_path));
  Status ready = server->AwaitReady(port_file);
  if (!ready.ok()) return ready;  // the destructor reaps the child
  return server;
}

Status ServerProcess::AwaitReady(const std::string& port_file) {
  const auto deadline = Clock::now() + kReadyTimeout;
  while (port_ == 0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::IOError("server exited during start-up; see " + log_path_);
    }
    // The server writes "<port>\n" once listening; wait for the newline so
    // a half-written file is never read as a port.
    const std::string text = ReadFile(port_file);
    const long port = text.empty() || text.back() != '\n' ? 0 : std::atol(text.c_str());
    if (port > 0 && port < 65536) {
      port_ = static_cast<uint16_t>(port);
      break;
    }
    if (Clock::now() > deadline) return Status::IOError("server wrote no port file");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (true) {
    auto health = HttpGet("127.0.0.1", port_, "/healthz");
    if (health.ok() && health->status_code == 200) return Status::OK();
    if (Clock::now() > deadline) return Status::IOError("/healthz never returned 200");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerProcess::~ServerProcess() {
  Status stopped = Stop();
  if (!stopped.ok()) std::fprintf(stderr, "bench_e2e: %s\n", stopped.ToString().c_str());
}

Result<std::string> ServerProcess::Metrics() const {
  AD_ASSIGN_OR_RETURN(HttpResult result, HttpGet("127.0.0.1", port_, "/metrics"));
  if (result.status_code != 200) {
    return Status::IOError(StrFormat("/metrics returned %d", result.status_code));
  }
  return result.body;
}

Result<double> ServerProcess::PeakRssMb() const {
  std::ifstream in(StrFormat("/proc/%d/status", pid_));
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "VmHWM:")) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return Status::IOError("no VmHWM for the server process");
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  const int pid = pid_;
  pid_ = -1;
  kill(pid, SIGTERM);
  const auto deadline = Clock::now() + kStopTimeout;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) != pid) {
    if (Clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return Status::IOError("server did not drain within the stop timeout");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::IOError("server exited abnormally; see " + log_path_);
  }
  return Status::OK();
}

Result<double> PromValue(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > series.size() && line.compare(0, series.size(), series) == 0 &&
        line[series.size()] == ' ') {
      return std::atof(line.c_str() + series.size() + 1);
    }
  }
  return Status::NotFound("no series " + series + " in /metrics");
}

}  // namespace autodetect::bench
