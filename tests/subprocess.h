// Running the build tree's executables from a test. The bench, tool and
// example binaries sit beside tests/ in the build tree, so each is
// found from this test binary's own path (build/tests/.. -> build/<sub>)
// and spawned as a real subprocess.

#ifndef RONPATH_TESTS_SUBPROCESS_H_
#define RONPATH_TESTS_SUBPROCESS_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ronpath::subprocess {

// The build tree's `sub` directory, found from this test binary's path.
inline std::string build_subdir(const std::string& sub) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return {};
  path.resize(slash);  // .../build/tests
  const std::size_t parent = path.rfind('/');
  if (parent == std::string::npos) return {};
  return path.substr(0, parent) + "/" + sub;  // .../build/<sub>
}

// True when `path` is an executable file.
inline bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && (st.st_mode & S_IXUSR) != 0;
}

// The exit status of a finished shell command, or -1 when the process
// did not exit normally.
inline int exit_code(int status) {
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// Runs `exe args...` with all output discarded; returns its exit code.
inline int run(const std::string& exe, const std::string& args) {
  const std::string cmd = "'" + exe + "' " + args + " >/dev/null 2>&1";
  return exit_code(std::system(cmd.c_str()));
}

struct Captured {
  int exit = -1;
  std::string out;  // stdout only; stderr goes to the test's own stderr
};

// Runs `exe args...` and captures its stdout.
inline Captured run_captured(const std::string& exe, const std::string& args) {
  Captured c;
  const std::string cmd = "'" + exe + "' " + args;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return c;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) c.out.append(buf, n);
  c.exit = exit_code(::pclose(pipe));
  return c;
}

}  // namespace ronpath::subprocess

#endif  // RONPATH_TESTS_SUBPROCESS_H_
