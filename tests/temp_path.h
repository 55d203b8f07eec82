#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace autodetect {

/// `name` under the system temp directory, prefixed with this process's
/// pid. ctest runs each case as its own process, in parallel, and copies of
/// a test binary may run at once: the pid keeps their files apart.
inline std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "_" + name))
      .string();
}

}  // namespace autodetect
