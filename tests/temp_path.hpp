// Per-process temporary file names for tests. Each name carries the
// process id, so two suite runs at once on one machine (a sanitizer tree
// beside the default one) never read or overwrite each other's files.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>

namespace csdml::testing {

/// `<temp dir>/<pid>_<name>`: fixed within a process, distinct across them.
inline std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace csdml::testing
