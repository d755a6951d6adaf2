#pragma once

// Scratch file paths for tests. Every name is prefixed with the process id,
// so suites running side by side (ctest -j, or two build trees at once)
// never write the same file.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <string_view>

namespace shedmon::test {

inline std::string TempPath(std::string_view name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + std::string(name);
}

}  // namespace shedmon::test
