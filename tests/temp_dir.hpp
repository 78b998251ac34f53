#pragma once
// TempDir owns a directory a test made under /tmp and removes it, with
// everything in it, when it goes out of scope, so a suite leaves no
// cache entries or snapshots behind.

#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

namespace bisram {

class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  ~TempDir() {
    std::error_code ignored;  // a directory left behind fails no test
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace bisram
