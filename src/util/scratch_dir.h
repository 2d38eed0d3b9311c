#pragma once

/// \file scratch_dir.h
/// A private temporary directory that is removed, with everything in it,
/// when its owner goes away.

#include <filesystem>
#include <string>

namespace vifi {

/// A directory of one owner's own under temp_directory_path(), named by
/// pid and a process-wide counter so concurrent owners never share one,
/// and removed with everything in it however the owner's work ends.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& stem);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  /// \p name inside the directory.
  std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace vifi
