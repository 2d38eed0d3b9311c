#include "util/scratch_dir.h"

#include <unistd.h>

#include <atomic>
#include <system_error>

namespace vifi {

ScratchDir::ScratchDir(const std::string& stem) {
  static std::atomic<int> counter{0};
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  do {
    path_ = tmp / (stem + "_" + std::to_string(::getpid()) + "_" +
                   std::to_string(counter++));
  } while (!std::filesystem::create_directory(path_));
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace vifi
