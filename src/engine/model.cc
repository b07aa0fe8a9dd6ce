#include "engine/model.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>

#include "engine/artifact_v4.h"

namespace ida::engine {

std::string TrainedModel::Serialize() const { return v4::Serialize(*this); }

Status TrainedModel::SaveToFile(const std::string& path) const {
  const std::string bytes = Serialize();
  // A sibling name unique to this process and call, so concurrent savers
  // never share a temporary; rename() within one directory is atomic.
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                        0666);
  if (fd < 0) {
    return Status::IoError("cannot open " + tmp + " for writing");
  }
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  const bool synced = done == bytes.size() && ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot replace " + path);
  }
  return Status::OK();
}

}  // namespace ida::engine
