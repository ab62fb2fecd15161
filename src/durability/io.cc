#include "durability/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace fresque {
namespace durability {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

std::string ParentDir(const std::string& path) {
  std::filesystem::path p(path);
  auto parent = p.parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

}  // namespace

Result<Bytes> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open", path);
  Bytes out;
  uint8_t buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  Status st;
  if (::fsync(fd) != 0) st = Errno("fsync dir", dir);
  ::close(fd);
  return st;
}

Status WriteFileAtomic(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("create", tmp);
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("write", tmp);
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Errno("fsync", tmp);
  }
  ::close(fd);
  return RenameAtomic(tmp, path);
}

Status RenameAtomic(const std::string& tmp_path, const std::string& path) {
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Errno("rename to", path);
  }
  return SyncDir(ParentDir(path));
}

}  // namespace durability
}  // namespace fresque
