#include "common/fileio.h"

#include <fcntl.h>
#include <libgen.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace raqo::io {

namespace {

std::atomic<FileFaultInjector*> g_file_fault_injector{nullptr};

Status Errno(const char* what, const std::string& path) {
  return Status::FailedPrecondition(
      StrPrintf("%s %s: %s", what, path.c_str(), std::strerror(errno)));
}

/// The CRC-32 (IEEE) lookup table, built once on first use.
const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Directory component of `path` ("." when it has none).
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// fsyncs a directory so a rename or create inside it is durable.
Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open(dir)", dir);
  const int rc = Fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Errno("fsync(dir)", dir);
  }
  return Status::OK();
}

}  // namespace

void SetFileFaultInjector(FileFaultInjector* injector) {
  g_file_fault_injector.store(injector, std::memory_order_release);
}

ssize_t Write(int fd, const void* data, size_t len) {
  if (FileFaultInjector* injector =
          g_file_fault_injector.load(std::memory_order_acquire);
      injector != nullptr) {
    const net::FaultAction action = injector->OnWrite(fd, len);
    if (action.kind == net::FaultAction::Kind::kError) {
      errno = action.error;
      return -1;
    }
    if (action.kind == net::FaultAction::Kind::kShortLen) {
      // Clamp to >= 1 so callers looping on "bytes left" always advance.
      len = std::max<size_t>(1, std::min(len, action.len));
    }
  }
  return ::write(fd, data, len);
}

int Fsync(int fd) {
  if (FileFaultInjector* injector =
          g_file_fault_injector.load(std::memory_order_acquire);
      injector != nullptr) {
    const net::FaultAction action = injector->OnFsync(fd);
    if (action.kind == net::FaultAction::Kind::kError) {
      errno = action.error;
      return -1;
    }
  }
  return ::fsync(fd);
}

Status WriteAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t left = len;
  while (left > 0) {
    const ssize_t n = Write(fd, p, left);
    if (n > 0) {
      p += static_cast<size_t>(n);
      left -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::FailedPrecondition(
        StrPrintf("write: %s (%zu of %zu bytes written)",
                  std::strerror(errno), len - left, len));
  }
  return Status::OK();
}

uint32_t Crc32(std::string_view data) {
  const std::array<uint32_t, 256>& table = Crc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Errno("open", path);
  }
  std::string out;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    const Status failed = Errno("read", path);
    ::close(fd);
    return failed;
  }
  ::close(fd);
  return out;
}

bool FileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

Status AtomicWriteFile(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", tmp);
  Status written = WriteAll(fd, content.data(), content.size());
  if (written.ok() && Fsync(fd) != 0) written = Errno("fsync", tmp);
  ::close(fd);
  if (!written.ok()) {
    ::unlink(tmp.c_str());
    return written;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status failed = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return failed;
  }
  // The rename is only durable once the directory entry is on disk.
  return FsyncDirectory(DirName(path));
}

Result<net::UniqueFd> OpenForAppend(const std::string& path,
                                    int64_t valid_bytes) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", path);
  net::UniqueFd owned(fd);
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    return Errno("ftruncate", path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) return Errno("lseek", path);
  return owned;
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) return Status::InvalidArgument("empty directory path");
  std::string partial;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    const size_t end = slash == std::string::npos ? path.size() : slash;
    partial = path.substr(0, end);
    pos = end + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", partial);
    }
    if (slash == std::string::npos) break;
  }
  return Status::OK();
}

}  // namespace raqo::io
