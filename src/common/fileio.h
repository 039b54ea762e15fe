#ifndef RAQO_COMMON_FILEIO_H_
#define RAQO_COMMON_FILEIO_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/net.h"
#include "common/result.h"
#include "common/status.h"

namespace raqo::io {

/// ----------------------------------------------------------------------
/// Test-only file-I/O fault injection.
///
/// The durable-cache journal (src/persist/) writes and fsyncs through
/// io::Write / io::Fsync, which consult a process-wide injector before
/// touching the kernel — the file-side twin of the socket seam in
/// common/net.h, reusing its FaultAction vocabulary (pass through, short
/// write, fail with errno). The hook is compiled in always and costs one
/// relaxed atomic load when no injector is installed. Tests script it to
/// force the failures that real disks produce rarely but surely: short
/// writes, ENOSPC, EIO, and fsync errors (the write that claims success
/// and then is not durable).
/// ----------------------------------------------------------------------

/// Scripted by tests; called from whatever thread performs the I/O, so
/// implementations must be thread-safe.
class FileFaultInjector {
 public:
  virtual ~FileFaultInjector() = default;
  /// Consulted before each write(2). kShortLen caps the write, kError
  /// fails it with the given errno without touching the file.
  virtual net::FaultAction OnWrite(int fd, size_t len) = 0;
  /// Consulted before each fsync(2). kShortLen is meaningless here and
  /// treated as pass-through; kError fails the sync with its errno.
  virtual net::FaultAction OnFsync(int fd) = 0;
};

/// Installs (nullptr clears) the process-wide injector. The caller must
/// clear it before destroying the injector and before tearing down any
/// journal still doing I/O it scripted. Test-only.
void SetFileFaultInjector(FileFaultInjector* injector);

/// RAII installer: clears the injector on scope exit.
class ScopedFileFaultInjector {
 public:
  explicit ScopedFileFaultInjector(FileFaultInjector* injector) {
    SetFileFaultInjector(injector);
  }
  ~ScopedFileFaultInjector() { SetFileFaultInjector(nullptr); }
  ScopedFileFaultInjector(const ScopedFileFaultInjector&) = delete;
  ScopedFileFaultInjector& operator=(const ScopedFileFaultInjector&) = delete;
};

/// write(2) / fsync(2) with the installed fault injector applied (and
/// passed straight through when none is). All raqo durable-file I/O uses
/// these instead of the raw syscalls.
ssize_t Write(int fd, const void* data, size_t len);
int Fsync(int fd);

/// Writes all `len` bytes through io::Write, retrying short writes and
/// EINTR. Any other error aborts with the partial count already written
/// to the file — the caller must treat the tail as torn.
Status WriteAll(int fd, const void* data, size_t len);

/// CRC-32 (IEEE 802.3, the zlib polynomial) of `data`, seeded so that
/// Crc32("") == 0. Journal records carry this over their payload.
uint32_t Crc32(std::string_view data);

/// Reads the whole file. NotFound when it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Whether a plain file exists at `path`.
bool FileExists(const std::string& path);

/// Crash-atomic replacement of `path`: writes `content` to a sibling
/// temp file, fsyncs it, rename(2)s it over `path`, then fsyncs the
/// directory so the rename itself is durable. Readers never observe a
/// half-written file.
Status AtomicWriteFile(const std::string& path, std::string_view content);

/// Opens (creating if absent) `path` for appending durable records and
/// truncates it to `valid_bytes` first — recovery passes the byte count
/// it verified so a torn tail is cut off before new records follow it.
Result<net::UniqueFd> OpenForAppend(const std::string& path,
                                    int64_t valid_bytes);

/// Creates the directory (and parents) if absent.
Status EnsureDirectory(const std::string& path);

}  // namespace raqo::io

#endif  // RAQO_COMMON_FILEIO_H_
