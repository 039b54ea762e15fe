#ifndef RAQO_PERSIST_JOURNAL_H_
#define RAQO_PERSIST_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.h"
#include "common/result.h"
#include "common/status.h"

namespace raqo::persist {

/// On-disk journal format (docs/PERSISTENCE.md):
///
///   [8-byte magic "RAQOWAL1"]
///   [record]*
///
/// where each record is
///
///   [u32 BE payload length][u32 BE CRC-32 of payload][payload bytes]
///
/// Payloads are UTF-8 JSON documents (serialized cache events). The
/// CRC and the length prefix together make a torn tail — the half
/// record a crash mid-write leaves behind — detectable: replay stops
/// at the first record whose bytes are incomplete or whose checksum
/// disagrees, and reports how many bytes were verified so the writer
/// can truncate the tail before appending again. Snapshot files reuse
/// the same record stream under the magic "RAQOSNP1".
inline constexpr char kJournalMagic[8] = {'R', 'A', 'Q', 'O',
                                          'W', 'A', 'L', '1'};
inline constexpr char kSnapshotMagic[8] = {'R', 'A', 'Q', 'O',
                                           'S', 'N', 'P', '1'};
inline constexpr size_t kMagicBytes = 8;
inline constexpr size_t kRecordHeaderBytes = 8;  ///< length + CRC

/// Hard cap on one record's payload; a corrupt length prefix must not
/// drive a multi-gigabyte allocation during replay.
inline constexpr size_t kMaxRecordBytes = 4u << 20;

/// Renders one record (header + payload) ready to append.
std::string EncodeRecord(std::string_view payload);

/// Result of scanning one journal or snapshot file.
struct ReplayResult {
  /// Every payload whose length and checksum verified, in file order.
  std::vector<std::string> payloads;
  /// Bytes of the file covered by the magic plus verified records. A
  /// writer reopening the file truncates to this before appending.
  int64_t valid_bytes = 0;
  /// True when bytes followed the last verified record — a torn tail
  /// (crash mid-append) or a corrupt record; everything after the
  /// first bad byte is discarded.
  bool torn_tail = false;
  /// Human-readable description of why the scan stopped early ("" when
  /// the whole file verified).
  std::string tail_error;
};

/// Scans the record stream of `content` (a whole journal or snapshot
/// file). Fails only when the magic itself is wrong — a missing or
/// damaged tail is tolerated and reported via ReplayResult instead, so
/// recovery after a crash always proceeds with the verified prefix.
Result<ReplayResult> ReplayRecords(std::string_view content,
                                   std::string_view magic);

/// When to fsync the journal file.
enum class FsyncPolicy {
  /// Never fsync; durability is whatever the OS page cache provides.
  /// Fastest, loses the tail written since the last OS writeback on
  /// power failure (not on process crash — the page cache survives).
  kNone,
  /// Group commit: records accumulate and one fsync covers the whole
  /// group once `group_commit_bytes` have been appended since the last
  /// sync (or when Sync() is called explicitly). The default.
  kGroupCommit,
  /// fsync after every record. Slowest, smallest loss window.
  kEachRecord,
};

/// Append-side of the journal: thread-safe, records are written
/// whole-record-at-a-time under one mutex so concurrent appenders can
/// never interleave bytes (an interleaved record would be torn on
/// disk). A record is *acknowledged durable* only once a successful
/// Sync() (explicit or policy-triggered) covers it; Append() returning
/// OK alone promises the bytes reached the kernel, not the platter.
class JournalWriter {
 public:
  /// Opens `path` for appending, creating it (with the journal magic)
  /// when absent, and truncating a previously detected torn tail to
  /// `valid_bytes` (pass the ReplayResult's count; pass 0 for a fresh
  /// file — the magic is rewritten).
  static Result<std::unique_ptr<JournalWriter>> Open(
      const std::string& path, int64_t valid_bytes, FsyncPolicy policy,
      size_t group_commit_bytes);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record. With kEachRecord the record is durable on
  /// return; with kGroupCommit a sync fires once the group fills.
  Status Append(std::string_view payload);

  /// fsyncs everything appended so far. After OK, every prior Append
  /// is acknowledged durable.
  Status Sync();

  /// Total file size including magic (what recovery would scan).
  int64_t size_bytes() const;
  /// Bytes covered by the last successful fsync.
  int64_t synced_bytes() const;
  /// Records appended through this writer.
  int64_t records_appended() const;

 private:
  JournalWriter(net::UniqueFd fd, int64_t size, FsyncPolicy policy,
                size_t group_commit_bytes)
      : fd_(std::move(fd)),
        policy_(policy),
        group_commit_bytes_(group_commit_bytes),
        size_bytes_(size),
        synced_bytes_(size) {}

  Status SyncLocked();

  net::UniqueFd fd_;
  FsyncPolicy policy_;
  size_t group_commit_bytes_;
  mutable std::mutex mu_;
  int64_t size_bytes_ = 0;
  int64_t synced_bytes_ = 0;
  int64_t records_ = 0;
};

}  // namespace raqo::persist

#endif  // RAQO_PERSIST_JOURNAL_H_
