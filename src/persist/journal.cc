#include "persist/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/fileio.h"
#include "common/strings.h"

namespace raqo::persist {

namespace {

void AppendU32Be(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>(v & 0xFF));
}

uint32_t ReadU32Be(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return (static_cast<uint32_t>(b[0]) << 24) |
         (static_cast<uint32_t>(b[1]) << 16) |
         (static_cast<uint32_t>(b[2]) << 8) | static_cast<uint32_t>(b[3]);
}

}  // namespace

std::string EncodeRecord(std::string_view payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  AppendU32Be(static_cast<uint32_t>(payload.size()), &record);
  AppendU32Be(io::Crc32(payload), &record);
  record.append(payload.data(), payload.size());
  return record;
}

Result<ReplayResult> ReplayRecords(std::string_view content,
                                   std::string_view magic) {
  if (content.size() < kMagicBytes) {
    // A crash can land between creating the file and getting the magic
    // onto disk; a proper prefix of the magic (or nothing at all) is
    // that torn write, not a foreign file — report it as an empty
    // stream so the writer recreates the header.
    if (magic.substr(0, content.size()) == content) {
      ReplayResult torn;
      torn.valid_bytes = 0;
      torn.torn_tail = !content.empty();
      if (torn.torn_tail) torn.tail_error = "torn magic header";
      return torn;
    }
    return Status::InvalidArgument(StrPrintf(
        "file does not start with the %.*s magic",
        static_cast<int>(magic.size()), magic.data()));
  }
  if (content.substr(0, kMagicBytes) != magic) {
    return Status::InvalidArgument(StrPrintf(
        "file does not start with the %.*s magic",
        static_cast<int>(magic.size()), magic.data()));
  }
  ReplayResult out;
  size_t pos = kMagicBytes;
  while (pos < content.size()) {
    if (content.size() - pos < kRecordHeaderBytes) {
      out.torn_tail = true;
      out.tail_error = StrPrintf(
          "torn record header: %zu trailing bytes", content.size() - pos);
      break;
    }
    const uint32_t len = ReadU32Be(content.data() + pos);
    const uint32_t crc = ReadU32Be(content.data() + pos + 4);
    if (len > kMaxRecordBytes) {
      out.torn_tail = true;
      out.tail_error = StrPrintf(
          "corrupt length prefix (%u bytes) at offset %zu", len, pos);
      break;
    }
    if (content.size() - pos - kRecordHeaderBytes < len) {
      out.torn_tail = true;
      out.tail_error = StrPrintf(
          "torn record: %u payload bytes advertised, %zu present at "
          "offset %zu",
          len, content.size() - pos - kRecordHeaderBytes, pos);
      break;
    }
    const std::string_view payload =
        content.substr(pos + kRecordHeaderBytes, len);
    if (io::Crc32(payload) != crc) {
      out.torn_tail = true;
      out.tail_error =
          StrPrintf("checksum mismatch at offset %zu", pos);
      break;
    }
    out.payloads.emplace_back(payload);
    pos += kRecordHeaderBytes + len;
  }
  out.valid_bytes = static_cast<int64_t>(
      out.torn_tail ? pos : content.size());
  return out;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& path, int64_t valid_bytes, FsyncPolicy policy,
    size_t group_commit_bytes) {
  const bool fresh = valid_bytes < static_cast<int64_t>(kMagicBytes);
  if (fresh) valid_bytes = 0;
  RAQO_ASSIGN_OR_RETURN(net::UniqueFd fd,
                        io::OpenForAppend(path, valid_bytes));
  std::unique_ptr<JournalWriter> writer(new JournalWriter(
      std::move(fd), valid_bytes, policy,
      std::max<size_t>(1, group_commit_bytes)));
  if (fresh) {
    RAQO_RETURN_IF_ERROR(io::WriteAll(writer->fd_.get(), kJournalMagic,
                                      sizeof(kJournalMagic)));
    writer->size_bytes_ = static_cast<int64_t>(kMagicBytes);
    // The magic is part of every later record's durability: sync it now
    // so an acknowledged first record can never sit behind an unsynced
    // header.
    RAQO_RETURN_IF_ERROR(writer->Sync());
  }
  return writer;
}

Status JournalWriter::Append(std::string_view payload) {
  if (payload.size() > kMaxRecordBytes) {
    return Status::InvalidArgument(StrPrintf(
        "journal record of %zu bytes exceeds the %zu-byte cap",
        payload.size(), kMaxRecordBytes));
  }
  const std::string record = EncodeRecord(payload);
  std::lock_guard<std::mutex> lock(mu_);
  RAQO_RETURN_IF_ERROR(io::WriteAll(fd_.get(), record.data(),
                                    record.size()));
  size_bytes_ += static_cast<int64_t>(record.size());
  ++records_;
  switch (policy_) {
    case FsyncPolicy::kNone:
      return Status::OK();
    case FsyncPolicy::kEachRecord:
      return SyncLocked();
    case FsyncPolicy::kGroupCommit:
      if (size_bytes_ - synced_bytes_ >=
          static_cast<int64_t>(group_commit_bytes_)) {
        return SyncLocked();
      }
      return Status::OK();
  }
  return Status::OK();
}

Status JournalWriter::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status JournalWriter::SyncLocked() {
  if (synced_bytes_ == size_bytes_) return Status::OK();
  if (io::Fsync(fd_.get()) != 0) {
    return Status::FailedPrecondition(
        StrPrintf("journal fsync: %s", std::strerror(errno)));
  }
  synced_bytes_ = size_bytes_;
  return Status::OK();
}

int64_t JournalWriter::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_bytes_;
}

int64_t JournalWriter::synced_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return synced_bytes_;
}

int64_t JournalWriter::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

}  // namespace raqo::persist
