// The durable plan-cache layer: CRC-checked journal records, torn-tail
// recovery, snapshot + compaction equivalence, fsync policies, and the
// file-I/O fault-injection seam. Everything here runs on real files in
// a per-test temp directory — no sockets (the wire side of persistence
// lives in server_test.cc). Run under -DRAQO_SANITIZE=thread and
// =address; every test must be clean under both.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fileio.h"
#include "common/net.h"
#include "core/plan_cache.h"
#include "persist/cache_persist.h"
#include "persist/journal.h"

namespace raqo {
namespace {

using core::CachedResourcePlan;
using core::CacheEntryRecord;
using core::CacheIndexKind;
using core::CacheLookupMode;
using core::ResourcePlanCache;
using persist::CachePersistence;
using persist::FsyncPolicy;
using persist::JournalWriter;
using persist::PersistOptions;
using persist::ReplayResult;

/// Fresh, unique directory under the system temp root; removed on
/// destruction so test runs do not accrete state.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("raqo_persist_" + tag + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  std::string path;
};

std::string ReadAll(const std::string& path) {
  Result<std::string> content = io::ReadFileToString(path);
  EXPECT_TRUE(content.ok()) << content.status().ToString();
  return content.ok() ? *content : std::string();
}

CachedResourcePlan MakePlan(double key, double larger, double cost,
                            double cs, double nc) {
  CachedResourcePlan plan;
  plan.key_gb = key;
  plan.larger_gb = larger;
  plan.cost = cost;
  plan.config = resource::ResourceConfig(cs, nc);
  return plan;
}

/// The canonical serialized form of a cache's whole logical content —
/// byte-level equality of two of these is the "bit-identical replay"
/// acceptance criterion.
std::string CanonicalDump(const ResourcePlanCache& cache) {
  std::string out;
  for (const CacheEntryRecord& entry : cache.DumpEntries()) {
    out += persist::SerializeCacheEntry(entry.model, entry.plan);
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------
// CRC-32 and record framing

TEST(Crc32Test, MatchesKnownVectors) {
  // Standard CRC-32/ISO-HDLC check values.
  EXPECT_EQ(io::Crc32(""), 0u);
  EXPECT_EQ(io::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::Crc32("a"), 0xE8B7BE43u);
}

TEST(JournalRecordTest, RoundTripsByteForByte) {
  const std::vector<std::string> payloads = {
      "{\"k\":1}", "", "second record", std::string(1000, 'x')};
  std::string file(persist::kJournalMagic, persist::kMagicBytes);
  for (const std::string& p : payloads) file += persist::EncodeRecord(p);

  Result<ReplayResult> replay = persist::ReplayRecords(
      file, std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, static_cast<int64_t>(file.size()));
  ASSERT_EQ(replay->payloads.size(), payloads.size());
  // Re-encoding the replayed payloads reproduces the exact file bytes.
  std::string rebuilt(persist::kJournalMagic, persist::kMagicBytes);
  for (const std::string& p : replay->payloads) {
    EXPECT_EQ(p, payloads[&p - replay->payloads.data()]);
    rebuilt += persist::EncodeRecord(p);
  }
  EXPECT_EQ(rebuilt, file);
}

TEST(JournalRecordTest, WrongMagicIsAnError) {
  std::string file = "NOTRAQO!";
  file += persist::EncodeRecord("x");
  Result<ReplayResult> replay = persist::ReplayRecords(
      file, std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  EXPECT_FALSE(replay.ok());
}

TEST(JournalRecordTest, TornMagicIsAnEmptyTornStream) {
  Result<ReplayResult> replay = persist::ReplayRecords(
      std::string_view(persist::kJournalMagic, 3),
      std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, 0);
  EXPECT_TRUE(replay->payloads.empty());
}

TEST(JournalRecordTest, TornTailAtEveryTruncationPoint) {
  const std::vector<std::string> payloads = {"first", "second", "third"};
  std::string file(persist::kJournalMagic, persist::kMagicBytes);
  std::vector<size_t> boundaries = {file.size()};
  for (const std::string& p : payloads) {
    file += persist::EncodeRecord(p);
    boundaries.push_back(file.size());
  }
  for (size_t cut = persist::kMagicBytes; cut < file.size(); ++cut) {
    Result<ReplayResult> replay = persist::ReplayRecords(
        std::string_view(file.data(), cut),
        std::string_view(persist::kJournalMagic, persist::kMagicBytes));
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    // Whole records before the cut replay; the torn one never does.
    size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= cut) {
      ++whole;
    }
    EXPECT_EQ(replay->payloads.size(), whole) << "cut at " << cut;
    EXPECT_EQ(replay->valid_bytes,
              static_cast<int64_t>(boundaries[whole]))
        << "cut at " << cut;
    EXPECT_EQ(replay->torn_tail, cut != boundaries[whole])
        << "cut at " << cut;
  }
}

TEST(JournalRecordTest, CorruptPayloadStopsAtTheChecksum) {
  std::string file(persist::kJournalMagic, persist::kMagicBytes);
  file += persist::EncodeRecord("good record");
  const size_t corrupt_at = file.size() + persist::kRecordHeaderBytes + 2;
  file += persist::EncodeRecord("bad record");
  file += persist::EncodeRecord("unreachable");
  file[corrupt_at] ^= 0x40;  // flip a payload bit of the middle record

  Result<ReplayResult> replay = persist::ReplayRecords(
      file, std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn_tail);
  ASSERT_EQ(replay->payloads.size(), 1u);
  EXPECT_EQ(replay->payloads[0], "good record");
  EXPECT_NE(replay->tail_error.find("checksum"), std::string::npos);
}

TEST(JournalRecordTest, CorruptLengthPrefixCannotDriveAllocation) {
  std::string file(persist::kJournalMagic, persist::kMagicBytes);
  file += persist::EncodeRecord("ok");
  // A length prefix claiming ~4 GiB: replay must stop, not allocate.
  file += std::string("\xFF\xFF\xFF\xF0\x00\x00\x00\x00", 8);
  Result<ReplayResult> replay = persist::ReplayRecords(
      file, std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->payloads.size(), 1u);
  EXPECT_NE(replay->tail_error.find("length"), std::string::npos);
}

// ---------------------------------------------------------------------
// JournalWriter and fsync policies

TEST(JournalWriterTest, EachRecordPolicySyncsEveryAppend) {
  TempDir dir("each_record");
  const std::string path = dir.path + "/wal";
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
      path, 0, FsyncPolicy::kEachRecord, 1 << 20);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("r1").ok());
  EXPECT_EQ((*writer)->synced_bytes(), (*writer)->size_bytes());
  ASSERT_TRUE((*writer)->Append("r2").ok());
  EXPECT_EQ((*writer)->synced_bytes(), (*writer)->size_bytes());
  EXPECT_EQ((*writer)->records_appended(), 2);
}

TEST(JournalWriterTest, GroupCommitSyncsOncePerGroup) {
  TempDir dir("group_commit");
  const std::string path = dir.path + "/wal";
  // Group of 64 bytes; each record is 8 + 10 = 18 bytes.
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
      path, 0, FsyncPolicy::kGroupCommit, 64);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::string payload(10, 'p');
  ASSERT_TRUE((*writer)->Append(payload).ok());
  ASSERT_TRUE((*writer)->Append(payload).ok());
  ASSERT_TRUE((*writer)->Append(payload).ok());
  // 54 unsynced bytes: below the group, nothing synced since the magic.
  EXPECT_EQ((*writer)->synced_bytes(),
            static_cast<int64_t>(persist::kMagicBytes));
  ASSERT_TRUE((*writer)->Append(payload).ok());
  // 72 >= 64: the group fsync fired and covers everything.
  EXPECT_EQ((*writer)->synced_bytes(), (*writer)->size_bytes());
}

TEST(JournalWriterTest, NonePolicySyncsOnlyExplicitly) {
  TempDir dir("none_policy");
  const std::string path = dir.path + "/wal";
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::Open(path, 0, FsyncPolicy::kNone, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("payload").ok());
  EXPECT_EQ((*writer)->synced_bytes(),
            static_cast<int64_t>(persist::kMagicBytes));
  ASSERT_TRUE((*writer)->Sync().ok());
  EXPECT_EQ((*writer)->synced_bytes(), (*writer)->size_bytes());
}

TEST(JournalWriterTest, ReopenTruncatesTheTornTail) {
  TempDir dir("reopen");
  const std::string path = dir.path + "/wal";
  {
    Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
        path, 0, FsyncPolicy::kEachRecord, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("kept").ok());
  }
  // Simulate a crash mid-append: raw half-record bytes at the tail
  // (length prefix advertising 16 bytes, far fewer present).
  {
    const std::string torn("\x00\x00\x00\x10garbage", 11);
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  const std::string content = ReadAll(path);
  Result<ReplayResult> replay = persist::ReplayRecords(
      content,
      std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->torn_tail);
  ASSERT_EQ(replay->payloads.size(), 1u);

  // Reopen at the verified prefix and append: the tear is gone.
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
      path, replay->valid_bytes, FsyncPolicy::kEachRecord, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append("after recovery").ok());
  Result<ReplayResult> again = persist::ReplayRecords(
      ReadAll(path),
      std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->torn_tail);
  ASSERT_EQ(again->payloads.size(), 2u);
  EXPECT_EQ(again->payloads[0], "kept");
  EXPECT_EQ(again->payloads[1], "after recovery");
}

TEST(JournalWriterTest, OversizedRecordIsRejected) {
  TempDir dir("oversized");
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
      dir.path + "/wal", 0, FsyncPolicy::kNone, 1);
  ASSERT_TRUE(writer.ok());
  const std::string huge(persist::kMaxRecordBytes + 1, 'z');
  EXPECT_FALSE((*writer)->Append(huge).ok());
  EXPECT_EQ((*writer)->records_appended(), 0);
}

// ---------------------------------------------------------------------
// File-I/O fault injection (the seam itself)

/// Scripted injector: fails or shortens the Nth write / fails the Nth
/// fsync, pass-through otherwise.
class ScriptedFileFaults : public io::FileFaultInjector {
 public:
  net::FaultAction OnWrite(int fd, size_t len) override {
    (void)fd;
    (void)len;
    const int n = writes_.fetch_add(1, std::memory_order_relaxed);
    if (n == fail_write_at_.load(std::memory_order_relaxed)) {
      return net::FaultAction::Fail(ENOSPC);
    }
    if (short_writes_.load(std::memory_order_relaxed)) {
      return net::FaultAction::Short(3);
    }
    return net::FaultAction::PassThrough();
  }
  net::FaultAction OnFsync(int fd) override {
    (void)fd;
    const int n = fsyncs_.fetch_add(1, std::memory_order_relaxed);
    if (n == fail_fsync_at_.load(std::memory_order_relaxed)) {
      return net::FaultAction::Fail(EIO);
    }
    return net::FaultAction::PassThrough();
  }

  std::atomic<int> writes_{0};
  std::atomic<int> fsyncs_{0};
  std::atomic<int> fail_write_at_{-1};
  std::atomic<int> fail_fsync_at_{-1};
  std::atomic<bool> short_writes_{false};
};

TEST(FileFaultTest, ShortWritesAreInvisibleThroughWriteAll) {
  TempDir dir("short_writes");
  ScriptedFileFaults faults;
  faults.short_writes_.store(true);
  {
    io::ScopedFileFaultInjector installed(&faults);
    Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
        dir.path + "/wal", 0, FsyncPolicy::kEachRecord, 1);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("a record that spans many short "
                                  "writes").ok());
  }
  // Every byte arrived despite 3-byte syscalls; the record replays.
  Result<ReplayResult> replay = persist::ReplayRecords(
      ReadAll(dir.path + "/wal"),
      std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok());
  EXPECT_FALSE(replay->torn_tail);
  ASSERT_EQ(replay->payloads.size(), 1u);
  EXPECT_GT(faults.writes_.load(), 5);  // the seam really shortened them
}

TEST(FileFaultTest, FailedFsyncSurfacesAsAnError) {
  TempDir dir("failed_fsync");
  ScriptedFileFaults faults;
  io::ScopedFileFaultInjector installed(&faults);
  Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
      dir.path + "/wal", 0, FsyncPolicy::kEachRecord, 1);
  ASSERT_TRUE(writer.ok());
  faults.fail_fsync_at_.store(faults.fsyncs_.load());
  const Status appended = (*writer)->Append("doomed");
  EXPECT_FALSE(appended.ok());
  // The record's bytes reached the file but were never acknowledged
  // durable — the writer reports exactly that.
  EXPECT_LT((*writer)->synced_bytes(), (*writer)->size_bytes());
}

TEST(FileFaultTest, RecoveryNeverLosesAnAcknowledgedRecord) {
  TempDir dir("acked_durable");
  const std::string path = dir.path + "/wal";
  ScriptedFileFaults faults;
  {
    io::ScopedFileFaultInjector installed(&faults);
    Result<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(
        path, 0, FsyncPolicy::kEachRecord, 1);
    ASSERT_TRUE(writer.ok());
    // Three acknowledged-durable records (Append OK == synced).
    ASSERT_TRUE((*writer)->Append("acked-1").ok());
    ASSERT_TRUE((*writer)->Append("acked-2").ok());
    ASSERT_TRUE((*writer)->Append("acked-3").ok());
    // The fourth dies mid-record: ENOSPC after the first syscall of the
    // record leaves a torn prefix on disk.
    faults.fail_write_at_.store(faults.writes_.load() + 1);
    faults.short_writes_.store(true);  // guarantee a multi-write record
    EXPECT_FALSE((*writer)->Append("torn-and-lost").ok());
    // The writer "crashes" here (scope exit, no truncation).
  }
  Result<ReplayResult> replay = persist::ReplayRecords(
      ReadAll(path),
      std::string_view(persist::kJournalMagic, persist::kMagicBytes));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn_tail);
  ASSERT_EQ(replay->payloads.size(), 3u);  // nothing acked was lost,
  EXPECT_EQ(replay->payloads[2], "acked-3");  // nothing torn was loaded
}

// ---------------------------------------------------------------------
// Entry serialization

TEST(CacheEntryCodecTest, RoundTripsAwkwardDoublesByteForByte) {
  const CachedResourcePlan plan =
      MakePlan(0.1 + 0.2, 123.45600000000013, 1e-300, 3.0625, 17);
  const std::string bytes = persist::SerializeCacheEntry("smj \"q\"", plan);
  Result<CacheEntryRecord> parsed = persist::ParseCacheEntry(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->model, "smj \"q\"");
  EXPECT_EQ(parsed->plan.key_gb, plan.key_gb);
  EXPECT_EQ(parsed->plan.larger_gb, plan.larger_gb);
  EXPECT_EQ(parsed->plan.cost, plan.cost);
  EXPECT_EQ(parsed->plan.config.container_size_gb(),
            plan.config.container_size_gb());
  EXPECT_EQ(parsed->plan.config.num_containers(),
            plan.config.num_containers());
  // Serialize(parse(bytes)) == bytes: the codec is a bijection on its
  // image, which is what makes dumps byte-comparable.
  EXPECT_EQ(persist::SerializeCacheEntry(parsed->model, parsed->plan),
            bytes);
}

TEST(CacheEntryCodecTest, MissingFieldsAreRejected) {
  EXPECT_FALSE(persist::ParseCacheEntry("{\"model\":\"m\"}").ok());
  EXPECT_FALSE(persist::ParseCacheEntry("not json").ok());
  EXPECT_FALSE(persist::ParseCacheEntry(
                   "{\"model\":7,\"key\":1,\"larger\":2,\"cost\":3,"
                   "\"cs\":4,\"nc\":5}")
                   .ok());
}

// ---------------------------------------------------------------------
// CachePersistence end to end

PersistOptions Opts(const std::string& dir) {
  PersistOptions opts;
  opts.dir = dir;
  opts.fsync_policy = FsyncPolicy::kEachRecord;
  opts.compact_threshold_bytes = 0;  // explicit Compact() only
  return opts;
}

std::unique_ptr<ResourcePlanCache> MakeCache() {
  // Exact mode, sharded — the configuration the planning server shares.
  return std::make_unique<ResourcePlanCache>(
      CacheLookupMode::kExact, 0.0, CacheIndexKind::kSortedArray, 4);
}

void InsertWorkload(ResourcePlanCache* cache) {
  for (int i = 0; i < 40; ++i) {
    cache->Insert(i % 2 == 0 ? "smj" : "bhj",
                  MakePlan(1.0 + i * 0.25, 8.0 + (i % 5), 100.0 / (i + 1),
                           2.0 + (i % 3), 4 + (i % 7)));
  }
}

TEST(CachePersistenceTest, RestartReplaysBitIdentically) {
  TempDir dir("restart");
  std::string before;
  {
    auto cache = MakeCache();
    Result<std::unique_ptr<CachePersistence>> persistence =
        CachePersistence::Open(Opts(dir.path), cache.get());
    ASSERT_TRUE(persistence.ok()) << persistence.status().ToString();
    InsertWorkload(cache.get());
    before = CanonicalDump(*cache);
    ASSERT_FALSE(before.empty());
    ASSERT_TRUE((*persistence)->Close().ok());
  }
  // "Restart": a brand-new cache recovered from disk alone.
  auto cache = MakeCache();
  Result<std::unique_ptr<CachePersistence>> persistence =
      CachePersistence::Open(Opts(dir.path), cache.get());
  ASSERT_TRUE(persistence.ok()) << persistence.status().ToString();
  EXPECT_EQ((*persistence)->recovery_stats().journal_records, 40);
  EXPECT_FALSE((*persistence)->recovery_stats().torn_tail);
  EXPECT_EQ(CanonicalDump(*cache), before);
  // The recovered cache answers exact-mode lookups with pair guards.
  EXPECT_TRUE(cache->Lookup("smj", 1.0, 8.0).has_value());
  EXPECT_FALSE(cache->Lookup("smj", 1.0, 9.0).has_value());
}

TEST(CachePersistenceTest, CompactionPreservesContentAndShrinksJournal) {
  TempDir dir("compaction");
  std::string before;
  {
    auto cache = MakeCache();
    Result<std::unique_ptr<CachePersistence>> persistence =
        CachePersistence::Open(Opts(dir.path), cache.get());
    ASSERT_TRUE(persistence.ok());
    InsertWorkload(cache.get());
    const int64_t journal_before = (*persistence)->journal_bytes();
    ASSERT_TRUE((*persistence)->Compact().ok());
    EXPECT_EQ((*persistence)->compactions(), 1);
    EXPECT_LT((*persistence)->journal_bytes(), journal_before);
    // Post-compaction inserts land in the fresh journal.
    cache->Insert("smj", MakePlan(99.5, 128.0, 7.0, 8.0, 16));
    before = CanonicalDump(*cache);
    ASSERT_TRUE((*persistence)->Close().ok());
  }
  auto cache = MakeCache();
  Result<std::unique_ptr<CachePersistence>> persistence =
      CachePersistence::Open(Opts(dir.path), cache.get());
  ASSERT_TRUE(persistence.ok());
  // 40 entries from the snapshot, 1 from the post-compaction journal.
  EXPECT_EQ((*persistence)->recovery_stats().snapshot_entries, 40);
  EXPECT_EQ((*persistence)->recovery_stats().journal_records, 1);
  EXPECT_EQ(CanonicalDump(*cache), before);
}

TEST(CachePersistenceTest, AutomaticCompactionTriggersOnThreshold) {
  TempDir dir("auto_compact");
  PersistOptions opts = Opts(dir.path);
  opts.compact_threshold_bytes = 2048;
  auto cache = MakeCache();
  Result<std::unique_ptr<CachePersistence>> persistence =
      CachePersistence::Open(opts, cache.get());
  ASSERT_TRUE(persistence.ok());
  InsertWorkload(cache.get());  // ~40 * ~110 bytes >> 2 KiB
  EXPECT_GE((*persistence)->compactions(), 1);
  EXPECT_TRUE((*persistence)->last_error().ok())
      << (*persistence)->last_error().ToString();
  EXPECT_TRUE(io::FileExists((*persistence)->snapshot_path()));
}

TEST(CachePersistenceTest, TornJournalTailRecoversThePrefix) {
  TempDir dir("torn_tail");
  {
    auto cache = MakeCache();
    Result<std::unique_ptr<CachePersistence>> persistence =
        CachePersistence::Open(Opts(dir.path), cache.get());
    ASSERT_TRUE(persistence.ok());
    InsertWorkload(cache.get());
    ASSERT_TRUE((*persistence)->Close().ok());
  }
  // Crash simulation: chop the last 5 bytes off the journal.
  const std::string journal_path = dir.path + "/cache.journal";
  const std::string content = ReadAll(journal_path);
  std::filesystem::resize_file(journal_path, content.size() - 5);

  auto cache = MakeCache();
  Result<std::unique_ptr<CachePersistence>> persistence =
      CachePersistence::Open(Opts(dir.path), cache.get());
  ASSERT_TRUE(persistence.ok()) << persistence.status().ToString();
  EXPECT_TRUE((*persistence)->recovery_stats().torn_tail);
  EXPECT_EQ((*persistence)->recovery_stats().journal_records, 39);
  EXPECT_EQ(cache->entry_count(), 39);
  // The journal is whole again: append + recover once more.
  cache->Insert("smj", MakePlan(77.0, 8.0, 1.0, 2.0, 3));
  ASSERT_TRUE((*persistence)->Close().ok());
  auto cache2 = MakeCache();
  Result<std::unique_ptr<CachePersistence>> again =
      CachePersistence::Open(Opts(dir.path), cache2.get());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE((*again)->recovery_stats().torn_tail);
  EXPECT_EQ(cache2->entry_count(), 40);
}

TEST(CachePersistenceTest, EntryCountAndBytesGaugesTrackInserts) {
  auto cache = MakeCache();
  EXPECT_EQ(cache->entry_count(), 0);
  EXPECT_EQ(cache->approx_bytes(), 0);
  InsertWorkload(cache.get());
  EXPECT_EQ(cache->entry_count(), 40);
  EXPECT_GT(cache->approx_bytes(), 0);
  // Overwrites do not double-count.
  cache->Insert("smj", MakePlan(1.0, 8.0, 50.0, 2.0, 4));
  EXPECT_EQ(cache->entry_count(), 40);
  cache->Clear();
  EXPECT_EQ(cache->entry_count(), 0);
  EXPECT_EQ(cache->approx_bytes(), 0);
}

TEST(CachePersistenceTest, DumpEntriesIsCanonicallyOrdered) {
  auto cache = MakeCache();
  InsertWorkload(cache.get());
  const std::vector<CacheEntryRecord> entries = cache->DumpEntries();
  ASSERT_EQ(entries.size(), 40u);
  for (size_t i = 1; i < entries.size(); ++i) {
    const CacheEntryRecord& a = entries[i - 1];
    const CacheEntryRecord& b = entries[i];
    const bool ordered =
        a.model < b.model ||
        (a.model == b.model &&
         (a.plan.key_gb < b.plan.key_gb ||
          (a.plan.key_gb == b.plan.key_gb &&
           a.plan.larger_gb < b.plan.larger_gb)));
    EXPECT_TRUE(ordered) << "at index " << i;
  }
}

TEST(CachePersistenceTest, JournalAppendErrorIsStickyNotFatal) {
  TempDir dir("append_error");
  ScriptedFileFaults faults;
  auto cache = MakeCache();
  Result<std::unique_ptr<CachePersistence>> persistence =
      CachePersistence::Open(Opts(dir.path), cache.get());
  ASSERT_TRUE(persistence.ok());
  {
    io::ScopedFileFaultInjector installed(&faults);
    faults.fail_write_at_.store(faults.writes_.load());
    cache->Insert("smj", MakePlan(1.0, 8.0, 1.0, 2.0, 3));  // journal fails
  }
  // The cache insert itself succeeded; only durability is degraded, and
  // the error is observable.
  EXPECT_EQ(cache->entry_count(), 1);
  EXPECT_FALSE((*persistence)->last_error().ok());
  EXPECT_FALSE((*persistence)->read_and_clear_last_error().ok());
  EXPECT_TRUE((*persistence)->last_error().ok());
}

}  // namespace
}  // namespace raqo
