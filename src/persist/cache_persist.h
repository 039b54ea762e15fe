#ifndef RAQO_PERSIST_CACHE_PERSIST_H_
#define RAQO_PERSIST_CACHE_PERSIST_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "core/plan_cache.h"
#include "persist/journal.h"

namespace raqo::persist {

/// Renders one logical cache entry as the JSON payload stored in journal
/// records, snapshot records, and cache_dump wire frames. Doubles go
/// through JsonNumber (%.17g), which round-trips every finite double
/// exactly — serialize + parse + re-Insert rebuilds bit-identical cache
/// state, the property the whole persistence design rests on.
std::string SerializeCacheEntry(const std::string& model,
                                const core::CachedResourcePlan& plan);

/// Inverse of SerializeCacheEntry. InvalidArgument on malformed JSON,
/// missing fields or non-finite numbers.
Result<core::CacheEntryRecord> ParseCacheEntry(std::string_view payload);
/// Same, from an already-parsed document (the wire path parses whole
/// cache_dump/cache_load messages and hands the entry objects here, so
/// disk and wire agree on the entry schema by construction).
Result<core::CacheEntryRecord> ParseCacheEntry(const JsonValue& doc);

/// Knobs for the durable cache (docs/PERSISTENCE.md).
struct PersistOptions {
  /// Data directory; created (with parents) when absent. The layer owns
  /// two files inside it: `cache.snapshot` and `cache.journal`.
  std::string dir;
  /// When journal appends hit the disk (journal.h).
  FsyncPolicy fsync_policy = FsyncPolicy::kGroupCommit;
  /// Group-commit granularity: one fsync per this many appended bytes.
  size_t group_commit_bytes = 64 * 1024;
  /// Compact (snapshot + truncate journal) once the journal grows past
  /// this many bytes; 0 disables automatic compaction (explicit
  /// Compact() still works).
  int64_t compact_threshold_bytes = 4 << 20;
};

/// What recovery found on disk.
struct RecoveryStats {
  int64_t snapshot_entries = 0;  ///< entries replayed from the snapshot
  int64_t journal_records = 0;   ///< records replayed from the journal
  int64_t skipped_records = 0;   ///< records that failed to parse
  bool torn_tail = false;        ///< journal ended in a torn/corrupt tail
  int64_t recovery_ms = 0;       ///< wall time of the whole replay
};

/// Durable plan cache: journals every Insert that changes the cache
/// (CacheEventListener) as a WAL record and periodically folds journal +
/// cache into a crash-atomic snapshot.
///
/// Lifecycle: `Open` replays snapshot + journal into the cache (so a
/// restarted node resumes at its pre-crash hit rate), then installs
/// itself as the cache's event listener; `Close` (or destruction) syncs
/// and detaches. One instance per cache; all methods are thread-safe.
///
/// Durability contract: an insert is *acknowledged durable* once a
/// successful sync covers its journal record — under kEachRecord that is
/// every insert, under kGroupCommit whenever the group fills or Sync()
/// returns OK. Records written but not yet synced survive process
/// crashes (the page cache persists) but not power loss.
class CachePersistence : public core::CacheEventListener {
 public:
  /// Creates `opts.dir` when needed, replays any snapshot and journal
  /// into `*cache`, truncates a torn journal tail, and attaches to the
  /// cache as its event listener. The cache must outlive the returned
  /// object; a populated cache gains the recovered entries on top of
  /// what it holds (pass a fresh cache for exact pre-crash state).
  static Result<std::unique_ptr<CachePersistence>> Open(
      const PersistOptions& opts, core::ResourcePlanCache* cache);

  ~CachePersistence() override;

  CachePersistence(const CachePersistence&) = delete;
  CachePersistence& operator=(const CachePersistence&) = delete;

  /// CacheEventListener: journals the insert; called by the cache with
  /// no cache lock held. A failed append is counted and remembered (see
  /// last_error()) but never propagates into the planner.
  void OnInsert(const std::string& model,
                const core::CachedResourcePlan& plan) override;

  /// fsyncs the journal: on OK every prior insert is acknowledged
  /// durable.
  Status Sync();

  /// Snapshots the cache (crash-atomic file replace) and truncates the
  /// journal. Replay cost collapses from O(journal) to O(cache).
  Status Compact();

  /// Sync + detach from the cache. Idempotent; called by the destructor.
  Status Close();

  RecoveryStats recovery_stats() const { return recovery_; }
  /// Journal size in bytes right now (magic included).
  int64_t journal_bytes() const;
  /// First error any background append/sync hit since Open (OK when
  /// none). Sticky until read_and_clear_last_error().
  Status last_error() const;
  Status read_and_clear_last_error();
  int64_t compactions() const;

  std::string journal_path() const;
  std::string snapshot_path() const;

 private:
  CachePersistence(PersistOptions opts, core::ResourcePlanCache* cache);

  /// Replays one record stream (snapshot or journal) into the cache.
  /// Returns how many records inserted; parse failures are skipped and
  /// counted into `recovery_.skipped_records`.
  int64_t ReplayInto(const std::vector<std::string>& payloads);

  Status CompactLocked();
  void NoteError(const Status& s);

  const PersistOptions opts_;
  core::ResourcePlanCache* const cache_;
  RecoveryStats recovery_;

  /// Guards the journal writer (swapped during compaction) and the
  /// error slot. OnInsert serializes on this — the cache already fires
  /// listeners outside its own locks, so the journal mutex nests inside
  /// nothing.
  mutable std::mutex mu_;
  std::unique_ptr<JournalWriter> journal_;
  Status last_error_;
  int64_t compactions_ = 0;
  bool closed_ = false;
};

}  // namespace raqo::persist

#endif  // RAQO_PERSIST_CACHE_PERSIST_H_
