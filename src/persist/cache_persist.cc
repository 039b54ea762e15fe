#include "persist/cache_persist.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/fileio.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace raqo::persist {

std::string SerializeCacheEntry(const std::string& model,
                                const core::CachedResourcePlan& plan) {
  // Hand-rendered with fixed member order so equal entries always
  // serialize to equal bytes (journal replay and dump comparisons are
  // byte-level).
  std::string out;
  out.reserve(96 + model.size());
  out += "{\"model\":\"";
  out += JsonEscape(model);
  out += "\",\"key\":";
  out += JsonNumber(plan.key_gb);
  out += ",\"larger\":";
  out += JsonNumber(plan.larger_gb);
  out += ",\"cost\":";
  out += JsonNumber(plan.cost);
  out += ",\"cs\":";
  out += JsonNumber(plan.config.container_size_gb());
  out += ",\"nc\":";
  out += JsonNumber(plan.config.num_containers());
  out += "}";
  return out;
}

Result<core::CacheEntryRecord> ParseCacheEntry(std::string_view payload) {
  RAQO_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(payload));
  return ParseCacheEntry(doc);
}

Result<core::CacheEntryRecord> ParseCacheEntry(const JsonValue& doc) {
  const JsonValue* model = doc.FindString("model");
  const JsonValue* key = doc.FindNumber("key");
  const JsonValue* larger = doc.FindNumber("larger");
  const JsonValue* cost = doc.FindNumber("cost");
  const JsonValue* cs = doc.FindNumber("cs");
  const JsonValue* nc = doc.FindNumber("nc");
  if (model == nullptr || key == nullptr || larger == nullptr ||
      cost == nullptr || cs == nullptr || nc == nullptr) {
    return Status::InvalidArgument(
        "cache entry record is missing a required field");
  }
  // JsonNumber writes a non-finite double as null, so an entry holding
  // one could be stored but never sent back by cache_dump.
  for (const JsonValue* number : {key, larger, cost, cs, nc}) {
    if (!std::isfinite(number->number_value())) {
      return Status::InvalidArgument(
          "cache entry record holds a non-finite number");
    }
  }
  core::CacheEntryRecord record;
  record.model = model->string_value();
  record.plan.key_gb = key->number_value();
  record.plan.larger_gb = larger->number_value();
  record.plan.cost = cost->number_value();
  record.plan.config = resource::ResourceConfig(cs->number_value(),
                                                nc->number_value());
  return record;
}

namespace {

void NoteAppend(int64_t journal_bytes) {
  if (!obs::MetricsOn()) return;
  static obs::Counter* appends =
      obs::DefaultMetrics().GetCounter("persist.journal.appends");
  static obs::Gauge* bytes =
      obs::DefaultMetrics().GetGauge("persist.journal.bytes");
  appends->Add(1);
  bytes->Set(static_cast<double>(journal_bytes));
}

void NoteAppendError() {
  if (!obs::MetricsOn()) return;
  static obs::Counter* errors =
      obs::DefaultMetrics().GetCounter("persist.journal.append_errors");
  errors->Add(1);
}

void NoteCompaction(int64_t snapshot_entries) {
  if (!obs::MetricsOn()) return;
  static obs::Counter* compactions =
      obs::DefaultMetrics().GetCounter("persist.compactions");
  static obs::Gauge* entries =
      obs::DefaultMetrics().GetGauge("persist.snapshot.entries");
  compactions->Add(1);
  entries->Set(static_cast<double>(snapshot_entries));
}

void NoteRecovery(const RecoveryStats& stats) {
  if (!obs::MetricsOn()) return;
  static obs::Gauge* ms =
      obs::DefaultMetrics().GetGauge("persist.recovery_ms");
  static obs::Gauge* entries =
      obs::DefaultMetrics().GetGauge("persist.recovered_entries");
  ms->Set(static_cast<double>(stats.recovery_ms));
  entries->Set(
      static_cast<double>(stats.snapshot_entries + stats.journal_records));
}

}  // namespace

CachePersistence::CachePersistence(PersistOptions opts,
                                   core::ResourcePlanCache* cache)
    : opts_(std::move(opts)), cache_(cache) {}

std::string CachePersistence::journal_path() const {
  return opts_.dir + "/cache.journal";
}

std::string CachePersistence::snapshot_path() const {
  return opts_.dir + "/cache.snapshot";
}

int64_t CachePersistence::ReplayInto(
    const std::vector<std::string>& payloads) {
  int64_t inserted = 0;
  for (const std::string& payload : payloads) {
    Result<core::CacheEntryRecord> record = ParseCacheEntry(payload);
    if (!record.ok()) {
      // The CRC already verified these bytes are what was written, so a
      // parse failure means a version skew or writer bug, not disk
      // corruption. Skip the record — losing one plan costs a cache
      // miss, refusing to start costs the node.
      ++recovery_.skipped_records;
      continue;
    }
    cache_->Insert(record->model, record->plan);
    ++inserted;
  }
  return inserted;
}

Result<std::unique_ptr<CachePersistence>> CachePersistence::Open(
    const PersistOptions& opts, core::ResourcePlanCache* cache) {
  if (opts.dir.empty()) {
    return Status::InvalidArgument("PersistOptions.dir must be set");
  }
  RAQO_RETURN_IF_ERROR(io::EnsureDirectory(opts.dir));
  std::unique_ptr<CachePersistence> p(
      new CachePersistence(opts, cache));
  Stopwatch timer;

  // Snapshot first (the compacted base state), then the journal (the
  // tail written since). Entries present in both are value-identical,
  // so the double Insert is a harmless overwrite.
  if (io::FileExists(p->snapshot_path())) {
    RAQO_ASSIGN_OR_RETURN(std::string content,
                          io::ReadFileToString(p->snapshot_path()));
    RAQO_ASSIGN_OR_RETURN(
        ReplayResult snap,
        ReplayRecords(content,
                      std::string_view(kSnapshotMagic, kMagicBytes)));
    p->recovery_.snapshot_entries = p->ReplayInto(snap.payloads);
  }
  int64_t journal_valid_bytes = 0;
  if (io::FileExists(p->journal_path())) {
    RAQO_ASSIGN_OR_RETURN(std::string content,
                          io::ReadFileToString(p->journal_path()));
    RAQO_ASSIGN_OR_RETURN(
        ReplayResult wal,
        ReplayRecords(content,
                      std::string_view(kJournalMagic, kMagicBytes)));
    p->recovery_.journal_records = p->ReplayInto(wal.payloads);
    p->recovery_.torn_tail = wal.torn_tail;
    journal_valid_bytes = wal.valid_bytes;
  }
  RAQO_ASSIGN_OR_RETURN(
      p->journal_,
      JournalWriter::Open(p->journal_path(), journal_valid_bytes,
                          opts.fsync_policy, opts.group_commit_bytes));
  p->recovery_.recovery_ms =
      static_cast<int64_t>(timer.ElapsedMicros() / 1000.0);
  NoteRecovery(p->recovery_);
  cache->SetEventListener(p.get());
  return p;
}

CachePersistence::~CachePersistence() {
  // Destruction cannot report; callers who care about the final sync's
  // status call Close() themselves first (it is idempotent).
  const Status ignored = Close();
  (void)ignored;
}

void CachePersistence::OnInsert(const std::string& model,
                                const core::CachedResourcePlan& plan) {
  const std::string payload = SerializeCacheEntry(model, plan);
  bool compact_due = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || journal_ == nullptr) return;
    const Status appended = journal_->Append(payload);
    if (!appended.ok()) {
      NoteAppendError();
      if (last_error_.ok()) last_error_ = appended;
      return;
    }
    NoteAppend(journal_->size_bytes());
    compact_due = opts_.compact_threshold_bytes > 0 &&
                  journal_->size_bytes() >= opts_.compact_threshold_bytes;
  }
  if (compact_due) {
    const Status compacted = Compact();
    if (!compacted.ok()) NoteError(compacted);
  }
}

void CachePersistence::NoteError(const Status& s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (last_error_.ok()) last_error_ = s;
}

Status CachePersistence::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ == nullptr) return Status::OK();
  return journal_->Sync();
}

Status CachePersistence::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || journal_ == nullptr) {
    return Status::FailedPrecondition("persistence is closed");
  }
  return CompactLocked();
}

Status CachePersistence::CompactLocked() {
  // Holding mu_ for the whole fold keeps the invariant simple: every
  // insert is either fully before (entry in the dump, old record
  // discarded with the old journal) or fully after (entry journaled in
  // the fresh file; it may also appear in the dump when its cache write
  // preceded the fold — the replay overwrite is value-identical under
  // exact-mode determinism). Nothing is ever only in the truncated
  // journal.
  const std::vector<core::CacheEntryRecord> entries =
      cache_->DumpEntries();
  std::string blob(kSnapshotMagic, kMagicBytes);
  for (const core::CacheEntryRecord& entry : entries) {
    blob += EncodeRecord(SerializeCacheEntry(entry.model, entry.plan));
  }
  RAQO_RETURN_IF_ERROR(io::AtomicWriteFile(snapshot_path(), blob));
  // The snapshot covers everything the journal held; only now is the
  // journal safe to truncate. A crash in between replays both — an
  // idempotent, slower recovery, never a lossy one.
  journal_.reset();  // close the old fd before truncating the path
  RAQO_ASSIGN_OR_RETURN(
      journal_,
      JournalWriter::Open(journal_path(), 0, opts_.fsync_policy,
                          opts_.group_commit_bytes));
  ++compactions_;
  NoteCompaction(static_cast<int64_t>(entries.size()));
  return Status::OK();
}

Status CachePersistence::Close() {
  // Detach before the final sync so no new OnInsert can race the
  // teardown; a call already past the listener load finds closed_ under
  // mu_ and returns without touching the dead journal.
  cache_->SetEventListener(nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::OK();
  closed_ = true;
  if (journal_ == nullptr) return Status::OK();
  const Status synced = journal_->Sync();
  journal_.reset();
  return synced;
}

int64_t CachePersistence::journal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_ == nullptr ? 0 : journal_->size_bytes();
}

Status CachePersistence::last_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_error_;
}

Status CachePersistence::read_and_clear_last_error() {
  std::lock_guard<std::mutex> lock(mu_);
  Status out = last_error_;
  last_error_ = Status::OK();
  return out;
}

int64_t CachePersistence::compactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compactions_;
}

}  // namespace raqo::persist
