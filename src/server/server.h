#ifndef RAQO_SERVER_SERVER_H_
#define RAQO_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "persist/cache_persist.h"
#include "server/service.h"

namespace raqo::obs {
class Counter;
class Gauge;
}  // namespace raqo::obs

namespace raqo::server {

/// Admission quota of one tenant. Zero means unlimited, so a
/// default-constructed quota preserves the quota-free behavior.
struct TenantQuota {
  /// Max admitted-but-unanswered requests (queued + executing) the
  /// tenant may hold at once; one more is rejected RESOURCE_EXHAUSTED.
  /// A tenant with a cap has its concurrency metered, so every one of
  /// its requests goes through a worker: a reactor never answers it
  /// from the response cache.
  int64_t max_inflight = 0;
  /// Cumulative dollar budget. Every successful response's
  /// `cost.dollars` is charged against it; once spending reaches the
  /// budget, further requests are rejected RESOURCE_EXHAUSTED. The
  /// budget gates admission, so requests already in flight may finish
  /// and overshoot it by their own cost.
  double max_dollars = 0.0;
};

/// Configuration of the network server.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the chosen one with port().
  uint16_t port = 0;
  /// Reactor (I/O event loop) threads. Each reactor runs its own epoll
  /// instance and owns the connections pinned to it — read buffers,
  /// frame reassembly, and write buffers are all single-threaded per
  /// connection, so the hot read/decode/admit path takes no lock beyond
  /// the shared admission mutex and the response cache's. A reactor also
  /// answers stored statements itself, so with one reactor that work is
  /// on one thread. With more than one reactor each binds
  /// its own SO_REUSEPORT listener and the kernel spreads incoming
  /// connections across them; when the kernel refuses SO_REUSEPORT,
  /// Start() logs it and runs one reactor. 0 = min(4, hardware threads).
  int num_reactors = 0;
  /// Planner worker threads.
  int num_workers = 4;
  /// Admission control: requests admitted but not yet picked up by a
  /// worker, bounded per tenant (traffic without a `tenant` field shares
  /// one anonymous tenant, so the single-tenant behavior is unchanged).
  /// One more request is rejected with RESOURCE_EXHAUSTED instead of
  /// growing memory without bound.
  size_t max_queue = 64;
  /// Per-tenant quotas, keyed by the wire `tenant` string ("" = the
  /// anonymous tenant). A tenant without an entry is unlimited.
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Distinct tenants tracked at once; requests naming a new tenant
  /// beyond this are rejected RESOURCE_EXHAUSTED (admission state and
  /// per-tenant metrics stay bounded against tenant-name floods).
  size_t max_tenants = 1024;
  /// Beyond this, new connections get an UNAVAILABLE frame and a close.
  /// Enforced across all reactors with an atomic counter, so a burst
  /// arriving on several reactors at once can transiently overshoot by
  /// at most num_reactors - 1 before settling.
  size_t max_connections = 256;
  /// Largest acceptable request frame; the connection is closed after an
  /// INVALID_ARGUMENT response when a header advertises more.
  size_t max_frame_bytes = 1 << 20;
  /// Response backlog buffered per slow-reading client before the
  /// connection is dropped (backpressure, never unbounded memory).
  size_t max_write_buffer_bytes = 8u << 20;
  /// Deadline applied to requests that carry none (0 = unlimited).
  int64_t default_deadline_ms = 0;
  /// Hard cap on the graceful drain; connections still unflushed after
  /// this are dropped so Shutdown always terminates.
  int64_t drain_timeout_ms = 30000;
  /// Honor the `debug_sleep_ms` request field (tests and load harnesses
  /// only; never enable when serving real clients).
  bool enable_test_hooks = false;
  /// When non-empty, the graceful drain flushes the default metrics
  /// registry and tracer as metrics.json / trace.json into this
  /// directory before the server stops.
  std::string telemetry_dir;
  /// When `persistence.dir` is non-empty (and the service shares a
  /// cache), the shared plan cache is durable: Start() replays the
  /// directory's snapshot and journal into it before serving — a
  /// restarted node answers its first request at the pre-restart hit
  /// rate — and every insert is journaled while serving
  /// (docs/PERSISTENCE.md).
  persist::PersistOptions persistence;
};

/// Point-in-time counters of server activity (also exported as
/// server.* metrics in the default registry).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_rejected = 0;
  int64_t requests_admitted = 0;
  /// Admitted requests a reactor answered from the response cache,
  /// without a hand-off to a worker (also in requests_admitted).
  int64_t reactor_answers = 0;
  /// Responses actually buffered for delivery on a live connection.
  int64_t responses_sent = 0;
  /// Completed responses that never reached the client: the connection
  /// closed first, or the write-buffer cap dropped it.
  int64_t responses_dropped = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_deadline = 0;
  int64_t rejected_draining = 0;
  /// Rejections from per-tenant quotas (in-flight cap / dollar budget /
  /// tenant-table overflow).
  int64_t rejected_tenant_inflight = 0;
  int64_t rejected_tenant_budget = 0;
  int64_t rejected_tenant_table_full = 0;
  int64_t protocol_errors = 0;
  int64_t queue_depth = 0;
  int64_t requests_executing = 0;
  int64_t open_connections = 0;
};

/// Point-in-time admission state of one tenant (see tenant_stats()).
struct TenantStats {
  int64_t admitted = 0;
  int64_t responses_ok = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_inflight = 0;
  int64_t rejected_budget = 0;
  int64_t inflight = 0;
  int64_t queued = 0;
  double dollars_spent = 0.0;
};

/// Point-in-time view of one reactor's share of the I/O plane (see
/// reactor_stats()).
struct ReactorStats {
  int index = 0;
  int64_t connections_accepted = 0;
  int64_t open_connections = 0;
};

/// The RAQO planning server: N reactor threads, each running its own
/// epoll loop over the connections pinned to it, feeding planner worker
/// threads that execute length-prefixed JSON request frames
/// (server/protocol.h) against the shared PlanningService. Production
/// behaviors, not demo ones:
///
///  - sharded I/O plane: each reactor owns its own listening socket
///    (SO_REUSEPORT), epoll instance, and wakeup eventfd. A connection's
///    read buffer, frame reassembly, and write buffer live on exactly one
///    reactor for the connection's whole life, so the hot
///    read/decode/enqueue path is single-threaded and lock-free; worker
///    completions are routed back to the owning reactor and writes are
///    batched per event-loop tick,
///  - stored answers on the reactor: a reactor parses each plan frame
///    and looks it up in the service's response cache before admission;
///    a stored statement is admitted, charged and answered in one
///    critical section and the same tick, with no worker involved,
///  - admission control: bounded per-tenant queues; overflow answers
///    RESOURCE_EXHAUSTED immediately instead of buffering,
///  - multi-tenant quotas: per-tenant in-flight caps and cumulative
///    dollar budgets (charged from each successful response's cost),
///    with per-tenant sub-queues drained round-robin so one flooding
///    tenant cannot starve the queue-wait of the others (cross-reactor:
///    admission state lives behind one mutex shared by all reactors),
///  - per-request deadlines: a request still queued past its deadline is
///    cancelled with DEADLINE_EXCEEDED, never planned,
///  - connection limits and per-connection write buffering for slow
///    readers, with a byte cap that drops abusive clients,
///  - graceful drain on Shutdown()/SIGTERM: stop accepting, answer new
///    frames UNAVAILABLE, finish every admitted request, flush all
///    responses, then export telemetry and stop.
///
/// Thread model: Start() spawns num_reactors I/O threads and
/// `num_workers` planner workers; Shutdown() is async-signal-safe (an
/// atomic flag plus one eventfd write per reactor) so a SIGTERM handler
/// may call it directly; Wait() joins the drained server. With
/// num_reactors = 1 the server behaves exactly like the single-epoll
/// design it replaces (one acceptor, no SO_REUSEPORT, one I/O thread).
class PlanningServer {
 public:
  /// `service` must outlive the server.
  PlanningServer(const PlanningService* service, ServerOptions options);
  ~PlanningServer();

  PlanningServer(const PlanningServer&) = delete;
  PlanningServer& operator=(const PlanningServer&) = delete;

  /// Binds, listens, and spawns the reactor and worker threads.
  Status Start();

  /// The bound port (after Start; useful with options.port = 0).
  uint16_t port() const { return port_; }

  /// Reactor count: 0 in options resolves to min(4, hardware threads)
  /// at construction, and Start() drops it to 1 when the kernel refuses
  /// SO_REUSEPORT listeners.
  int num_reactors() const { return options_.num_reactors; }

  /// Begins the graceful drain. Async-signal-safe and idempotent.
  void Shutdown();

  /// Blocks until the drain completes and all threads have exited.
  void Wait();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  ServerStats stats() const;

  /// The durable-cache layer (nullptr unless options.persistence.dir
  /// was set and the service shares a cache). Valid after Start() until
  /// destruction; what recovery found is in recovery_stats().
  const persist::CachePersistence* persistence() const {
    return persistence_.get();
  }

  /// Admission state of every tenant seen so far, sorted by name (the
  /// anonymous tenant appears as "").
  std::map<std::string, TenantStats> tenant_stats() const;

  /// Per-reactor accept/open counts, in reactor order. Useful to observe
  /// how SO_REUSEPORT spread connections.
  std::vector<ReactorStats> reactor_stats() const;

 private:
  /// Per-connection state, owned by exactly one reactor for the whole
  /// connection lifetime.
  struct Connection {
    uint64_t id = 0;  ///< encodes the owning reactor's index
    net::UniqueFd fd;
    std::string read_buf;
    std::string write_buf;   ///< unsent response bytes (slow clients)
    size_t write_off = 0;    ///< consumed prefix of write_buf
    int outstanding = 0;     ///< admitted requests not yet answered
    bool peer_closed = false;
    bool close_after_flush = false;
    bool registered_out = false;  ///< EPOLLOUT currently armed
    bool flush_pending = false;   ///< queued in the reactor's tick flush
  };

  /// One admitted request waiting for (or held by) a worker: a
  /// response-cache miss, or a request a reactor may not answer (see
  /// AdmitOrReject). The reactor already parsed it, so no frame is
  /// parsed twice; only cache_dump and cache_load frames, which can
  /// carry hundreds of entries, travel unparsed. The deadline is
  /// evaluated by the worker that picks it up — the wire deadline_ms
  /// bounds the admission-to-pickup wait.
  struct PendingRequest {
    uint64_t conn_id = 0;
    int reactor = 0;     ///< reactor the completion must route back to
    std::string id;      ///< peeked wire id (echoed in rejections)
    std::string tenant;  ///< peeked tenant key the request is billed to
    /// The parsed frame, or why it did not parse; unset for a cache
    /// frame, which `payload` then holds.
    std::optional<Result<PlanRequest>> request;
    std::string payload;
    /// Set when the reactor looked the request up and missed: the key
    /// the worker's answer is offered under ("" = not stored). Unset,
    /// the worker looks the request up itself.
    std::optional<std::string> response_key;
    std::chrono::steady_clock::time_point admitted_at;
  };

  /// A response travelling from a worker back to its owning reactor.
  struct Completion {
    uint64_t conn_id = 0;
    std::string payload;
  };

  /// One I/O shard: epoll loop, wakeup eventfd, listener, and the
  /// connections pinned to it. Everything except the mutex-guarded
  /// completion inbox is touched only by this reactor's thread.
  struct Reactor {
    int index = 0;
    net::UniqueFd listen_fd;  ///< closed once the drain starts
    net::UniqueFd epoll_fd;
    net::UniqueFd wake_fd;    ///< eventfd: completions, Shutdown
    std::thread thread;

    // Reactor-thread-only state.
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;
    uint64_t next_conn_seq = 0;
    std::vector<uint64_t> flush_queue;  ///< conns with writes this tick
    int64_t outstanding = 0;  ///< admitted on this reactor, unanswered

    // Cross-thread counters (read by reactor_stats()).
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> open{0};

    // Inbox: responses posted by workers.
    std::mutex completions_mu;
    std::deque<Completion> completions;
  };

  struct TenantState;

  void ReactorLoop(Reactor& r);
  void WorkerLoop();

  /// The quota `tenant` is admitted under. Immutable after construction,
  /// so reactors read it without queue_mu_.
  const TenantQuota& QuotaOf(const std::string& tenant) const;
  /// Looks up (or creates) the tenant's admission state. Caller holds
  /// queue_mu_. Returns nullptr when the tenant table is full.
  TenantState* FindOrCreateTenant(const std::string& tenant);
  /// Charges an answered request to its tenant: a successful response's
  /// dollars accrue against the budget. Caller holds queue_mu_.
  void ChargeTenant(TenantState& state, bool ok, double dollars);
  /// Settles a request a worker finished: in-flight drops, and the
  /// answer is charged.
  void SettleTenant(const std::string& tenant, bool ok, double dollars);

  // Reactor-thread helpers (all touch only reactor-owned state plus the
  // shared admission/stats mutexes).
  void AcceptNewConnections(Reactor& r);
  void RegisterConnection(Reactor& r, net::UniqueFd fd);
  void HandleReadable(Reactor& r, Connection* conn);
  void HandleWritable(Reactor& r, Connection* conn);
  void ExtractFrames(Reactor& r, Connection* conn);
  void AdmitOrReject(Reactor& r, Connection* conn, std::string payload);
  void RejectRequest(Reactor& r, Connection* conn, const char* wire_status,
                     std::string message, std::string id,
                     int64_t ServerStats::*stat_field,
                     obs::Counter* counter);
  void QueueResponse(Reactor& r, Connection* conn,
                     const PlanResponse& response);
  void SendRawResponse(Reactor& r, Connection* conn, std::string payload);
  void DeliverCompletions(Reactor& r);
  void FlushPendingWrites(Reactor& r);
  void UpdateWriteInterest(Reactor& r, Connection* conn);
  void CloseConnection(Reactor& r, uint64_t conn_id);
  void FlushTelemetry();
  void PostCompletion(int reactor, uint64_t conn_id, std::string payload);
  static void WakeReactor(Reactor& r);
  void Bump(int64_t ServerStats::*field, int64_t delta = 1);
  void BumpResponsesDropped();

  const PlanningService* service_;
  ServerOptions options_;
  uint16_t port_ = 0;

  /// Durable-cache layer; attached to the service's shared cache
  /// between Start() and the end of Wait()'s drain.
  std::unique_ptr<persist::CachePersistence> persistence_;

  std::vector<std::unique_ptr<Reactor>> reactors_;

  std::atomic<bool> started_{false};
  std::atomic<bool> threads_started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> workers_stop_{false};
  std::atomic<bool> torn_down_{false};
  std::atomic<int64_t> executing_{0};
  std::atomic<int64_t> open_conns_{0};

  /// Guards the tenant table, the per-tenant sub-queues, the round-robin
  /// ready ring, and every tenant's quota accounting — the one lock
  /// boundary shared by all reactors and workers. The per-connection hot
  /// path (read, frame reassembly, write batching) never takes it except
  /// for the admission decision itself.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::unordered_map<std::string, TenantState> tenants_;
  /// Tenants with a non-empty sub-queue, in round-robin order: workers
  /// pop the front tenant, take one request, and rotate it to the back
  /// while its queue stays non-empty — so K active tenants each get
  /// every K-th dequeue regardless of how deep any one backlog is.
  std::deque<TenantState*> ready_tenants_;
  size_t total_queued_ = 0;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  /// Planner workers running WorkerLoop(); declared after the admission
  /// state they read, and joined by Wait().
  std::vector<std::thread> workers_;
};

/// Admission state of one tenant, guarded by queue_mu_. Values live in
/// an unordered_map (node-based, reference-stable), so the ready ring
/// and workers may hold pointers across rehashes.
struct PlanningServer::TenantState {
  std::string name;
  TenantQuota quota;
  std::deque<PendingRequest> queue;  ///< this tenant's admission queue
  bool in_ready = false;             ///< queued in the round-robin ring
  int64_t inflight = 0;              ///< admitted, not yet answered
  double dollars_spent = 0.0;
  TenantStats stats;
  /// Per-tenant metrics (null for the anonymous tenant, which reports
  /// only through the global server.* series).
  obs::Counter* admitted_counter = nullptr;
  obs::Counter* rejected_counter = nullptr;
  obs::Gauge* queue_depth_gauge = nullptr;
  obs::Gauge* inflight_gauge = nullptr;
  obs::Gauge* dollars_gauge = nullptr;
};

/// Installs SIGTERM + SIGINT handlers that trigger `server->Shutdown()`
/// (the handler only flips an atomic and writes the reactors' eventfds).
/// Pass nullptr to uninstall. One server per process can be wired this
/// way.
void InstallShutdownSignalHandlers(PlanningServer* server);

}  // namespace raqo::server

#endif  // RAQO_SERVER_SERVER_H_
