#include "server/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace raqo::server {

namespace {

// epoll user-data slots for the two non-connection descriptors. Real
// connection ids start at (1 << 40) + 1, so they can never collide.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

constexpr int kEpollWaitMs = 50;

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Metric-name prefix for one tenant's server.tenant.* series. Tenant
// strings arrive from untrusted sockets, so anything outside a safe
// identifier alphabet is folded to '_' and the key is length-capped.
// When that changed the name, '_' and the FNV-1a-32 hash of the raw
// name follow, so tenants that fold alike ("acme.eu", "acme eu") keep
// separate series; a safe, short name is its own key.
std::string TenantMetricPrefix(const std::string& tenant) {
  constexpr size_t kMaxKeyChars = 64;
  std::string key;
  key.reserve(tenant.size());
  bool changed = tenant.size() > kMaxKeyChars;
  uint32_t hash = 2166136261u;
  for (char c : tenant) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    key.push_back(safe ? c : '_');
    changed |= !safe;
    hash = (hash ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  if (changed) {
    if (key.size() > kMaxKeyChars) key.resize(kMaxKeyChars);
    key += StrPrintf("_%08x", static_cast<unsigned>(hash));
  }
  return "server.tenant." + key + ".";
}

int DefaultReactors() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(4, std::max(1, static_cast<int>(hw)));
}

// One SO_REUSEPORT listener per reactor, all on one port (the first
// binds `port`, possibly 0, the rest join the port it got). Empty when
// the kernel refuses any of them.
std::vector<net::UniqueFd> ReuseportListeners(const std::string& host,
                                              uint16_t port, int count) {
  std::vector<net::UniqueFd> listeners;
  for (int i = 0; i < count; ++i) {
    Result<net::UniqueFd> listen =
        net::ListenTcp(host, port, 128, /*reuse_port=*/true);
    if (!listen.ok()) return {};
    if (i == 0) {
      Result<uint16_t> bound = net::LocalPort(listen->get());
      if (!bound.ok()) return {};
      port = *bound;
    }
    listeners.push_back(std::move(*listen));
  }
  return listeners;
}

}  // namespace

PlanningServer::PlanningServer(const PlanningService* service,
                               ServerOptions options)
    : service_(service), options_(std::move(options)) {
  RAQO_CHECK(service != nullptr);
  if (options_.num_reactors <= 0) options_.num_reactors = DefaultReactors();
  options_.num_workers = std::max(1, options_.num_workers);
  options_.max_queue = std::max<size_t>(1, options_.max_queue);
}

PlanningServer::~PlanningServer() {
  Shutdown();
  Wait();
}

Status PlanningServer::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }

  // Durable cache: recover before the first socket is bound, so by the
  // time a client can connect the shared cache already holds its
  // pre-restart state (the warm hit rate is there from request one).
  if (!options_.persistence.dir.empty()) {
    RAQO_ASSIGN_OR_RETURN(
        persistence_, persist::CachePersistence::Open(
                          options_.persistence, service_->shared_cache()));
  }

  // Listener plan: every reactor accepts on its own listener. With
  // several reactors these are SO_REUSEPORT sockets on one port, so the
  // kernel spreads incoming connections across them. If the kernel
  // refuses (or any of them fails to bind), the server runs one reactor
  // on a plain listener — the single-epoll design, which is also what
  // num_reactors = 1 always gets.
  std::vector<net::UniqueFd> listeners;
  if (options_.num_reactors > 1) {
    listeners = ReuseportListeners(options_.host, options_.port,
                                   options_.num_reactors);
    if (listeners.empty()) {
      std::cerr << "raqo_server: SO_REUSEPORT listeners unavailable; "
                << "running 1 reactor instead of " << options_.num_reactors
                << "\n";
      options_.num_reactors = 1;
    }
  }
  if (listeners.empty()) {
    RAQO_ASSIGN_OR_RETURN(
        net::UniqueFd listen,
        net::ListenTcp(options_.host, options_.port, 128));
    listeners.push_back(std::move(listen));
  }
  RAQO_ASSIGN_OR_RETURN(port_, net::LocalPort(listeners[0].get()));

  reactors_.reserve(options_.num_reactors);
  for (int i = 0; i < options_.num_reactors; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    const int epfd = epoll_create1(EPOLL_CLOEXEC);
    if (epfd < 0) {
      return Status::Internal(
          StrPrintf("epoll_create1: %s", strerror(errno)));
    }
    r->epoll_fd.reset(epfd);
    const int evfd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (evfd < 0) {
      return Status::Internal(StrPrintf("eventfd: %s", strerror(errno)));
    }
    r->wake_fd.reset(evfd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (epoll_ctl(r->epoll_fd.get(), EPOLL_CTL_ADD, r->wake_fd.get(),
                  &ev) != 0) {
      return Status::Internal(
          StrPrintf("epoll_ctl(eventfd): %s", strerror(errno)));
    }
    r->listen_fd = std::move(listeners[i]);
    RAQO_RETURN_IF_ERROR(net::SetNonBlocking(r->listen_fd.get()));
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    if (epoll_ctl(r->epoll_fd.get(), EPOLL_CTL_ADD, r->listen_fd.get(),
                  &ev) != 0) {
      return Status::Internal(
          StrPrintf("epoll_ctl(listen): %s", strerror(errno)));
    }
    reactors_.push_back(std::move(r));
  }

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  for (auto& r : reactors_) {
    Reactor* reactor = r.get();
    r->thread = std::thread([this, reactor] { ReactorLoop(*reactor); });
  }
  threads_started_.store(true, std::memory_order_release);
  return Status::OK();
}

void PlanningServer::Shutdown() {
  // Async-signal-safe: one atomic store and one write(2) per reactor.
  // Each reactor notices the flag on its next wake-up and runs its share
  // of the drain.
  draining_.store(true, std::memory_order_release);
  for (const auto& r : reactors_) {
    const int fd = r->wake_fd.get();
    if (fd >= 0) {
      const uint64_t one = 1;
      ssize_t ignored = write(fd, &one, sizeof(one));
      (void)ignored;
    }
  }
}

void PlanningServer::WakeReactor(Reactor& r) {
  const int fd = r.wake_fd.get();
  if (fd >= 0) {
    const uint64_t one = 1;
    ssize_t ignored = write(fd, &one, sizeof(one));
    (void)ignored;
  }
}

void PlanningServer::Wait() {
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  // The reactors drained (every admitted request was answered before
  // they exited, unless the drain timed out); now the worker queue is
  // quiet, so stop the workers.
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      workers_stop_.store(true, std::memory_order_release);
    }
    queue_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
  }
  // Workers are gone: no insert can race the final journal sync. The
  // object stays alive (recovery stats remain readable); Close() is
  // idempotent, so the destructor's second call is a no-op.
  if (persistence_ != nullptr) {
    const Status closed = persistence_->Close();
    if (!closed.ok()) {
      std::cerr << "raqo_server: cache journal close failed: "
                << closed.ToString() << "\n";
    }
  }
  if (threads_started_.load(std::memory_order_acquire) &&
      !torn_down_.exchange(true)) {
    FlushTelemetry();
  }
}

ServerStats PlanningServer::stats() const {
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.queue_depth = static_cast<int64_t>(total_queued_);
  }
  out.requests_executing = executing_.load(std::memory_order_relaxed);
  out.open_connections = open_conns_.load(std::memory_order_relaxed);
  return out;
}

std::map<std::string, TenantStats> PlanningServer::tenant_stats() const {
  std::map<std::string, TenantStats> out;
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (const auto& [name, state] : tenants_) {
    TenantStats stats = state.stats;
    stats.inflight = state.inflight;
    stats.queued = static_cast<int64_t>(state.queue.size());
    stats.dollars_spent = state.dollars_spent;
    out.emplace(name, stats);
  }
  return out;
}

std::vector<ReactorStats> PlanningServer::reactor_stats() const {
  std::vector<ReactorStats> out;
  out.reserve(reactors_.size());
  for (const auto& r : reactors_) {
    ReactorStats stats;
    stats.index = r->index;
    stats.connections_accepted =
        r->accepted.load(std::memory_order_relaxed);
    stats.open_connections = r->open.load(std::memory_order_relaxed);
    out.push_back(stats);
  }
  return out;
}

void PlanningServer::Bump(int64_t ServerStats::*field, int64_t delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*field += delta;
}

// ---------------------------------------------------------------------------
// Reactor threads
// ---------------------------------------------------------------------------

void PlanningServer::ReactorLoop(Reactor& r) {
  bool drain_started = false;
  std::chrono::steady_clock::time_point drain_deadline;
  std::vector<epoll_event> events(64);

  for (;;) {
    if (!drain_started && draining()) {
      drain_started = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
      // Stop accepting: deregister and close this reactor's listener so
      // new connections are refused by the kernel from here on.
      if (r.listen_fd.valid()) {
        epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, r.listen_fd.get(),
                  nullptr);
        r.listen_fd.reset();
      }
    }

    if (drain_started) {
      // Retire connections that are fully answered and flushed.
      std::vector<uint64_t> idle;
      for (const auto& [id, conn] : r.conns) {
        if (conn->outstanding == 0 &&
            conn->write_off >= conn->write_buf.size()) {
          idle.push_back(id);
        }
      }
      for (uint64_t id : idle) CloseConnection(r, id);
      if (r.outstanding == 0 && r.conns.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        // Hard cap: drop whatever is left so Shutdown always terminates.
        std::vector<uint64_t> rest;
        rest.reserve(r.conns.size());
        for (const auto& [id, conn] : r.conns) rest.push_back(id);
        for (uint64_t id : rest) CloseConnection(r, id);
        break;
      }
    }

    int n = epoll_wait(r.epoll_fd.get(), events.data(),
                       static_cast<int>(events.size()), kEpollWaitMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      std::cerr << "raqo_server: epoll_wait: " << strerror(errno) << "\n";
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        AcceptNewConnections(r);
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        ssize_t ignored = read(r.wake_fd.get(), &drained, sizeof(drained));
        (void)ignored;
        continue;  // inboxes are drained below, every iteration
      }
      // A connection may have been closed by an earlier event in this
      // same batch; look it up fresh.
      auto it = r.conns.find(tag);
      if (it == r.conns.end()) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(r, tag);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(r, it->second.get());
        it = r.conns.find(tag);
        if (it == r.conns.end()) continue;
      }
      if (events[i].events & EPOLLOUT) {
        HandleWritable(r, it->second.get());
      }
    }
    DeliverCompletions(r);
    // One flush per tick: responses buffered by the delivery (or by
    // admission rejections) above go out coalesced, one send per
    // connection instead of one per frame.
    FlushPendingWrites(r);
  }

  // This reactor is done; release whatever it still owns. (Leftovers
  // exist only when the drain timed out.)
  const int64_t leftover = static_cast<int64_t>(r.conns.size());
  if (leftover > 0) {
    open_conns_.fetch_sub(leftover, std::memory_order_relaxed);
    r.open.fetch_sub(leftover, std::memory_order_relaxed);
  }
  r.conns.clear();
}

void PlanningServer::AcceptNewConnections(Reactor& r) {
  for (;;) {
    int fd = accept4(r.listen_fd.get(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      std::cerr << "raqo_server: accept4: " << strerror(errno) << "\n";
      return;
    }
    net::UniqueFd accepted(fd);
    if (draining()) continue;  // closing the fd is the whole answer
    // The connection limit spans all reactors, enforced on one atomic:
    // claim a slot first, release it if that oversubscribed. A burst
    // landing on several reactors at once can overshoot transiently by
    // at most num_reactors - 1.
    if (open_conns_.fetch_add(1, std::memory_order_acq_rel) >=
        static_cast<int64_t>(options_.max_connections)) {
      open_conns_.fetch_sub(1, std::memory_order_acq_rel);
      // Best effort: tell the client why before closing. The socket is
      // fresh, so a single non-blocking send almost always fits. This
      // rejection predates any request, so (unlike the admission-path
      // rejections) there is no request id to echo.
      const std::string frame = EncodeFrame(SerializePlanResponse(
          ErrorResponse(kWireUnavailable,
                        StrPrintf("connection limit (%zu) reached",
                                  options_.max_connections))));
      // Count before the frame leaves: a client that has read the
      // rejection must observe the bumped counter.
      Bump(&ServerStats::connections_rejected);
      ssize_t ignored = net::Send(fd, frame.data(), frame.size(),
                                  MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)ignored;
      if (obs::MetricsOn()) {
        static obs::Counter* rejected =
            obs::DefaultMetrics().GetCounter("server.connections.rejected");
        rejected->Add();
      }
      continue;
    }
    net::SetTcpNoDelay(fd);  // request/response traffic; best effort
    RegisterConnection(r, std::move(accepted));
  }
}

void PlanningServer::RegisterConnection(Reactor& r, net::UniqueFd fd) {
  auto conn = std::make_unique<Connection>();
  // Ids encode the owning reactor so they stay unique across reactors
  // without shared state; +1 keeps them clear of the epoll tags.
  conn->id = (static_cast<uint64_t>(r.index + 1) << 40) | ++r.next_conn_seq;
  conn->fd = std::move(fd);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) != 0) {
    std::cerr << "raqo_server: epoll_ctl(conn): " << strerror(errno) << "\n";
    open_conns_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  r.conns.emplace(conn->id, std::move(conn));
  r.open.fetch_add(1, std::memory_order_relaxed);
  r.accepted.fetch_add(1, std::memory_order_relaxed);
  Bump(&ServerStats::connections_accepted);
  if (obs::MetricsOn()) {
    static obs::Counter* accepts =
        obs::DefaultMetrics().GetCounter("server.accept");
    static obs::Gauge* open =
        obs::DefaultMetrics().GetGauge("server.connections");
    accepts->Add();
    open->Set(
        static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  }
}

void PlanningServer::HandleReadable(Reactor& r, Connection* conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = net::Recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      conn->peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(r, conn->id);
    return;
  }

  const uint64_t id = conn->id;
  ExtractFrames(r, conn);
  // ExtractFrames may have destroyed the connection (oversized frame,
  // write-buffer overflow); re-fetch by id rather than touching the
  // possibly-dangling pointer.
  auto it = r.conns.find(id);
  if (it == r.conns.end()) return;
  conn = it->second.get();

  if (conn->peer_closed && conn->outstanding == 0 &&
      conn->write_off >= conn->write_buf.size() && !conn->flush_pending) {
    CloseConnection(r, conn->id);
  }
}

void PlanningServer::ExtractFrames(Reactor& r, Connection* conn) {
  size_t consumed = 0;
  const uint64_t conn_id = conn->id;
  for (;;) {
    std::string_view rest(conn->read_buf);
    rest.remove_prefix(consumed);
    std::string_view payload;
    size_t frame_size = 0;
    FrameDecode decode = TryDecodeFrame(rest, options_.max_frame_bytes,
                                        &payload, &frame_size);
    if (decode == FrameDecode::kNeedMore) break;
    if (decode == FrameDecode::kTooLarge) {
      Bump(&ServerStats::protocol_errors);
      conn->close_after_flush = true;
      conn->read_buf.clear();
      // May close the connection; conn must not be touched after.
      QueueResponse(r, conn,
                    ErrorResponse(kWireInvalidArgument,
                                  StrPrintf("frame exceeds %zu-byte limit",
                                            options_.max_frame_bytes)));
      return;
    }
    // AdmitOrReject may append rejections and stored answers to
    // write_buf but never touches read_buf, so the consumed/rest
    // bookkeeping stays valid.
    AdmitOrReject(r, conn, std::string(payload));
    consumed += frame_size;
    if (r.conns.find(conn_id) == r.conns.end()) return;  // closed
  }
  if (consumed > 0) conn->read_buf.erase(0, consumed);
}

const TenantQuota& PlanningServer::QuotaOf(const std::string& tenant) const {
  static const TenantQuota kUnlimited;
  const auto it = options_.tenant_quotas.find(tenant);
  return it != options_.tenant_quotas.end() ? it->second : kUnlimited;
}

PlanningServer::TenantState* PlanningServer::FindOrCreateTenant(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return &it->second;
  if (tenants_.size() >= options_.max_tenants) return nullptr;
  TenantState& state = tenants_[tenant];
  state.name = tenant;
  state.quota = QuotaOf(tenant);
  if (!tenant.empty()) {
    // Registered once per tenant; the registry keeps the objects alive,
    // so these pointers stay valid for the server's lifetime. Anonymous
    // traffic reports only through the global server.* series.
    const std::string prefix = TenantMetricPrefix(tenant);
    obs::MetricsRegistry& metrics = obs::DefaultMetrics();
    state.admitted_counter = metrics.GetCounter(prefix + "admitted");
    state.rejected_counter = metrics.GetCounter(prefix + "rejected");
    state.queue_depth_gauge = metrics.GetGauge(prefix + "queue_depth");
    state.inflight_gauge = metrics.GetGauge(prefix + "inflight");
    state.dollars_gauge = metrics.GetGauge(prefix + "dollars_spent");
  }
  return &state;
}

void PlanningServer::RejectRequest(Reactor& r, Connection* conn,
                                   const char* wire_status,
                                   std::string message, std::string id,
                                   int64_t ServerStats::*stat_field,
                                   obs::Counter* counter) {
  Bump(stat_field);
  if (counter != nullptr && obs::MetricsOn()) counter->Add();
  // May close the connection; conn must not be touched after.
  QueueResponse(r, conn, ErrorResponse(wire_status, std::move(message),
                                       std::move(id)));
}

void PlanningServer::AdmitOrReject(Reactor& r, Connection* conn,
                                   std::string payload) {
  // The id is peeked (not parsed) so every admission-path rejection can
  // tell a pipelining client which request was refused.
  std::string id = PeekTopLevelString(payload, "id");
  if (draining()) {
    RejectRequest(r, conn, kWireUnavailable, "server is draining",
                  std::move(id), &ServerStats::rejected_draining, nullptr);
    return;
  }
  std::string tenant = PeekTopLevelString(payload, "tenant");

  // Parse and look up now, before queue_mu_: neither step holds it. A
  // cache frame, which can carry hundreds of entries, is parsed by the
  // worker instead. The reactor answers a stored statement itself
  // unless the tenant's concurrency is metered (max_inflight), an
  // earlier request on this connection is still at a worker (answers on
  // one connection never overtake each other), or the frame asks to
  // hold a worker (debug_sleep_ms under test hooks). Those, and misses,
  // go to a worker with the parsed request.
  PendingRequest pending;
  std::optional<PlanResponse> stored;
  const std::string type = PeekTopLevelString(payload, "type");
  if (type == "cache_dump" || type == "cache_load") {
    pending.payload = std::move(payload);
  } else {
    Result<PlanRequest> request = ParsePlanRequest(payload);
    if (request.ok() && conn->outstanding == 0 &&
        QuotaOf(tenant).max_inflight == 0 &&
        !(options_.enable_test_hooks && request->debug_sleep_ms > 0)) {
      stored = service_->LookupStored(*request,
                                      &pending.response_key.emplace());
    }
    pending.request = std::move(request);
  }

  const char* reject_status = nullptr;
  std::string reject_message;
  int64_t ServerStats::*reject_stat = nullptr;
  obs::Counter* reject_counter = nullptr;
  {
    // The one lock shared across reactors: the admission decision.
    // Everything else on this path is reactor-local, but for the
    // response cache's own lock in the lookup above.
    std::lock_guard<std::mutex> lock(queue_mu_);
    TenantState* state = FindOrCreateTenant(tenant);
    if (state == nullptr) {
      reject_status = kWireResourceExhausted;
      reject_message = StrPrintf("tenant table full (%zu tenants tracked)",
                                 options_.max_tenants);
      reject_stat = &ServerStats::rejected_tenant_table_full;
      static obs::Counter* const table_full = obs::DefaultMetrics().GetCounter(
          "server.rejected.tenant_table_full");
      reject_counter = table_full;
    } else if (state->quota.max_inflight > 0 &&
               state->inflight >= state->quota.max_inflight) {
      state->stats.rejected_inflight++;
      reject_status = kWireResourceExhausted;
      reject_message = StrPrintf(
          "tenant '%s' is at its in-flight cap (%lld requests)",
          tenant.c_str(), static_cast<long long>(state->quota.max_inflight));
      reject_stat = &ServerStats::rejected_tenant_inflight;
      static obs::Counter* const at_cap = obs::DefaultMetrics().GetCounter(
          "server.rejected.tenant_inflight");
      reject_counter = at_cap;
    } else if (state->quota.max_dollars > 0.0 &&
               state->dollars_spent >= state->quota.max_dollars) {
      state->stats.rejected_budget++;
      reject_status = kWireResourceExhausted;
      reject_message = StrPrintf(
          "tenant '%s' exhausted its $%.4f budget ($%.4f spent)",
          tenant.c_str(), state->quota.max_dollars, state->dollars_spent);
      reject_stat = &ServerStats::rejected_tenant_budget;
      static obs::Counter* const over_budget = obs::DefaultMetrics().GetCounter(
          "server.rejected.tenant_budget");
      reject_counter = over_budget;
    } else if (state->queue.size() >= options_.max_queue) {
      state->stats.rejected_queue_full++;
      reject_status = kWireResourceExhausted;
      reject_message = StrPrintf(
          "admission queue full (%zu pending for tenant '%s')",
          options_.max_queue, tenant.c_str());
      reject_stat = &ServerStats::rejected_queue_full;
      static obs::Counter* const queue_full = obs::DefaultMetrics().GetCounter(
          "server.rejected.queue_full");
      reject_counter = queue_full;
    } else if (stored.has_value()) {
      // Admitted and answered at once, so in-flight never rises.
      state->stats.admitted++;
      if (obs::MetricsOn() && state->admitted_counter != nullptr) {
        state->admitted_counter->Add();
      }
      ChargeTenant(*state, /*ok=*/true, stored->cost.dollars);
    } else {
      pending.conn_id = conn->id;
      pending.reactor = r.index;
      pending.id = std::move(id);
      pending.tenant = std::move(tenant);
      pending.admitted_at = std::chrono::steady_clock::now();
      state->queue.push_back(std::move(pending));
      ++total_queued_;
      if (!state->in_ready) {
        ready_tenants_.push_back(state);
        state->in_ready = true;
      }
      state->inflight++;
      state->stats.admitted++;
      // Gauges are written inside the critical section so a stale depth
      // can never overwrite a newer value set by WorkerLoop.
      if (obs::MetricsOn()) {
        static obs::Gauge* queue_depth =
            obs::DefaultMetrics().GetGauge("server.queue_depth");
        queue_depth->Set(static_cast<double>(total_queued_));
        if (state->admitted_counter != nullptr) {
          state->admitted_counter->Add();
          state->queue_depth_gauge->Set(
              static_cast<double>(state->queue.size()));
          state->inflight_gauge->Set(static_cast<double>(state->inflight));
        }
      }
    }
    if (reject_counter != nullptr && state != nullptr &&
        state->rejected_counter != nullptr && obs::MetricsOn()) {
      state->rejected_counter->Add();
    }
  }
  if (reject_status != nullptr) {
    RejectRequest(r, conn, reject_status, std::move(reject_message),
                  std::move(id), reject_stat, reject_counter);
    return;
  }
  if (stored.has_value()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.requests_admitted++;
      stats_.reactor_answers++;
    }
    if (obs::MetricsOn()) {
      static obs::Counter* requests =
          obs::DefaultMetrics().GetCounter("server.requests");
      static obs::Counter* ok_responses =
          obs::DefaultMetrics().GetCounter("server.responses.ok");
      static obs::Counter* reactor_answers =
          obs::DefaultMetrics().GetCounter("server.reactor_answers");
      requests->Add();
      ok_responses->Add();
      reactor_answers->Add();
    }
    // Buffered behind anything this tick already buffered for the
    // connection. A stored answer never waited in a queue, so its
    // queue_wait_us is 0. May close the connection.
    SendRawResponse(r, conn, SerializePlanResponse(*stored));
    return;
  }
  conn->outstanding++;
  r.outstanding++;
  Bump(&ServerStats::requests_admitted);
  queue_cv_.notify_one();
}

void PlanningServer::ChargeTenant(TenantState& state, bool ok,
                                  double dollars) {
  if (ok) {
    state.stats.responses_ok++;
    state.dollars_spent += dollars;
  }
  if (obs::MetricsOn() && state.inflight_gauge != nullptr) {
    state.inflight_gauge->Set(static_cast<double>(state.inflight));
    state.dollars_gauge->Set(state.dollars_spent);
  }
}

void PlanningServer::SettleTenant(const std::string& tenant, bool ok,
                                  double dollars) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  it->second.inflight--;
  ChargeTenant(it->second, ok, dollars);
}

void PlanningServer::QueueResponse(Reactor& r, Connection* conn,
                                   const PlanResponse& response) {
  SendRawResponse(r, conn, SerializePlanResponse(response));
}

void PlanningServer::BumpResponsesDropped() {
  Bump(&ServerStats::responses_dropped);
  if (obs::MetricsOn()) {
    static obs::Counter* dropped =
        obs::DefaultMetrics().GetCounter("server.responses.dropped");
    dropped->Add();
  }
}

void PlanningServer::SendRawResponse(Reactor& r, Connection* conn,
                                     std::string payload) {
  const size_t buffered = conn->write_buf.size() - conn->write_off;
  if (buffered + kFrameHeaderBytes + payload.size() >
      options_.max_write_buffer_bytes) {
    // The client is not reading its responses; buffering more would let
    // one slow reader hold arbitrary memory. The response is dropped,
    // not sent — count it as such.
    std::cerr << "raqo_server: dropping connection " << conn->id
              << ": write buffer over " << options_.max_write_buffer_bytes
              << " bytes\n";
    BumpResponsesDropped();
    CloseConnection(r, conn->id);
    return;
  }
  // Reclaim the consumed prefix before growing.
  if (conn->write_off > 0) {
    conn->write_buf.erase(0, conn->write_off);
    conn->write_off = 0;
  }
  conn->write_buf += EncodeFrame(payload);
  // Counted only once the frame is actually buffered for delivery;
  // drops (write-buffer cap, vanished connection) land in
  // responses_dropped instead.
  Bump(&ServerStats::responses_sent);
  // Batched: the frame goes out in this tick's flush, coalesced with any
  // other responses buffered for the same connection.
  if (!conn->flush_pending) {
    conn->flush_pending = true;
    r.flush_queue.push_back(conn->id);
  }
}

void PlanningServer::FlushPendingWrites(Reactor& r) {
  if (r.flush_queue.empty()) return;
  std::vector<uint64_t> pending;
  pending.swap(r.flush_queue);
  for (uint64_t id : pending) {
    auto it = r.conns.find(id);
    if (it == r.conns.end()) continue;  // closed since it was queued
    Connection* conn = it->second.get();
    conn->flush_pending = false;
    HandleWritable(r, conn);  // may close; conn must not be touched after
  }
}

void PlanningServer::HandleWritable(Reactor& r, Connection* conn) {
  while (conn->write_off < conn->write_buf.size()) {
    ssize_t n =
        net::Send(conn->fd.get(), conn->write_buf.data() + conn->write_off,
                  conn->write_buf.size() - conn->write_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->write_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateWriteInterest(r, conn);
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(r, conn->id);
    return;
  }
  conn->write_buf.clear();
  conn->write_off = 0;
  if (conn->close_after_flush ||
      (conn->peer_closed && conn->outstanding == 0)) {
    CloseConnection(r, conn->id);
    return;
  }
  UpdateWriteInterest(r, conn);
}

void PlanningServer::UpdateWriteInterest(Reactor& r, Connection* conn) {
  const bool want_out = conn->write_off < conn->write_buf.size();
  if (want_out == conn->registered_out) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  if (epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev) == 0) {
    conn->registered_out = want_out;
  }
}

void PlanningServer::DeliverCompletions(Reactor& r) {
  std::deque<Completion> done;
  {
    std::lock_guard<std::mutex> lock(r.completions_mu);
    done.swap(r.completions);
  }
  for (Completion& completion : done) {
    // The admitted request is answered exactly here, even when its
    // connection is already gone (the response is then dropped).
    r.outstanding--;
    auto it = r.conns.find(completion.conn_id);
    if (it == r.conns.end()) {
      BumpResponsesDropped();
      continue;
    }
    Connection* conn = it->second.get();
    conn->outstanding--;
    SendRawResponse(r, conn, std::move(completion.payload));
  }
}

void PlanningServer::CloseConnection(Reactor& r, uint64_t conn_id) {
  auto it = r.conns.find(conn_id);
  if (it == r.conns.end()) return;
  epoll_ctl(r.epoll_fd.get(), EPOLL_CTL_DEL, it->second->fd.get(), nullptr);
  r.conns.erase(it);  // UniqueFd closes the socket
  r.open.fetch_sub(1, std::memory_order_relaxed);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  if (obs::MetricsOn()) {
    static obs::Gauge* open =
        obs::DefaultMetrics().GetGauge("server.connections");
    open->Set(
        static_cast<double>(open_conns_.load(std::memory_order_relaxed)));
  }
}

void PlanningServer::FlushTelemetry() {
  if (options_.telemetry_dir.empty()) return;
  const std::string metrics_path = options_.telemetry_dir + "/metrics.json";
  Status status = WriteTextFile(
      metrics_path, obs::MetricsToJson(obs::DefaultMetrics().Snapshot()));
  if (!status.ok()) {
    std::cerr << "raqo_server: telemetry flush failed: "
              << status.ToString() << "\n";
  }
  const std::string trace_path = options_.telemetry_dir + "/trace.json";
  status = WriteTextFile(
      trace_path,
      obs::SpansToChromeTraceJson(obs::DefaultTracer().Snapshot()));
  if (!status.ok()) {
    std::cerr << "raqo_server: telemetry flush failed: "
              << status.ToString() << "\n";
  }
}

// ---------------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------------

void PlanningServer::PostCompletion(int reactor, uint64_t conn_id,
                                    std::string payload) {
  Reactor& r = *reactors_[static_cast<size_t>(reactor)];
  {
    std::lock_guard<std::mutex> lock(r.completions_mu);
    r.completions.push_back(Completion{conn_id, std::move(payload)});
  }
  WakeReactor(r);
}

void PlanningServer::WorkerLoop() {
  for (;;) {
    PendingRequest pending;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return workers_stop_.load(std::memory_order_acquire) ||
               !ready_tenants_.empty();
      });
      if (workers_stop_.load(std::memory_order_acquire)) return;
      // Fair dequeue: take one request from the tenant at the front of
      // the ready ring, then rotate it to the back so a tenant with a
      // deep backlog cannot starve the others.
      TenantState* state = ready_tenants_.front();
      ready_tenants_.pop_front();
      pending = std::move(state->queue.front());
      state->queue.pop_front();
      --total_queued_;
      if (!state->queue.empty()) {
        ready_tenants_.push_back(state);
      } else {
        state->in_ready = false;
      }
      if (obs::MetricsOn()) {
        static obs::Gauge* queue_depth =
            obs::DefaultMetrics().GetGauge("server.queue_depth");
        queue_depth->Set(static_cast<double>(total_queued_));
        if (state->queue_depth_gauge != nullptr) {
          state->queue_depth_gauge->Set(
              static_cast<double>(state->queue.size()));
        }
      }
    }

    executing_.fetch_add(1, std::memory_order_acq_rel);
    const double queue_wait_us = ElapsedUs(pending.admitted_at);

    obs::Span span;
    if (obs::TracingOn()) {
      span = obs::DefaultTracer().StartSpan("server.request");
      span.SetAttr("queue_wait_us", queue_wait_us);
    }
    if (obs::MetricsOn()) {
      static obs::Counter* requests =
          obs::DefaultMetrics().GetCounter("server.requests");
      static obs::Histogram* wait_hist =
          obs::DefaultMetrics().GetHistogram("server.queue_wait_us");
      requests->Add();
      wait_hist->Record(queue_wait_us);
    }

    PlanResponse response;
    Result<PlanRequest> request = pending.request.has_value()
                                      ? std::move(*pending.request)
                                      : ParsePlanRequest(pending.payload);
    if (!request.ok()) {
      Bump(&ServerStats::protocol_errors);
      response = ErrorResponse(kWireInvalidArgument,
                               request.status().message(), pending.id);
    } else {
      const int64_t deadline_ms = request->deadline_ms > 0
                                      ? request->deadline_ms
                                      : options_.default_deadline_ms;
      if (deadline_ms > 0 && queue_wait_us > 1000.0 * deadline_ms) {
        // Cancelled while queued: the planner never runs.
        Bump(&ServerStats::rejected_deadline);
        if (obs::MetricsOn()) {
          static obs::Counter* rejected =
              obs::DefaultMetrics().GetCounter("server.rejected.deadline");
          rejected->Add();
        }
        response = ErrorResponse(
            kWireDeadlineExceeded,
            StrPrintf("deadline of %lld ms expired after %.0f us in queue",
                      static_cast<long long>(deadline_ms), queue_wait_us),
            request->id);
      } else {
        if (options_.enable_test_hooks && request->debug_sleep_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(request->debug_sleep_ms));
        }
        response = pending.response_key.has_value()
                       ? service_->PlanAndOffer(
                             *request, std::move(*pending.response_key))
                       : service_->Handle(*request);
      }
    }
    response.queue_wait_us = queue_wait_us;

    const double total_us = ElapsedUs(pending.admitted_at);
    if (span.recording()) {
      span.SetAttr("id", response.id);
      span.SetAttr("status", response.status);
      span.End();
    }
    if (obs::MetricsOn()) {
      static obs::Histogram* request_hist =
          obs::DefaultMetrics().GetHistogram("server.request_us");
      static obs::Counter* ok_responses =
          obs::DefaultMetrics().GetCounter("server.responses.ok");
      request_hist->Record(total_us);
      if (response.ok()) ok_responses->Add();
    }
    executing_.fetch_sub(1, std::memory_order_acq_rel);
    // Charged against the *peeked* tenant (the one admission accounted
    // for), so in-flight and dollar bookkeeping stay self-consistent
    // even if the full parse disagrees with the cheap scan.
    SettleTenant(pending.tenant, response.ok(), response.cost.dollars);
    PostCompletion(pending.reactor, pending.conn_id,
                   SerializePlanResponse(response));
  }
}

// ---------------------------------------------------------------------------
// Signal wiring
// ---------------------------------------------------------------------------

namespace {

std::atomic<PlanningServer*> g_signal_server{nullptr};

void OnShutdownSignal(int /*signum*/) {
  PlanningServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server != nullptr) server->Shutdown();
}

}  // namespace

void InstallShutdownSignalHandlers(PlanningServer* server) {
  g_signal_server.store(server, std::memory_order_release);
  if (server != nullptr) {
    std::signal(SIGTERM, OnShutdownSignal);
    std::signal(SIGINT, OnShutdownSignal);
  } else {
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
  }
}

}  // namespace raqo::server
