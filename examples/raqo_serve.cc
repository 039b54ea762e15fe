// The RAQO planning server as a process: binds a TCP port, plans every
// request it is sent (see docs/SERVER.md for the wire protocol), and
// drains gracefully on SIGTERM/SIGINT — in-flight requests finish,
// responses flush, telemetry lands on disk, then the process exits 0.
//
//   raqo_serve --port 7470 --workers 8 --telemetry-dir /tmp/raqo
//
// Try it with raqo_client or bench/server_load.

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>

#include "catalog/tpch.h"
#include "flags.h"
#include "server/server.h"
#include "sim/profile_runner.h"

int main(int argc, char** argv) {
  using namespace raqo;
  using examples::FlagValue;
  using examples::IntFlag;

  const double scale =
      examples::NumberFlag(argc, argv, "--scale", /*positive=*/true, 100.0);
  server::ServerOptions server_options;
  server_options.port =
      static_cast<uint16_t>(IntFlag(argc, argv, "--port", 0, 65535, 7470));
  server_options.num_workers = static_cast<int>(IntFlag(
      argc, argv, "--workers", 0, INT_MAX, server_options.num_workers));
  server_options.num_reactors = static_cast<int>(IntFlag(
      argc, argv, "--reactors", 0, INT_MAX, server_options.num_reactors));
  server_options.max_queue = static_cast<size_t>(
      IntFlag(argc, argv, "--max-queue", 0, INT64_MAX,
              static_cast<int64_t>(server_options.max_queue)));
  server_options.default_deadline_ms =
      IntFlag(argc, argv, "--deadline-ms", 0, INT64_MAX,
              server_options.default_deadline_ms);
  if (const char* v = FlagValue(argc, argv, "--telemetry-dir")) {
    server_options.telemetry_dir = v;
  }

  catalog::Catalog catalog = catalog::BuildTpchCatalog(scale);
  Result<cost::JoinCostModels> models =
      sim::TrainModelsFromSimulator(sim::EngineProfile::Hive());
  if (!models.ok()) {
    std::fprintf(stderr, "%s\n", models.status().ToString().c_str());
    return 1;
  }

  core::RaqoPlannerOptions planner_options;
  planner_options.evaluator.use_cache = true;
  planner_options.evaluator.cache_mode = core::CacheLookupMode::kExact;
  planner_options.clear_cache_between_queries = false;

  server::PlanningServiceOptions service_options;
  service_options.planner = planner_options;
  server::PlanningService service(&catalog, *models,
                                  resource::ClusterConditions::PaperDefault(),
                                  resource::PricingModel(), service_options);

  server::PlanningServer server(&service, server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  server::InstallShutdownSignalHandlers(&server);
  std::printf(
      "raqo_serve: TPC-H sf%.0f catalog, %d workers, %d reactors, "
      "queue %zu\n",
      scale, server_options.num_workers, server.num_reactors(),
      server_options.max_queue);
  std::printf("raqo_serve: listening on %s:%u (SIGTERM drains)\n",
              server_options.host.c_str(), server.port());
  std::fflush(stdout);

  server.Wait();
  server::InstallShutdownSignalHandlers(nullptr);

  const server::ServerStats stats = server.stats();
  std::printf(
      "raqo_serve: drained; %lld connections, %lld requests admitted, "
      "%lld responses, %lld queue-full, %lld deadline-expired\n",
      (long long)stats.connections_accepted, (long long)stats.requests_admitted,
      (long long)stats.responses_sent, (long long)stats.rejected_queue_full,
      (long long)stats.rejected_deadline);
  return 0;
}
