// Command-line client for the RAQO planning server:
//
//   raqo_client --port 7470 --sql "select * from orders, lineitem, customer"
//   raqo_client --max-dollars 0.40 --sql "select * from orders, lineitem"
//
// Prints the chosen plan, the per-join resource configuration, and the
// predicted cost/latency the server answered with.

#include <cstdint>
#include <cstdio>

#include "flags.h"
#include "server/client.h"

int main(int argc, char** argv) {
  using namespace raqo;
  using examples::FlagValue;

  std::string host = "127.0.0.1";
  if (const char* v = FlagValue(argc, argv, "--host")) host = v;
  const uint16_t port = static_cast<uint16_t>(
      examples::IntFlag(argc, argv, "--port", 0, 65535, 7470));

  server::PlanRequest request;
  request.id = "raqo_client";
  request.sql = "select * from orders, lineitem, customer";
  if (const char* v = FlagValue(argc, argv, "--sql")) request.sql = v;
  if (FlagValue(argc, argv, "--max-dollars") != nullptr) {
    request.has_max_dollars = true;
    request.max_dollars = examples::NumberFlag(argc, argv, "--max-dollars",
                                               /*positive=*/false, 0.0);
  }
  if (const char* v = FlagValue(argc, argv, "--algorithm")) {
    request.algorithm = v;
  }
  if (const char* v = FlagValue(argc, argv, "--search")) request.search = v;
  request.deadline_ms = examples::IntFlag(argc, argv, "--deadline-ms", 0,
                                          INT64_MAX, request.deadline_ms);

  Result<server::PlanningClient> client =
      server::PlanningClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s:%u: %s\n", host.c_str(), port,
                 client.status().ToString().c_str());
    return 1;
  }
  Result<server::PlanResponse> response = client->Call(request);
  if (!response.ok()) {
    std::fprintf(stderr, "call: %s\n", response.status().ToString().c_str());
    return 1;
  }
  if (!response->ok()) {
    std::fprintf(stderr, "%s: %s\n", response->status.c_str(),
                 response->error.c_str());
    return 2;
  }

  std::printf("plan:     %s\n", response->plan.c_str());
  for (size_t i = 0; i < response->join_resources.size(); ++i) {
    const resource::ResourceConfig& r = response->join_resources[i];
    std::printf("join %zu:   %.0f x %.1f GB containers\n", i,
                r.num_containers(), r.container_size_gb());
  }
  std::printf("cost:     %.3f s, $%.4f\n", response->cost.seconds,
              response->cost.dollars);
  std::printf(
      "planning: %.2f ms wall, %lld plans, %lld resource configs, "
      "cache %lld/%lld, queue wait %.0f us\n",
      response->stats.wall_ms, (long long)response->stats.plans_considered,
      (long long)response->stats.resource_configs_explored,
      (long long)response->stats.cache_hits,
      (long long)(response->stats.cache_hits + response->stats.cache_misses),
      response->queue_wait_us);
  return 0;
}
