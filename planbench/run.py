#!/usr/bin/env python3
"""Planning-server benchmark: builds planbench from the checkout's sources,
runs fresh-process episodes of one workload for --seconds, checks every
answer, and prints one JSON result as the last line of stdout.

    python3 planbench/run.py --workload hot_repeat --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics (medians over the episodes).
--trace 1 reports the per-layer metrics from traced episodes, each a
server pass with client-side spans plus a single-threaded in-process
replay of the same statements. README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "planbench")
EPISODE_TIMEOUT_S = 120

# Host steal gate. On a shared VM the timing metrics follow the share of
# host CPU the hypervisor gives to other guests (README.md, "Host
# noise"). Metrics are medians over the episodes that ran under
# STEAL_CAP. A run keeps running episodes, for up to EXTRA_SECONDS past
# --seconds, until MIN_CLEAN of them did. A run without that many is
# reported from its MIN_CLEAN lowest-steal episodes and marked not
# comparable.
STEAL_CAP = 0.03
MIN_CLEAN = 3
EXTRA_SECONDS = 20

WORKLOADS = ("hot_repeat", "cold_novel")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "throughput_rps": "1/s",
    "cpu_us_per_req": "us",
    "peak_rss_mb": "MiB",
    "plan_runtime_s": "s",
    "success_frac": "ratio",
}

PER_LAYER = {
    "server.overhead_us": "us",
    "server.queue_wait_us": "us",
    "server.codec_us": "us",
    "query.parse_us": "us",
    "query.filter_us": "us",
    "core.evaluator_setup_us": "us",
    "optimizer.enumerate_us": "us",
    "optimizer.plans_considered": "count",
    "optimizer.cost_calls": "count",
    "core.cost_join_us": "us",
    "core.cache_hit_ratio": "ratio",
    "core.cache_lookups": "count",
    "core.cache_lookup_us": "us",
    "core.cache_flush_us": "us",
    "core.cache_entries": "count",
    "core.resource_searches": "count",
    "core.configs_explored": "count",
    "core.cells_per_search": "count",
    "core.resource_search_us": "us",
    "plan.render_us": "us",
    "setup.train_ms": "ms",
    "setup.start_ms": "ms",
    "setup.warm_ms": "ms",
    "workload.repeat_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Outputs fixed by the seed: every episode of one run must repeat them
# exactly (exact-mode caching makes plans independent of interleaving).
REPEATED = ("digest", "plan_runtime_s", "cache_entries", "plans_considered")
REPLAY_REPEATED = (
    "core.cache_entries",
    "core.configs_explored",
    "core.resource_searches",
    "core.cache_lookups",
    "core.cache_hit_ratio",
    "optimizer.plans_considered",
    "optimizer.cost_calls",
)


class BenchError(Exception):
    pass


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("failed: " + " ".join(cmd))


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    run_quiet([os.path.join(BUILD, "planbench_workload_test")])


def episode(workload, seed, traced):
    cmd = [os.path.join(BUILD, "planbench"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd += ["--traced", os.path.join(BUILD, "trace_%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("episode exceeded %d s" % EPISODE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("episode failed with exit code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def episode_errors(ep):
    errors = []
    if ep["ok"] != ep["sent"]:
        errors.append("%d of %d requests failed" % (ep["sent"] - ep["ok"],
                                                    ep["sent"]))
    if ep["errors"]:
        errors.append(ep["errors"])
    return errors


def repeat_errors(episodes, keys):
    return ["%s differs between episodes of one seed: %s" %
            (key, sorted({str(ep[key]) for ep in episodes}))
            for key in keys if len({ep[key] for ep in episodes}) > 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def collect(workload, seed, seconds, traced):
    """Runs episodes for `seconds`, and past it while too few ran under
    the steal cap. Returns all episodes and the ones the metrics use."""
    episodes = []
    start = time.monotonic()
    while True:
        clean = [ep for ep in episodes if ep["steal_frac"] <= STEAL_CAP]
        elapsed = time.monotonic() - start
        if len(episodes) >= MIN_CLEAN and elapsed >= seconds and (
                len(clean) >= MIN_CLEAN or
                elapsed >= seconds + EXTRA_SECONDS):
            break
        episodes.append(episode(workload, seed, traced))
    comparable = len(clean) >= MIN_CLEAN
    used = clean if comparable else sorted(
        episodes, key=lambda ep: ep["steal_frac"])[:MIN_CLEAN]
    steal = statistics.median(ep["steal_frac"] for ep in used)
    print("%s seed %d: %d episodes in %.1f s, %d under the %.0f%% steal "
          "cap; medians over %d, their median host steal %.1f%%" %
          (workload, seed, len(episodes), elapsed, len(clean),
           100 * STEAL_CAP, len(used), 100 * steal))
    if not comparable:
        print("planbench: not comparable: fewer than %d episodes ran under "
              "the %.0f%% host-steal cap" % (MIN_CLEAN, 100 * STEAL_CAP))
    print(json.dumps({"host": {"episodes": len(episodes),
                               "clean": len(clean), "used": len(used),
                               "steal_frac": steal,
                               "comparable": comparable}}))
    return episodes, used


def run_timed(workload, seed, seconds):
    episodes, used = collect(workload, seed, seconds, traced=False)
    errors = [e for ep in episodes for e in episode_errors(ep)]
    errors += repeat_errors(episodes, REPEATED)
    sent = sum(ep["sent"] for ep in episodes)
    ok = sum(ep["ok"] for ep in episodes)
    metrics = {}
    for name, unit in END_TO_END.items():
        if name == "success_frac":
            value = ok / sent
        else:
            value = statistics.median(ep[name] for ep in used)
        metrics[name] = metric(value, unit)
    return episodes, errors, metrics


def run_traced(workload, seed, seconds):
    episodes, used = collect(workload, seed, seconds, traced=True)
    errors = [e for ep in episodes for e in episode_errors(ep)]
    errors += repeat_errors(episodes, REPEATED + REPLAY_REPEATED)
    metrics = {name: metric(statistics.median(ep[name] for ep in used), unit)
               for name, unit in PER_LAYER.items()}
    print("spans in %s" % os.path.relpath(
        os.path.join(BUILD, "trace_%s.json" % workload), ROOT))
    return episodes, errors, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        build()
        run = run_traced if args.trace else run_timed
        episodes, errors, metrics = run(args.workload, args.seed,
                                        args.seconds)
    except BenchError as e:
        print("planbench: %s" % e, file=sys.stderr)
        return 1
    for e in errors:
        print("planbench: check failed: %s" % e, file=sys.stderr)
    sent = sum(ep["sent"] for ep in episodes)
    ok = sum(ep["ok"] for ep in episodes)
    print(json.dumps({"correct": not errors, "attempted": sent,
                      "failed": sent - ok, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
