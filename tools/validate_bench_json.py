#!/usr/bin/env python3
"""Validate BENCH_<name>.json files against the bench report schema.

Usage: validate_bench_json.py FILE [FILE...]

Checks the schema documented in EXPERIMENTS.md ("Machine-readable
output"): required top-level keys and types, schema_version == 2, the
host block, the perf_counters availability block (a reason is required
exactly when counters are unavailable), and the shape of every row's
optional "phases" object, and — new in v2 — that every row tagged
"driver": "nested" carries the task load-balance fields (max/mean
per-worker busy seconds and their ratio) and is named after the driver
("nested(...)"). Every row with a "driver"
tag must also label its build time: "build_time" is "wall" on
"driver": "seq" rows and "task_sum" (summed over class tasks) on
"driver": "nested" rows. Service-throughput rows
(any row carrying "qps", as written by bench_service_throughput) must
also carry clients, p50_ms and p99_ms, with qps > 0, clients >= 1 and
p99_ms >= p50_ms. Rows tagged with "task" (the mixed-task service
sections) must name one of the five mining tasks. Out-of-core rows
(any row carrying "storage", as written by bench_out_of_core) must tag
storage as packed|memory and stage as cold|warm, with non-negative
load_ms/mine_ms/total_ms. Exits nonzero with one line per problem.

Thread-scaling rows (any row carrying "threads" > 1) measured on a
host whose recorded host.logical_cpus is 1 cannot show real
concurrency; the validator prints a WARNING for them (the file still
validates — the schema is intact, the numbers are just ~1x by
construction).

Standard library only — runs on any CI python3.
"""

import json
import sys

SCHEMA_VERSION = 2

TOP_KEYS = {
    "schema_version": int,
    "bench": str,
    "title": str,
    "host": dict,
    "perf_counters": dict,
    "scale": (int, float),
    "repeats": int,
    "rows": list,
}

HOST_KEYS = {
    "cpu_model": str,
    "logical_cpus": int,
    "l1d_bytes": int,
    "l2_bytes": int,
    "l3_bytes": int,
}

# Load-balance fields every "driver": "nested" row must carry (v2).
NESTED_ROW_KEYS = (
    "task_busy_max_seconds",
    "task_busy_mean_seconds",
    "task_imbalance",
)

# The build-time label each driver's rows must carry: the sequential
# kernel's build phase is wall time, the parallel driver's is summed
# over class tasks (prepare and mine are wall time for both).
BUILD_TIME_BY_DRIVER = {"seq": "wall", "nested": "task_sum"}

# Latency fields every service-throughput row (tagged by "qps") must
# carry alongside it.
SERVICE_ROW_KEYS = ("clients", "p50_ms", "p99_ms")

# Timing fields every out-of-core row (tagged by "storage") must carry.
OUT_OF_CORE_ROW_KEYS = ("load_ms", "mine_ms", "total_ms")

# Legal values of the out-of-core row tags.
STORAGE_KINDS = ("packed", "memory")
STORAGE_STAGES = ("cold", "warm")

# Legal values of a row's "task" tag (the MiningQuery task family).
MINING_TASKS = ("frequent", "closed", "maximal", "top_k", "rules")


def check_service_row(row, i, err):
    """A row with "qps" is a service-throughput measurement: it needs
    the client count and latency percentiles, and they must be
    internally consistent."""
    ok = True
    for key in SERVICE_ROW_KEYS:
        v = row.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            err(f"rows[{i}] has 'qps' but '{key}' missing or not a number")
            ok = False
    qps = row["qps"]
    if not isinstance(qps, (int, float)) or isinstance(qps, bool):
        err(f"rows[{i}] 'qps' is not a number")
        return
    if qps <= 0:
        err(f"rows[{i}] qps {qps} <= 0")
    if not ok:
        return
    if row["clients"] < 1:
        err(f"rows[{i}] clients {row['clients']} < 1")
    if row["p99_ms"] < row["p50_ms"]:
        err(f"rows[{i}] p99_ms {row['p99_ms']} < p50_ms {row['p50_ms']}")


def check_out_of_core_row(row, i, err):
    """A row with "storage" is an out-of-core measurement: the backend
    and stage tags must be legal and the timing columns present."""
    if row["storage"] not in STORAGE_KINDS:
        err(f"rows[{i}] 'storage' {row['storage']!r} not one of "
            f"{'|'.join(STORAGE_KINDS)}")
    if row.get("stage") not in STORAGE_STAGES:
        err(f"rows[{i}] has 'storage' but 'stage' not one of "
            f"{'|'.join(STORAGE_STAGES)}")
    for key in OUT_OF_CORE_ROW_KEYS:
        v = row.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            err(f"rows[{i}] has 'storage' but '{key}' missing or "
                "not a number")
        elif v < 0:
            err(f"rows[{i}] {key} {v} < 0")


def check(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level is not an object"]

    for key, want in TOP_KEYS.items():
        if key not in doc:
            err(f"missing top-level key '{key}'")
        elif not isinstance(doc[key], want) or isinstance(doc[key], bool):
            err(f"'{key}' has type {type(doc[key]).__name__}")
    if errors:
        return errors

    if doc["schema_version"] != SCHEMA_VERSION:
        err(f"schema_version {doc['schema_version']} != {SCHEMA_VERSION}")
    if not doc["bench"]:
        err("'bench' is empty")
    if doc["repeats"] < 1:
        err(f"repeats {doc['repeats']} < 1")
    if doc["scale"] <= 0:
        err(f"scale {doc['scale']} <= 0")

    for key, want in HOST_KEYS.items():
        if key not in doc["host"]:
            err(f"host missing '{key}'")
        elif not isinstance(doc["host"][key], want):
            err(f"host '{key}' has type {type(doc['host'][key]).__name__}")

    pc = doc["perf_counters"]
    if not isinstance(pc.get("available"), bool):
        err("perf_counters.available missing or not a bool")
    elif not pc["available"] and not isinstance(pc.get("reason"), str):
        err("perf_counters unavailable but no 'reason' string")

    # Thread-scaling rows on a 1-logical-CPU host: schema-valid, but
    # every speedup is ~1x by construction (the caveat EXPERIMENTS.md
    # attaches to BENCH_parallel_scaling). Warn, don't fail.
    logical_cpus = doc["host"].get("logical_cpus")
    if logical_cpus == 1:
        scaling = sum(1 for row in doc["rows"]
                      if isinstance(row, dict)
                      and isinstance(row.get("threads"), int)
                      and row["threads"] > 1)
        if scaling:
            print(f"{path}: WARNING: {scaling} thread-scaling row(s) "
                  "(threads > 1) recorded on a host with 1 logical CPU — "
                  "speedups are ~1x by construction, not evidence of "
                  "scaling", file=sys.stderr)

    if not doc["rows"]:
        err("'rows' is empty")
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            err(f"rows[{i}] is not an object")
            continue
        if "qps" in row:
            check_service_row(row, i, err)
        if "storage" in row:
            check_out_of_core_row(row, i, err)
        if "task" in row and row["task"] not in MINING_TASKS:
            err(f"rows[{i}] 'task' {row['task']!r} not one of "
                f"{'|'.join(MINING_TASKS)}")
        if "driver" in row:
            want = BUILD_TIME_BY_DRIVER.get(row["driver"])
            if want is None:
                err(f"rows[{i}] 'driver' {row['driver']!r} not one of "
                    f"{'|'.join(BUILD_TIME_BY_DRIVER)}")
            elif row.get("build_time") != want:
                err(f"rows[{i}] driver={row['driver']} but 'build_time' "
                    f"is {row.get('build_time')!r}, not {want!r}")
        if row.get("driver") == "nested":
            # A nested row must have timed the class driver, whose name
            # is "nested(<threads>x<kernel>)"; a bare kernel name means
            # the row timed the sequential kernel against itself.
            name = row.get("name")
            if not isinstance(name, str) or not name.startswith("nested("):
                err(f"rows[{i}] driver=nested but 'name' {name!r} does "
                    "not start with 'nested('")
            for key in NESTED_ROW_KEYS:
                v = row.get(key)
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    err(f"rows[{i}] driver=nested but '{key}' missing "
                        "or not a number")
            busy_max = row.get("task_busy_max_seconds", 0)
            busy_mean = row.get("task_busy_mean_seconds", 0)
            if (isinstance(busy_max, (int, float))
                    and isinstance(busy_mean, (int, float))
                    and busy_max < busy_mean):
                err(f"rows[{i}] task_busy_max_seconds {busy_max} < "
                    f"task_busy_mean_seconds {busy_mean}")
        phases = row.get("phases")
        if phases is None:
            continue
        if not isinstance(phases, dict):
            err(f"rows[{i}].phases is not an object")
            continue
        for phase, data in phases.items():
            where = f"rows[{i}].phases['{phase}']"
            if not isinstance(data, dict):
                err(f"{where} is not an object")
                continue
            if not isinstance(data.get("seconds"), (int, float)):
                err(f"{where}.seconds missing or not a number")
            for table in ("counters", "derived"):
                values = data.get(table, {})
                if not isinstance(values, dict):
                    err(f"{where}.{table} is not an object")
                    continue
                for name, v in values.items():
                    if not isinstance(v, int) or isinstance(v, bool):
                        err(f"{where}.{table}['{name}'] is not an integer")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failures = 0
    for path in argv[1:]:
        errors = check(path)
        if errors:
            failures += 1
            for e in errors:
                print(e, file=sys.stderr)
        else:
            with open(path, encoding="utf-8") as f:
                n = len(json.load(f)["rows"])
            print(f"{path}: OK ({n} rows)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
