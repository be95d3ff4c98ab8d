#!/usr/bin/env python3
"""Schema validator for fpm query logs (JSON lines).

Usage: validate_query_log.py LOG_FILE [--min-lines=N]

Checks every line of a query log written by QueryLog (fpmd
--query-log=FILE or mine_cli --query-log=FILE):

  * each line parses as one flat JSON object, no blank lines
  * required keys: event, ts_ms, query_id, status
  * event is "query" or "watchdog_stuck"; status is one of
    ok/error/cancelled/deadline/rejected/stuck
  * every present key is known and carries the right JSON type
    (timings are non-negative numbers, counters non-negative ints,
    the rest strings)
  * cache, when present, is a known outcome

(ts_ms ordering is NOT checked: entries stamp the clock before the
append lock, so concurrent queries may land a few ms out of order.)

Exits nonzero with a line-numbered message on the first violation.
--min-lines=N additionally fails if fewer than N lines were seen
(guards against a silently empty log in CI).

Standard library only — runs on any CI python3.
"""

import json
import sys

EVENTS = {"query", "watchdog_stuck"}
STATUSES = {"ok", "error", "cancelled", "deadline", "rejected", "stuck"}
CACHE_OUTCOMES = {"miss", "hit", "dominated", "cross_task", "reseeded"}

# key -> validator; mirrors QueryLogEntry (src/fpm/obs/query_log.h).
def non_negative_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def non_negative_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and v >= 0)


SCHEMA = {
    "event": lambda v: v in EVENTS,
    "ts_ms": lambda v: non_negative_int(v) and v > 0,
    "query_id": non_negative_int,
    "trace_id": lambda v: isinstance(v, str) and v,
    "op": lambda v: isinstance(v, str) and v,
    "peer": lambda v: isinstance(v, str) and v,
    "task": lambda v: isinstance(v, str) and v,
    "dataset": lambda v: isinstance(v, str) and v,
    "dataset_id": lambda v: isinstance(v, str) and v,
    "version": lambda v: non_negative_int(v) and v > 0,
    "digest": lambda v: isinstance(v, str) and v,
    "algorithm": lambda v: isinstance(v, str) and v,
    "min_support": lambda v: non_negative_int(v) and v > 0,
    "k": lambda v: non_negative_int(v) and v > 0,
    "queue_ms": non_negative_number,
    "mine_ms": non_negative_number,
    "derive_ms": non_negative_number,
    "remote_ms": non_negative_number,
    "cache": lambda v: v in CACHE_OUTCOMES,
    "num_results": non_negative_int,
    "peak_bytes": non_negative_int,
    "bytes_out": non_negative_int,
    "status": lambda v: v in STATUSES,
    "reason": lambda v: isinstance(v, str) and v,
}
REQUIRED = ("event", "ts_ms", "query_id", "status")


def validate_line(number, line):
    """Returns an error message for one log line, empty if valid."""
    try:
        entry = json.loads(line)
    except json.JSONDecodeError as error:
        return f"line {number}: not JSON ({error})"
    if not isinstance(entry, dict):
        return f"line {number}: not a JSON object"
    for key in REQUIRED:
        if key not in entry:
            return f"line {number}: missing required key '{key}'"
    for key, value in entry.items():
        check = SCHEMA.get(key)
        if check is None:
            return f"line {number}: unknown key '{key}'"
        if not check(value):
            return f"line {number}: bad value for '{key}': {value!r}"
    if entry["event"] == "watchdog_stuck" and entry["status"] != "stuck":
        return (f"line {number}: watchdog_stuck entry has "
                f"status '{entry['status']}', want 'stuck'")
    return ""


def main(argv):
    path = None
    min_lines = 0
    for arg in argv[1:]:
        if arg.startswith("--min-lines="):
            min_lines = int(arg.split("=", 1)[1])
        elif arg.startswith("-"):
            print(f"unknown flag {arg}", file=sys.stderr)
            return 2
        elif path is None:
            path = arg
        else:
            print("too many arguments", file=sys.stderr)
            return 2
    if path is None:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2

    seen = 0
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                print(f"FAIL: line {number}: blank line", file=sys.stderr)
                return 1
            error = validate_line(number, line)
            if error:
                print(f"FAIL: {error}", file=sys.stderr)
                return 1
            seen += 1

    if seen < min_lines:
        print(f"FAIL: {seen} lines in {path}, want >= {min_lines}",
              file=sys.stderr)
        return 1
    print(f"query log OK: {seen} valid lines in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
