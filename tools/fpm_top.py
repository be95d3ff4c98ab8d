#!/usr/bin/env python3
"""Live terminal dashboard for a running fpmd daemon.

Usage: fpm_top.py --endpoint=SPEC [--interval=SECONDS] [--once] [--json]

SPEC is a Unix socket path or HOST:PORT (a cluster node's TCP listener;
the same grammar fpm_client --endpoint accepts). --socket=PATH is kept
as an alias.

Speaks the daemon's newline-delimited JSON protocol directly: sends
{"op": "stats"} and {"op": "cluster_info"} every refresh and renders
the responses as a top-style dashboard — uptime, latency windows
(1s/10s/60s count/qps/p50/p99/max), scheduler queue depth and in-flight
queries with ages, cache and registry counters, per-dataset rows, the
stuck-job watchdog, and — on a cluster node — the cluster view: this
node's identity, per-peer health / RTT percentiles / owned-shard
counts, and the coordinator's routing counters (probe hits, forwards,
failovers, local fallbacks). A non-clustered daemon answers
cluster_info with enabled:false and the panel is simply omitted.

  --once      print a single snapshot and exit (CI / smoke tests)
  --json      dump the raw stats JSON instead of the dashboard
  --interval  refresh period in seconds (default 1.0)

Standard library only — runs on any CI python3.
"""

import argparse
import json
import socket
import sys
import time


def connect(endpoint, timeout):
    """Dials a Unix socket path or a HOST:PORT TCP endpoint."""
    if "/" in endpoint or ":" not in endpoint:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(endpoint)
        return sock
    host, port = endpoint.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=timeout)


def fetch(endpoint, op, timeout=10.0):
    """One request/response round-trip; returns the decoded object."""
    with connect(endpoint, timeout) as sock:
        sock.sendall(json.dumps({"op": op}).encode() + b"\n")
        buffer = b""
        while b"\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            buffer += chunk
    response = json.loads(buffer.split(b"\n", 1)[0])
    if not response.get("ok"):
        raise ValueError(f"{op} request failed: {response}")
    return response


def format_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GiB"


def render_cluster(cluster):
    """The cluster panel: identity, per-peer health, routing counters."""
    lines = []
    lines.append(f"cluster: self={cluster.get('self', '?')} "
                 f"replicas={cluster.get('replicas', 0)} "
                 f"vnodes={cluster.get('virtual_nodes', 0)}")
    peers = cluster.get("peers", [])
    if peers:
        lines.append("  peer                 health  fail  pings"
                     "   p50ms   p99ms  owned")
        for p in peers:
            marker = "*" if p.get("self") else " "
            health = "up" if p.get("healthy") else "DOWN"
            lines.append(
                f" {marker}{p.get('endpoint', '?'):<20} {health:>6} "
                f"{p.get('failures', 0):>5} {p.get('pings', 0):>6} "
                f"{p.get('rtt_p50_ms', 0.0):>7.2f} "
                f"{p.get('rtt_p99_ms', 0.0):>7.2f} "
                f"{p.get('datasets_owned', 0):>6}")
    c = cluster.get("counters", {})
    lines.append(f"  routing: remote={c.get('remote_queries', 0)} "
                 f"probe_hits={c.get('probe_hits', 0)} "
                 f"probe_misses={c.get('probe_misses', 0)} "
                 f"forwards={c.get('forwards', 0)} "
                 f"failovers={c.get('failovers', 0)} "
                 f"fallbacks={c.get('local_fallbacks', 0)}")
    lines.append(f"  serving: probe_hits={c.get('probe_hits_served', 0)} "
                 f"probe_misses={c.get('probe_misses_served', 0)}")
    return lines


def render(stats, cluster=None):
    """Returns the dashboard for one stats snapshot as a string."""
    lines = []
    uptime = stats.get("uptime_seconds", 0.0)
    watchdog = stats.get("watchdog", {})
    stuck = watchdog.get("stuck_now", 0)
    health = f"STUCK:{stuck}" if stuck else "healthy"
    lines.append(f"fpmd up {uptime:8.1f}s   [{health}]   "
                 f"watchdog sweeps={watchdog.get('sweeps', 0)} "
                 f"flagged={watchdog.get('flagged', 0)}")
    lines.append("")

    lines.append("  window   count      qps     p50ms     p99ms     maxms")
    for w in stats.get("windows", []):
        lines.append(f"  {w.get('window_s', 0):>5}s {w.get('count', 0):>7} "
                     f"{w.get('qps', 0.0):>8.1f} {w.get('p50_ms', 0.0):>9.2f} "
                     f"{w.get('p99_ms', 0.0):>9.2f} {w.get('max_ms', 0.0):>9.2f}")
    lines.append("")

    sched = stats.get("scheduler", {})
    lines.append(f"scheduler: queue={sched.get('queue_depth', 0)} "
                 f"running={sched.get('running', 0)} "
                 f"submitted={sched.get('submitted', 0)} "
                 f"completed={sched.get('completed', 0)} "
                 f"rejected={sched.get('rejected', 0)}")
    in_flight = sched.get("in_flight", [])
    for job in sorted(in_flight, key=lambda j: -j.get("age_seconds", 0.0)):
        lines.append(f"  in-flight query_id={job.get('query_id')} "
                     f"age={job.get('age_seconds', 0.0):.3f}s")
    lines.append("")

    cache = stats.get("cache", {})
    asked = (cache.get("hits", 0) + cache.get("dominated_hits", 0) +
             cache.get("cross_task_hits", 0) + cache.get("misses", 0))
    ratio = 100.0 * (asked - cache.get("misses", 0)) / asked if asked else 0.0
    lines.append(f"cache: {ratio:.0f}% served "
                 f"(hits={cache.get('hits', 0)} "
                 f"dominated={cache.get('dominated_hits', 0)} "
                 f"cross_task={cache.get('cross_task_hits', 0)} "
                 f"misses={cache.get('misses', 0)})  "
                 f"{cache.get('resident_entries', 0)} entries / "
                 f"{format_bytes(cache.get('resident_bytes', 0))}")

    registry = stats.get("registry", {})
    lines.append(f"registry: loads={registry.get('loads', 0)} "
                 f"hits={registry.get('hits', 0)} "
                 f"appends={registry.get('appends', 0)} "
                 f"evictions={registry.get('evictions', 0)}  "
                 f"{format_bytes(registry.get('resident_bytes', 0))} resident")
    datasets = registry.get("datasets", [])
    if datasets:
        lines.append("  id        versions     txns      bytes  path")
        for d in datasets:
            lines.append(f"  {d.get('id', '?'):<12} {d.get('versions', 0):>4} "
                         f"{d.get('live_transactions', 0):>8} "
                         f"{format_bytes(d.get('bytes', 0)):>10}  "
                         f"{d.get('path', '')}")
    if cluster and cluster.get("enabled"):
        lines.append("")
        lines.extend(render_cluster(cluster))
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], prog="fpm_top.py")
    parser.add_argument("--endpoint",
                        help="fpmd Unix socket path or cluster HOST:PORT")
    parser.add_argument("--socket", dest="endpoint",
                        help="alias for --endpoint")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="refresh period in seconds (default 1.0)")
    parser.add_argument("--once", action="store_true",
                        help="print one snapshot and exit")
    parser.add_argument("--json", action="store_true",
                        help="dump raw stats JSON instead of the dashboard")
    args = parser.parse_args(argv[1:])
    if not args.endpoint:
        parser.error("--endpoint (or --socket) is required")

    try:
        while True:
            stats = fetch(args.endpoint, "stats")
            cluster = fetch(args.endpoint, "cluster_info").get("cluster")
            if args.json:
                print(json.dumps(stats, sort_keys=True))
            elif args.once:
                print(render(stats, cluster))
            else:
                # Clear screen + home, like top(1).
                sys.stdout.write("\x1b[2J\x1b[H" + render(stats, cluster)
                                 + "\n")
                sys.stdout.flush()
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"fpm_top: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
