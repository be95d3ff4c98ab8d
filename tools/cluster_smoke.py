#!/usr/bin/env python3
"""End-to-end smoke test of fpmd cluster mode (DESIGN.md §19).

Usage: cluster_smoke.py FPMD_BINARY FPM_CLIENT_BINARY

Starts a 3-node cluster on loopback TCP (plus a plain single-node
reference daemon) over one shared dataset, then proves the routing
contract from the outside:

  1. every node answers ping on its Unix socket AND its cluster TCP
     listener (fpm_client --endpoint HOST:PORT — the shared dialer)
  2. cluster-info places the dataset on exactly --replicas=2 owners,
     identically from every node (placement is a pure function of the
     digest + peer list)
  3. a query sent to the NON-owner is forwarded: the answer is
     byte-identical (itemsets, supports, emission order) to the
     single-node reference, and carries peer=<the serving owner>
  4. the same query again is served by a remote cache probe: the
     response says cache=hit, the non-owner's probe_hits counter rises,
     some owner's probe_hits_served rises, and the owners mined exactly
     once between them (sum of fpm.service.cache.misses == 1; the
     non-owner mined nothing); the relayed reply line is the serving
     owner's own answer to the same query (same client trace id) byte
     for byte, except that "peer" is added and query_id is the
     non-owner's (timings masked); the non-owner's query log holds
     exactly one "relay" line for it, under the id its client got,
     naming the serving owner, the outcome, the count and the bytes
     relayed
  5. a raw shard_query line in mode "count" (a SON phase no node runs)
     gets the INVALID_ARGUMENT reply naming the one mode, "execute",
     and the same node still answers ping afterwards
  6. fpm_top.py renders the cluster panel against a live node over TCP
  7. SIGKILL the primary owner: the next query (fresh threshold, so no
     cache anywhere) still answers correctly via the surviving
     replica, the non-owner's failovers counter is >= 1, and
     cluster-info now reports the killed peer unhealthy; dialing the
     dead node's TCP port fails with the shared dialer's "dial ..."
     error
  8. clean shutdown of the survivors, and every node's query log
     (--query-log) passes tools/validate_query_log.py

Health pings are off (--ping-interval-s=0) on purpose: the smoke proves
failure discovery through real traffic (probe/forward failures mark
the peer unhealthy and fail over within one query), not through the
background pinger the unit tests cover. A pinger's first round runs as
the node starts, possibly before its peers listen; a peer it marks
unhealthy then is routed last until traffic reaches it, so step 3
could land on the replica and step 7 be answered from its cache
without a failover.

Standard library only — runs on any CI python3.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_client(client, endpoint, *args, allow_fail=False, raw=False):
    cmd = [client, f"--endpoint={endpoint}", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 and not allow_fail:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    if allow_fail:
        return proc
    lines = [line for line in proc.stdout.splitlines() if line]
    return lines if raw else [json.loads(line) for line in lines]


def raw_request(path, line):
    """Sends one request line over a Unix socket, bypassing fpm_client's
    own validation, and returns the parsed reply (None if the daemon
    closed the connection without answering)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(30)
        s.connect(path)
        s.sendall(line.encode() + b"\n")
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            reply += chunk
    return json.loads(reply) if reply.strip() else None


def mined_fields(response):
    """The parts of a query response that must not depend on which node
    answered: the task, the count, and the itemset listing in emission
    order."""
    return json.dumps({"task": response.get("task"),
                       "num_results": response.get("num_results"),
                       "itemsets": response.get("itemsets")})


def without_timings_and_id(line):
    """A reply line with the values of mine_ms, queue_ms and query_id cut
    out: two runs take different times, and each node numbers its own
    queries."""
    return re.sub(r'"(mine_ms|queue_ms|query_id)":[^,}]*', r'"\1":#', line)


def relayed_from(owner, line):
    """A node's own answer as a non-owner relays it: the same bytes with
    "peer" naming the node, in its sorted slot before "query_id"."""
    at = line.index('"query_id":')
    return line[:at] + f'"peer":"{owner}",' + line[at:]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    # The directory holds the nodes' dataset, sockets and query logs; it
    # goes on every exit, a failed check's included.
    with tempfile.TemporaryDirectory(prefix="fpm_cluster_smoke_") as tmp:
        return smoke(argv[1], argv[2], tmp)


def smoke(fpmd, client, tmp):
    dataset = os.path.join(tmp, "cluster.dat")
    with open(dataset, "w", encoding="utf-8") as f:
        for row in ["1 2 3", "1 2", "1 3", "2 3", "1 2 3 4", "2 3 4"]:
            f.write(row + "\n")

    ports = [free_port() for _ in range(3)]
    peers = [f"127.0.0.1:{p}" for p in ports]
    cluster_arg = ",".join(peers)
    sockets = [os.path.join(tmp, f"n{i}.sock") for i in range(3)]
    ref_socket = os.path.join(tmp, "ref.sock")
    logs = [os.path.join(tmp, f"n{i}.log") for i in range(3)]
    ref_log = os.path.join(tmp, "ref.log")

    daemons = []
    try:
        for i in range(3):
            daemons.append(subprocess.Popen(
                [fpmd, f"--socket={sockets[i]}", "--threads=2",
                 f"--cluster={cluster_arg}", f"--self={peers[i]}",
                 "--replicas=2", "--ping-interval-s=0",
                 f"--query-log={logs[i]}"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
        reference = subprocess.Popen(
            [fpmd, f"--socket={ref_socket}", "--threads=2",
             f"--query-log={ref_log}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        daemons.append(reference)

        for path, daemon in zip(sockets + [ref_socket], daemons):
            for _ in range(200):
                if os.path.exists(path):
                    break
                if daemon.poll() is not None:
                    fail(f"fpmd exited early:\n{daemon.stderr.read()}")
                time.sleep(0.05)
            else:
                fail(f"fpmd never created {path}")

        # 1. Liveness on both listeners; --endpoint takes either form.
        for i in range(3):
            for endpoint in (sockets[i], peers[i]):
                if run_client(client, endpoint, "ping") != [{"ok": True}]:
                    fail(f"ping via {endpoint} failed")

        # 2. Identical placement from every node.
        placements = []
        for i in range(3):
            info = run_client(client, sockets[i], "cluster-info",
                              dataset)[0]["cluster"]
            if not info.get("enabled"):
                fail(f"node {i} reports cluster disabled")
            if len(info.get("peers", [])) != 3:
                fail(f"node {i} sees {len(info.get('peers', []))} peers")
            placements.append(info["placement"])
        if len({json.dumps(p, sort_keys=True) for p in placements}) != 1:
            fail(f"nodes disagree on placement: {placements}")
        owners = placements[0]["owners"]
        if len(owners) != 2 or not set(owners) <= set(peers):
            fail(f"placement owners = {owners}, want 2 of {peers}")
        non_owner = next(i for i in range(3) if peers[i] not in owners)
        by_peer = {peers[i]: i for i in range(3)}
        print(f"placement: digest {placements[0]['digest']} -> {owners}, "
              f"non-owner {peers[non_owner]}")

        # 3. Forwarded query == single-node reference, byte for byte.
        reference_q2 = run_client(client, ref_socket, "query", dataset,
                                  "2")[0]
        forwarded = run_client(client, sockets[non_owner], "query", dataset,
                               "2")[0]
        if forwarded.get("peer") not in owners:
            fail(f"forwarded query peer = {forwarded.get('peer')}, "
                 f"want one of {owners}")
        if forwarded.get("cache") != "miss":
            fail(f"first forwarded query cache = {forwarded.get('cache')}, "
                 "want 'miss'")
        if mined_fields(forwarded) != mined_fields(reference_q2):
            fail("forwarded result differs from the single-node reference:"
                 f"\n  cluster:   {mined_fields(forwarded)}"
                 f"\n  reference: {mined_fields(reference_q2)}")

        # 4. Repeat: answered by a remote cache probe, nobody re-mines.
        probed_line = run_client(client, sockets[non_owner], "query",
                                 dataset, "2", "--trace-id=smoke-4",
                                 raw=True)[0]
        probed = json.loads(probed_line)
        if probed.get("cache") != "hit" or probed.get("peer") not in owners:
            fail(f"repeat query = cache:{probed.get('cache')} "
                 f"peer:{probed.get('peer')}, want a remote cache hit")
        if mined_fields(probed) != mined_fields(reference_q2):
            fail("probe-served result differs from the reference")
        info = run_client(client, sockets[non_owner], "cluster-info")[0]
        counters = info["cluster"]["counters"]
        if counters.get("probe_hits", 0) < 1:
            fail(f"non-owner probe_hits = {counters.get('probe_hits')}, "
                 "want >= 1")
        served = sum(
            run_client(client, sockets[by_peer[o]],
                       "cluster-info")[0]["cluster"]["counters"]
            .get("probe_hits_served", 0) for o in owners)
        if served < 1:
            fail(f"owners' probe_hits_served sum = {served}, want >= 1")
        # "No second mine": cache probes never submit scheduler jobs,
        # a mine always does — so across both owners exactly one job
        # ran for the two queries, and the non-owner ran none (it only
        # routed). (fpm.service.cache.misses would over-count here:
        # every probe lookup that finds nothing is a counted miss.)
        owner_jobs = sum(
            run_client(client, sockets[by_peer[o]], "stats")[0]
            .get("scheduler", {}).get("completed", 0) for o in owners)
        if owner_jobs != 1:
            fail(f"owners ran {owner_jobs} mining jobs for the repeated "
                 "query, want exactly 1 (the repeat must come from the "
                 "cache)")
        non_owner_jobs = run_client(
            client, sockets[non_owner], "stats")[0].get(
            "scheduler", {}).get("completed", 0)
        if non_owner_jobs != 0:
            fail(f"non-owner ran {non_owner_jobs} mining jobs, want 0 "
                 "(it should only route)")
        # The relay rewrites only the envelope: ask the serving owner
        # itself (a cache hit there too) and compare the raw lines.
        direct_line = run_client(client, sockets[by_peer[probed["peer"]]],
                                 "query", dataset, "2", "--trace-id=smoke-4",
                                 raw=True)[0]
        expected = relayed_from(probed["peer"],
                                without_timings_and_id(direct_line))
        if without_timings_and_id(probed_line) != expected:
            fail("relayed line differs from the owner's own answer:"
                 f"\n  relayed: {probed_line}\n  owner:   {direct_line}")
        # The entry logs the relayed query once, under the client's id.
        with open(logs[non_owner], encoding="utf-8") as f:
            relays = [entry for entry in map(json.loads, f)
                      if entry.get("query_id") == probed["query_id"]]
        want = {"op": "relay", "peer": probed["peer"], "cache": "hit",
                "num_results": probed["num_results"],
                "bytes_out": len(probed_line.encode()),
                "trace_id": "smoke-4", "status": "ok"}
        if (len(relays) != 1 or
                any(relays[0].get(k) != v for k, v in want.items()) or
                "remote_ms" not in relays[0]):
            fail(f"non-owner's log lines for query {probed['query_id']}: "
                 f"{relays}, want one with {want} and a remote_ms")

        # 5. A SON phase mode is refused; the node serves on.
        primary_socket = sockets[by_peer[owners[0]]]
        count_reply = raw_request(primary_socket, json.dumps({
            "op": "shard_query", "mode": "count", "dataset": dataset,
            "min_support": 2, "partition": {"index": 0, "count": 1},
            "candidates": [[1, 2], [2, 1]]}))
        if count_reply != {"error": {
                "code": "INVALID_ARGUMENT",
                "message": "op 'shard_query': field 'mode': expected "
                           "'execute'"}, "ok": False}:
            fail(f"shard_query mode count replied {count_reply!r}, want "
                 "INVALID_ARGUMENT naming the one mode, 'execute'")
        if run_client(client, primary_socket, "ping") != [{"ok": True}]:
            fail("owner stopped answering ping after a refused shard_query")

        # 6. The dashboard renders the cluster panel over TCP.
        tools_dir = os.path.dirname(os.path.abspath(__file__))
        top = subprocess.run(
            [sys.executable, os.path.join(tools_dir, "fpm_top.py"),
             f"--endpoint={peers[non_owner]}", "--once"],
            capture_output=True, text=True, timeout=60)
        if top.returncode != 0:
            fail(f"fpm_top.py --once failed ({top.returncode}):\n"
                 f"{top.stdout}{top.stderr}")
        for needle in (f"cluster: self={peers[non_owner]}", "routing:",
                       owners[0]):
            if needle not in top.stdout:
                fail(f"fpm_top output missing {needle!r}:\n{top.stdout}")

        # 7. Kill the primary owner; the replica answers, failover is
        # counted, and the corpse is marked unhealthy.
        primary = owners[0]
        survivor = owners[1]
        daemons[by_peer[primary]].send_signal(signal.SIGKILL)
        daemons[by_peer[primary]].wait(timeout=30)

        failover_q3 = run_client(client, sockets[non_owner], "query",
                                 dataset, "3")[0]
        reference_q3 = run_client(client, ref_socket, "query", dataset,
                                  "3")[0]
        if mined_fields(failover_q3) != mined_fields(reference_q3):
            fail("post-kill result differs from the single-node reference")
        if failover_q3.get("peer") != survivor:
            fail(f"post-kill query peer = {failover_q3.get('peer')}, "
                 f"want the survivor {survivor}")
        info = run_client(client, sockets[non_owner], "cluster-info")[0]
        cluster = info["cluster"]
        if cluster["counters"].get("failovers", 0) < 1:
            fail(f"failovers = {cluster['counters'].get('failovers')}, "
                 "want >= 1 after killing the primary owner")
        dead_rows = [p for p in cluster["peers"] if p["endpoint"] == primary]
        if len(dead_rows) != 1 or dead_rows[0].get("healthy"):
            fail(f"killed owner not reported unhealthy: {dead_rows}")

        # The dead node's TCP port refuses with the shared dialer's
        # error shape (the same message fpm_client unit tests pin).
        refused = run_client(client, primary, "ping", allow_fail=True)
        if refused.returncode == 0 or not refused.stderr.startswith(
                f"dial {primary}: "):
            fail(f"dial to dead node: rc={refused.returncode}, "
                 f"stderr={refused.stderr!r}, want a 'dial {primary}: ...' "
                 "error")

        # 8. Clean shutdown of the survivors.
        for i in range(3):
            if i == by_peer[primary]:
                continue
            run_client(client, sockets[i], "shutdown")
        run_client(client, ref_socket, "shutdown")
        for i, daemon in enumerate(daemons):
            if daemon.poll() is None and daemon.wait(timeout=30) != 0:
                fail(f"daemon {i} exited {daemon.returncode} after shutdown")
        validator = os.path.join(tools_dir, "validate_query_log.py")
        for log in logs + [ref_log]:
            checked = subprocess.run([sys.executable, validator, log],
                                     capture_output=True, text=True,
                                     timeout=60)
            if checked.returncode != 0:
                fail(f"{log}: {checked.stderr.strip()}")
    finally:
        for daemon in daemons:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    print("cluster smoke: OK (3 nodes, shared placement, forwarded query "
          "byte-identical, repeat served by remote cache probe with one "
          "mine total and relayed byte for byte, shard_query mode count "
          "refused while the node serves on, dashboard rendered, failover "
          "after SIGKILL answered by the replica with failovers >= 1, "
          "clean shutdown, every query log valid)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
