#!/usr/bin/env python3
"""End-to-end smoke test of the fpmd daemon and its result cache.

Usage: service_smoke.py FPMD_BINARY FPM_CLIENT_BINARY FPM_PACK_BINARY
       service_smoke.py --record-session FPMD_BINARY

Starts fpmd on a temp Unix socket with a tiny generated dataset, then
drives it with fpm_client the way a real deployment would:

  1. the same query three times       -> 1 miss + 2 exact cache hits
  2. the query at a higher threshold  -> a support-dominance hit
  3. a mixed-task batch (closed, maximal, top-k, one bad dataset)
     -> one tagged line per entry, the bad one ok:false, the rest
        derived cross-task from the cached frequent run
  4. a rules query
  5. "metrics"                        -> the daemon's own counters
  6. live ingestion: "open" a handle, "append" a delta, re-query by
     id                               -> the parent version's cached
        frequent run reseeds the child (cache: "reseeded"), and
        "dataset_info" shows the two-version chain
  7. out-of-core: fpm_pack converts the dataset to the mmap-backed
     packed format, the daemon opens it by magic sniff, "dataset_info"
     reports storage "packed", and the first query against it is a
     cache hit — the packed header carries the digest of the FIMI
     bytes, so both storage backends share one cache entry
  8. observability: "stats" shows an empty queue after the drain,
     "metrics-text" renders a Prometheus exposition, fpm_top.py --once
     renders a dashboard against the live daemon, and the daemon's
     --query-log file holds one schema-valid line per query with the
     query_ids the responses echoed
  9. the retired v1 "mine" op on a raw connection -> INVALID_ARGUMENT
     "unknown op 'mine'", and the same connection still answers a ping
 10. a request line of kMaxLineBytes + 1 bytes with no newline -> the
     exact RESOURCE_EXHAUSTED line, then a close; a connection opened
     before it and a new one both still answer pings
 11. "shutdown"                       -> clean exit
 12. connection churn, on a second fpmd: 5,000 sequential ping
     connections grow its /proc/PID/maps by fewer than 100 lines and
     its VmRSS by less than 16 MB (each connection's thread is joined
     when it ends)
 13. out of file descriptors, on a third fpmd limited to 64 fds: idle
     connections until a connect stalls; once they close, it answers a
     ping (a failed accept() is not a shutdown)
 14. a stand-in daemon answering with kMaxLineBytes + 1 bytes and no
     newline -> fpm_client prints "reply exceeds 268435456 bytes" and
     exits 1
 15. the wire transcript, on a one-node cluster fpmd: one scripted
     session (queries of every task, count_only and trace_id, a batch
     with a bad entry, open/append/query by id/expire/window/
     dataset_info, cluster_info with and without a dataset, cache_probe
     hit and miss, shard_query execute/mine/count, stats, decode errors
     and an unknown op) whose replies, with SESSION_MASKED_KEYS masked,
     must equal tools/service_session.txt byte for byte. That file pins
     every byte fpmd writes; re-record it (service_smoke.py
     --record-session FPMD) only together with a CHANGES.md entry that
     names what changed on the wire and why.
 16. a connection thread that cannot start, on a fourth fpmd: with its
     address space capped just above what it maps, connections held
     open use up the thread stacks glibc keeps for reuse until one
     connection is closed unanswered; the daemon stays up, the held
     connections still answer, and with the cap lifted a new connection
     is served

and asserts, from the responses AND the daemon's metrics, that the
repeated and dominated queries were served from the cache without
re-mining (fpm.service.cache.hits / .dominated_hits nonzero, .misses
exactly 1), that every task family was exercised
(fpm.service.tasks.* >= 1), that the task queries derived from
the frequent cache (.cross_task_hits >= 1), and that the post-append
query was answered by delta recounting (.reseeds >= 1). Exits nonzero
on any failure.

Standard library only — runs on any CI python3.
"""

import json
import os
import re
import resource
import socket
import subprocess
import sys
import tempfile
import threading
import time


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_client(client, socket_path, *args, allow_fail=False):
    cmd = [client, f"--socket={socket_path}", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 and not allow_fail:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# The line bound of fpm/service/line_io.h.
MAX_LINE_BYTES = 256 << 20


def wait_for_socket(daemon, socket_path):
    for _ in range(100):
        if os.path.exists(socket_path):
            return
        if daemon.poll() is not None:
            fail(f"fpmd exited early:\n{daemon.stderr.read()}")
        time.sleep(0.05)
    fail("fpmd never created its socket")


def read_to_close(sock):
    """Every byte the peer sends until it closes the connection."""
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def connect_or_stall(socket_path, stall_seconds):
    """A connected socket, or None once connects have failed for
    stall_seconds because the listen backlog is full."""
    give_up = time.monotonic() + stall_seconds
    while True:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(30)
        try:
            sock.connect(socket_path)
            return sock
        except BlockingIOError:
            sock.close()
            if time.monotonic() > give_up:
                return None
            time.sleep(0.01)


def ping(socket_path, backlog_wait_s=0):
    """One ping on a new connection; the raw reply bytes. A full listen
    backlog is retried for up to backlog_wait_s."""
    sock = connect_or_stall(socket_path, backlog_wait_s)
    if sock is None:
        fail(f"the listen backlog stayed full for {backlog_wait_s} s")
    with sock:
        sock.sendall(b'{"op":"ping"}\n')
        sock.shutdown(socket.SHUT_WR)
        return read_to_close(sock)


def maps_and_rss_kb(pid):
    with open(f"/proc/{pid}/maps", encoding="utf-8") as f:
        maps = sum(1 for _ in f)
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        rss_kb = next(int(line.split()[1]) for line in f
                      if line.startswith("VmRSS:"))
    return maps, rss_kb


def shut_down(daemon, socket_path, what):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30)
        sock.connect(socket_path)
        sock.sendall(b'{"op":"shutdown"}\n')
        read_to_close(sock)
    if daemon.wait(timeout=30) != 0:
        fail(f"{what} fpmd exited {daemon.returncode} after shutdown")


def check_connection_churn(fpmd, tmp):
    """Step 12: fpmd joins each connection's thread once the connection
    ends, so thousands of short connections leave its memory where it
    was (without the join, each kept a thread stack: 2 maps, 16 KB)."""
    socket_path = os.path.join(tmp, "fpmd-churn.sock")
    # ASan's quarantine holds freed memory back on purpose (256 MB by
    # default), which would read as growth here, so this daemon runs
    # without it. Builds without ASan ignore ASAN_OPTIONS.
    env = dict(os.environ)
    env["ASAN_OPTIONS"] = ":".join(
        filter(None, [env.get("ASAN_OPTIONS"), "quarantine_size_mb=0"]))
    daemon = subprocess.Popen(
        [fpmd, f"--socket={socket_path}", "--threads=1"], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        wait_for_socket(daemon, socket_path)
        ping(socket_path)
        maps_before, rss_before = maps_and_rss_kb(daemon.pid)
        for i in range(5000):
            reply = ping(socket_path)
            if reply != b'{"ok":true}\n':
                fail(f"churn ping {i} got {reply!r}")
        maps_after, rss_after = maps_and_rss_kb(daemon.pid)
        if maps_after - maps_before >= 100:
            fail(f"5000 connections grew fpmd's maps from {maps_before} "
                 f"to {maps_after} lines")
        if rss_after - rss_before >= 16 * 1024:
            fail(f"5000 connections grew fpmd's VmRSS from {rss_before} "
                 f"to {rss_after} kB")
        shut_down(daemon, socket_path, "churned")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def check_fd_exhaustion(fpmd, tmp):
    """Step 13: running out of fds pauses accepting; it never ends it.
    At 64 fds, idle connections exhaust fpmd's fds and then its listen
    backlog; once they close, it must answer a ping."""
    socket_path = os.path.join(tmp, "fpmd-fds.sock")
    daemon = subprocess.Popen(
        [fpmd, f"--socket={socket_path}", "--threads=1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_NOFILE,
                                              (64, 64)))
    idle = []
    try:
        wait_for_socket(daemon, socket_path)
        # One connection served end to end first. UBSan's vptr check
        # probes memory through a pipe() the first time it meets a type;
        # with no fd free that probe fails and it reports the thread
        # state fpmd destroys as having an invalid vptr.
        if ping(socket_path) != b'{"ok":true}\n':
            fail("fd-limited fpmd did not answer its first ping")
        # Idle connections use up fpmd's fds, then fill the listen
        # backlog. A backlog full for a moment drains while fpmd
        # accepts, so only a connect failing for a second is a stall.
        while len(idle) < 1000:
            sock = connect_or_stall(socket_path, stall_seconds=1)
            if sock is None:
                break
            idle.append(sock)
        else:
            fail("1000 idle connections and no connect stalled")
        if len(idle) <= 64:
            fail(f"a connect stalled after {len(idle)} connections, "
                 "before fpmd could have run out of its 64 fds")
        for sock in idle:
            sock.close()
        idle = []
        # The closed connections hold the backlog until fpmd accepts
        # them, so the ping may wait for it to drain.
        try:
            reply = ping(socket_path, backlog_wait_s=30)
        except OSError as e:
            fail(f"fpmd stopped serving after running out of fds: {e}")
        if reply != b'{"ok":true}\n':
            fail(f"ping after running out of fds got {reply!r}")
        if daemon.poll() is not None:
            fail(f"fpmd exited {daemon.returncode} after running out of fds")
        shut_down(daemon, socket_path, "fd-limited")
    finally:
        for sock in idle:
            sock.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def vm_size_kb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmSize:"))


def check_thread_start_failure(fpmd, tmp):
    """Step 16: a connection whose thread cannot start is closed, and
    the daemon keeps serving. The soft RLIMIT_AS is lowered to 1 MB above
    the daemon's mapped size, so a new thread stack (8 MB) can no longer
    be mapped; stacks of joined threads that glibc keeps cached still
    can be reused, so connections are held open until one gets no
    thread. Starts at most a handful of threads."""
    socket_path = os.path.join(tmp, "fpmd-threads.sock")
    daemon = subprocess.Popen(
        [fpmd, f"--socket={socket_path}", "--threads=1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    held = []
    try:
        wait_for_socket(daemon, socket_path)
        if ping(socket_path) != b'{"ok":true}\n':
            fail("thread-limited fpmd did not answer its first ping")
        unlimited = resource.prlimit(daemon.pid, resource.RLIMIT_AS)
        cap = (vm_size_kb(daemon.pid) + 1024) * 1024
        resource.prlimit(daemon.pid, resource.RLIMIT_AS,
                         (cap, unlimited[1]))
        refused = False
        while len(held) < 8 and not refused:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30)
            sock.connect(socket_path)
            try:
                # fpmd may close the connection before the ping is out.
                sock.sendall(b'{"op":"ping"}\n')
                reply = sock.recv(64)
            except (BrokenPipeError, ConnectionResetError):
                reply = b""
            if reply == b'{"ok":true}\n':
                held.append(sock)
            elif reply == b"":
                refused = True
                sock.close()
            else:
                fail(f"capped fpmd answered a ping with {reply!r}")
        if not refused:
            fail(f"{len(held)} connections held under a capped address "
                 "space and every thread started")
        for sock in held:
            try:
                sock.sendall(b'{"op":"ping"}\n')
                reply = sock.recv(64)
            except OSError as e:
                reply = repr(e)
            if reply != b'{"ok":true}\n':
                daemon.wait(timeout=30)
                fail(f"a held connection got {reply} after another "
                     "connection's thread could not start; fpmd exited "
                     f"{daemon.returncode}:\n{daemon.stderr.read()}")
        if daemon.poll() is not None:
            fail(f"fpmd exited {daemon.returncode} when a connection "
                 f"thread could not start:\n{daemon.stderr.read()}")
        resource.prlimit(daemon.pid, resource.RLIMIT_AS, unlimited)
        for sock in held:
            sock.close()
        held = []
        if ping(socket_path) != b'{"ok":true}\n':
            fail("fpmd did not serve a new connection once its thread "
                 "could start again")
        shut_down(daemon, socket_path, "thread-limited")
    finally:
        for sock in held:
            sock.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def check_client_refuses_long_reply(client, tmp):
    """Step 14: fpm_client gives up on a reply past the line bound."""
    socket_path = os.path.join(tmp, "stand-in.sock")
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
        listener.bind(socket_path)
        listener.listen(1)
        listener.settimeout(30)

        def serve():
            try:
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(120)
                    conn.recv(4096)
                    block = b"x" * (1 << 20)
                    for _ in range(MAX_LINE_BYTES // len(block)):
                        conn.sendall(block)
                    conn.sendall(b"x")
                    read_to_close(conn)
            except OSError:
                pass  # the client hung up first: it fails the check below

        server = threading.Thread(target=serve)
        server.start()
        try:
            proc = subprocess.run([client, f"--socket={socket_path}", "ping"],
                                  capture_output=True, text=True,
                                  timeout=120)
        except subprocess.TimeoutExpired:
            fail("fpm_client took over 120 s on a 256 MiB reply")
        finally:
            server.join()
    if proc.returncode != 1 or \
            proc.stderr.strip() != "reply exceeds 268435456 bytes":
        fail(f"fpm_client on an over-long reply exited {proc.returncode} "
             f"with stderr {proc.stderr.strip()!r}")


SESSION_TRANSCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "service_session.txt")

# Reply values that depend on timing: how long a query queued and mined,
# the daemon's uptime, job ages, watchdog sweeps and the latency windows
# (a window's count drops once a query ages out of it). Every other
# byte of every reply is compared.
SESSION_MASKED_KEYS = ["age_seconds", "count", "max_ms", "mine_ms", "p50_ms",
                       "p99_ms", "qps", "queue_ms", "sweeps",
                       "uptime_seconds"]
SESSION_MASK = re.compile(
    '"(%s)":-?[0-9][0-9.eE+-]*' % "|".join(SESSION_MASKED_KEYS))


def session_requests(dataset):
    """The scripted session: (request line, reply line count) pairs.
    $DIGEST stands for the content digest the first reply carries."""
    def line(**fields):
        return json.dumps(fields, separators=(",", ":"))

    def query(**fields):
        return line(op="query", dataset=dataset, **fields)

    yield query(min_support=2), 1
    yield query(min_support=2, task="closed"), 1
    yield query(min_support=2, task="maximal"), 1
    yield query(min_support=2, task="top_k", k=3), 1
    yield query(min_support=2, task="rules", min_confidence=0.6), 1
    yield query(min_support=3, count_only=True), 1
    yield query(min_support=2, trace_id="session-1"), 1
    yield line(op="batch", queries=[
        {"dataset": dataset, "min_support": 3, "task": "closed"},
        {"dataset": dataset + ".missing", "min_support": 2},
        {"dataset": dataset},
        {"dataset": dataset, "min_support": 2, "task": "top_k", "k": 2},
    ]), 4
    yield line(op="open", dataset=dataset), 1
    yield line(op="append", id="ds-1",
               transactions=[[1, 2], [2, 3, 4]], timestamps=[1.5, 2.5]), 1
    yield line(op="query", id="ds-1", min_support=2), 1
    yield line(op="query", id="ds-1", version=1, min_support=3), 1
    yield line(op="expire", id="ds-1", count=1), 1
    yield line(op="window", id="ds-1", last_n=5), 1
    yield line(op="dataset_info", id="ds-1"), 1
    yield line(op="cluster_info"), 1
    yield line(op="cluster_info", dataset=dataset), 1
    yield line(op="cache_probe", digest="$DIGEST", min_support=2,
               algorithm="lcm", patterns="all"), 1
    yield line(op="cache_probe", digest="$DIGEST", min_support=1,
               algorithm="lcm", patterns="all"), 1
    yield line(op="shard_query", mode="execute", dataset=dataset,
               min_support=2, task="closed"), 1
    yield line(op="shard_query", mode="mine", dataset=dataset,
               min_support=2, partition={"index": 0, "count": 2}), 1
    yield line(op="shard_query", mode="count", dataset=dataset,
               min_support=2, partition={"index": 1, "count": 2},
               candidates=[[1], [2, 3], [4]]), 1
    yield '{"op":"stats"}', 1
    yield "not json", 1
    yield "[1,2]", 1
    yield '{"op":7}', 1
    yield '{"op":"query","dataset":"x.dat","min_support":1.5}', 1
    yield line(op="shard_query", mode="count", dataset=dataset,
               min_support=2, partition={"index": 0, "count": 1},
               candidates=[[1, 1]]), 1
    yield '{"op":"explode"}', 1
    yield '{"op":"ping"}', 1


def free_tcp_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def run_session(fpmd, tmp):
    """Step 15: replays the scripted session on a one-node cluster and
    returns its transcript: each request after "> ", each reply after
    "< " with SESSION_MASKED_KEYS masked, the temp directory written as
    $TMP and the node's endpoint as $SELF. A batch's lines arrive in
    completion order and are listed by id."""
    dataset = os.path.join(tmp, "session.dat")
    with open(dataset, "w", encoding="utf-8") as f:
        for row in ["1 2 3", "1 2", "1 3", "2 3", "1 2 3 4", "2 3 4",
                    "1 2 4"]:
            f.write(row + "\n")
    socket_path = os.path.join(tmp, "fpmd-session.sock")
    self_endpoint = f"127.0.0.1:{free_tcp_port()}"
    daemon = subprocess.Popen(
        [fpmd, f"--socket={socket_path}", "--threads=2",
         f"--cluster={self_endpoint}", f"--self={self_endpoint}",
         "--replicas=1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    transcript = []
    try:
        wait_for_socket(daemon, socket_path)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock, \
                sock.makefile("rb") as reader:
            sock.settimeout(60)
            sock.connect(socket_path)

            def exchange(request, replies):
                sock.sendall(request.encode() + b"\n")
                return [reader.readline().rstrip(b"\n").decode()
                        for _ in range(replies)]

            digest = None
            for request, replies in session_requests(dataset):
                if digest is not None:
                    request = request.replace("$DIGEST", digest)
                if request == '{"op":"stats"}':
                    # Let the scheduler retire the last job first: a
                    # reply can reach the client before the runner
                    # counts its job completed.
                    for _ in range(200):
                        stats = json.loads(exchange(request, 1)[0])
                        if stats["scheduler"]["running"] == 0:
                            break
                        time.sleep(0.01)
                lines = exchange(request, replies)
                if digest is None:
                    digest = json.loads(lines[0])["digest"]
                if replies > 1:
                    lines.sort(key=lambda l: json.loads(l)["id"])
                transcript.append("> " + request)
                transcript.extend("< " + l for l in lines)
        shut_down(daemon, socket_path, "session")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    def mask(text):
        text = text.replace(tmp, "$TMP").replace(self_endpoint, "$SELF")
        if text.startswith("< "):
            text = SESSION_MASK.sub(r'"\1":*', text)
        return text

    return [mask(l) for l in transcript]


def check_session(fpmd, tmp):
    with open(SESSION_TRANSCRIPT, encoding="utf-8") as f:
        want = f.read().splitlines()
    got = run_session(fpmd, tmp)
    if got != want:
        for i, (g, w) in enumerate(zip(got + [""] * len(want),
                                       want + [""] * len(got))):
            if g != w:
                fail(f"session transcript differs at line {i + 1} of "
                     f"{SESSION_TRANSCRIPT}:\n  want {w}\n  got  {g}")


def main(argv):
    if len(argv) == 3 and argv[1] == "--record-session":
        tmp = tempfile.mkdtemp(prefix="fpm_service_session_")
        with open(SESSION_TRANSCRIPT, "w", encoding="utf-8") as f:
            f.write("\n".join(run_session(argv[2], tmp)) + "\n")
        print(f"recorded {SESSION_TRANSCRIPT}")
        return 0
    if len(argv) != 4:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    fpmd, client, fpm_pack = argv[1], argv[2], argv[3]

    tmp = tempfile.mkdtemp(prefix="fpm_service_smoke_")
    dataset = os.path.join(tmp, "smoke.dat")
    # Dense enough that thresholds 2 and 3 give different answers.
    with open(dataset, "w", encoding="utf-8") as f:
        for row in ["1 2 3", "1 2", "1 3", "2 3", "1 2 3 4", "2 3 4"]:
            f.write(row + "\n")
    socket_path = os.path.join(tmp, "fpmd.sock")
    query_log = os.path.join(tmp, "query.log")

    daemon = subprocess.Popen(
        [fpmd, f"--socket={socket_path}", "--threads=2",
         f"--query-log={query_log}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        wait_for_socket(daemon, socket_path)

        pong = run_client(client, socket_path, "ping")
        if pong != [{"ok": True}]:
            fail(f"ping got {pong}")

        # 1. Repeated identical query: miss, then exact hits.
        repeated = run_client(client, socket_path, "query", dataset, "2",
                              "--repeat=3")
        outcomes = [r.get("cache") for r in repeated]
        if outcomes != ["miss", "hit", "hit"]:
            fail(f"repeated query outcomes {outcomes}, "
                 "want ['miss', 'hit', 'hit']")
        if len({json.dumps(r.get("itemsets")) for r in repeated}) != 1:
            fail("repeated responses returned different itemsets")

        # 2. Higher threshold: answered by dominance, not re-mined.
        dominated = run_client(client, socket_path, "query", dataset, "3")
        if dominated[0].get("cache") != "dominated":
            fail(f"higher-threshold query got cache="
                 f"{dominated[0].get('cache')}, want 'dominated'")
        if dominated[0]["num_results"] >= repeated[0]["num_results"]:
            fail("raising the threshold did not shrink the answer")

        # 3. A mixed-task batch: one tagged response line per entry,
        # errors isolated per query. The task queries ask at the same
        # threshold the frequent run already cached, so each first ask
        # is a cross-task derivation, not a re-mine.
        batch_file = os.path.join(tmp, "queries.jsonl")
        entries = [
            {"dataset": dataset, "min_support": 2, "task": "closed"},
            {"dataset": dataset, "min_support": 2, "task": "maximal"},
            {"dataset": dataset, "min_support": 2, "task": "top_k",
             "k": 3},
            {"dataset": os.path.join(tmp, "no_such.dat"),
             "min_support": 2},
        ]
        with open(batch_file, "w", encoding="utf-8") as f:
            for entry in entries:
                f.write(json.dumps(entry) + "\n")
        # The client exits nonzero because one entry fails — expected.
        batch = run_client(client, socket_path, "batch", batch_file,
                           allow_fail=True)
        if len(batch) != len(entries):
            fail(f"batch returned {len(batch)} lines, "
                 f"want {len(entries)}")
        by_id = {r.get("id"): r for r in batch}
        if sorted(by_id) != list(range(len(entries))):
            fail(f"batch ids {sorted(by_id)}, "
                 f"want {list(range(len(entries)))}")
        for i, task in [(0, "closed"), (1, "maximal"), (2, "top_k")]:
            r = by_id[i]
            if not r.get("ok") or r.get("task") != task:
                fail(f"batch entry {i} = {r}, want ok {task}")
            if r.get("cache") != "cross_task":
                fail(f"batch {task} got cache={r.get('cache')}, "
                     "want 'cross_task' (derived from the frequent run)")
        if by_id[3].get("ok") is not False or "error" not in by_id[3]:
            fail(f"bad-dataset entry = {by_id[3]}, want ok:false + error")
        if by_id[2].get("num_results") != 3:
            fail(f"top-k returned {by_id[2].get('num_results')} results, "
                 "want exactly k=3")

        # 4. Rules as a first-class verb over the query op.
        rules = run_client(client, socket_path, "query", dataset, "2",
                           "--task=rules", "--min-confidence=0.5")[0]
        if not rules.get("ok") or rules.get("task") != "rules":
            fail(f"rules query = {rules}")
        if not rules.get("rules"):
            fail("rules query returned no rules")

        # 5. The daemon's own counters agree.
        metrics = run_client(client, socket_path, "metrics")[0]
        counters = metrics.get("counters", {})
        checks = {
            "fpm.service.cache.hits": lambda v: v >= 2,
            "fpm.service.cache.dominated_hits": lambda v: v >= 1,
            "fpm.service.cache.cross_task_hits": lambda v: v >= 1,
            "fpm.service.cache.misses": lambda v: v == 1,
            "fpm.service.registry.loads": lambda v: v == 1,
            "fpm.service.tasks.frequent": lambda v: v >= 1,
            "fpm.service.tasks.closed": lambda v: v >= 1,
            "fpm.service.tasks.maximal": lambda v: v >= 1,
            "fpm.service.tasks.top_k": lambda v: v >= 1,
            "fpm.service.tasks.rules": lambda v: v >= 1,
        }
        for name, ok in checks.items():
            value = counters.get(name)
            if value is None or not ok(value):
                fail(f"counter {name} = {value} fails its check "
                     f"(counters: { {k: v for k, v in counters.items() if k.startswith('fpm.service')} })")

        # 6. Live ingestion: open a handle on the already-cached
        # dataset, stream one appended transaction, and re-query the
        # new version by id at a higher threshold. The margin rule
        # holds (threshold 3 > appended weight 1, and the frequent run
        # was cached at 2 <= 3 - 1), so the service must answer by
        # recounting the parent's listing over the delta — never
        # re-mining.
        opened = run_client(client, socket_path, "open", dataset)[0]
        if not opened.get("ok") or not opened.get("id"):
            fail(f"open = {opened}")
        if opened.get("version") != 1:
            fail(f"open returned version {opened.get('version')}, want 1")
        ds_id = opened["id"]

        delta_file = os.path.join(tmp, "delta.dat")
        with open(delta_file, "w", encoding="utf-8") as f:
            f.write("1 2 3\n")
        appended = run_client(client, socket_path, "append", ds_id,
                              delta_file)[0]
        if not appended.get("ok") or appended.get("version") != 2:
            fail(f"append = {appended}")
        if appended.get("parent_digest") != opened.get("digest"):
            fail("append's parent_digest does not chain to the opened "
                 f"version: {appended}")

        reseeded = run_client(client, socket_path, "query", ds_id, "3")[0]
        if reseeded.get("cache") != "reseeded":
            fail(f"post-append query got cache={reseeded.get('cache')}, "
                 "want 'reseeded' (recounted from the parent listing)")
        if reseeded.get("digest") != appended.get("digest"):
            fail("post-append query answered for the wrong version")

        info = run_client(client, socket_path, "dataset-info", ds_id)[0]
        if info.get("live_transactions") != 7:
            fail(f"dataset_info live_transactions = "
                 f"{info.get('live_transactions')}, want 7")
        if len(info.get("versions", [])) != 2:
            fail(f"dataset_info versions = {info.get('versions')}, "
                 "want the two-version chain")

        metrics = run_client(client, socket_path, "metrics")[0]
        counters = metrics.get("counters", {})
        reseeds = counters.get("fpm.service.cache.reseeds")
        if reseeds is None or reseeds < 1:
            fail(f"counter fpm.service.cache.reseeds = {reseeds}, want >= 1")

        # 7. Out-of-core: pack the same FIMI bytes and open the result
        # through the daemon (format detected by magic sniff, no flag).
        # The converter stores the digest of the raw FIMI bytes in the
        # packed header, so the very first query against the packed
        # file is answered from the cache entry step 1 populated — the
        # storage backend is invisible to the result cache.
        packed_path = os.path.join(tmp, "smoke.fpk")
        pack = subprocess.run([fpm_pack, dataset, packed_path],
                              capture_output=True, text=True, timeout=60)
        if pack.returncode != 0:
            fail(f"fpm_pack exited {pack.returncode}:\n{pack.stderr}")
        packed_open = run_client(client, socket_path, "open",
                                 packed_path)[0]
        if not packed_open.get("ok") or not packed_open.get("id"):
            fail(f"open (packed) = {packed_open}")
        if packed_open.get("digest") != opened.get("digest"):
            fail(f"packed open digest {packed_open.get('digest')} != "
                 f"FIMI open digest {opened.get('digest')}")

        packed_info = run_client(client, socket_path, "dataset-info",
                                 packed_open["id"])[0]
        if packed_info.get("storage") != "packed":
            fail(f"dataset_info storage = {packed_info.get('storage')}, "
                 "want 'packed'")

        packed_hit = run_client(client, socket_path, "query",
                                packed_open["id"], "2")[0]
        if packed_hit.get("cache") != "hit":
            fail(f"packed-path query got cache={packed_hit.get('cache')}, "
                 "want 'hit' (shared digest with the FIMI-backed entry)")

        # 8. Observability. Every successful response carried a unique
        # non-zero query_id; collect them to cross-check against the
        # query log. (Error lines carry the batch id, not a query_id —
        # the rejection still lands in the log below.)
        echoed = {}  # query_id -> cache outcome from the response
        for r in repeated + dominated + batch + [rules, reseeded,
                                                 packed_hit]:
            if r.get("ok") is not True:
                continue
            qid = r.get("query_id")
            if not qid:
                fail(f"response missing query_id: {r}")
            if qid in echoed:
                fail(f"duplicate query_id {qid} across responses")
            echoed[qid] = r.get("cache")

        # The queue has fully drained: stats shows nothing in flight,
        # the latency windows saw our queries, no job got stuck.
        stats = run_client(client, socket_path, "stats")[0]
        sched = stats.get("scheduler", {})
        if sched.get("queue_depth") != 0 or sched.get("running") != 0:
            fail(f"scheduler not drained: {sched}")
        if sched.get("in_flight") != []:
            fail(f"in_flight jobs after drain: {sched.get('in_flight')}")
        if sched.get("completed", 0) < 10:
            fail(f"scheduler completed = {sched.get('completed')}, "
                 "want >= 10")
        storages = {d.get("storage")
                    for d in stats.get("registry", {}).get("datasets", [])}
        if "packed" not in storages:
            fail(f"stats registry storages = {storages}, want 'packed' "
                 "among them")
        windows = {w.get("window_s") for w in stats.get("windows", [])}
        if not {1, 10, 60} <= windows:
            fail(f"stats windows = {windows}, want 1s/10s/60s")
        if max(w.get("count", 0) for w in stats.get("windows", [])) < 1:
            fail("no latency window saw any queries")
        if stats.get("watchdog", {}).get("stuck_now") != 0:
            fail(f"watchdog reports stuck jobs: {stats.get('watchdog')}")
        if not stats.get("uptime_seconds", 0) > 0:
            fail("stats reports no uptime")

        # Prometheus exposition through the same socket.
        exposition = run_client(client, socket_path, "metrics-text",
                                "--json")[0]
        text = exposition.get("text", "")
        if "# TYPE fpm_service_cache_hits counter" not in text:
            fail(f"metrics-text missing cache-hits counter:\n{text[:400]}")

        # The live dashboard renders against the running daemon.
        tools_dir = os.path.dirname(os.path.abspath(__file__))
        top = subprocess.run(
            [sys.executable, os.path.join(tools_dir, "fpm_top.py"),
             f"--socket={socket_path}", "--once"],
            capture_output=True, text=True, timeout=60)
        if top.returncode != 0 or "fpmd up" not in top.stdout:
            fail(f"fpm_top.py --once failed ({top.returncode}):\n"
                 f"{top.stdout}{top.stderr}")

        # The query log: schema-valid, one line per query (3 repeats,
        # 1 dominated, 4 batch entries, rules, reseeded, packed = 11),
        # with the echoed query_ids and cache outcomes, and real kernel
        # time on the one true miss.
        check = subprocess.run(
            [sys.executable,
             os.path.join(tools_dir, "validate_query_log.py"),
             query_log, "--min-lines=11"],
            capture_output=True, text=True, timeout=60)
        if check.returncode != 0:
            fail(f"validate_query_log.py failed:\n{check.stderr}")
        with open(query_log, "r", encoding="utf-8") as f:
            logged = [json.loads(line) for line in f if line.strip()]
        if len(logged) != 11:
            fail(f"query log holds {len(logged)} lines, want 11")
        by_qid = {e["query_id"]: e for e in logged}
        if len(by_qid) != len(logged):
            fail("query log reused a query_id")
        for qid, cache in echoed.items():
            entry = by_qid.get(qid)
            if entry is None:
                fail(f"echoed query_id {qid} never reached the log")
            if cache is not None and entry.get("cache") != cache:
                fail(f"log cache for query {qid} = {entry.get('cache')}, "
                     f"response said {cache}")
        misses = [e for e in logged if e.get("cache") == "miss"]
        if len(misses) != 1:
            fail(f"{len(misses)} miss lines in the log, want exactly 1")
        if not misses[0].get("mine_ms", 0) > 0:
            fail(f"the miss line has no kernel time: {misses[0]}")
        if len([e for e in logged if e.get("status") == "rejected"]) != 1:
            fail("the bad-dataset batch entry was not logged as rejected")

        # 9. The retired v1 "mine" op is an unknown op like any other:
        # one error line, and the connection keeps serving.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(30)
            raw.connect(socket_path)
            with raw.makefile("r", encoding="utf-8") as reader:
                raw.sendall((json.dumps({"op": "mine", "dataset": dataset,
                                         "min_support": 2}) + "\n").encode())
                mine = json.loads(reader.readline())
                want = {"code": "INVALID_ARGUMENT",
                        "message": "request: field 'op': unknown op 'mine'"}
                if mine.get("ok") is not False or mine.get("error") != want:
                    fail(f"v1 mine op got {mine}, want ok:false with {want}")
                raw.sendall(b'{"op":"ping"}\n')
                pong = json.loads(reader.readline())
                if pong != {"ok": True}:
                    fail(f"ping after the mine op got {pong}")

        # 10. An over-long request line: one RESOURCE_EXHAUSTED line and
        # a close for that connection only. The reply comes as soon as
        # the bound is crossed, without a newline or a close from us.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as other:
            other.settimeout(30)
            other.connect(socket_path)
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(60)
                raw.connect(socket_path)
                block = b"x" * (1 << 20)
                give_up = time.monotonic() + 60
                for _ in range(MAX_LINE_BYTES // len(block)):
                    raw.sendall(block)
                    if time.monotonic() > give_up:
                        fail("fpmd took over 60 s to read 256 MiB")
                raw.sendall(b"x")
                try:
                    reply = read_to_close(raw)
                except OSError as e:
                    fail(f"over-long request: no reply and close: {e}")
            # Byte for byte, in the key order of every error envelope.
            want = (b'{"error":{"code":"RESOURCE_EXHAUSTED","message":'
                    b'"request: line exceeds 268435456 bytes"},"ok":false}\n')
            if reply != want:
                fail(f"over-long request got {reply[:200]!r}, want {want!r}")
            other.sendall(b'{"op":"ping"}\n')
            other.shutdown(socket.SHUT_WR)
            if read_to_close(other) != b'{"ok":true}\n':
                fail("an open connection stopped serving after another "
                     "sent an over-long line")
        if ping(socket_path) != b'{"ok":true}\n':
            fail("a new connection got no pong after an over-long line")

        # 11. Clean shutdown.
        run_client(client, socket_path, "shutdown")
        if daemon.wait(timeout=30) != 0:
            fail(f"fpmd exited {daemon.returncode} after shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    # 12-13. Connection churn and running out of file descriptors, each
    # on a daemon of its own.
    check_connection_churn(fpmd, tmp)
    check_fd_exhaustion(fpmd, tmp)
    # 14. The client side of the line bound.
    check_client_refuses_long_reply(client, tmp)
    # 15. Every byte of a scripted session against the transcript.
    check_session(fpmd, tmp)
    # 16. A connection thread that cannot start.
    check_thread_start_failure(fpmd, tmp)

    print("service smoke: OK (miss -> 2 hits, 1 dominated, "
          "mixed batch derived cross-task, append reseeded, "
          "packed open hit the shared cache, stats drained, "
          "query log validated, mine op unknown, over-long line "
          "refused, clean shutdown, 5000 connections joined, "
          "serving again after running out of fds, over-long reply "
          "refused by fpm_client, session transcript identical, "
          "serving on after a thread could not start)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
