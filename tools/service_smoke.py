#!/usr/bin/env python3
"""End-to-end smoke test of the fpmd daemon and its result cache.

Usage: service_smoke.py FPMD_BINARY FPM_CLIENT_BINARY FPM_PACK_BINARY

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
 10. "shutdown"                       -> clean exit

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
import socket
import subprocess
import sys
import tempfile
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


def main(argv):
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
        for _ in range(100):
            if os.path.exists(socket_path):
                break
            if daemon.poll() is not None:
                fail(f"fpmd exited early:\n{daemon.stderr.read()}")
            time.sleep(0.05)
        else:
            fail("fpmd never created its socket")

        ping = run_client(client, socket_path, "ping")
        if ping != [{"ok": True}]:
            fail(f"ping got {ping}")

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

        # 10. Clean shutdown.
        run_client(client, socket_path, "shutdown")
        if daemon.wait(timeout=30) != 0:
            fail(f"fpmd exited {daemon.returncode} after shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()

    print("service smoke: OK (miss -> 2 hits, 1 dominated, "
          "mixed batch derived cross-task, append reseeded, "
          "packed open hit the shared cache, stats drained, "
          "query log validated, mine op unknown, clean shutdown)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
