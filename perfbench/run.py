#!/usr/bin/env python3
"""End-to-end benchmark of fpm: builds the program, makes the inputs of a
seed, runs one workload and prints its metrics.

Run from the root of the source tree:

  python3 perfbench/run.py --workload serve_forward --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --steadiness 10          # every workload, 10 seeds
  python3 perfbench/run.py --self-test              # the checkers' self-test

The last line of stdout is one JSON object with exactly the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer ones.
README.md beside this file describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the benchmark and the binaries it runs."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(min(4, nproc())),
                      "--target", "perfbench", "fpmd", "gen_dataset",
                      "mine_cli"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(step))
    return os.path.join(BUILD, "fpm", "examples")


def make_inputs(bin_dir, seed):
    """Generates a seed's datasets and reference listings, once per seed."""
    inputs = os.path.join(BUILD, "inputs", f"seed-{seed}")
    if os.path.exists(os.path.join(inputs, "done")):
        return inputs
    tmp = inputs + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    gen_seed = str(seed % (1 << 62))
    steps = [
        [f"{bin_dir}/gen_dataset", "quest", "T60I10D15K", "quest.dat",
         f"--seed={gen_seed}"],
        [f"{bin_dir}/gen_dataset", "webdocs", "webdocs.dat", "--docs=20000",
         f"--seed={gen_seed}"],
        [f"{bin_dir}/mine_cli", "webdocs.dat", "600",
         "--output=webdocs.600.txt"],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=tmp, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            fail(f"input generation failed: {' '.join(step)}: {done.stderr}")
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(inputs, ignore_errors=True)
    os.rename(tmp, inputs)
    return inputs


def provenance(seed):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "?")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    cpu = "?"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "examples", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path)
            for name in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {"nproc": nproc(), "cpu": cpu, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "seed": seed}


def run_child(argv):
    """Runs the benchmark binary in its own process group, so that on a
    timeout the daemons it started are killed with it. Returns the exit
    code and its stdout lines."""
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"the run took longer than {CHILD_TIMEOUT_S} s")
    return child.returncode, out.splitlines()


def run_once(args):
    bin_dir = build()
    inputs = make_inputs(bin_dir, args.seed)
    run_dir = os.path.join(".bench_build", "run", str(os.getpid()))
    shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, run_dir))
    code, lines = run_child([
        os.path.join(BUILD, "perfbench"), f"--workload={args.workload}",
        f"--seed={args.seed}", f"--seconds={args.seconds}",
        f"--trace={args.trace}", f"--bin={bin_dir}", f"--inputs={inputs}",
        f"--run-dir={run_dir}"])
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit code {code})")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        shutil.rmtree(os.path.join(ROOT, run_dir), ignore_errors=True)

    expected = spec()["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    idle = []
    for metric in expected:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is not None:
            if got["unit"] != metric["unit"]:
                fail(f"{name} measured in {got['unit']}, not {metric['unit']}")
            metrics[name] = {"value": got["value"], "unit": metric["unit"]}
        elif args.trace:
            # A layer the workload never enters, or a counter the program
            # no longer exports: reported as 0 and named here.
            metrics[name] = {"value": 0, "unit": metric["unit"]}
            if name not in result["absent"]:
                idle.append(name)
        else:
            fail(f"{args.workload} did not measure {name}")
    unknown = set(result["metrics"]) - set(metrics)
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    for name, reason in result["absent"].items():
        print(f"absent: {name}: {reason}")
    if idle:
        print(f"not exercised on {args.workload} (reported as 0): "
              + ", ".join(idle))
    info = provenance(args.seed)
    info.update(workload=args.workload, budget=result["budget"],
                host=result["host"], samples=result["samples"])
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] and code == 0 else 1


def steadiness(args):
    """Runs every workload N times (seed i on round i), alternating the
    workload order, and prints each end-to-end metric's spread."""
    build()
    workloads = [w["name"] for w in spec()["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    for i in range(args.steadiness):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + i
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stdout + done.stderr)
                fail(f"{w} seed {seed} failed")
            result = json.loads(lines[-1])
            host = next(json.loads(l[len("provenance: "):]) for l in lines
                        if l.startswith("provenance: "))["host"]
            for m in bounds:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"run {i} {w:14s} seed {seed:<3d} steal "
                  f"{host['steal_pct']:5.2f}% load1 {host['load1']:5.2f} wall "
                  f"{time.monotonic() - started:5.1f}s ops {result['attempted']}"
                  f" failed {result['failed']} | " + " ".join(
                      f"{m}={values[w][m][-1]:.4g}" for m in bounds),
                  flush=True)
    print()
    print(f"{'workload':14s} {'metric':16s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'halves':>7s}  verdict")
    worst = 0.0
    for w in workloads:
        for m, bound in bounds.items():
            v = values[w][m]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            halves = abs(statistics.median(v[1::2]) / statistics.median(v[0::2])
                         - 1) if len(v) > 1 else 0.0
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "NOISY")
            worst = max(worst, spread / bound)
            print(f"{w:14s} {m:16s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                  f"{spread:7.3f} {bound:6.2f} {halves:7.3f}  {verdict}")
    print(f"\nworst spread / bound: {worst:.2f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run every workload N times and report spreads")
    parser.add_argument("--self-test", action="store_true",
                        help="check that every checker rejects corrupted input")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.self_test:
        build()
        return subprocess.run([os.path.join(BUILD, "perfbench"),
                               "--self-test"]).returncode
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
