"""quditbloch benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|oracle|dim_scan --seed N \\
        --seconds S --trace 0|1

Each workload runs in fresh interpreters (``worker.py``) with BLAS pinned to
one thread. With ``--trace 0`` it prints the end-to-end metrics: set-up is
measured in SETUP_SAMPLES fresh interpreters and reported as their median,
the timed body is repeated for ``--seconds`` in the last of them and
``wall_s`` is the median repeat. Both are in reference seconds, scaled by
the host speed measured next to them (calibrate.py); the raw seconds are in
the run record. With ``--trace 1`` it runs the body once untraced and once
traced, each in its own interpreter, and prints the per-layer metrics of the
traced run plus the tracing overhead. The line before the result is the run
record (machine, versions, BLAS, commit, seed). See README.md here.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "oracle", "dim_scan")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PIN)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv, env, root, deadline) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(argv))
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(argv)) from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(argv)}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("no result line from " + " ".join(argv)) from None


def worker(workload, seed, phase, seconds=0.0, trace=0, spans=None) -> list:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--phase", phase, "--seconds", str(seconds), "--trace", str(trace)]
    return argv + (["--spans", spans] if spans else [])


def run_record(args, root, env, children) -> dict:
    child = children[-1]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "quditbloch", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": child["numpy"],
        "blas": child["blas"], "thread_pin": {k: env[k] for k in THREAD_PIN},
        "commit": commit, "source_sha256": digest.hexdigest(),
        "raw_wall_s": child["body_raw_s"], "raw_setup_s": [c["setup_raw_s"] for c in children],
    }


def measure(args, root, env, deadline):
    """End-to-end metrics (trace 0) or per-layer metrics (trace 1)."""
    if args.trace == 0:
        children = [run_child(worker(args.workload, args.seed, "setup"), env, root, deadline)
                    for _ in range(SETUP_SAMPLES - 1)]
        main = run_child(worker(args.workload, args.seed, "run", args.seconds),
                         env, root, deadline)
        children.append(main)
        wall = statistics.median(main["body_s"])
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "peak_rss_mb": main["peak_rss_mb"],
            "points_per_s": main["points"] / wall,
        }
    else:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"spans-{args.workload}.npz")
        plain = run_child(worker(args.workload, args.seed, "run"), env, root, deadline)
        main = run_child(worker(args.workload, args.seed, "run", trace=1, spans=spans),
                         env, root, deadline)
        children = [plain, main]
        metrics = dict(main["layers"])
        metrics["oracle_max_excess"] = main["quality"].get("oracle_max_excess", 0.0)
        metrics["oracle_sep_D"] = main["quality"].get("oracle_sep_D", 0.0)
        metrics["trace.overhead_s"] = main["body_s"][0] - plain["body_s"][0]
        attempted = sum(c["attempted"] for c in children)
        metrics["failed_frac"] = sum(c["failed"] for c in children) / attempted
    return children, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quditbloch", "__init__.py")):
        print("perfbench: run from the root of a quditbloch checkout "
              "(src/quditbloch not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        # compile the package once, so every set-up sample finds its bytecode
        subprocess.run([sys.executable, "-c", "import quditbloch"], cwd=root, env=env,
                       check=True, timeout=60)
        children, metrics = measure(args, root, env, deadline)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in spec} != set(metrics):
        print("perfbench: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for child in children:
        for message in child["failures"]:
            print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(json.dumps({"run_record": run_record(args, root, env, children)}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
