"""Quick self-check of the benchmark, about half a minute.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. A tiny run of each workload, untraced and traced, in a fresh
   interpreter: every output check must pass and the bypass predictions
   must hold.
2. Each workload's checker is fed a corrupted output and must count it as
   failed.
"""

import json
import os
import subprocess
import sys
import tempfile

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def tiny_run(workload: str, trace: int) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", "7",
            "--phase", "run", "--trace", str(trace), "--tiny"]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=run.child_env(ROOT),
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(workload: str, out: list) -> None:
    """Damage one output the way a wrong program would."""
    if workload == "sweep":
        _, _, path = out[0]
        with open(path, "a") as fh:
            fh.write("0")
    elif workload == "oracle":
        _, path = out[0]
        with open(path) as fh:
            doc = json.load(fh)
        doc["oracle_D"] += 1e-2
        with open(path, "w") as fh:
            json.dump(doc, fh)
    else:
        rho, got = out[0][0]
        out[0][0] = (rho, got + 1e-8)


def corrupted_output_fails(workload: str) -> bool:
    import workloads
    wl = workloads.WORKLOADS[workload](7, tiny=True)
    wl.setup()
    wl.make_inputs()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as workdir:
        out = [step() for step in wl.steps(workdir)]
        clean, damaged = workloads.Tally(), workloads.Tally()
        wl.check(out, clean, {})
        corrupt(workload, out)
        wl.check(out, damaged, {})
    return clean.failed == 0 and damaged.failed > 0


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.update(run.THREAD_PIN)
    ok = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = tiny_run(workload, trace)
            good = res["attempted"] > 0 and res["failed"] == 0
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} tiny {workload} trace={trace}: "
                  f"{res['attempted']} checks, {res['failed']} failed {res['failures']}")
        good = corrupted_output_fails(workload)
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} corrupted {workload} output counted as failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
