"""One fresh interpreter running one workload; prints one JSON line.

Started by ``run.py``. Set-up runs from just before ``import numpy`` to the
end of the first-use builds and input generation; ``--phase setup`` stops
there. ``--phase run`` then repeats the timed body until the next repeat
would end past ``--seconds`` (at least once) and checks every repeat's
output outside the timed interval. The body is a list of steps (one CLI
call, one oracle call, ...); each step and the set-up are timed in
reference seconds by calibrate.timed, and their busy seconds (raw
seconds less the sampler's) are reported too. With ``--trace 1`` the
tracing shim is installed before the first-use builds, records spans
during the builds and the body only, and the body runs once.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

T0 = time.perf_counter()
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def timed_body(wl, workdir, tracer, calibrate):
    """Run the body's steps once: (outputs, busy seconds, reference seconds)."""
    outputs, busy, ref = [], 0.0, 0.0
    for step in wl.steps(workdir):
        if tracer:
            tracer.active = True
        out, step_busy, speed = calibrate.timed(step)
        if tracer:
            tracer.active = False
        outputs.append(out)
        busy += step_busy
        ref += step_busy * speed
    return outputs, busy, ref


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for selfcheck.py")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    import numpy as np
    import quditbloch
    imported = time.perf_counter() - T0

    import calibrate
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    cg_before = quditbloch.cg._cg_cached.cache_info()

    def setup():
        if tracer:
            tracer.active = True
        wl.setup()
        if tracer:
            tracer.active = False
        wl.make_inputs()

    # the import is scaled by the host speed measured during the rest of the
    # set-up, the nearest measurement there is: the kernel needs numpy
    _, busy, speed = calibrate.timed(setup)
    setup_raw = imported + busy
    setup_s = setup_raw * speed

    tally = workloads.Tally()
    wl.check_setup(tally)
    result = {"setup_s": setup_s, "setup_raw_s": setup_raw,
              "body_s": [], "body_raw_s": [], "points": wl.points}
    quality = {}
    if args.phase == "run":
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        try:
            start = time.perf_counter()
            while True:
                out, raw, ref = timed_body(wl, workdir, tracer, calibrate)
                result["body_raw_s"].append(raw)
                result["body_s"].append(ref)
                wl.check(out, tally, quality)
                if tracer or time.perf_counter() - start + raw > args.seconds:
                    break
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if tracer:
        cg_after = quditbloch.cg._cg_cached.cache_info()
        layers = tracing.layer_metrics(tracer, cg_after.hits - cg_before.hits,
                                       cg_after.misses - cg_before.misses)
        for name, expected in wl.bypass.items():
            tally.check(layers[name] == expected,
                        f"bypass prediction {name} == {expected} failed: {layers[name]}")
        result["layers"] = layers
        if args.spans:
            tracer.save(args.spans)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result.update({
        "quality": quality,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
