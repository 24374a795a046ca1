"""One cold benchmark process: set up, run one workload once, check it.

Usage (started by run.py, with the package's ``src`` on PYTHONPATH and the
run's scratch directory as working directory):

    python3 worker.py --workload NAME --seed N --mode setup|run|trace
                      --ref FILE [--spans FILE]

It prints ``ready`` once the package is imported and the inputs exist (the
parent times this as set-up), then, unless ``--mode setup``, one JSON line
with the timed section's wall time, peak RSS and the oracle results.
"""

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

import qedvolterra  # noqa: F401  (set-up cost is part of what is measured)
import qedvolterra.cli  # noqa: F401

from tracer import Tracer, layer_metrics, missing_layers
from workloads import WORKLOADS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--ref", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.mode == "trace":
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
    inp = wl.inputs(args.seed, tracer.count if tracer else None)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    result = {"error": None, "ops": wl.ops, "failed": wl.ops}
    try:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        out = wl.run(inp)
        result["run_s"] = time.perf_counter() - t0
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
    # ru_maxrss is in KiB on Linux; read it before the oracle allocates
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if result["error"] is None:
        try:
            ops = wl.check(inp, out, args.ref)
            result["ops"] = len(ops)
            result["failed"] = sum(not op.ok for op in ops)
            err = wl.err(ops)
            # inf marks a result that could not be compared at all
            result["max_abs_err"] = err if math.isfinite(err) else None
            result["misses"] = [vars(op) for op in ops if not op.ok]
        except Exception:
            result["error"] = traceback.format_exc()

    if tracer:
        if os.path.exists(inp.get("out", "")):
            tracer.count("cli.output_bytes", os.path.getsize(inp["out"]))
        result["layers"] = layer_metrics(tracer)
        result["patched"] = tracer.patched
        result["missing_layers"] = missing_layers(result["layers"],
                                                  wl.layers)
        if args.spans:
            tracer.write_spans(args.spans)
    if result["error"]:
        print(result["error"], file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
