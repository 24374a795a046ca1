"""Benchmark runner: one workload, several cold processes, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh ``worker.py`` process, because CLI users pay the
kernel tabulation and the lag caches on every invocation.  Set-up
(interpreter start, imports, input generation) is timed from process start
to the worker's ``ready`` line.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of one extra traced process.  Everything this writes stays under
``perfbench/_work`` (scratch, removed at exit) and ``perfbench/results``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the names in workloads.py; this process does not import the package
WORKLOADS = ("decay_chain", "solver_long", "squeezed_cli", "pole_sweep")
HELD_OUT_SEED = 7919     # reserved for confirming a claimed gain
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 160.0       # the whole invocation must end within 180 s

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "max_abs_err": "dimensionless"}


class Worker:
    """A worker process, always waited for."""

    def __init__(self, workload, seed, mode, workdir, spans=None):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode,
               "--ref", str(workdir / "reference.npy")]
        if spans:
            cmd += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.mode = mode
        self.t_start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                     stdout=subprocess.PIPE, text=True)

    def finish(self, deadline):
        """Return (setup_s, result dict or None); kill at the deadline."""
        setup_s, result = None, None
        timer = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                                self.proc.kill)
        timer.start()
        try:
            if self.proc.stdout.readline().strip() == "ready":
                setup_s = time.perf_counter() - self.t_start
            lines = [ln for ln in self.proc.stdout.read().splitlines()
                     if ln.strip()]
        except BaseException:
            self.proc.kill()
            raise
        finally:
            timer.cancel()
            self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode == 0 and lines:
            result = json.loads(lines[-1])
        return setup_s, result


def high_percentile(samples):
    """(p, value) for the highest percentile with >= 10 samples above it."""
    n = len(samples)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, statistics.quantiles(samples, n=100)[p - 1]


def environment():
    import importlib.metadata as md
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            env[pkg] = None
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:     # build metadata only; never fatal
        env["blas"] = f"unknown ({exc})"
    env["thread_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["openblas_threads"] = _openblas_threads()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        env["cpu"] = None
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    env["caches"] = caches
    return env


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import numpy  # noqa: F401  (loads OpenBLAS)
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps
            if "openblas" in line.split()[-1]}
    for lib in libs:
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(lib), sym)())
            except (OSError, AttributeError):
                continue
    return None


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that running workers are killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "qedvolterra" / "__init__.py").is_file():
        return fail(f"package source not found under {SRC}")

    t_begin = time.perf_counter()
    deadline = t_begin + DEADLINE_S
    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        report = measure(args, workdir, results_dir / f"{stem}-spans.jsonl",
                         deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "metrics" not in report:
        print("\n".join(report["notes"]), file=sys.stderr)
        return fail("no timed run completed")

    report.update(workload=args.workload, seed=args.seed,
                  held_out_seed=HELD_OUT_SEED, seconds=args.seconds,
                  trace=args.trace, environment=environment())
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    for name, m in report["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for line in report["notes"]:
        print(line)
    print(json.dumps({k: report[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(args, workdir, spans_path, deadline):
    wl, seed = args.workload, args.seed
    setups, runs, rss, errs = [], [], [], []
    attempted = failed = 0
    notes = []

    def collect(worker):
        nonlocal attempted, failed
        setup_s, res = worker.finish(deadline)
        if setup_s is not None:
            setups.append(setup_s)
        if worker.mode == "setup":
            return None
        if res is None:
            # the process itself is the operation that failed
            attempted += 1
            failed += 1
            notes.append(f"worker ({worker.mode}) exited "
                         f"{worker.proc.returncode} without a result")
            return None
        attempted += res["ops"]
        failed += res["failed"]
        if res.get("error"):
            notes.append(f"worker ({worker.mode}) raised: "
                         + res["error"].strip().splitlines()[-1])
        for miss in res.get("misses", ()):
            notes.append(f"oracle miss: {miss}")
        return res

    def start(mode, spans=None):
        return Worker(wl, seed, mode, workdir, spans)

    # cold runs until their timed sections add up to --seconds, then on to
    # an odd count while under twice that: the median of an odd count is a
    # sample, so one slow run cannot move it.  Set-up and oracles are not
    # part of this budget.
    last = 0.0
    while (not runs or sum(runs) < args.seconds
           or (len(runs) % 2 == 0 and sum(runs) < 2 * args.seconds)):
        if runs and time.perf_counter() + 1.5 * last > deadline - 30.0:
            notes.append("stopped early to stay inside the time limit")
            break
        t_w = time.perf_counter()
        res = collect(start("run"))
        last = time.perf_counter() - t_w
        if res is None or "run_s" not in res:
            break
        runs.append(res["run_s"])
        rss.append(res["peak_rss_mb"])
        if res.get("max_abs_err") is not None:
            errs.append(res["max_abs_err"])
        if res["failed"]:
            break       # reported once, never retried
    # extra set-up-only processes, so set-up is a median of several
    while len(setups) < MIN_SETUP_SAMPLES \
            and time.perf_counter() < deadline - 30.0:
        collect(start("setup"))

    layers = patched = None
    if args.trace:
        res = collect(start("trace", spans_path))
        if res is not None and "layers" in res:
            layers = res["layers"]
            patched = res["patched"]
            if runs and "run_s" in res:
                layers["trace.overhead_s"] = res["run_s"] \
                    - statistics.median(runs)
            if res["missing_layers"]:
                notes.append("span coverage: no span or count in "
                              + ", ".join(res["missing_layers"]))
                failed += 1
                attempted += 1
        else:       # its failure is already counted by collect()
            notes.append("traced run produced no layer metrics")

    notes.append(f"failed_ops = {failed} of {attempted} ops attempted")
    if not runs or not setups:
        return {"notes": notes}
    hp = high_percentile(runs)
    notes.append(f"run_s: median of {len(runs)} cold runs"
                 + (f", p{hp[0]} = {hp[1]:.6g} s" if hp else
                    " (too few for a tail percentile)")
                 + f"; setup_s: median of {len(setups)}")
    correct = failed == 0 and len(errs) == len(runs)
    if args.trace:
        # a traced run without layer metrics already counts as failed
        layers = layers or {}
        metrics = {k: {"value": float(layers.get(k, 0.0)), "unit": u}
                   for k, u in LAYER_UNITS.items()}
    else:
        values = {"run_s": statistics.median(runs),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
        if errs:     # absent only when no result could be compared
            values["max_abs_err"] = max(errs)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics, "notes": notes,
            "patched_bindings": patched,
            "samples": {"run_s": runs, "setup_s": setups,
                        "peak_rss_mb": rss, "max_abs_err": errs}}


if __name__ == "__main__":
    sys.exit(main())
