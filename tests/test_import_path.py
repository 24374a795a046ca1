"""scipy stays off the import path: only building a spline imports it.

Each check runs in a fresh interpreter, since this test session has
imported scipy long before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PRELUDE = """
import cmath, sys
import numpy as np
import qedvolterra, qedvolterra.cli
from qedvolterra import KernelEvaluator, ModelParams, SpectralDensity, \\
    TimeGrid, compute_Z, density_from_table, make_kernel, solve_ide, \\
    solve_integral_form, vacuum_kernel

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()
"""


def run_child(body, cwd):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    code = PRELUDE + textwrap.dedent(body)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env)


def test_sweep_and_closed_form_solves_import_no_scipy(tmp_path):
    res = run_child("""
        with open("sweep.cfg", "w") as fh:
            fh.write("sweep_values = 0.3, 0.5\\n")
        status = qedvolterra.cli.main(["sweep", "--config", "sweep.cfg",
                                       "--out", "sweep.csv"])
        assert status == 0, status
        assert len(open("sweep.csv").read().splitlines()) == 3

        kernel = KernelEvaluator(None, stationary=True, label="exp",
                                 tau_fn=lambda lag: cmath.exp(-abs(lag)))
        params = ModelParams(alpha=0.1, omega=0.5)
        grid = TimeGrid(dt=0.01, n_steps=500)
        ide = solve_ide(kernel, params, grid, "trapezoid")
        integral = solve_integral_form(compute_Z(kernel, params, grid), grid)
        assert np.max(np.abs(integral.values - ide.values)) < 1e-5
        assert not scipy_modules(), scipy_modules()
    """, tmp_path)
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("body", [
    """
    p = np.linspace(0.0, 30.0, 400)
    rho = density_from_table(np.column_stack([p, p * np.exp(-p)]),
                             tail_order=6.0)
    assert "scipy.interpolate" in sys.modules
    assert np.max(np.abs(rho(p) - p * np.exp(-p))) < 1e-15
    mid = 0.5 * (p[1:] + p[:-1])
    assert np.max(np.abs(rho(mid) - mid * np.exp(-mid))) < 1e-5
    """,
    """
    rho = SpectralDensity(fn=lambda p: p * np.exp(-p), label="p_exp",
                          scale=1.0, peak=1.0, decay_rate=1.0)
    fast = make_kernel("custom", density=rho, tabulate=(3.0, 0.02))
    assert "scipy.interpolate" in sys.modules
    for lag in (0.0, 0.37, 1.111, 2.9, -1.3):
        exact = 1.0 / complex(1.0, lag) ** 2
        got = fast.tau_values(np.array([lag]))[0]
        assert abs(got - exact) < 1e-7, (lag, got)
        assert abs(vacuum_kernel(lag, rho) - exact) < 1e-10
    """,
], ids=["density_from_table", "tabulated_kernel"])
def test_first_spline_imports_scipy_and_works(tmp_path, body):
    res = run_child(body, tmp_path)
    assert res.returncode == 0, res.stderr
