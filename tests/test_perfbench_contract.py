"""What the benchmark harness under perfbench/ uses of the package.

The harness is not part of the package, but its tracer wraps package
functions by name and its workloads build kernels and call the library in
fixed forms.  A rename or a dropped parameter in the package breaks a
benchmark run; these tests catch it in the test suite instead.  They import
the harness files and change nothing in them.  The last test pins the
package's public surface: no public callable takes a tolerance or a unit
system.
"""

import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import qedvolterra as qv
from qedvolterra import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    entries = tracer.SPANNED + tracer.COUNTED
    assert entries
    for _, module, attr in entries:
        importlib.import_module(module)
        assert callable(tracer._resolve(module, attr)), (module, attr)


def test_workload_kernel_call_forms_build_and_solve():
    # solver_long's stationary form (no fn, a scalar tau_fn) and
    # squeezed_cli's reference form (a point fn and a row_fn), both on the
    # same exponential kernel exp(-|t - s|)
    workloads = _load("workloads")
    inp = workloads.solver_long_inputs(1, lambda name, n: None)
    stationary = inp["kernel"]

    def row(t, s):
        return np.exp(-np.abs(t - np.asarray(s, dtype=float))) + 0j

    general = qv.KernelEvaluator(
        lambda t, s: complex(row(t, np.array([s]))[0]), stationary=False,
        label="reference", row_fn=row)
    grid = qv.TimeGrid(dt=0.1, n_steps=10)
    a = qv.solve_ide(stationary, inp["params"], grid, "gregory4").values
    b = qv.solve_ide(general, inp["params"], grid, "gregory4").values
    assert a.shape == b.shape == (11,) and np.all(np.isfinite(a))
    assert np.max(np.abs(a - b)) <= 1e-12
    for kernel in (stationary, general):
        assert abs(kernel.eval(0.7, 0.2) - np.exp(-0.5)) <= 1e-15
        np.testing.assert_allclose(kernel.row(0.7, np.array([0.2, 0.7])),
                                   np.exp(-np.array([0.5, 0.0])), atol=1e-15)


def test_workload_library_call_forms_run():
    # decay_chain's calls, in its own argument forms, on a short grid:
    # make_kernel with tabulate, analyze, bromwich_invert and cli.fit_decay
    workloads = _load("workloads")
    inp = workloads.decay_chain_inputs(1, None)
    rho, params = inp["density"], inp["params"]
    grid = qv.TimeGrid(dt=0.1, n_steps=40)
    kernel = qv.make_kernel("custom", density=rho,
                            tabulate=(grid.t_max, 0.2))
    ide = qv.solve_ide(kernel, params, grid, "trapezoid")
    an = qv.analyze(rho, params)
    brom = qv.bromwich_invert(rho, params, qv.TimeGrid(dt=1.0, n_steps=4))
    fit = cli.fit_decay(ide, (1.0, 4.0))
    assert an.pole.real < 0.0 and an.gamma_pole > 0.0
    assert abs(an.gamma_pole / an.gamma_markov - 1.0) <= 0.05
    assert np.max(np.abs(brom.values - ide.values[::10])) <= 1e-3
    assert math.isfinite(fit.gamma_fit) and fit.window == (1.0, 4.0)


def test_squeezed_reference_call_forms_run(tmp_path, monkeypatch):
    # squeezed_cli's reference reads vacuum_kernel(lag, rho) and
    # squeezed_delta_concentrated(t, s, sq, chi) in its own forms; on a
    # 10-step grid it solves as the library's own squeezed kernel does
    workloads = _load("workloads")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(workloads, "_SQ_TMAX", 5.0 * workloads._SQ_DT)
    inp = workloads.squeezed_cli_inputs(1, None)
    ref = workloads._squeezed_reference(inp)
    alpha, omega = inp["alpha"], inp["omega"]
    sq = qv.SqueezeParams(r=inp["r"], q=np.array([omega, 0.0, 0.0]),
                          d=np.array([0.0, 0.0, 1.0]), amplitude=5e-4)
    kernel = qv.make_kernel("squeezed_concentrated",
                            density=qv.hydrogen_density(alpha), squeeze=sq,
                            chi=qv.hydrogen_chi(alpha))
    grid = qv.TimeGrid(dt=workloads._SQ_DT / 2.0, n_steps=10)
    c = qv.solve_ide(kernel, qv.ModelParams(alpha=alpha, omega=omega), grid,
                     "gregory4").values
    assert ref.shape == c.shape == (11,)
    assert np.max(np.abs(c - ref)) <= 1e-12


@pytest.mark.parametrize("name", [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_run_finds_every_layer(name, tmp_path, monkeypatch):
    # a gated workload's timed section, once, under the tracer: every layer
    # the workload declares records a span or a count, as the traced
    # benchmark run requires of it
    tracer, workloads = _load("tracer"), _load("workloads")
    wl = workloads.WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    tr = tracer.Tracer(run_id=f"{name}-1")
    inp = wl.inputs(1, tr.count)
    tr.install()
    try:
        wl.run(inp)
    finally:
        tr.uninstall()
    assert tracer.missing_layers(tracer.layer_metrics(tr), wl.layers) == []


def test_public_surface_takes_no_tolerance():
    # tolerances and units are fixed in the layer that uses them: no public
    # callable takes a QuadConfig or a unit system, and neither is exported
    for name in qv.__all__:
        obj = getattr(qv, name)
        # an exception class takes a message, and a builtin base has no
        # signature to read
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, Exception)):
            params = inspect.signature(obj).parameters
            assert not {"cfg", "units"} & set(params), name
    for name in ("QuadConfig", "DEFAULT_QUAD", "UnitSystem",
                 "DEFAULT_UNITS"):
        assert name not in qv.__all__ and not hasattr(qv, name), name
