"""The four benchmark workloads: seeded inputs, timed section and oracles.

Each workload has three parts:

* ``inputs(seed, count)`` draws the parameters from narrow bands around
  fixed values and builds the only things the program receives: a
  configuration file in the working directory, or density / kernel
  objects.  ``count(name, n)`` lets a traced run count the samples
  requested from a supplied density.
* ``run(inp)`` is the timed section, from the first call into the package
  to the last output written.  It returns what the oracles need.
* ``check(inp, out, ref_path)`` runs outside the timed section.  It returns
  one ``Op`` per checked operation; an operation fails when it raised,
  exited non-zero or missed its oracle bound.

The workloads are chosen so that each module carries the run on one
workload and does almost nothing on another (see README.md).
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass

import numpy as np

import qedvolterra as qv
from qedvolterra import cli


@dataclass
class Op:
    name: str
    ok: bool
    err: float          # deviation from the oracle, in the oracle's unit
    bound: float


def _band(rng, centre: float, rel: float) -> float:
    return centre * (1.0 + rng.uniform(-rel, rel))


# --------------------------------------------------------------------------
# decay_chain: the paper's cross-check on rho(p) = p exp(-p)

def _p_exp(p):
    return p * np.exp(-p)


def _p_exp_extension(z):
    return z * np.exp(-z)


def decay_chain_inputs(seed, count):
    rng = np.random.default_rng(seed)
    alpha, omega = _band(rng, 0.01, 0.02), _band(rng, 1.0, 0.02)

    def fn(p):
        count("quadrature.integrand_points", np.size(p))
        return _p_exp(p)

    density = qv.SpectralDensity(
        fn=fn if count is not None else _p_exp, label="p_exp", scale=1.0,
        peak=1.0, decay_rate=1.0, analytic_extension=_p_exp_extension)
    return {"params": qv.ModelParams(alpha=alpha, omega=omega),
            "density": density}


def decay_chain_run(inp):
    rho, params = inp["density"], inp["params"]
    grid = qv.TimeGrid(dt=0.01, n_steps=20000)
    kernel = qv.make_kernel("custom", density=rho, tabulate=(grid.t_max, 0.02))
    ide = qv.solve_ide(kernel, params, grid, "trapezoid")
    integral = qv.solve_integral_form(qv.compute_Z(kernel, params, grid), grid)
    an = qv.analyze(rho, params)
    brom = qv.bromwich_invert(rho, params, qv.TimeGrid(dt=1.0, n_steps=200))
    fit = cli.fit_decay(ide, (40.0, 180.0))
    return {"ide": ide.values, "integral": integral.values,
            "bromwich": brom.values, "gamma_fit": fit.gamma_fit,
            "gamma_pole": an.gamma_pole, "gamma_markov": an.gamma_markov,
            "pole_re": an.pole.real}


def decay_chain_check(inp, out, ref_path):
    a, w = inp["params"].alpha, inp["params"].omega
    d_int = float(np.max(np.abs(out["integral"] - out["ide"])))
    d_brom = float(np.max(np.abs(out["bromwich"] - out["ide"][::100])))
    g_p = out["gamma_pole"]
    d_fit = abs(out["gamma_fit"] - g_p) / g_p
    g_closed = 2.0 * math.pi * a * w * math.exp(-w)
    d_markov = abs(out["gamma_markov"] / g_closed - 1.0)
    return [Op("integral_form_vs_ide", d_int <= 1e-6, d_int, 1e-6),
            Op("bromwich_vs_ide", d_brom <= 1e-3, d_brom, 1e-3),
            Op("fit_vs_pole", d_fit <= 0.05 and out["pole_re"] < 0.0,
               d_fit, 0.05),
            Op("markov_closed_form", d_markov <= 1e-12, d_markov, 1e-12)]


def decay_chain_err(ops):
    # amplitude error of the two independent reconstructions of c(t)
    return max(op.err for op in ops[:2])


# --------------------------------------------------------------------------
# solver_long: closed-form exponential kernel, O(N^2) history sums only

def _exp_tau(lag):
    return cmath.exp(-abs(lag))


def _exp_reference(alpha, omega, times):
    b = 1j * omega - 1.0
    disc = cmath.sqrt(b * b - 4.0 * alpha)
    rp, rm = 0.5 * (b + disc), 0.5 * (b - disc)
    return (rp * np.exp(rm * times) - rm * np.exp(rp * times)) / (rp - rm)


def solver_long_inputs(seed, count):
    rng = np.random.default_rng(seed)
    alpha, omega = _band(rng, 0.1, 0.02), _band(rng, 0.5, 0.02)
    kernel = qv.KernelEvaluator(None, stationary=True, label="exp",
                                tau_fn=_exp_tau)
    return {"params": qv.ModelParams(alpha=alpha, omega=omega),
            "kernel": kernel}


def solver_long_run(inp):
    kernel, params = inp["kernel"], inp["params"]
    grid = qv.TimeGrid(dt=1e-3, n_steps=50000)
    trap = qv.solve_ide(kernel, params, grid, "trapezoid")
    greg = qv.solve_ide(kernel, params, grid, "gregory4")
    integral = qv.solve_integral_form(qv.compute_Z(kernel, params, grid), grid)
    return {"times": grid.times, "trapezoid": trap.values,
            "gregory4": greg.values, "integral": integral.values}


# seed-commit errors 3.9e-8, 1.4e-13 and 4.5e-8; bounds sit ~20-70x above
_SOLVER_BOUNDS = {"trapezoid": 1e-6, "gregory4": 1e-11, "integral": 1e-6}


def solver_long_check(inp, out, ref_path):
    p = inp["params"]
    exact = _exp_reference(p.alpha, p.omega, out["times"])
    ops = []
    for name, bound in _SOLVER_BOUNDS.items():
        err = float(np.max(np.abs(out[name] - exact)))
        ops.append(Op(name, err <= bound, err, bound))
    return ops


def solver_long_err(ops):
    return max(op.err for op in ops)


# --------------------------------------------------------------------------
# squeezed_cli: `qedvolterra solve` on a squeezed, non-stationary kernel

_SQ_DT, _SQ_TMAX = 0.1, 400.1      # 4001 steps: tabulated, triangle-cached


def squeezed_cli_inputs(seed, count):
    rng = np.random.default_rng(seed)
    # the dt/2 difference moves about five times as much as alpha does,
    # so alpha's band is narrower than r's
    alpha, r = _band(rng, 0.5, 0.0025), _band(rng, 0.5, 0.02)
    omega = qv.transition_frequency(alpha)
    cfg, out = "squeezed.cfg", "squeezed.csv"
    with open(cfg, "w") as fh:
        fh.write(f"state = squeezed_concentrated\nalpha = {alpha!r}\n"
                 f"r = {r!r}\nq = {omega!r}, 0.0, 0.0\nd = 0.0, 0.0, 1.0\n"
                 f"amplitude = 5e-4\nmethod = gregory4\n"
                 f"dt = {_SQ_DT!r}\ntmax = {_SQ_TMAX!r}\nout = {out}\n")
    return {"alpha": alpha, "r": r, "omega": omega, "config": cfg,
            "out": out}


def squeezed_cli_run(inp):
    status = cli.main(["solve", "--config", inp["config"]])
    return {"status": status}


def _squeezed_reference(inp):
    """gregory4 at dt/2, with S0 from one quadrature per lag of the fine grid.

    Every lag the solver asks for is a multiple of dt/2, or, in the
    Richardson start-up, of dt/8 below 8 steps.  So the reference reads
    quadrature values directly, without a spline, and builds each kernel
    row with array operations instead of per-element lookups.
    """
    alpha = inp["alpha"]
    rho = qv.hydrogen_density(alpha)
    chi = qv.hydrogen_chi(alpha)
    sq = qv.SqueezeParams(r=inp["r"], q=np.array([inp["omega"], 0.0, 0.0]),
                          d=np.array([0.0, 0.0, 1.0]), amplitude=5e-4)
    h = _SQ_DT / 2.0
    n = int(round(_SQ_TMAX / h))
    q = h / 4.0
    fine = np.array([qv.vacuum_kernel(m * q, rho) for m in range(33)])
    coarse = np.array([qv.vacuum_kernel(k * h, rho) for k in range(n + 1)])

    def row(t, s):
        lag = t - np.asarray(s, dtype=float)
        m = np.rint(lag / q).astype(int)
        if np.any(np.abs(lag - m * q) > 1e-9 * max(t, 1.0)) or np.any(m < 0):
            raise ValueError("reference lag off the quadrature grid")
        s0 = np.where(m <= 32, fine[np.minimum(m, 32)],
                      coarse[np.minimum(m // 4, n)])
        return s0 + qv.squeezed_delta_concentrated(t, s, sq, chi)

    kernel = qv.KernelEvaluator(
        lambda t, s: complex(row(t, np.array([s]))[0]), stationary=False,
        label="reference", row_fn=row)
    params = qv.ModelParams(alpha=alpha, omega=inp["omega"])
    grid = qv.TimeGrid(dt=h, n_steps=n)
    return qv.solve_ide(kernel, params, grid, "gregory4").values


def squeezed_cli_check(inp, out, ref_path):
    if out["status"] != 0:
        return [Op("cli_solve", False, math.inf, 0.0)]
    data = np.loadtxt(inp["out"], delimiter=",", skiprows=1)
    c = data[:, 1] + 1j * data[:, 2]
    if os.path.exists(ref_path):
        ref = np.load(ref_path)
    else:
        ref = _squeezed_reference(inp)
        np.save(ref_path, ref)
    err = float(np.max(np.abs(c - ref[::2]))) if len(c) == len(ref[::2]) \
        else math.inf
    unitary = float(np.max(np.abs(c) ** 2)) <= 1.0 + 10.0 * _SQ_DT ** 2
    return [Op("cli_solve", unitary and err <= 1e-7, err, 1e-7)]


def squeezed_cli_err(ops):
    return ops[0].err


# --------------------------------------------------------------------------
# pole_sweep: `qedvolterra sweep` over 24 alpha for the hydrogen vacuum

_SWEEP_N = 24
# the pole search's own Newton tolerance; seed residuals reach 2.3e-16
_RESIDUAL_BOUND = 1e-12


def pole_sweep_inputs(seed, count):
    rng = np.random.default_rng(seed)
    base = np.linspace(0.2, 1.0, _SWEEP_N)
    alphas = np.clip(base * (1.0 + rng.uniform(-0.01, 0.01, _SWEEP_N)),
                     0.2, 1.0)
    cfg, out = "sweep.cfg", "sweep.csv"
    with open(cfg, "w") as fh:
        fh.write("state = vacuum\nsweep_axis = alpha\nsweep_values = "
                 + ", ".join(repr(float(a)) for a in alphas)
                 + f"\nout = {out}\n")
    return {"alphas": alphas, "config": cfg, "out": out}


def pole_sweep_run(inp):
    status = cli.main(["sweep", "--config", inp["config"]])
    return {"status": status}


def _hydrogen_markov(alpha):
    # gamma_M = 2 pi alpha rho(omega), written out independently of kernels
    omega = 0.375 * alpha * alpha
    rho = alpha * alpha / (3.0 * math.pi ** 2) * omega \
        / ((omega / alpha) ** 2 + 2.25) ** 4
    return 2.0 * math.pi * alpha * rho


def pole_sweep_check(inp, out, ref_path):
    if out["status"] != 0:
        return [Op(f"alpha[{i}]", False, math.inf, 0.01)
                for i in range(_SWEEP_N)]
    rows = np.atleast_2d(np.loadtxt(inp["out"], delimiter=",", skiprows=1))
    ops = []
    for i, a in enumerate(inp["alphas"]):
        if i >= len(rows) or rows[i, 0] != a:
            ops.append(Op(f"alpha[{i}]", False, math.inf, 0.01))
            continue
        _, g_m, g_p, pole_re, _, _, resid = rows[i]
        g_closed = _hydrogen_markov(a)
        dev = abs(g_p / g_closed - 1.0)
        ok = (pole_re < 0.0 and dev <= 0.01 and resid <= _RESIDUAL_BOUND
              and abs(g_m / g_closed - 1.0) <= 1e-12)
        ops.append(Op(f"alpha[{i}]", ok, dev, 0.01))
    return ops


def pole_sweep_err(ops):
    # largest |gamma_pole / gamma_Markov - 1| over the sweep
    return max(op.err for op in ops)


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object
    run: object
    check: object
    err: object
    ops: int            # operations checked per cold run
    layers: tuple       # layers that must record a span or count when traced


WORKLOADS = {w.name: w for w in (
    Workload("decay_chain", decay_chain_inputs, decay_chain_run,
             decay_chain_check, decay_chain_err, 4,
             ("quadrature", "kernels", "volterra", "laplace", "cli")),
    Workload("solver_long", solver_long_inputs, solver_long_run,
             solver_long_check, solver_long_err, len(_SOLVER_BOUNDS),
             ("kernels", "volterra")),
    Workload("squeezed_cli", squeezed_cli_inputs, squeezed_cli_run,
             squeezed_cli_check, squeezed_cli_err, 1,
             ("quadrature", "kernels", "volterra", "cli")),
    Workload("pole_sweep", pole_sweep_inputs, pole_sweep_run,
             pole_sweep_check, pole_sweep_err, _SWEEP_N,
             ("quadrature", "laplace", "cli")),
)}
