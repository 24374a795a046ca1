"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line.

Criterion 9 (unitarity) inspects every state-derived solve performed by the
other criteria, so its test function is defined last in this module.
"""

import cmath
import math
import time

import numpy as np
import pytest

from qedvolterra import FINE_STRUCTURE, KernelEvaluator, ModelParams, \
    SqueezeParams, TimeGrid, analyze, bromwich_invert, \
    compute_Z, energy_to_ev, estimate_order, hydrogen_chi, hydrogen_density, \
    make_kernel, markov_rate, solve_ide, solve_integral_form, \
    squeezed_delta_concentrated, vacuum_kernel
from qedvolterra.cli import fit_decay

from conftest import record_criterion

# every solve over a field-state kernel lands here for the unitarity check
_SOLVED: list[tuple[str, object]] = []


def _register(label, series):
    _SOLVED.append((label, series))
    return series


def _const_kernel():
    return KernelEvaluator(None, stationary=True, label="const",
                           tau_fn=lambda lag: 1.0 + 0.0j)


def _exp_kernel():
    return KernelEvaluator(None, stationary=True, label="exp",
                           tau_fn=lambda lag: cmath.exp(-abs(lag)))


@pytest.fixture(scope="module")
def synthetic_problem(synthetic_density):
    """Criterion 6 setup, shared with criterion 7 and the unitarity check."""
    t0 = time.perf_counter()
    params = ModelParams(alpha=0.01, omega=1.0)
    grid = TimeGrid(dt=0.01, n_steps=20000)
    kernel = make_kernel("custom", density=synthetic_density,
                         tabulate=(grid.t_max, 0.02))
    ide = _register("synthetic ide", solve_ide(kernel, params, grid,
                                               "trapezoid"))
    integral = solve_integral_form(compute_Z(kernel, params, grid), grid)
    coarse = TimeGrid(dt=1.0, n_steps=200)
    brom = bromwich_invert(synthetic_density, params, coarse)
    elapsed = time.perf_counter() - t0
    return dict(params=params, grid=grid, ide=ide, integral=integral,
                bromwich=brom, coarse=coarse, elapsed=elapsed)


def test_criterion_01_decoupled_limit():
    t0 = time.perf_counter()
    grid = TimeGrid(dt=0.05, n_steps=100)
    params = ModelParams(alpha=0.0, omega=0.2)
    kernel = make_kernel("vacuum", density=hydrogen_density(0.5))
    ok = all(np.all(solve_ide(kernel, params, grid, m).values == 1.0)
             for m in ("trapezoid", "gregory4"))
    elapsed = time.perf_counter() - t0
    record_criterion(1, "decoupled limit", ok and elapsed < 1.0,
                     f"elapsed {elapsed:.3f} s")


def test_criterion_02_constant_kernel_oracle():
    alpha = 0.25
    grid = TimeGrid(dt=1e-3, n_steps=10000)
    series = solve_ide(_const_kernel(), ModelParams(alpha=alpha, omega=0.0),
                       grid, "trapezoid")
    err = float(np.max(np.abs(series.values
                              - np.cos(0.5 * grid.times))))
    record_criterion(2, "constant-kernel cosine oracle", err <= 1e-4,
                     f"max err {err:.2e}")


def _exp_reference(alpha, omega, times):
    b = 1j * omega - 1.0
    disc = cmath.sqrt(b * b - 4.0 * alpha)
    rp, rm = 0.5 * (b + disc), 0.5 * (b - disc)
    return (rp * np.exp(rm * times) - rm * np.exp(rp * times)) / (rp - rm)


def test_criterion_03_exponential_kernel_oracle():
    alpha, omega = 0.1, 0.5
    grid = TimeGrid(dt=1e-3, n_steps=50000)
    series = solve_ide(_exp_kernel(), ModelParams(alpha=alpha, omega=omega),
                       grid, "trapezoid")
    err = float(np.max(np.abs(series.values
                              - _exp_reference(alpha, omega, grid.times))))
    record_criterion(3, "exponential-kernel closed form", err <= 1e-4,
                     f"max err {err:.2e}")


def test_criterion_04_convergence_orders():
    alpha, omega = 0.1, 0.5
    params = ModelParams(alpha=alpha, omega=omega)
    grid = TimeGrid(dt=0.02, n_steps=500)
    ref = lambda t: _exp_reference(alpha, omega, t)
    p2 = estimate_order(_exp_kernel(), params, grid, "trapezoid", ref)
    p4 = estimate_order(_exp_kernel(), params, grid, "gregory4", ref)
    ok = p2.conclusive and abs(p2.order - 2.0) <= 0.2 \
        and p4.conclusive and abs(p4.order - 4.0) <= 0.5
    record_criterion(4, "convergence orders 2 and 4", ok,
                     f"trapezoid {p2.order:.3f}, gregory4 {p4.order:.3f}")


def test_criterion_05_kernel_moment():
    t0 = time.perf_counter()
    worst = 0.0
    # S(tau) runs in the density's own units, so one default tolerance
    # serves every alpha, the physical one included
    for alpha in (1.0, 0.1, FINE_STRUCTURE, 1e-3):
        s0 = vacuum_kernel(0.0, hydrogen_density(alpha)).real
        exact = 32.0 * alpha**4 / (6561.0 * math.pi**2)
        worst = max(worst, abs(s0 / exact - 1.0))
    elapsed = time.perf_counter() - t0
    record_criterion(5, "vacuum kernel S(0) closed form",
                     worst <= 1e-8 and elapsed < 1.0,
                     f"rel err {worst:.2e}, elapsed {elapsed:.3f} s")


def test_criterion_06_method_equivalence(synthetic_problem):
    sp = synthetic_problem
    d_int = float(np.max(np.abs(sp["integral"].values - sp["ide"].values)))
    d_brom = float(np.max(np.abs(sp["bromwich"].values
                                 - sp["ide"].values[::100])))
    ok = d_int <= 1e-6 and d_brom <= 1e-3 and sp["elapsed"] < 60.0
    record_criterion(6, "ide / integral-form / Bromwich equivalence", ok,
                     f"integral {d_int:.2e}, bromwich {d_brom:.2e}, "
                     f"elapsed {sp['elapsed']:.1f} s")


def test_criterion_07_rate_consistency_chain(synthetic_problem,
                                             synthetic_density):
    sp = synthetic_problem
    fit = fit_decay(sp["ide"], (40.0, 180.0))
    result = analyze(synthetic_density, sp["params"])
    g_fit, g_m, g_p = fit.gamma_fit, result.gamma_markov, result.gamma_pole
    ok = (abs(g_m / (2.0 * math.pi * 0.01 * math.exp(-1.0)) - 1.0) < 1e-12
          and abs(g_fit - g_m) / g_m <= 0.05
          and abs(g_fit - g_p) / g_p <= 0.05
          and abs(g_m - g_p) / g_p <= 0.02)
    record_criterion(7, "rate chain fit/markov/pole", ok,
                     f"fit {g_fit:.6f}, markov {g_m:.6f}, pole {g_p:.6f}")


def test_criterion_08_short_time_law():
    alpha = 0.5
    params = ModelParams(alpha=alpha, omega=0.375 * alpha**2)
    kernel = make_kernel("vacuum", density=hydrogen_density(alpha))
    grid = TimeGrid(dt=0.05, n_steps=10)
    series = _register("short-time vacuum",
                       solve_ide(kernel, params, grid, "gregory4"))
    t = grid.times[1:]
    y = 1.0 - series.values.real[1:]
    coeff = float(np.dot(y, t**2) / np.dot(t**2, t**2))
    expected = 0.5 * alpha * kernel.tau_values(np.array([0.0]))[0].real
    rel = abs(coeff / expected - 1.0)
    record_criterion(8, "short-time quadratic law", rel <= 0.01,
                     f"coefficient rel err {rel:.2e}")


def test_criterion_10_squeezed_reductions():
    alpha = 0.5
    rho = hydrogen_density(alpha)
    chi = hydrogen_chi(alpha)
    omega = 0.375 * alpha**2
    params = ModelParams(alpha=alpha, omega=omega)
    grid = TimeGrid(dt=0.1, n_steps=300)
    vac = _register("vacuum baseline",
                    solve_ide(make_kernel("vacuum", density=rho), params,
                              grid, "trapezoid"))

    # r = 0 must be the vacuum
    sq0 = SqueezeParams(r=0.0, q=np.array([omega, 0.0, 0.0]),
                        d=np.array([0.0, 0.0, 1.0]))
    k0 = make_kernel("squeezed_concentrated", density=rho, squeeze=sq0,
                     chi=chi)
    c0 = _register("squeezed r=0", solve_ide(k0, params, grid, "trapezoid"))
    dev_r0 = float(np.max(np.abs(c0.values - vac.values)))

    # d . chi(q) = 0 (carrier along z, polarization in the plane) must be
    # the vacuum too
    sq_perp = SqueezeParams(r=0.5, q=np.array([0.0, 0.0, omega]),
                            d=np.array([1.0, 0.0, 0.0]))
    k_perp = make_kernel("squeezed_concentrated", density=rho,
                         squeeze=sq_perp, chi=chi)
    c_perp = _register("squeezed orthogonal",
                       solve_ide(k_perp, params, grid, "trapezoid"))
    dev_perp = float(np.max(np.abs(c_perp.values - vac.values)))

    # active squeezing: carrier along x, polarization along z
    amp = 5e-4
    sq = SqueezeParams(r=0.5, q=np.array([omega, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]), amplitude=amp)
    kernel = make_kernel("squeezed_concentrated", density=rho, squeeze=sq,
                         chi=chi)
    m = complex(np.dot(sq.d, chi(sq.q)))
    sh, ch = math.sinh(0.5), math.cosh(0.5)
    bound = 2.0 * amp * abs(m) ** 2 * (sh * ch + sh * sh)
    rng = np.random.default_rng(7)
    pairs = rng.uniform(0.0, grid.t_max, size=(20, 2))
    vac_k = make_kernel("vacuum", density=rho)
    envelope_ok = all(
        abs(squeezed_delta_concentrated(t, s, sq, chi))
        <= bound * (1.0 + 1e-12) for t, s in pairs)
    hermitian_ok = all(
        abs(kernel.eval(t, s) - np.conj(kernel.eval(s, t))) <= 1e-10
        for t, s in pairs)
    shift = max(abs(kernel.eval(t + 3.0, s + 3.0) - kernel.eval(t, s))
                for t, s in pairs[:5])
    s0 = vac_k.tau_values(np.array([0.0]))[0]
    nonstationary_ok = shift > 1e-6 * abs(s0)
    _register("squeezed r=0.5", solve_ide(kernel, params, grid, "trapezoid"))

    ok = dev_r0 <= 1e-12 and dev_perp <= 1e-12 and envelope_ok \
        and hermitian_ok and nonstationary_ok
    record_criterion(10, "squeezed-state reductions", ok,
                     f"r=0 dev {dev_r0:.1e}, orthogonal dev {dev_perp:.1e}, "
                     f"envelope {envelope_ok}, hermitian {hermitian_ok}, "
                     f"non-stationary {nonstationary_ok}")


def test_criterion_11_physical_constants_path():
    params = ModelParams.hydrogen_2p1s()
    gamma = markov_rate(hydrogen_density(params.alpha), params)
    ev = energy_to_ev(params.omega)
    ok = abs(gamma / 6.43e-14 - 1.0) <= 0.01 and abs(ev - 10.20) <= 0.01
    record_criterion(11, "physical hydrogen rate and transition energy", ok,
                     f"gamma {gamma:.4e}, energy {ev:.4f} eV")


def test_criterion_09_unitarity_bound(synthetic_problem):
    # defined last: consumes every solve registered above
    assert len(_SOLVED) >= 5
    worst = ""
    ok = True
    for label, series in _SOLVED:
        tol = 1.0 + 10.0 * series.grid.dt**2
        peak = float(np.max(np.abs(series.values)))
        if peak > tol:
            ok = False
            worst += f" {label}: max|c| {peak:.6f} > {tol:.6f};"
    record_criterion(9, "unitarity bound on all solves", ok,
                     worst or f"{len(_SOLVED)} solves checked")
