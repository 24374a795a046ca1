import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qedvolterra import KernelEvaluator, ModelParams, SolverError, \
    SqueezeParams, TimeGrid, compute_Z, estimate_order, hydrogen_chi, \
    hydrogen_density, make_kernel, solve_ide, solve_integral_form, \
    squeezed_delta_concentrated
from qedvolterra.volterra import _TOEPLITZ_LEAF, ZKernel, _HistorySum, \
    _gregory_weights, _history_split, _solve_gregory4, _solve_trapezoid, \
    _toeplitz_inverse


def const_kernel(value=1.0):
    return KernelEvaluator(None, stationary=True, label="const",
                           tau_fn=lambda lag: complex(value))


def exp_kernel(rate=1.0):
    return KernelEvaluator(None, stationary=True, label="exp",
                           tau_fn=lambda lag: cmath.exp(-rate * abs(lag))
                           if lag >= 0 else cmath.exp(-rate * abs(lag)))


def exp_kernel_reference(alpha, omega, times):
    """Closed form for S(tau) = e^{-tau}: the IDE reduces to the ODE
    c'' - (i omega - 1) c' + alpha c = 0, c(0) = 1, c'(0) = 0."""
    b = 1j * omega - 1.0
    disc = cmath.sqrt(b * b - 4.0 * alpha)
    rp, rm = 0.5 * (b + disc), 0.5 * (b - disc)
    t = np.asarray(times)
    return (rp * np.exp(rm * t) - rm * np.exp(rp * t)) / (rp - rm)


def test_time_grid():
    grid = TimeGrid(dt=0.5, n_steps=4)
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.t_max == 2.0
    with pytest.raises(ValueError):
        TimeGrid(dt=0.0, n_steps=3)
    with pytest.raises(ValueError):
        TimeGrid(dt=0.1, n_steps=0)


def test_time_grid_accepts_numpy_integers():
    grid = TimeGrid(dt=0.5, n_steps=np.int64(4))
    assert grid.t_max == 2.0 and len(grid.times) == 5


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_decoupled_limit_is_exact(method):
    grid = TimeGrid(dt=0.1, n_steps=50)
    series = solve_ide(const_kernel(), ModelParams(alpha=0.0, omega=2.0),
                       grid, method)
    assert np.all(series.values == 1.0)


@pytest.mark.parametrize("method,tol", [("trapezoid", 1e-4),
                                        ("gregory4", 1e-8)])
def test_constant_kernel_cosine(method, tol):
    # S == 1, omega = 0: c(t) = cos(sqrt(alpha) t)
    alpha = 0.25
    grid = TimeGrid(dt=1e-2, n_steps=1000)
    series = solve_ide(const_kernel(), ModelParams(alpha=alpha, omega=0.0),
                       grid, method)
    exact = np.cos(math.sqrt(alpha) * grid.times)
    assert np.max(np.abs(series.values - exact)) < tol


@pytest.mark.parametrize("method,tol", [("trapezoid", 2e-6),
                                        ("gregory4", 1e-10)])
def test_exponential_kernel_closed_form(method, tol):
    alpha, omega = 0.1, 0.5
    grid = TimeGrid(dt=5e-3, n_steps=2000)
    series = solve_ide(exp_kernel(), ModelParams(alpha=alpha, omega=omega),
                       grid, method)
    exact = exp_kernel_reference(alpha, omega, grid.times)
    assert np.max(np.abs(series.values - exact)) < tol


def test_convergence_orders():
    alpha, omega = 0.1, 0.5
    params = ModelParams(alpha=alpha, omega=omega)
    grid = TimeGrid(dt=0.02, n_steps=500)
    ref = lambda t: exp_kernel_reference(alpha, omega, t)
    est2 = estimate_order(exp_kernel(), params, grid, "trapezoid", ref)
    assert est2.conclusive and est2.order == pytest.approx(2.0, abs=0.2)
    est4 = estimate_order(exp_kernel(), params, grid, "gregory4", ref)
    assert est4.conclusive and est4.order == pytest.approx(4.0, abs=0.5)


def test_estimate_order_without_reference():
    params = ModelParams(alpha=0.1, omega=0.5)
    grid = TimeGrid(dt=0.02, n_steps=500)
    est = estimate_order(exp_kernel(), params, grid, "trapezoid")
    assert est.conclusive and est.order == pytest.approx(2.0, abs=0.3)


def test_step_size_refusal():
    kernel = const_kernel(1.0e6)
    with pytest.raises(SolverError, match="dt"):
        solve_ide(kernel, ModelParams(alpha=1.0, omega=0.0),
                  TimeGrid(dt=1.0, n_steps=5), "trapezoid")


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_step_size_refusal_over_whole_grid(method):
    # S(t, t) = (1 + t)^2 grows: the step is contractive at t = 0
    # (weight 0.25) but not at t_max = 10 (weight 30)
    def full_row(t, s):
        return (1.0 + t) * (1.0 + np.asarray(s))

    kernel = KernelEvaluator(lambda t, s: (1.0 + t) * (1.0 + s),
                             stationary=False, label="growing",
                             row_fn=full_row)
    with pytest.raises(SolverError, match="dt"):
        solve_ide(kernel, ModelParams(alpha=2.0, omega=0.0),
                  TimeGrid(dt=0.5, n_steps=20), method)


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_non_finite_amplitude_refused(method):
    # S0 turns NaN past lag 2.5; every step stays contractive, so only the
    # final finiteness check can refuse the NaN amplitude
    def tau_fn(lag):
        return complex(math.exp(-lag)) if abs(lag) < 2.5 else complex("nan")

    kernel = KernelEvaluator(None, stationary=True, label="nan-tail",
                             tau_fn=tau_fn)
    params = ModelParams(alpha=0.2, omega=0.5)
    with pytest.raises(SolverError, match="not finite from t = 2.5"):
        solve_ide(kernel, params, TimeGrid(dt=0.1, n_steps=40), method)
    # the same kernel short of the NaN lags solves
    series = solve_ide(kernel, params, TimeGrid(dt=0.1, n_steps=20), method)
    assert np.isfinite(series.values).all()


def test_unknown_method():
    with pytest.raises(ValueError):
        solve_ide(const_kernel(), ModelParams(alpha=0.1, omega=0.0),
                  TimeGrid(dt=0.1, n_steps=5), "simpson")


def test_compute_z_exponential_kernel():
    # Z(tau) = alpha (e^{(i omega - 1) tau} - 1) / (i omega - 1)
    alpha, omega = 0.3, 0.7
    grid = TimeGrid(dt=1e-3, n_steps=4000)
    z = compute_Z(exp_kernel(), ModelParams(alpha=alpha, omega=omega), grid)
    b = 1j * omega - 1.0
    exact = alpha * (np.exp(b * grid.times) - 1.0) / b
    assert z.values[0] == 0.0
    assert np.max(np.abs(z.values - exact)) < 1e-7


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 1000, 50_000])
def test_compute_z_matches_cumulative_trapezoid_bitwise(n_steps):
    # scipy is the oracle here only; compute_Z takes the same sums in numpy
    from scipy.integrate import cumulative_trapezoid
    # a complex kernel; compute_Z reads it at lags >= 0 only
    kernel = KernelEvaluator(
        None, stationary=True, label="damped",
        tau_fn=lambda lag: cmath.exp(complex(-0.3, 1.1) * lag))
    params = ModelParams(alpha=0.37, omega=0.61)
    grid = TimeGrid(dt=7.0 / n_steps, n_steps=n_steps)
    integrand = params.alpha * kernel.tau_values(grid.times) \
        * np.exp(1j * params.omega * grid.times)
    expected = cumulative_trapezoid(integrand, dx=grid.dt, initial=0.0)
    z = compute_Z(kernel, params, grid).values
    assert z.dtype == expected.dtype == np.complex128
    assert z.tobytes() == expected.tobytes()


def test_compute_z_rejects_nonstationary():
    rho = hydrogen_density(1.0)
    from qedvolterra import SqueezeParams, hydrogen_chi
    sq = SqueezeParams(r=0.2, q=np.array([1.0, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]))
    kernel = make_kernel("squeezed_concentrated", density=rho, squeeze=sq,
                         chi=hydrogen_chi(1.0))
    with pytest.raises(ValueError):
        compute_Z(kernel, ModelParams(alpha=0.1, omega=0.1),
                  TimeGrid(dt=0.1, n_steps=4))


def test_integral_form_matches_ide():
    alpha, omega = 0.1, 0.5
    params = ModelParams(alpha=alpha, omega=omega)
    grid = TimeGrid(dt=5e-3, n_steps=2000)
    kernel = exp_kernel()
    ide = solve_ide(kernel, params, grid, "trapezoid")
    z = compute_Z(kernel, params, grid)
    integral = solve_integral_form(z, grid)
    assert np.max(np.abs(integral.values - ide.values)) < 1e-6


def test_integral_form_grid_mismatch():
    params = ModelParams(alpha=0.1, omega=0.5)
    grid = TimeGrid(dt=0.01, n_steps=100)
    z = compute_Z(exp_kernel(), params, grid)
    with pytest.raises(ValueError):
        solve_integral_form(z, TimeGrid(dt=0.01, n_steps=50))


def test_vacuum_solve_unitarity_and_decay():
    alpha = 0.5
    params = ModelParams(alpha=alpha, omega=0.375 * alpha**2)
    rho = hydrogen_density(alpha)
    kernel = make_kernel("vacuum", density=rho)
    grid = TimeGrid(dt=0.1, n_steps=800)
    series = solve_ide(kernel, params, grid, "gregory4")
    assert np.max(np.abs(series.values)) <= 1.0 + 10.0 * grid.dt**2
    assert series.abs2[-1] < series.abs2[0]


def test_methods_agree_on_vacuum_kernel():
    alpha = 0.5
    params = ModelParams(alpha=alpha, omega=0.375 * alpha**2)
    kernel = make_kernel("vacuum", density=hydrogen_density(alpha))
    grid = TimeGrid(dt=0.05, n_steps=400)
    a = solve_ide(kernel, params, grid, "trapezoid")
    b = solve_ide(kernel, params, grid, "gregory4")
    assert np.max(np.abs(a.values - b.values)) < 1e-5


def test_series_metadata():
    grid = TimeGrid(dt=0.1, n_steps=10)
    series = solve_ide(const_kernel(), ModelParams(alpha=0.2, omega=0.0),
                       grid, "trapezoid")
    assert series.method == "trapezoid"
    assert series.alpha == 0.2
    assert series.kernel_label == "const"
    np.testing.assert_allclose(series.abs2, np.abs(series.values) ** 2)


# ------------------------------------------------- fast history sums


def direct_history(c, W, k):
    """Slow-path oracle: H_k = sum_{j<k} c_j W_{k-j} as one O(k) dot."""
    return np.dot(c[:k], W[k:0:-1])


def test_history_sum_matches_direct_dot():
    rng = np.random.default_rng(20)
    sizes = set(range(1, 301)) | {2**p + d for p in range(1, 13)
                                  for d in (-1, 1)}
    for n in sorted(sizes):
        c_true = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        W = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        # the unsolved c_k, c_{k+1}, ... hold their far field, added to
        # what the caller put there; a read of one as a source is caught
        # because it holds neither c_true nor zero
        held = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        c = held.copy()
        hist = _HistorySum(W, c)
        for k in range(1, n + 1):
            c[k - 1] = c_true[k - 1]
            # H_k: the far field F_k plus the pairs inside k's leaf
            lo = k - k % _HistorySum._LEAF
            h = hist.leaf(lo)[k - lo] + np.dot(c[lo:k], W[k - lo:0:-1]) \
                - held[k]
            assert np.isfinite(h), (n, k)
            scale = np.dot(np.abs(c_true[:k]), np.abs(W[k:0:-1])) \
                + abs(held[k])
            assert abs(h - direct_history(c_true, W, k)) <= 1e-13 * scale, \
                (n, k)


def history_rows(kernel, omega, grid):
    """k -> K_k[0..k], the history rows of ``kernel`` on ``grid``."""
    W, extra = _history_split(kernel, grid.times, omega)
    if extra is None:
        return lambda k: W[k::-1]
    return lambda k: W[k::-1] + extra(k)


def direct_trapezoid(W, alpha, dt, n=None):
    """The product-trapezoid loop with one O(k) history dot per step; W is
    the lag sequence or, with n, a function k -> K_k[0..k]."""
    row = W if n is not None else (lambda k: W[k::-1])
    n = n if n is not None else len(W) - 1
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    phi_prev = 0.0 + 0.0j
    for k in range(1, n + 1):
        K = row(k)
        phik = -alpha * dt * (0.5 * c[0] * K[0] + np.dot(c[1:k], K[1:k]))
        c[k] = (c[k - 1] + 0.5 * dt * (phi_prev + phik)) \
            / (1.0 + 0.25 * alpha * dt * dt * K[k])
        phi_prev = phik - 0.5 * alpha * dt * K[k] * c[k]
    return c


def direct_gregory4(kernel, params, grid):
    """The Gregory-4 loop with one O(k) history dot per step, started from
    direct trapezoid solves at dt, dt/2 and dt/4."""
    alpha, dt, n = params.alpha, grid.dt, grid.n_steps
    n_start = min(7, n)
    coarse, half, quarter = (
        direct_trapezoid(history_rows(kernel, params.omega,
                                      TimeGrid(dt / r, n_start * r)),
                         alpha, dt / r, n_start * r) for r in (1, 2, 4))
    r1 = (4.0 * half[::2] - coarse) / 3.0
    r2 = (4.0 * quarter[::2] - half) / 3.0
    c = np.empty(n + 1, dtype=complex)
    c[:n_start + 1] = (16.0 * r2[::2] - r1) / 15.0
    c[0] = 1.0
    if n <= 7:
        return c
    row = history_rows(kernel, params.omega, grid)
    phi = {k: -alpha * dt * np.dot(_gregory_weights(k), c[:k + 1] * row(k))
           for k in range(5, 8)}
    for k in range(8, n + 1):
        K = row(k)
        conv = np.dot(c[:k], K[:k]) + (3.0 / 8.0 - 1.0) * c[0] * K[0] \
            + (7.0 / 6.0 - 1.0) * (c[1] * K[1] + c[k - 1] * K[k - 1]) \
            + (23.0 / 24.0 - 1.0) * (c[2] * K[2] + c[k - 2] * K[k - 2])
        phi_known = -alpha * dt * conv
        rhs = c[k - 1] + dt / 24.0 * (9.0 * phi_known + 19.0 * phi[k - 1]
                                      - 5.0 * phi[k - 2] + phi[k - 3])
        c[k] = rhs / (1.0 + alpha * dt * dt * (9.0 / 24.0) * (3.0 / 8.0)
                      * K[k])
        phi[k] = phi_known - alpha * dt * (3.0 / 8.0) * K[k] * c[k]
    return c


def direct_integral_form(Z, dt):
    n = len(Z) - 1
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    for k in range(1, n + 1):
        c[k] = 1.0 - dt * (0.5 * c[0] * Z[k] + np.dot(c[1:k], Z[k - 1:0:-1]))
    return c


def test_fft_history_solvers_match_direct_loops():
    params = ModelParams(alpha=0.1, omega=0.5)
    grid = TimeGrid(dt=1e-3, n_steps=20000)
    kernel = exp_kernel()
    W = kernel.tau_values(grid.times) * np.exp(1j * params.omega * grid.times)
    trap = solve_ide(kernel, params, grid, "trapezoid").values
    assert np.max(np.abs(trap - direct_trapezoid(W, params.alpha,
                                                 grid.dt))) <= 1e-12
    greg = solve_ide(kernel, params, grid, "gregory4").values
    assert np.max(np.abs(greg - direct_gregory4(kernel, params,
                                                grid))) <= 1e-12
    z = compute_Z(kernel, params, grid)
    integral = solve_integral_form(z, grid).values
    assert np.max(np.abs(integral - direct_integral_form(
        z.values, grid.dt))) <= 1e-12


LEAF = _HistorySum._LEAF
TLEAF = _TOEPLITZ_LEAF


def transform_length(b, top):
    """The smallest L >= b + top that is a multiple of b/8."""
    return b // 8 * math.ceil((b + top) / (b // 8))


def uncached_far(W, c):
    """The far-field sums of every leaf, each block's transform of W taken
    afresh."""
    n = len(W) - 1
    far = np.zeros(n + 1, dtype=complex)
    for m in range(LEAF, n + 1, LEAF):
        q = m // LEAF
        b = LEAF * (q & -q)
        top = min(b, n + 1 - m)
        L = transform_length(b, top)
        a = np.fft.fft(c[m - b:m], n=L)
        a *= np.fft.fft(W[:L], n=L)
        np.fft.ifft(a, out=a)
        far[m:m + top] += a[b:b + top]
    return far


def simulated_far(W, c_true, leaf=LEAF):
    """The far field of each leaf as a solve sees it: read the leaf's
    sums, then write its c over them."""
    n = len(W) - 1
    c = np.zeros(n + 1, dtype=complex)
    far = np.empty(n + 1, dtype=complex)
    hist = _HistorySum(W, c, leaf)
    for lo in range(0, n + 1, leaf):
        far[lo:lo + leaf] = hist.leaf(lo)
        c[lo:lo + leaf] = c_true[lo:lo + leaf]
    return far, hist


# 3 * 2^10 + 5 ends 6 steps into the upper half of the 1024-step block at
# 3072, and 1030 steps into that of the 2048-step block at 2048
@pytest.mark.parametrize("n", [LEAF - 1, 4 * LEAF, 5 * LEAF + 3, 4097,
                               3 * 2**10 + 5])
def test_history_sum_caches_block_transforms_bitwise(n):
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    W = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    far, hist = simulated_far(W, c)
    assert far.tobytes() == uncached_far(W, c).tobytes()
    # one transform of W kept per length 2B; a shorter one serves the last
    # block of its size only, and is not kept
    lengths = set()
    for m in range(LEAF, n + 1, LEAF):
        b = LEAF * ((m // LEAF) & -(m // LEAF))
        L = transform_length(b, min(b, n + 1 - m))
        if L == 2 * b:
            lengths.add(L)
    assert set(hist._W_fft) == lengths


@pytest.mark.parametrize("leaf, n", [(LEAF, 3 * 2**10 + 5),
                                     (TLEAF, 3 * 2**12 + 5)])
def test_truncated_block_far_field_matches_direct_sums(leaf, n):
    # the grid ends just inside the target half of its last blocks, whose
    # transforms are cut short
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    W = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    far = simulated_far(W, c, leaf)[0]
    for k in range(n + 1):
        lo = k - k % leaf
        want = np.dot(c[:lo], W[k:k - lo:-1]) if lo else 0.0
        scale = np.dot(np.abs(c[:lo]), np.abs(W[k:k - lo:-1]))
        assert abs(far[k] - want) <= 1e-12 * scale, k


def damped_kernel(rate=complex(-0.3, 1.1)):
    return KernelEvaluator(None, stationary=True, label="damped",
                           tau_fn=lambda lag: cmath.exp(rate * abs(lag)))


def assert_stationary_solvers_match_direct_loops(kernel, params, grid):
    W = kernel.tau_values(grid.times) * np.exp(1j * params.omega * grid.times)
    z = compute_Z(kernel, params, grid)
    pairs = [(solve_ide(kernel, params, grid, "trapezoid").values,
              direct_trapezoid(W, params.alpha, grid.dt)),
             (solve_ide(kernel, params, grid, "gregory4").values,
              direct_gregory4(kernel, params, grid)),
             (solve_integral_form(z, grid).values,
              direct_integral_form(z.values, grid.dt))]
    for fast, slow in pairs:
        scale = max(1.0, np.max(np.abs(slow)))
        assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


@pytest.mark.parametrize("n_steps", sorted(
    {1, 7, 8, 9, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 3}
    | {TLEAF, TLEAF + 7, 2 * TLEAF + 7}
    | {2**p + d for p in range(1, 13) for d in (-1, 1)}))
def test_leaf_solvers_match_direct_loops(n_steps):
    # every leaf shape: the first leaf with its known start, full leaves,
    # and a last leaf of any length.  The stationary leaves start at c_1
    # (trapezoid, integral form) or c_8 (gregory4), so TLEAF - 1 .. TLEAF + 1
    # and TLEAF + 7, 2 * TLEAF + 7 end around a leaf boundary of each
    assert_stationary_solvers_match_direct_loops(
        damped_kernel(), ModelParams(alpha=0.37, omega=0.61),
        TimeGrid(dt=0.01, n_steps=n_steps))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3 * TLEAF), st.floats(0.01, 2.0),
       st.floats(-3.0, 3.0))
@example(TLEAF + 8, 0.3, 1.1)
@example(3 * TLEAF, 0.01, -3.0)
@example(1021, 0.3, 1.1)
@example(1028, 0.3, 1.1)
def test_stationary_solvers_match_direct_loops(n_steps, a, b):
    # S(tau) = e^{(-a + ib)|tau|}, any grid length up to three leaves.  The
    # first leaf of the trapezoid at 1021 steps, and of gregory4 at 1028,
    # has the prime length 1021
    assert_stationary_solvers_match_direct_loops(
        damped_kernel(complex(-a, b)), ModelParams(alpha=0.37, omega=0.61),
        TimeGrid(dt=0.01, n_steps=n_steps))


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_non_stationary_leaf_solve_matches_direct_loop(method):
    # the squeezed S0 + R split over four leaves against the step loop on
    # its full rows
    params = ModelParams(alpha=SQ_ALPHA, omega=SQ_OMEGA)
    grid = TimeGrid(dt=0.1, n_steps=3 * LEAF + 5)
    kernel = squeezed_kernel(0.5, tabulate=(grid.t_max, grid.dt / 4.0))[0]
    fast = solve_ide(kernel, params, grid, method).values
    if method == "trapezoid":
        slow = direct_trapezoid(history_rows(kernel, params.omega, grid),
                                params.alpha, grid.dt, grid.n_steps)
    else:
        slow = direct_gregory4(kernel, params, grid)
    assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_step_size_refusal_inside_a_later_leaf(method):
    # S(t, t) = (1 + t)^2: the first non-contractive step lies in the
    # sixth leaf, and its own diagonal sets the suggested dt
    alpha, dt = 2.0, 0.05
    kernel = KernelEvaluator(lambda t, s: (1.0 + t) * (1.0 + s),
                             stationary=False, label="growing",
                             row_fn=lambda t, s: (1.0 + t)
                             * (1.0 + np.asarray(s)))
    grid = TimeGrid(dt=dt, n_steps=8 * LEAF)
    diag = (1.0 + grid.times) ** 2
    k = int(np.flatnonzero(alpha * dt * dt * diag / 2.0 >= 1.0)[0])
    assert 5 * LEAF < k < 6 * LEAF
    suggested = math.sqrt(0.5 / (alpha * diag[k]))
    message = (f"dt={dt:g} too large for this kernel (diagonal weight >= 1); "
               f"use dt < {suggested:.3g}")
    with pytest.raises(SolverError) as info:
        solve_ide(kernel, ModelParams(alpha=alpha, omega=0.0), grid, method)
    assert str(info.value) == message


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_nan_rows_are_a_solver_error(method):
    # a non-stationary kernel turns NaN from t = 20 on, inside a later leaf:
    # the leaf solve stops there and the finiteness check refuses it
    def row(t, s):
        s = np.asarray(s)
        return np.exp(-(t - s)) * (1.0 + 0.1j * s) if t < 20.0 \
            else np.full(s.shape, np.nan)

    kernel = KernelEvaluator(lambda t, s: row(t, np.array(s)).item(),
                             stationary=False, label="nan-late", row_fn=row)
    grid = TimeGrid(dt=0.1, n_steps=4 * LEAF)
    with pytest.raises(SolverError, match="not finite from t = 20 on"):
        solve_ide(kernel, ModelParams(alpha=0.3, omega=0.5), grid, method)


def test_nan_lags_past_the_first_leaf():
    # NaN lags from t = 15 on (k = 150, in the third leaf): c is NaN from
    # exactly there, as in the step loops, and finite before it; the far
    # field must not carry the NaN into earlier rows.  The IDE solvers
    # refuse it at t = 15
    def tau_fn(lag):
        return complex(math.exp(-lag)) if abs(lag) < 15.0 else complex("nan")

    kernel = KernelEvaluator(None, stationary=True, label="nan-tail",
                             tau_fn=tau_fn)
    params = ModelParams(alpha=0.2, omega=0.5)
    grid = TimeGrid(dt=0.1, n_steps=4 * LEAF)
    for method in ("trapezoid", "gregory4"):
        with pytest.raises(SolverError, match="from t = 15 "):
            solve_ide(kernel, params, grid, method)
    W = kernel.tau_values(grid.times) * np.exp(1j * params.omega * grid.times)
    z = compute_Z(kernel, params, grid)
    for got, want in (
            (_solve_trapezoid(kernel, params, grid),
             direct_trapezoid(W, params.alpha, grid.dt)),
            (_solve_gregory4(kernel, params, grid),
             direct_gregory4(kernel, params, grid)),
            (solve_integral_form(z, grid).values,
             direct_integral_form(z.values, grid.dt))):
        first = int(np.argmin(np.isfinite(got)))
        assert first == 150 and not np.isfinite(got[first:]).any()
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        assert np.max(np.abs(got[:first] - want[:first])) <= 1e-12


def test_singular_leaf_system_is_a_solver_error():
    # Z(0) = -2/dt zeroes the diagonal of the integral form's leaf system
    grid = TimeGrid(dt=0.1, n_steps=10)
    values = np.zeros(11, dtype=complex)
    values[0] = -2.0 / grid.dt
    with pytest.raises(SolverError, match="singular"):
        solve_integral_form(ZKernel(grid=grid, values=values), grid)


# ------------------------------------------- stationary Toeplitz path


def test_nan_lag_inside_a_later_toeplitz_leaf():
    # NaN lags from k = 2 * TLEAF + 89 on, in the third leaf of every
    # solver: c is NaN from exactly that row, and the rows before it are
    # the step loops'
    first_nan = 2 * TLEAF + 89

    def tau_fn(lag):
        return complex(math.exp(-lag)) if abs(lag) < (first_nan - 0.5) * 0.1 \
            else complex("nan")

    kernel = KernelEvaluator(None, stationary=True, label="nan-tail",
                             tau_fn=tau_fn)
    params = ModelParams(alpha=0.2, omega=0.5)
    grid = TimeGrid(dt=0.1, n_steps=3 * TLEAF + 20)
    W = kernel.tau_values(grid.times) * np.exp(1j * params.omega * grid.times)
    z = compute_Z(kernel, params, grid)
    for got, want in (
            (_solve_trapezoid(kernel, params, grid),
             direct_trapezoid(W, params.alpha, grid.dt)),
            (_solve_gregory4(kernel, params, grid),
             direct_gregory4(kernel, params, grid)),
            (solve_integral_form(z, grid).values,
             direct_integral_form(z.values, grid.dt))):
        first = int(np.argmin(np.isfinite(got)))
        assert first == first_nan and np.isnan(got[first:]).all()
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        assert np.max(np.abs(got[:first] - want[:first])) <= 1e-12


def test_leaf_inverse_overflowing_part_way():
    # Z_1 = -1000/dt, all other Z zero: the leaf inverse is 1000^i, inf at
    # i = 103 and NaN after, and c_k = 1 + 1000 c_{k-1} overflows at
    # k = 103.  c is inf there and NaN from the inverse's overflow on, in
    # this leaf and every later one, and matches the loop before it
    grid = TimeGrid(dt=0.1, n_steps=2 * TLEAF + 40)
    values = np.zeros(grid.n_steps + 1, dtype=complex)
    values[1] = -1000.0 / grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        got = solve_integral_form(ZKernel(grid=grid, values=values),
                                  grid).values
        want = direct_integral_form(values, grid.dt)
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    assert np.isfinite(got[:103]).all() and not np.isfinite(got[103])
    assert np.isnan(got[104:]).all()
    assert np.max(np.abs(got[:103] - want[:103])
                  / np.abs(want[:103])) <= 1e-12


def test_gregory4_meets_the_closed_form_to_rounding():
    # the discretisation error is below 1e-14 at this dt, so the bound is
    # on rounding: 1.3e-14 measured over 20 leaves, against 1.05e-13 with
    # each leaf's inverse taken from its own matrix A, not from A's near-I
    # factor F
    params = ModelParams(alpha=0.1, omega=0.5)
    grid = TimeGrid(dt=1e-3, n_steps=20000)
    got = solve_ide(exp_kernel(), params, grid, "gregory4").values
    exact = exp_kernel_reference(params.alpha, params.omega, grid.times)
    assert np.max(np.abs(got - exact)) <= 3e-14


def forward_substitution_inverse(a):
    """Slow-path oracle: the first column of A^-1 for the lower-triangular
    Toeplitz A of first column ``a``, one O(i) dot per entry."""
    x = np.empty(len(a), dtype=complex)
    x[0] = 1.0 / a[0]
    for i in range(1, len(a)):
        x[i] = -np.dot(a[i:0:-1], x[:i]) / a[0]
    return x


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 100, 255, 256, 257,
                               1000, TLEAF, TLEAF + 1, 3000, 2 * TLEAF,
                               2 * TLEAF + 3])
def test_toeplitz_inverse_matches_forward_substitution(n):
    rng = np.random.default_rng(n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # a diagonally dominant column, and a leaf system's 1 - z + O(dt^2)
    # of a damped kernel, whose inverse is nearly a running sum of ones
    dominant = noise * 0.25 ** np.arange(n)
    dominant[0] += 5.0
    damped = 1e-4 * np.exp(complex(-0.3, 1.1) * 0.01 * np.arange(n))
    for a in (dominant, np.r_[1.0, -1.0, np.zeros(n)][:n] + damped):
        x = _toeplitz_inverse(a)
        want = forward_substitution_inverse(a)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_toeplitz_inverse_overflowing_column():
    # 1 - 1000 z: the inverse is 1000^i, finite up to i = 102
    a = np.zeros(300, dtype=complex)
    a[:2] = 1.0, -1000.0
    with np.errstate(over="ignore", invalid="ignore"):
        x = _toeplitz_inverse(a)
    assert np.isfinite(x[:103]).all() and not np.isfinite(x[103:]).any()
    np.testing.assert_allclose(x[:103].real, 1000.0 ** np.arange(103),
                               rtol=1e-13)
    assert not x[:103].imag.any()


def test_toeplitz_inverse_redoes_an_overflowing_fft_doubling():
    # 1e-306 (1 - z): every entry of the inverse is 1e306, but from 256
    # entries on the transform of x overflows.  Each such doubling is
    # redone directly, and no warning is raised
    a = np.zeros(2 * TLEAF + 3, dtype=complex)
    a[:2] = 1e-306, -1e-306
    x = _toeplitz_inverse(a)
    want = forward_substitution_inverse(a)
    assert np.isfinite(x).all()
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_toeplitz_inverse_refuses_a_zero_diagonal():
    with pytest.raises(SolverError, match="singular"):
        _toeplitz_inverse(np.array([0.0, 1.0, 2.0], dtype=complex))


# tracemalloc's peak over a 50k-step solve, kernel read included, measured
# with the per-leaf B matrices and 64-step leaves this path replaced
_PEAK_BEFORE_TOEPLITZ = {"trapezoid": 5_622_496, "gregory4": 5_625_096}


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_stationary_solve_traced_peak(method):
    # the known terms are summed in place and no grid-sized array is added
    params = ModelParams(alpha=0.1, omega=0.5)
    kernel = exp_kernel()
    grid = TimeGrid(dt=1e-3, n_steps=50000)
    solve_ide(kernel, params, TimeGrid(dt=1e-3, n_steps=300), method)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_ide(kernel, params, grid, method)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BEFORE_TOEPLITZ[method]


def closed_form_non_stationary_kernel():
    return KernelEvaluator(
        None, stationary=False, label="exp+R",
        tau_fn=lambda lag: cmath.exp(-abs(lag)),
        row_fn=lambda t, s: 0.05 * np.exp(-0.2j * (t + s)))


# tracemalloc's peak over this 4000-step solve, kernel rows included,
# measured with the far field in an array of its own and no lag memo (the
# lower of 931 368 and 931 696 bytes, with this test file run or the test
# alone)
_PEAK_BEFORE_LAG_MEMO = 931_368


def test_non_stationary_solve_traced_peak():
    # the far field is held in c's unsolved tail, which pays for the memo
    params = ModelParams(alpha=0.1, omega=0.5)
    kernel = closed_form_non_stationary_kernel()
    solve_ide(kernel, params, TimeGrid(dt=1e-2, n_steps=300), "gregory4")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_ide(kernel, params, TimeGrid(dt=1e-2, n_steps=4000),
                  "gregory4")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_BEFORE_LAG_MEMO


# ------------------------------------------------------- lag memo


def counted_kernel(fail_past=math.inf):
    """exp_kernel whose tau_fn counts its calls in ``kernel.calls`` and
    raises past the lag ``fail_past``."""
    def tau_fn(lag):
        kernel.calls += 1
        if abs(lag) > fail_past:
            raise ValueError("lag out of range")
        return cmath.exp(-abs(lag))

    kernel = KernelEvaluator(None, stationary=True, label="counted",
                             tau_fn=tau_fn)
    kernel.calls = 0
    return kernel


def test_solves_on_one_grid_read_each_lag_once():
    params = ModelParams(alpha=0.37, omega=0.61)
    grid = TimeGrid(dt=0.01, n_steps=1000)
    kernel = counted_kernel()
    trap = solve_ide(kernel, params, grid, "trapezoid").values
    assert kernel.calls == 1001
    greg = solve_ide(kernel, params, grid, "gregory4").values
    # only the Richardson start-up grids at dt/2 and dt/4 are read anew
    assert kernel.calls == 1001 + 15 + 29
    z = compute_Z(kernel, params, grid).values
    assert kernel.calls == 1045
    # bit for bit what a kernel read afresh for each solve gives
    assert trap.tobytes() == solve_ide(counted_kernel(), params, grid,
                                       "trapezoid").values.tobytes()
    assert greg.tobytes() == solve_ide(counted_kernel(), params, grid,
                                       "gregory4").values.tobytes()
    assert z.tobytes() == compute_Z(counted_kernel(), params,
                                    grid).values.tobytes()


def test_shorter_grid_is_served_a_prefix_bitwise():
    kernel = counted_kernel()
    _history_split(kernel, TimeGrid(dt=0.01, n_steps=1000).times, 0.61)
    short = TimeGrid(dt=0.01, n_steps=373).times
    W = _history_split(kernel, short, 0.61)[0]
    assert kernel.calls == 1001
    fresh = _history_split(counted_kernel(), short, 0.61)[0]
    assert W.tobytes() == fresh.tobytes()


def test_memo_kept_for_shorter_or_other_grids():
    kernel = counted_kernel()
    times = TimeGrid(dt=0.01, n_steps=1000).times
    kernel._grid_s0(times)
    # a shorter grid is served, a shorter one with another dt read
    kernel._grid_s0(TimeGrid(dt=0.01, n_steps=10).times)
    kernel._grid_s0(TimeGrid(dt=0.005, n_steps=999).times)
    assert kernel.calls == 1001 + 1000
    kernel._grid_s0(times)
    assert kernel.calls == 2001
    # a longer grid is read anew and replaces it, whatever its dt
    assert len(kernel._grid_s0(TimeGrid(dt=0.01, n_steps=1001).times)) \
        == 1002
    kernel._grid_s0(TimeGrid(dt=0.005, n_steps=1002).times)
    kernel._grid_s0(times)
    assert kernel.calls == 2001 + 1002 + 1003 + 1001


def test_memo_is_read_only():
    kernel = counted_kernel()
    values = kernel._grid_s0(TimeGrid(dt=0.01, n_steps=100).times)
    for view in (values, kernel._grid_s0(TimeGrid(dt=0.01,
                                                  n_steps=50).times)):
        with pytest.raises(ValueError):
            view[0] = 0.0
    # W is a fresh array: the solvers weight its end lags in place
    W = _history_split(kernel, TimeGrid(dt=0.01, n_steps=100).times, 0.61)[0]
    W[1] = 0.0
    assert values[1] != 0.0


def test_raising_tau_fn_leaves_no_memo():
    params = ModelParams(alpha=0.37, omega=0.61)
    kernel = counted_kernel(fail_past=5.0)
    with pytest.raises(ValueError, match="lag out of range"):
        solve_ide(kernel, params, TimeGrid(dt=0.01, n_steps=1000))
    assert kernel._lags is None
    # nor replaces the memo it had
    solve_ide(kernel, params, TimeGrid(dt=0.01, n_steps=400))
    memo = kernel._lags
    with pytest.raises(ValueError, match="lag out of range"):
        solve_ide(kernel, params, TimeGrid(dt=0.01, n_steps=1000))
    assert kernel._lags is memo


# ----------------------------------------------- non-stationary kernels

SQ_ALPHA = 0.5
SQ_OMEGA = 0.375 * SQ_ALPHA**2


def squeezed_kernel(r, amplitude=5e-2, tabulate=None):
    sq = SqueezeParams(r=r, q=np.array([SQ_OMEGA, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]), amplitude=amplitude)
    kernel = make_kernel("squeezed_concentrated",
                         density=hydrogen_density(SQ_ALPHA), squeeze=sq,
                         chi=hydrogen_chi(SQ_ALPHA), tabulate=tabulate)
    return kernel, sq


def test_squeezed_r_zero_gregory4_is_vacuum():
    params = ModelParams(alpha=SQ_ALPHA, omega=SQ_OMEGA)
    grid = TimeGrid(dt=0.1, n_steps=100)
    vac = solve_ide(make_kernel("vacuum", density=hydrogen_density(SQ_ALPHA)),
                    params, grid, "gregory4")
    sq = solve_ide(squeezed_kernel(0.0)[0], params, grid, "gregory4")
    assert np.max(np.abs(sq.values - vac.values)) <= 1e-12


@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_squeezed_split_matches_full_row_kernel(method):
    # oracle: the same kernel as one generic full row, with no S0 + R split
    # and so no FFT history sum; 1000 steps cross several FFT block sizes
    params = ModelParams(alpha=SQ_ALPHA, omega=SQ_OMEGA)
    for n_steps in (100, 1000):
        grid = TimeGrid(dt=0.1, n_steps=n_steps)
        tab = (grid.t_max, grid.dt)
        kernel, sq = squeezed_kernel(0.5, tabulate=tab)
        base = make_kernel("vacuum", density=hydrogen_density(SQ_ALPHA),
                           tabulate=tab)
        chi = hydrogen_chi(SQ_ALPHA)
        # S0 read once on the dt/4 lag grid, which holds every lag of the
        # gregory4 start-up sub-steps
        h = grid.dt / 4.0
        s0 = base.tau_values(np.arange(4 * n_steps + 1) * h)

        def full_row(t, s):
            lag = np.rint((t - np.asarray(s)) / h).astype(int)
            return s0[lag] + squeezed_delta_concentrated(t, s, sq, chi)

        oracle = KernelEvaluator(
            lambda t, s: base.eval(t, s)
            + squeezed_delta_concentrated(t, s, sq, chi),
            stationary=False, label="full row", row_fn=full_row)
        a = solve_ide(kernel, params, grid, method).values
        b = solve_ide(oracle, params, grid, method).values
        assert np.max(np.abs(a - b)) <= 1e-12, n_steps
        # the squeezing must matter on this grid, or the check is empty
        vac = solve_ide(base, params, grid, method).values
        assert np.max(np.abs(a - vac)) > 1e-6, n_steps


@pytest.mark.parametrize("method,order,tol", [("trapezoid", 2.0, 0.2),
                                              ("gregory4", 4.0, 0.3)])
def test_squeezed_convergence_order(method, order, tol):
    params = ModelParams(alpha=SQ_ALPHA, omega=SQ_OMEGA)
    est = estimate_order(squeezed_kernel(0.5)[0], params,
                         TimeGrid(dt=0.4, n_steps=25), method)
    assert est.conclusive and est.order == pytest.approx(order, abs=tol)
