"""Time-domain solvers for the excited-state amplitude equation

    dc/dt = -alpha * integral_0^t c(s) exp(i omega (t-s)) S(t, s) ds,
    c(0) = 1,

by implicit product integration: a trapezoid baseline (global O(dt^2)) and a
Gregory-4 / Adams-Moulton scheme (global O(dt^4)) whose starting values come
from Richardson-extrapolated trapezoid sub-steps.  Both read the history
rows K_k[j] = exp(i omega (t_k - t_j)) S(t_k, t_j), j = 0..k, as a
stationary lag sequence plus an optional correction row, so one loop per
method serves stationary and non-stationary kernels alike, and every step
checks its own implicit diagonal weight.  For stationary kernels the
equivalent second-kind integral form c(T) = 1 - integral_0^T Z(T-s) c(s) ds
is also provided.  The history sums of the stationary part, in all three
solvers, are taken by blocked FFT in O(N log^2 N) (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532-541) instead of one
O(k) dot product per step.  The module needs numpy only; scipy is never
imported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .atom import ModelParams
from .kernels import KernelEvaluator

# Gregory end weights of order 4 (error O(h^4)); interior weight is 1
_GREGORY_END = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])

# closed Newton-Cotes weight rows for small interval counts
_NEWTON_COTES = {
    1: np.array([0.5, 0.5]),
    2: np.array([1.0, 4.0, 1.0]) / 3.0,
    3: np.array([3.0, 9.0, 9.0, 3.0]) / 8.0,
    4: np.array([14.0, 64.0, 24.0, 64.0, 14.0]) / 45.0,
    5: np.array([1.0 / 3.0, 4.0 / 3.0, 17.0 / 24.0, 9.0 / 8.0,
                 9.0 / 8.0, 3.0 / 8.0]),
}


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt, k = 0 .. n_steps."""

    dt: float
    n_steps: int

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def t_max(self) -> float:
        return self.n_steps * self.dt


@dataclass
class AmplitudeSeries:
    """Excited-state amplitude c(t_k) on a uniform grid."""

    grid: TimeGrid
    values: np.ndarray
    method: str = ""
    kernel_label: str = ""
    alpha: float = 0.0
    omega: float = 0.0
    truncation_error: Optional[np.ndarray] = None

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def abs2(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass
class ZKernel:
    """Z(tau) = alpha * integral_0^tau S(t, 0) exp(i omega t) dt on a grid."""

    grid: TimeGrid
    values: np.ndarray


@dataclass
class OrderEstimate:
    order: float
    conclusive: bool
    errors: tuple = ()


def _gregory_weights(n: int) -> np.ndarray:
    if n >= 6:
        w = np.ones(n + 1)
        w[:3] = _GREGORY_END
        w[-3:] = _GREGORY_END[::-1]
        return w
    return _NEWTON_COTES[n].copy()


def _check_step(alpha: float, dt: float, s_diag: complex):
    # the implicit diagonal weight alpha*dt/2*S(t,t) must stay contractive
    if alpha * dt * dt * abs(s_diag) / 2.0 >= 1.0:
        suggested = math.sqrt(0.5 / (alpha * abs(s_diag)))
        raise SolverError(
            f"dt={dt:g} too large for this kernel (diagonal weight >= 1); "
            f"use dt < {suggested:.3g}")


class _HistorySum:
    """H_k = sum_{j<k} c_j W_{k-j}, read for k = 1, 2, ... in increasing
    order while the caller fills in ``c``; H_k needs only c_0 .. c_{k-1}.

    A pair (j, k) inside one leaf of ``_LEAF`` steps is summed directly when
    H_k is read.  Any other pair lies in a smallest aligned dyadic block,
    with j in its lower half [m - B, m) and k in its upper half [m, m + B).
    That source half reaches all its targets through one circular FFT of
    size 2B as soon as c_{m-1} is known.  Each leaf boundary m = q * _LEAF
    completes exactly one source half, B = _LEAF * (q & -q), so a solve of
    N steps costs O(N log^2 N) instead of O(N^2).
    """

    # leaves of 32 to 512 steps time alike on 50k-step solves
    _LEAF = 64

    def __init__(self, W: np.ndarray, c: np.ndarray):
        self._W = W
        self._c = c
        self._far = np.zeros(len(W), dtype=complex)
        self._done = 0      # source blocks ending at or before here are in

    def __call__(self, k: int) -> complex:
        leaf = self._LEAF
        while self._done + leaf <= k:
            self._done += leaf
            self._add_block(self._done)
        lo = k - k % leaf
        return self._far[k] + np.dot(self._c[lo:k], self._W[k - lo:0:-1])

    def _add_block(self, m: int):
        q = m // self._LEAF
        b = self._LEAF * (q & -q)
        # circular length 2b: target m + v reads lags b + v - u <= 2b - 1
        # for source m - b + u, and the wrapped products land below b
        a = np.fft.fft(self._c[m - b:m], n=2 * b)
        a *= np.fft.fft(self._W[:2 * b], n=2 * b)
        np.fft.ifft(a, out=a)
        top = min(b, len(self._W) - m)
        self._far[m:m + top] += a[b:b + top]


def _history(kernel, times, omega, c):
    """Step source k -> (sum_{j<k} c_j K_k[j], K_k) for the history rows
    K_k[j] = e^{i omega (t_k - t_j)} S(t_k, t_j), j = 0..k, read for
    increasing k while ``c`` is filled in.

    The stationary part W[k - j] goes through one :class:`_HistorySum`.
    """
    W, extra = kernel._history_split(times, omega)
    hist = _HistorySum(W, c) if W is not None else None

    def step(k):
        if extra is None:
            return hist(k), W[k::-1]
        # a correction row has no convolution structure: dotted directly
        R = extra(k)
        base = np.dot(c[:k], R[:k])
        if W is None:
            return base, R
        return hist(k) + base, W[k::-1] + R
    return step


def _solve_trapezoid(kernel, params, grid) -> np.ndarray:
    alpha, dt, n = params.alpha, grid.dt, grid.n_steps
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    history = _history(kernel, grid.times, params.omega, c)
    phi_prev = 0.0 + 0.0j
    for k in range(1, n + 1):
        base, K = history(k)
        _check_step(alpha, dt, K[k])
        phik = -alpha * dt * (base - 0.5 * c[0] * K[0])
        denom = 1.0 + 0.25 * alpha * dt * dt * K[k]
        c[k] = (c[k - 1] + 0.5 * dt * (phi_prev + phik)) / denom
        phi_prev = phik - 0.5 * alpha * dt * K[k] * c[k]
    return c


def _richardson_start(kernel, params, grid, n_start: int) -> np.ndarray:
    """c(t_0..t_n_start) from trapezoid solves at dt, dt/2 and dt/4,
    extrapolated twice (the trapezoid error has even powers of dt only)."""
    coarse, half, quarter = (
        _solve_trapezoid(kernel, params,
                         TimeGrid(dt=grid.dt / r, n_steps=n_start * r))
        for r in (1, 2, 4))
    r1 = (4.0 * half[::2] - coarse) / 3.0
    r2 = (4.0 * quarter[::2] - half) / 3.0
    c = (16.0 * r2[::2] - r1) / 15.0
    c[0] = 1.0
    return c


def _gregory_phi(c, K, k, alpha, dt):
    """phi_k = -alpha*dt * sum_j w_j c_j K_k[j], Gregory/Newton-Cotes
    weights."""
    return -alpha * dt * np.dot(_gregory_weights(k), c[:k + 1] * K)


def _solve_gregory4(kernel, params, grid) -> np.ndarray:
    alpha, dt, n = params.alpha, grid.dt, grid.n_steps
    c = np.empty(n + 1, dtype=complex)
    n_start = min(7, n)
    c[:n_start + 1] = _richardson_start(kernel, params, grid, n_start)
    if n <= 7:
        return c

    history = _history(kernel, grid.times, params.omega, c)
    phi_hist = {k: _gregory_phi(c, history(k)[1], k, alpha, dt)
                for k in range(4, 8)}
    for k in range(8, n + 1):
        base, K = history(k)
        _check_step(alpha, dt, K[k])
        v0 = c[0] * K[0]
        v1 = c[1] * K[1]
        v2 = c[2] * K[2]
        vn2 = c[k - 2] * K[k - 2]
        vn1 = c[k - 1] * K[k - 1]
        conv = base + (3.0 / 8.0 - 1.0) * v0 + (7.0 / 6.0 - 1.0) * (v1 + vn1) \
            + (23.0 / 24.0 - 1.0) * (v2 + vn2)
        phi_known = -alpha * dt * conv
        rhs = c[k - 1] + dt / 24.0 * (9.0 * phi_known + 19.0 * phi_hist[k - 1]
                                      - 5.0 * phi_hist[k - 2]
                                      + phi_hist[k - 3])
        denom = 1.0 + alpha * dt * dt * (9.0 / 24.0) * (3.0 / 8.0) * K[k]
        c[k] = rhs / denom
        phi_hist[k] = phi_known - alpha * dt * (3.0 / 8.0) * K[k] * c[k]
        phi_hist.pop(k - 3, None)
    return c


def solve_ide(kernel: KernelEvaluator, params: ModelParams, grid: TimeGrid,
              method: str = "trapezoid") -> AmplitudeSeries:
    """Solve the amplitude equation; global error O(dt^2) ('trapezoid') or
    O(dt^4) ('gregory4').

    Raises :class:`SolverError` when the implicit step is not contractive
    at some grid time, alpha*dt^2*|S(t_k, t_k)|/2 >= 1, or when c is not
    finite on the whole grid (checked once, after the last step).
    """
    if method not in ("trapezoid", "gregory4"):
        raise ValueError(f"unknown method {method!r}")
    if params.alpha == 0.0:
        # decoupled limit: exact, no kernel evaluations needed
        c = np.ones(grid.n_steps + 1, dtype=complex)
    elif method == "trapezoid":
        c = _solve_trapezoid(kernel, params, grid)
    else:
        c = _solve_gregory4(kernel, params, grid)
    if not np.isfinite(c).all():
        k = int(np.flatnonzero(~np.isfinite(c))[0])
        raise SolverError(f"amplitude is not finite from t = {k * grid.dt:g} "
                          "on (kernel or parameters produce NaN/inf)")
    return AmplitudeSeries(grid=grid, values=c, method=method,
                           kernel_label=kernel.label,
                           alpha=params.alpha, omega=params.omega)


def compute_Z(kernel: KernelEvaluator, params: ModelParams,
              grid: TimeGrid) -> ZKernel:
    """Cumulative trapezoid of alpha * S(t, 0) exp(i omega t); Z(0) = 0."""
    if not kernel.stationary:
        raise ValueError("Z kernel requires a stationary kernel")
    times = grid.times
    integrand = params.alpha * kernel.tau_values(times) \
        * np.exp(1j * params.omega * times)
    # the sums of scipy's cumulative_trapezoid(dx=dt, initial=0), in order
    z = np.zeros_like(integrand)
    np.cumsum(grid.dt * (integrand[1:] + integrand[:-1]) / 2.0, out=z[1:])
    return ZKernel(grid=grid, values=z)


def solve_integral_form(z: ZKernel, grid: TimeGrid) -> AmplitudeSeries:
    """Trapezoid product integration of c(T) = 1 - int_0^T Z(T-s) c(s) ds.

    Explicit in c(t_n) because Z(0) = 0.
    """
    if z.grid != grid:
        raise ValueError("Z kernel grid does not match the solver grid")
    dt = grid.dt
    n = grid.n_steps
    Z = z.values
    c = np.empty(n + 1, dtype=complex)
    c[0] = 1.0
    hist = _HistorySum(Z, c)
    for k in range(1, n + 1):
        c[k] = 1.0 - dt * (hist(k) - 0.5 * c[0] * Z[k])
    return AmplitudeSeries(grid=grid, values=c, method="integral_trapezoid",
                           kernel_label="Z")


def estimate_order(kernel: KernelEvaluator, params: ModelParams,
                   grid: TimeGrid, method: str,
                   reference: Optional[Callable[[np.ndarray], np.ndarray]]
                   = None) -> OrderEstimate:
    """Empirical convergence order from solves at dt, dt/2, dt/4.

    ``reference`` maps times to exact amplitudes; without it the dt/4
    solution serves as the Richardson reference for the coarser two.
    """
    grids = [TimeGrid(grid.dt / r, grid.n_steps * r) for r in (1, 2, 4)]
    sols = [solve_ide(kernel, params, g, method).values for g in grids]
    times = grid.times
    if reference is not None:
        exact = np.asarray(reference(times), dtype=complex)
        errs = [np.max(np.abs(sols[0] - exact)),
                np.max(np.abs(sols[1][::2] - exact)),
                np.max(np.abs(sols[2][::4] - exact))]
        if max(errs) < 1e-13:
            return OrderEstimate(math.nan, False, tuple(errs))
        orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
        return OrderEstimate(float(np.mean(orders)), True, tuple(errs))
    ref = sols[2][::4]
    errs = [np.max(np.abs(sols[0] - ref)), np.max(np.abs(sols[1][::2] - ref))]
    if max(errs) < 1e-13:
        return OrderEstimate(math.nan, False, tuple(errs))
    # with the dt/4 solution as reference, err(dt)/err(dt/2) = 2^p + 1
    # exactly for a clean order-p error; invert that instead of the naive
    # log2 of the ratio
    ratio = errs[0] / errs[1] if errs[1] > 0 else math.nan
    if not ratio > 1.0:
        return OrderEstimate(math.nan, False, tuple(errs))
    return OrderEstimate(math.log2(ratio - 1.0), True, tuple(errs))
