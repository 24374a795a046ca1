"""Time-domain solvers for the excited-state amplitude equation

    dc/dt = -alpha * integral_0^t c(s) exp(i omega (t-s)) S(t, s) ds,
    c(0) = 1,

by implicit product integration: a trapezoid baseline (global O(dt^2)) and a
Gregory-4 / Adams-Moulton scheme (global O(dt^4)) whose starting values come
from Richardson-extrapolated trapezoid sub-steps.  Both read the history
rows K_k[j] = exp(i omega (t_k - t_j)) S(t_k, t_j), j = 0..k, as a
stationary lag sequence plus an optional correction row.  For stationary
kernels the equivalent second-kind integral form
c(T) = 1 - integral_0^T Z(T-s) c(s) ds is also provided.

All three solvers share one time stepper.  The history sums of the
stationary part over earlier leaves are taken by blocked FFT in
O(N log^2 N) (Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
(1985) 532-541), each block's transform no longer than its targets need.
These far-field sums are held in the unsolved tail of c itself until each
leaf is solved, so they cost no array of their own.  The stationary lags
come from the kernel's memo, read once for all solves on one dt.  What is
left inside a leaf is linear in its unknown c values, so each leaf is one
lower-triangular linear system instead of a loop of steps.  For a
stationary kernel the whole scheme is one lower-triangular Toeplitz
recurrence: its known terms are summed once for the whole grid, and each
leaf of 1024 steps is solved by one FFT product with an inverse that all
leaves share.  A non-stationary leaf of 64 steps is one
``np.linalg.solve``.  The implicit diagonal weight is checked at every
grid time.  The module needs numpy only; scipy is never imported here.
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

# five intervals: Simpson's rule on [t_0, t_2], the 3/8 rule on [t_2, t_5]
_FIVE_INTERVALS = np.array([1.0 / 3.0, 4.0 / 3.0, 17.0 / 24.0, 9.0 / 8.0,
                            9.0 / 8.0, 3.0 / 8.0])


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
    """Quadrature weights over t_0 .. t_n, n >= 5, of order 4."""
    if n == 5:
        return _FIVE_INTERVALS
    w = np.ones(n + 1)
    w[:3] = _GREGORY_END
    w[-3:] = _GREGORY_END[::-1]
    return w


def _check_step(alpha: float, dt: float, s_diag):
    """Refuse the first grid time, in the order of ``s_diag`` (the values
    S(t_k, t_k)), whose implicit diagonal weight alpha*dt^2/2*|S(t,t)| is
    not contractive."""
    bad = np.flatnonzero(alpha * dt * dt * np.abs(s_diag) / 2.0 >= 1.0)
    if bad.size:
        suggested = math.sqrt(0.5 / (alpha * abs(s_diag[bad[0]])))
        raise SolverError(
            f"dt={dt:g} too large for this kernel (diagonal weight >= 1); "
            f"use dt < {suggested:.3g}")


class _HistorySum:
    """Far-field history sums F_k = sum_{j<lo} c_j W_{k-j} for the leaf
    [lo, lo + leaf) holding k, read leaf by leaf in increasing order while
    the caller fills in ``c``; the leaf at lo needs only c_0 .. c_{lo-1}.

    The sums are added into ``c`` itself: its unsolved entries hold their
    far field, starting from whatever the caller put there (zeros, or known
    terms of its own).  The caller reads a leaf's far field, then writes
    the leaf's solution over it.

    Any pair (j, k) in different leaves lies in a smallest aligned dyadic
    block, with j in its lower half [m - B, m) and k in its upper half
    [m, m + B).  That source half reaches all its targets, still unsolved,
    through one circular FFT as soon as c_{m-1} is known.  Each leaf
    boundary m = q * leaf completes exactly one source half,
    B = leaf * (q & -q), so a solve of N steps costs O(N log^2 N) instead
    of O(N^2).  The transform of W[:2B] is kept for the later blocks of
    size B.  The grid's end may cut the last block of a size short; its
    transforms are then only as long as its targets need.
    """

    # the non-stationary leaf (the stationary one is _TOEPLITZ_LEAF): a
    # 4000-step tabulated squeezed Gregory-4 solve (2-vCPU Xeon VM, median
    # of 7) took 1.03 to 1.07 s at 32, 64, 128 and 256 steps alike
    _LEAF = 64

    def __init__(self, W: np.ndarray, c: np.ndarray, leaf: int = _LEAF):
        self._W = W
        self._c = c
        self._leaf = leaf
        self._done = 0      # source blocks ending at or before here are in
        self._W_fft = {}    # transform length L -> fft(W[:L], n=L)

    def leaf(self, lo: int) -> np.ndarray:
        """F_k for k in the leaf [lo, lo + leaf), a view of ``c``."""
        while self._done < lo:
            self._done += self._leaf
            self._add_block(self._done)
        return self._c[lo:lo + self._leaf]

    def _add_block(self, m: int):
        q = m // self._leaf
        b = self._leaf * (q & -q)
        top = min(b, len(self._W) - m)
        # circular length L >= b + top, a multiple of b/8: target m + v
        # reads lags b + v - u <= L - 1 for source m - b + u, and the
        # wrapped products land below b
        L = -(-(b + top) // (b // 8)) * (b // 8)
        w = self._W_fft.get(L)
        if w is None:
            w = np.fft.fft(self._W[:L], n=L)
            # a cut-short block is the last of its size: its transform is
            # used once
            if L == 2 * b:
                self._W_fft[L] = w
        a = np.fft.fft(self._c[m - b:m], n=L)
        a *= w
        np.fft.ifft(a, out=a)
        self._c[m:m + top] += a[b:b + top]


# The three solvers share one scheme.  With the history rows
# K_k[j] = W[k - j] + R_k[j], j = 0..k, each takes the quadrature
#     phi_k = -scale * sum_j w_j c_j K_k[j],
# whose weights are w_j = ends[j] and w_{k-m} = ends[m] at the two ends
# and 1 in between, and steps
#     c_k - c_{k-1} = sum_q beta_q phi_{k-q},
# or, for the integral form (beta None), sets c_k = c_0 + phi_k.
_TRAPEZOID_ENDS = np.array([0.5])
# beta in units of dt: the trapezoid rule and Adams-Moulton of order 4
_TRAPEZOID_BETA = np.array([0.5, 0.5])
_GREGORY_BETA = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0

# three 50k-step stationary solves (trapezoid, Gregory-4, integral form;
# 2-vCPU Xeon VM, median of 11) take 0.053, 0.044, 0.039, 0.037 and
# 0.041 s with leaves of 256 to 4096 steps, but below 20k steps 2048 loses
# to 1024 (a 2000-step Gregory-4 solve: 1.8 ms against 0.8 ms)
_TOEPLITZ_LEAF = 1024


def _toeplitz_inverse(a):
    """First column of A^-1 for the lower-triangular Toeplitz A whose first
    column is ``a``; A^-1 is lower-triangular Toeplitz too.  Newton doubling
    extends its first h entries x to 2h: with a * x = 1 + z^h r, the next h
    are -(x * r), both products direct convolutions.  Entry i reads
    a_0 .. a_i only."""
    if a[0] == 0.0:
        raise SolverError("leaf system is singular (zero diagonal)")
    x = np.array([1.0 / a[0]], dtype=complex)
    while len(x) < len(a):
        h, k = len(x), min(2 * len(x), len(a))
        r = np.convolve(a[1:k], x, "valid")
        x = np.concatenate((x, -np.convolve(x[:k - h], r)[:k - h]))
    return x


def _solve_toeplitz(c, start, phi, W, scale, ends, beta):
    """Fill c[start:] for the scheme above with a stationary kernel,
    K_k[j] = W[k - j]; W's lags 1 .. len(ends) - 1 are weighted in place.

    Over the unknowns x = c[start:], phi is the convolution v * x,
    v = -scale * w * W with the lag-end weights w, plus the terms of the
    known c_0 .. c_{start-1}, summed once for the whole grid into x, where
    the far field is then added.  Each leaf's system is a leading block of
    one Toeplitz matrix, so all share one inverse column: one FFT product
    with its transform solves a leaf from its far field, c_{s-1} and the phi
    tail before it, and one convolution gives its own tail.
    """
    finite = np.isfinite(W)
    if not finite.all():
        # a step loop's c_k reads lags 0..k only, so c is NaN from the
        # first non-finite lag m on and c[:m] is the solve on W[:m]; the
        # FFT far field would carry lag m into rows before m
        m = int(np.argmin(finite))
        c[max(m, start):] = np.nan
        if m <= start:
            return
        c, W = c[:m], W[:m]
    x = c[start:]
    n = len(x)
    e = len(ends)
    W[1:e] *= ends[1:]
    # x holds its far field until it is solved, starting from these terms
    x[:] = 0.0
    for j in range(start):
        x += W[start - j:start - j + n] * (c[j] * ends[j] if j < e else c[j])
    hist = _HistorySum(W[:n], x, _TOEPLITZ_LEAF)
    v = -scale * W[:min(_TOEPLITZ_LEAF, n)]
    v[0] *= ends[0]
    # a stepping scheme's A = (I - S) F, S the unit shift: F's first column
    # 1 + cumsum(-v * beta) is near I, so F^-1 keeps its digits, and A^-1's
    # column is the running sum of F^-1's, each entry rounded once
    a = -v if beta is None else np.cumsum(-np.convolve(v, beta)[:len(v)])
    a[0] += 1.0
    inverse = _toeplitz_inverse(a)
    if beta is not None:
        inverse[1:] = inverse[0] + np.cumsum(inverse[1:])
    inverse_fft = np.fft.fft(inverse, 2 * len(inverse))
    q = len(phi)
    # the last q rows of v * x over a full leaf, as one 'valid' convolution
    tail = np.concatenate((np.zeros(q - 1), v)) if q else None
    for lo in range(0, n, _TOEPLITZ_LEAF):
        p = -scale * hist.leaf(lo)
        m = len(p)
        if beta is None:
            rhs = p + c[0]
        else:
            # rhs_i = sum_q beta_q phi_{i-q}, phi of earlier leaves carried
            ext = np.concatenate((phi, p))
            rhs = sum(b * ext[q - i:q - i + m] for i, b in enumerate(beta))
            rhs[0] += c[start + lo - 1]
        y = np.fft.ifft(inverse_fft * np.fft.fft(rhs, len(inverse_fft)))
        # a non-finite inverse or rhs entry reaches every row of a transform;
        # the direct product keeps the rows before it as the step loops do
        if not np.isfinite(y[:m]).all():
            y = np.convolve(inverse[:m], rhs)
        x[lo:lo + m] = y[:m]
        if q and lo + m < n:
            phi = p[m - q:] + np.convolve(tail, x[lo:lo + m], "valid")


def _solve_leaves(c, start, phi, W, extra, scale, ends, beta, check):
    """Fill c[start:] given c[:start] and phi_{start-Q} .. phi_{start-1}
    (``phi``, Q = len(beta) - 1) for the scheme above, K_k[j] being
    W[k - j] + extra(k)[j] (extra None for a stationary kernel).

    A stationary kernel (extra None) goes to :func:`_solve_toeplitz`.
    Otherwise each leaf [lo, hi) of :class:`_HistorySum` is one
    lower-triangular linear system A c[s:hi] = rhs in its unknowns,
    s = max(lo, start), solved by ``np.linalg.solve``.  The right-hand side
    carries everything known: the FFT far field of W and the rows' own sums
    over j < lo (weight 1), the end-weight corrections at j < len(ends) and
    at the lags that reach back before lo, the known columns of the first
    leaf, c_{s-1} and the boundary phi values.
    ``check`` sees each row's diagonal K_k[k] before its leaf is solved.
    """
    if extra is None:
        check(W[:1])
        _solve_toeplitz(c, start, phi, W, scale, ends, beta)
        return
    n = len(c) - 1
    leaf = _HistorySum._LEAF
    # c[start:] holds its far field until it is solved
    c[start:] = 0.0
    hist = _HistorySum(W, c, leaf)
    phi = np.asarray(phi, dtype=complex)
    for lo in range(0, n + 1, leaf):
        hi = min(lo + leaf, n + 1)
        s = max(lo, start)
        m = hi - s
        known = hist.leaf(lo)[s - lo:hi - lo].copy()
        # the end corrections at j < len(ends) <= start
        for j, e in enumerate(ends):
            known += (e - 1.0) * c[j] * W[s - j:hi - j]
        B = _leaf_coefficients(c, lo, s, hi, W, extra, scale, ends, known,
                               check)
        c0 = hi - B.shape[1]
        p = -scale * known + B[:, :s - c0] @ c[c0:s]
        # row k reads phi_{k-Q} .. phi_k only, so a NaN stays in its row
        ext = np.concatenate((phi, p))
        q = len(phi)
        rhs = sum(b * ext[q - i:q - i + m] for i, b in enumerate(beta))
        rhs[0] += c[s - 1]
        A = _leaf_matrix(B[:, -m:], beta)
        # c is NaN from the first row with a non-finite coefficient on, as a
        # step-by-step loop would make it
        ok = np.isfinite(rhs) & np.isfinite(A).all(axis=1)
        k = m if ok.all() else int(np.argmin(ok))
        try:
            c[s:s + k] = np.linalg.solve(A[:k, :k], rhs[:k])
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"leaf system not solvable: {exc}") from None
        if k < m:
            c[s + k:hi] = np.nan
            continue
        # the next leaf reads phi on the last Q rows of this one
        t = min(m, len(phi))
        phi = np.concatenate((phi[t:], p[m - t:] + B[m - t:, -m:] @ c[s:hi]))


def _leaf_matrix(Bu, beta):
    """A of c_k - c_{k-1} - sum_q beta_q (Bu c)_{k-q} = rhs_k on one leaf,
    Bu being B over the leaf's unknown columns.  Row k reads rows
    k-Q .. k of Bu only."""
    m = len(Bu)
    A = np.eye(m, dtype=complex) - np.eye(m, k=-1)
    for q, b in enumerate(beta):
        A[q:] -= b * Bu[:m - q]
    return A


def _leaf_coefficients(c, lo, s, hi, W, extra, scale, ends, known, check):
    """B of the leaf [lo, hi): phi_k = -scale * known_k + sum_j B[k, j] c_j
    for k in [s, hi) over the leaf's columns j in [max(lo - P, 0), hi),
    P = len(ends) - 1.  B[k, j] carries c_j's quadrature weight in phi_k
    less the 1 the far field already gives each j < lo.  The kernel's rows
    are read one at a time; their sums over j < lo and their end
    corrections go into ``known``, and ``check`` sees their diagonals."""
    cols = np.arange(max(lo - len(ends) + 1, 0), hi)
    lag = np.arange(s, hi)[:, None] - cols
    w = (lag >= 0).astype(float)
    for m, e in enumerate(ends):
        w[lag == m] = e
    w[:, cols < lo] -= 1.0
    K = W[np.maximum(lag, 0)]
    c0 = cols[0]
    e = len(ends)
    start_corr = (ends - 1.0) * c[:e]
    for i, k in enumerate(range(s, hi)):
        row = extra(k)
        known[i] += np.dot(c[:lo], row[:lo]) + np.dot(start_corr, row[:e])
        K[i, :k + 1 - c0] += row[c0:]
    check(K[np.arange(hi - s), np.arange(s, hi) - c0])
    return np.multiply(-scale * w, K, out=K)


def _history_split(kernel: KernelEvaluator, times: np.ndarray,
                   omega: float):
    """(W, extra) with K_k[j] = W[k - j] + extra(k)[j] for the history rows
    K_k[j] = e^{i omega (t_k - t_j)} S(t_k, t_j), j = 0..k, on the uniform
    grid ``times``.

    W[m] = e^{i omega t_m} S0(t_m) is the stationary part, read on the lag
    grid through the kernel's memo (zeros for a kernel built without
    ``tau_fn``).  ``times`` must be arange(n + 1) * dt, n >= 1.
    ``extra(k)`` is the kernel's correction R of row k over all j at once;
    it is None exactly when the kernel is stationary.  Each row is meant to
    be requested once, so none is kept.
    """
    phase = np.exp(1j * omega * times)
    if kernel.stationary:
        phase *= kernel._grid_s0(times)
        return phase, None
    return phase * kernel._grid_s0(times), \
        lambda k: kernel._r(times[k], times[:k + 1]) * phase[k::-1]


def _solve_trapezoid(kernel, params, grid) -> np.ndarray:
    c = np.empty(grid.n_steps + 1, dtype=complex)
    c[0] = 1.0
    W, extra = _history_split(kernel, grid.times, params.omega)
    _solve_leaves(c, 1, [0.0], W, extra, params.alpha * grid.dt,
                  _TRAPEZOID_ENDS, grid.dt * _TRAPEZOID_BETA,
                  lambda d: _check_step(params.alpha, grid.dt, d))
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


def _solve_gregory4(kernel, params, grid) -> np.ndarray:
    alpha, dt, n = params.alpha, grid.dt, grid.n_steps
    c = np.empty(n + 1, dtype=complex)
    n_start = min(7, n)
    c[:n_start + 1] = _richardson_start(kernel, params, grid, n_start)
    if n <= 7:
        return c
    W, extra = _history_split(kernel, grid.times, params.omega)

    def row(k):
        return W[k::-1] if extra is None else W[k::-1] + extra(k)

    # the steps from t_8 on read phi_5 .. phi_7 of the start-up values
    phi = [-alpha * dt * np.dot(_gregory_weights(k), c[:k + 1] * row(k))
           for k in (5, 6, 7)]
    _solve_leaves(c, 8, phi, W, extra, alpha * dt, _GREGORY_END,
                  dt * _GREGORY_BETA, lambda d: _check_step(alpha, dt, d))
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
    integrand = params.alpha * kernel._grid_s0(times) \
        * np.exp(1j * params.omega * times)
    # the sums of scipy's cumulative_trapezoid(dx=dt, initial=0), in order
    z = np.zeros_like(integrand)
    np.cumsum(grid.dt * (integrand[1:] + integrand[:-1]) / 2.0, out=z[1:])
    return ZKernel(grid=grid, values=z)


def solve_integral_form(z: ZKernel, grid: TimeGrid) -> AmplitudeSeries:
    """Trapezoid product integration of c(T) = 1 - int_0^T Z(T-s) c(s) ds.

    Explicit in c(t_n) when Z(0) = 0, as :func:`compute_Z` gives; a Z(0)
    that zeroes the implicit weight 1 + dt Z(0) / 2 raises
    :class:`SolverError`.  A non-finite c is returned as it is.
    """
    if z.grid != grid:
        raise ValueError("Z kernel grid does not match the solver grid")
    c = np.empty(grid.n_steps + 1, dtype=complex)
    c[0] = 1.0
    # c_k = c_0 + phi_k, phi_k = -dt * (trapezoid sum of c_j Z_{k-j})
    _solve_toeplitz(c, 1, [], z.values, grid.dt, _TRAPEZOID_ENDS, None)
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
