"""Complex-valued adaptive quadrature and semi-infinite oscillatory integrals.

Two entry points:

* :func:`integrate_finite` -- globally adaptive Gauss quadrature on [a, b]
  for complex integrands, with a paired 7/15-point rule for error control.
  It is the one-problem case of the private :func:`_integrate_many`, which
  advances many such integrals in lockstep, one integrand call per step.
* :func:`oscillatory_halfline` -- integrals of the form
  integral_0^inf g(p) exp(-i p tau) dp for envelopes with declared decay.
  Small |tau| is handled by truncated adaptive quadrature; otherwise the
  integral is summed half-period by half-period and the alternating tail of
  partial sums is accelerated with an iterated Aitken transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

_X7, _W7 = leggauss(7)
_X15, _W15 = leggauss(15)
# the 15- and 7-point nodes of one interval, in the order f sees them
_X22 = np.concatenate([_X15, _X7])
# complex weights for np.vecdot, so no row is cast on each call
_W15C, _W7C = _W15.astype(complex), _W7.astype(complex)
# the zeros that scale (im, re) in h * (re + i im) taken as a scalar
_SIGNED_ZERO = np.array([-0.0, 0.0])

# problems that advance together in one lockstep batch of _integrate_many.
# On a seed-1 24-alpha `qedvolterra sweep`, with one density call per step,
# batches of 96, 128 and 256 allocated at most 0.70, 0.80 and 1.24 MiB at
# once (tracemalloc), and 128 ran fastest in a fresh process (2-vCPU Xeon)
_LOCKSTEP_PROBLEMS = 128

_AITKEN_LEVELS = 8
# the truncation ladder: at most 200 rungs, evaluated 8 per call of g
_LADDER_RUNGS = 200
_LADDER_BLOCK = 8


class QuadratureError(RuntimeError):
    """Raised when a quadrature fails to converge; carries the best estimate."""

    def __init__(self, message, best_estimate=None, err_est=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.err_est = err_est


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")


DEFAULT_QUAD = QuadConfig()


def _rule_estimates(f, a, b, idx):
    """15-point values and |15-point - 7-point| errors on [a[k], b[k]].

    ``f(p, idx)`` is called once, on the 15 + 7 nodes of every interval;
    ``idx`` names the problem that owns each node.  Returns two arrays,
    complex values and float errors, one entry per interval.  ``f`` may
    return a pair (y, y2), a second component on the same nodes; the values
    are then an (intervals, 2) array, column 1 the 15-point sums of y2, and
    the errors are those of y alone.

    Each row's weighted sum is ``np.vecdot`` with complex weights, which
    sums every row in the same order as a per-row ``np.dot``, so the sums
    are bitwise those of one interval evaluated alone; ``@`` runs a matrix
    kernel (gemv) whose sums are not.  The error modulus is ``np.hypot`` of
    the parts, which matches a scalar ``abs`` bit for bit; ``np.abs`` on a
    complex array takes a vectorised path that can differ in the last bit.
    The half-widths scale the sums as a scalar real-times-complex product
    does, (h re - 0 im, h im + 0 re): numpy's real-by-complex array loop
    gives (h re, h im), which differs in the sign of a part that is zero
    (h im underflowing, say) and where the other part is not finite.
    """
    halves = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + halves[:, None] * _X22
    y = f(nodes.ravel(), idx)
    y, *y2 = y if isinstance(y, tuple) else (y,)
    y = np.asarray(y, dtype=complex).reshape(nodes.shape)
    # columns: the 15- and 7-point sums of y, then the 15-point sums of y2
    sums = np.empty((len(halves), 2 + len(y2)), dtype=complex)
    np.vecdot(_W15C, y[:, :15], out=sums[:, 0])
    np.vecdot(_W7C, y[:, 15:], out=sums[:, 1])
    if y2:
        y2 = np.asarray(y2[0], dtype=complex).reshape(nodes.shape)
        np.vecdot(_W15C, y2[:, :15], out=sums[:, 2])
    # on the (re, im) pairs; x + (-0) im is x - 0 im bit for bit
    parts = sums.view(float).reshape(*sums.shape, 2)
    v = parts * halves[:, None, None]
    v += parts[..., ::-1] * _SIGNED_ZERO
    v = v.view(complex)[..., 0]
    d = v[:, 0] - v[:, 1]
    return (v[:, ::2] if sums.shape[1] == 3 else v[:, 0]), \
        np.hypot(d.real, d.imag)


def _integrate_many(f, bounds, cfg: QuadConfig = DEFAULT_QUAD) -> list:
    """Adaptive quadrature of many complex integrals, advanced in lockstep.

    Problem i is the integral of ``f(p, i)`` over ``bounds[i] = (a, b)``.
    Each problem keeps its own intervals, running totals, stopping test and
    subdivision budget, exactly as if it were integrated alone.  At each
    lockstep step every unfinished problem splits its worst interval, and
    ``f(p, idx)`` is called once on the nodes of all those intervals; the
    integer array ``idx`` (read-only, nondecreasing) holds the problem index
    of each node.  At most ``_LOCKSTEP_PROBLEMS`` problems advance together;
    a longer list runs as consecutive batches in index order.  Returns one
    (value, error estimate) per problem, as ``np.complex128`` /
    ``np.float64``; raises :class:`QuadratureError` for the first problem
    whose budget runs out before its tolerance is met.

    ``f`` may return a pair (y, y2) of arrays on the nodes.  The second
    component is integrated on the same intervals, and its integral follows
    as a third entry, (value, error, integral of y2); the intervals, the
    stopping test and the error estimate are those of y alone.  An empty
    interval (a == b), on which ``f`` is never called, gives (0, 0).
    """
    results = [(0.0 + 0.0j, 0.0)] * len(bounds)
    live = [i for i, (a, b) in enumerate(bounds) if a != b]
    for k in range(0, len(live), _LOCKSTEP_PROBLEMS):
        _lockstep(f, bounds, live[k:k + _LOCKSTEP_PROBLEMS], cfg, results)
    return results


def _lockstep(f, bounds, ids, cfg, results):
    """Run the problems ``ids`` of :func:`_integrate_many` to the end.

    Every live problem has exactly ``n_sub`` intervals, so they are the
    rows of four arrays: ends ``a``, ``b``, 15-point ``value`` and ``error``.
    ``value`` and the running totals carry one trailing column per
    component of ``f``, and every component is updated with the same
    operations as the first.  A split keeps the left half in the worst
    interval's column and appends the right half as column ``n_sub``; a
    finished problem's row is dropped.  The running totals and the stopping
    test are arrays too, with the same IEEE operations per problem as on
    scalars: ``np.hypot`` is a complex ``abs`` and ``np.fmax(abs_tol, x)``
    is ``max(abs_tol, x)``, NaN included.
    """
    ids = np.array(ids)
    n = len(ids)
    ends = np.array([bounds[i] for i in ids.tolist()], dtype=float)
    val, err = _rule_estimates(f, ends[:, 0], ends[:, 1],
                               ids.repeat(_X22.size))
    val = val.reshape(n, -1)
    a, b, error = (np.empty((n, 16)) for _ in range(3))
    value = np.empty((n, 16, val.shape[1]), dtype=complex)
    a[:, 0], b[:, 0], value[:, 0], error[:, 0] = ends[:, 0], ends[:, 1], \
        val, err
    total_val, total_err = val, err
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    idx = None
    n_sub = 1
    while True:
        tol = np.fmax(abs_tol, rel_tol * np.hypot(total_val[:, 0].real,
                                                  total_val[:, 0].imag))
        done = total_err <= tol
        n_done = np.count_nonzero(done)
        if n_sub >= cfg.max_subdivisions and n_done < len(ids):
            k = int(np.argmin(done))
            raise QuadratureError(
                f"no convergence after {cfg.max_subdivisions} subdivisions "
                f"(err={total_err[k]:.3e}, tol={tol[k]:.3e})",
                best_estimate=total_val[k, 0], err_est=total_err[k])
        if n_done:
            for i, v, e in zip(ids[done].tolist(), total_val[done],
                               total_err[done]):
                results[i] = (v[0], e, *v[1:])
            if n_done == len(ids):
                return
            keep = ~done
            ids, total_val, total_err, a, b, value, error = (
                x[keep] for x in (ids, total_val, total_err, a, b, value,
                                  error))
            idx = None
        if n_sub == a.shape[1]:
            a, b, value, error = (np.concatenate((x, np.empty_like(x)), 1)
                                  for x in (a, b, value, error))
        if idx is None:
            # both halves of a split (44 nodes) belong to one problem
            idx = ids.repeat(2 * _X22.size)
            rows = np.arange(len(ids))
        j = _worst(error[:, :n_sub], a[:, :n_sub], b[:, :n_sub])
        ia, ib, ival, ierr = a[rows, j], b[rows, j], value[rows, j], \
            error[rows, j]
        mid = 0.5 * (ia + ib)
        # the two halves of row k are intervals 2k and 2k + 1
        vals, errs = _rule_estimates(
            f, np.concatenate((ia[:, None], mid[:, None]), 1).ravel(),
            np.concatenate((mid[:, None], ib[:, None]), 1).ravel(), idx)
        vals = vals.reshape(len(errs), -1)
        v1, v2, e1, e2 = vals[0::2], vals[1::2], errs[0::2], errs[1::2]
        total_val = total_val + ((v1 + v2) - ival)
        total_err = total_err + ((e1 + e2) - ierr)
        b[rows, j], value[rows, j], error[rows, j] = mid, v1, e1
        a[:, n_sub], b[:, n_sub], value[:, n_sub], error[:, n_sub] = \
            mid, ib, v2, e2
        n_sub += 1


def _worst(error, a, b):
    """Each row's worst interval in the order (-err, a, b): the largest
    error first, then the smallest a, then the smallest b.  A NaN error
    counts as the largest, the first one in column order."""
    j = error.argmax(axis=1)
    # the first and the last largest column differ only on a tie
    last = error.shape[1] - 1 - error[:, ::-1].argmax(axis=1)
    for r in np.flatnonzero(j != last).tolist():
        top = error[r, j[r]]
        if top == top:
            cols = np.flatnonzero(error[r] == top).tolist()
            j[r] = min(cols, key=lambda c: (a[r, c], b[r, c]))
    return j


def integrate_finite(f, a: float, b: float,
                     cfg: QuadConfig = DEFAULT_QUAD) -> tuple[complex, float]:
    """Adaptive quadrature of a complex-valued f on [a, b].

    The one-problem case of :func:`_integrate_many`.  ``f`` must accept
    numpy arrays and is called once per refinement step: once for [a, b],
    then once for each split, on the nodes of both halves together.
    Returns (value, error estimate), plus the integral of a second
    component when ``f`` returns a pair; raises :class:`QuadratureError`
    when the subdivision budget is exhausted before the tolerance is met.
    """
    return _integrate_many(lambda p, idx: f(p), [(a, b)], cfg)[0]


def _iterated_aitken(s: np.ndarray, levels: int = _AITKEN_LEVELS) -> complex:
    """Iterated Aitken delta-squared acceleration of a partial-sum sequence."""
    s = np.asarray(s, dtype=complex)
    for _ in range(levels):
        if len(s) < 3:
            break
        d2 = s[2:] - 2.0 * s[1:-1] + s[:-2]
        d1 = s[2:] - s[1:-1]
        safe = np.abs(d2) > 1e-300
        nxt = np.where(safe, s[2:] - np.where(safe, d1, 0) ** 2
                       / np.where(safe, d2, 1.0), s[2:])
        if np.any(~safe):
            # sequence already flat; stop accelerating
            s = nxt
            break
        s = nxt
    return complex(s[-1])


def _truncation_walk(g, abs_tols, decay_order, decay_rate, peak) -> list:
    """Truncation points P of one ladder, one (P, bound) per tolerance.

    P walks the ladder max(8 peak, 1) * 1.5^k, k < 200, and each tolerance
    in ``abs_tols`` takes the first rung whose analytic tail bound of |g|
    meets it.  The rungs do not depend on the tolerance, so one walk serves
    them all, and each result equals a walk made for that tolerance alone.
    Each block of rungs is one call ``g(P)``.  Raises
    :class:`QuadratureError` if some tolerance is met by no rung.

    A tolerance is still pending while it is below every bound so far, so
    with the tolerances sorted largest first, those a rung meets are the
    first pending ones: each rung costs a few float comparisons.
    """
    tols = np.asarray(abs_tols, dtype=float).tolist()
    out = [None] * len(tols)
    queue = sorted(range(len(tols)), key=tols.__getitem__, reverse=True)
    met = 0
    P = max(8.0 * max(peak, 0.0), 1.0)
    for _ in range(_LADDER_RUNGS // _LADDER_BLOCK):
        if met == len(tols):
            return out
        ladder = []
        for _ in range(_LADDER_BLOCK):
            ladder.append(P)
            P *= 1.5
        gabs = np.abs(np.asarray(g(np.array(ladder))))
        gmax = gabs.reshape(len(ladder), -1).max(axis=1).tolist()
        for P_k, gP in zip(ladder, gmax):
            if decay_rate is not None:
                bound = gP / decay_rate
            else:
                bound = gP * P_k / (decay_order - 1.0)
            while met < len(tols) and bound <= tols[queue[met]]:
                out[queue[met]] = (P_k, bound)
                met += 1
    if met < len(tols):
        raise QuadratureError("could not find a truncation point for the tail")
    return out


def _panel_values(f, edges: np.ndarray) -> np.ndarray:
    """Non-adaptive 15-point Gauss value of f on each [edges[k], edges[k+1]]."""
    a = edges[:-1]
    half = 0.5 * (edges[1:] - a)
    mid = a + half
    nodes = mid[:, None] + half[:, None] * _X15[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
    return half * (vals @ _W15)


def oscillatory_halfline(g, tau: float, cfg: QuadConfig = DEFAULT_QUAD, *,
                         decay_order: float | None = None,
                         decay_rate: float | None = None,
                         peak: float = 0.0) -> complex:
    """integral_0^inf g(p) exp(-i p tau) dp for a decaying envelope g.

    Exactly one decay declaration is required: ``decay_order`` m >= 2 for an
    algebraic tail |g| ~ C/p^m, or ``decay_rate`` for an exponential tail.
    ``peak`` is the location of the envelope maximum (drives the strategy
    switch at |tau| * peak = 2).
    """
    if (decay_order is None) == (decay_rate is None):
        raise ValueError("declare exactly one of decay_order / decay_rate")
    if decay_order is not None and decay_order < 2.0:
        raise ValueError("algebraic decay order must be >= 2")

    abs_tol = cfg.abs_tol
    [(P, _)] = _truncation_walk(g, [0.1 * abs_tol], decay_order, decay_rate,
                                peak)

    def integrand(p):
        return np.asarray(g(p), dtype=complex) * np.exp(-1j * tau * p)

    plain = (abs(tau) * max(peak, 0.0) < 2.0
             and abs(tau) * P < 40.0 * math.pi)
    if tau == 0.0 or plain:
        val, err = integrate_finite(integrand, 0.0, P, cfg)
        return val

    # half-period panels; partial sums past the envelope bulk alternate and
    # are accelerated
    h = math.pi / abs(tau)
    bulk_end = max(peak * 2.0, 0.0)
    block = 16
    max_panels = 20000
    partial = 0.0 + 0.0j
    sums: list[complex] = []
    accel_prev = None
    streak = 0
    k = 0
    while k < max_panels:
        edges = np.arange(k, k + block + 1, dtype=float) * h
        vals = _panel_values(integrand, edges)
        for j, v in enumerate(vals):
            partial += v
            if edges[j + 1] > bulk_end:
                sums.append(partial)
        k += block
        if len(sums) >= 8:
            accel = _iterated_aitken(np.array(sums[-48:]))
            if accel_prev is not None:
                tol = max(abs_tol, cfg.rel_tol * abs(accel))
                streak = streak + 1 if abs(accel - accel_prev) < tol else 0
                if streak >= 2:
                    return accel
            accel_prev = accel
        if k * h > P and sums:
            # envelope tail below the truncation bound; direct sum suffices
            return _iterated_aitken(np.array(sums[-48:])) if len(sums) >= 3 \
                else partial
    raise QuadratureError(
        f"oscillatory acceleration did not converge (tau={tau:g})",
        best_estimate=accel_prev if accel_prev is not None else partial)
