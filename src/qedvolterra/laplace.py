"""Laplace-domain analysis for stationary kernels.

For a stationary kernel with spectral density rho the transform is the
Cauchy-type integral

    S_hat(s) = integral_0^inf rho(p) / (s + i p) dp      (Re s > 0),

whose branch cut lies on s in -i [0, inf).  Continuing across the cut gives
the second-sheet values S_hat_II(s) = S_hat(s) + 2 pi rho(i s), which the
resonance-pole search needs.  The amplitude transform is
c_hat(s) = 1 / (s + alpha S_hat(s - i omega)); its dominant pole s0 gives the
exponential decay rate gamma = -2 Re s0, with the weak-coupling (Markov)
limit gamma_M = 2 pi alpha rho(omega).  Bromwich inversion along a vertical
contour provides an independent time-domain reconstruction of c(t).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .atom import ModelParams
from .kernels import SpectralDensity, _own_units
from .quadrature import QuadConfig, QuadratureError, _integrate_many, \
    _truncation_walk
from .volterra import AmplitudeSeries, SolverError, TimeGrid

_POLE_TOL = 1e-12
_MAX_NEWTON = 50

# the Bromwich contour abscissa times t_max, and its truncation tolerance
_BROMWICH_SIGMA_TMAX = 3.0
_BROMWICH_TOL = 1e-4

# tight tolerances; pole residuals must resolve below 1e-12
_CAUCHY_CFG = QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
# contour points only need ~1e-8; the trapezoid sum dominates the error
_BROMWICH_CFG = QuadConfig(rel_tol=1e-8, abs_tol=1e-11, max_subdivisions=2000)


class MissingExtensionError(ValueError):
    """Second-sheet evaluation requested without an analytic extension."""


@dataclass
class LaplaceAnalysis:
    """Resonance data of one (density, params) problem."""

    density: SpectralDensity
    params: ModelParams
    pole: complex
    gamma_pole: float
    gamma_markov: float
    lamb_shift: float
    residual: float


def _cauchy_transform(rho, ss: list, cfg: QuadConfig = _CAUCHY_CFG,
                      derivative: bool = False) -> list:
    """integral_0^inf rho(p)/(s + i p) dp for each s in ``ss``, off the cut.

    ``rho`` is one density for every point, or a sequence of densities, one
    per point.  Each transform runs in its density's own units: with
    rho(p) = A rho1(p / lam), lam = ``scale`` (``shape = (rho1, A, peak1)``,
    or rho1(x) = fn(lam x) and A = 1), it is A S1(z), z = s / lam, where
    S1(z) = integral_0^inf rho1(x)/(z + ix) dx; the ladder, the near-pole
    window and the tolerances act on S1, relative to the problem.  Near the
    cut (|Re z| < 0.05), the Lorentzian at x* = -Im z is handled by
    subtracting rho1(x*) and integrating the subtracted pole in closed form;
    a milder peak is split at x*.  Every piece of every transform is one
    problem of a single lockstep :func:`_integrate_many`.

    The densities that share one rho1 (hydrogen at every alpha) are one
    group; a density without a shape is a group of its own.  Each
    refinement step makes one rho1 call per group, on its slice of the
    nodes.  The points of a group whose densities agree on the peak and
    decay in x (a shape's peak1, so hydrogen at every alpha) walk one
    truncation ladder (each takes the first rung below
    its own 0.1 abs_tol max(|z|, 1)), and one rho1 call gives the group's
    near-pole values.  Each transform keeps its own truncation point and
    branch and sums its pieces in its own order, so the values do not
    depend on what shares the batch.

    With ``derivative``, each entry is the pair (S_hat(s), dS_hat/ds), the
    latter A/lam dS1/dz: each piece's -(rho1(x) - r)/(z + ix)^2 is the
    second component of the value's quadrature, and the near-pole term
    adds (r / i)(1/(z + ib) - 1/(z + ia)).  The values are bit for bit
    those made without it.  A and A/lam scale each part on its own, so at
    A = lam = 1 the transforms are bit for bit those of p.
    """
    rhos = [rho] * len(ss) if isinstance(rho, SpectralDensity) else list(rho)
    by_id = {id(r): _own_units(r) for r in rhos}
    views = [by_id[id(r)] for r in rhos]
    zs = [complex(s.real / r.scale, s.imag / r.scale)
          for s, r in zip(ss, rhos)]
    if 0.0 in zs:
        raise ValueError("s = 0 lies on the branch cut")
    # the points of each rho1, in order of first appearance
    groups = {}
    for k, view in enumerate(views):
        groups.setdefault(id(view[0]), []).append(k)
    units = [views[ks[0]][0] for ks in groups.values()]
    bounds, z_of, r_of = [], [], []
    # per group: its first problem; per transform: its first piece, its
    # piece count, its closed-form term
    starts, plans = [], [None] * len(ss)
    for unit, ks in zip(units, groups.values()):
        walks = {}
        for k in ks:
            walks.setdefault(views[k][2:], []).append(k)
        cutoff = {}
        for (peak, order, rate), walk in walks.items():
            cutoff.update(zip(walk, _truncation_walk(
                unit, [0.1 * cfg.abs_tol * max(abs(zs[k]), 1.0)
                       for k in walk], order, rate, peak)))
        near = [k for k in ks if 0.0 < -zs[k].imag < cutoff[k][0]
                and abs(zs[k].real) < 0.05]
        rstars = dict(zip(near, np.asarray(unit(np.array(
            [-zs[k].imag for k in near]))).tolist() if near else ()))
        starts.append(len(bounds))
        for k in ks:
            z, (X, _) = zs[k], cutoff[k]
            xstar = -z.imag
            first = len(bounds)
            log_term = None
            # pieces (a, b, r) integrate (rho1(x) - r) / (z + ix) over [a, b]
            if k in rstars:
                delta = min(xstar, X - xstar, 1.0)
                a, b = xstar - delta, xstar + delta
                rstar = complex(rstars[k])
                pieces = [(0.0, a, 0.0), (a, b, rstar), (b, X, 0.0)]
                # int_a^b dx/(z+ix) along the vertical segment Re = Re(z);
                # the principal log branch is crossed when Re(z) < 0
                log_diff = cmath.log(z + 1j * b) - cmath.log(z + 1j * a)
                if z.real < 0.0:
                    log_diff -= 2j * math.pi
                # rstar times that integral, and its z-derivative
                log_term = (rstar * log_diff / 1j, rstar / 1j * (
                    1.0 / (z + 1j * b) - 1.0 / (z + 1j * a)))
            elif 0.0 < xstar < X:
                # mild peak: split to help the adaptive rule
                pieces = [(0.0, xstar, 0.0), (xstar, X, 0.0)]
            else:
                pieces = [(0.0, X, 0.0)]
            for a, b, rp in pieces:
                bounds.append((a, b))
                z_of.append(z)
                r_of.append(rp)
            plans[k] = (first, len(pieces), log_term)
    z_of = np.array(z_of, dtype=complex)
    r_of = np.array(r_of, dtype=complex)
    starts = np.array(starts[1:])

    def f(x, idx):
        # idx is nondecreasing, so each group's nodes are one slice
        edges = [0, *(np.searchsorted(idx, starts).tolist() if starts.size
                      else ()), len(x)]
        rho_x = np.empty(x.shape, dtype=complex)
        for unit, lo, hi in zip(units, edges, edges[1:]):
            if lo < hi:
                rho_x[lo:hi] = unit(x[lo:hi])
        # subtracting r = 0 leaves the plain pieces' values unchanged; in
        # place, so that few node-sized arrays are alive at once
        rho_x -= r_of[idx]
        den = 1j * x
        den += z_of[idx]
        rho_x /= den
        if not derivative:
            return rho_x
        # d/dz of (rho1 - r)/(z + ix)
        return rho_x, rho_x / -den

    results = _integrate_many(f, bounds, cfg)
    width = 2 if derivative else 1
    sums = np.empty((len(ss), width), dtype=complex)
    for k, (first, n, log_term) in enumerate(plans):
        # each piece's value and, with the derivative, its second integral,
        # which an empty piece (f never called there) lacks
        terms = [(v, *dv, 0.0 + 0.0j)[:width]
                 for v, _, *dv in results[first:first + n]]
        if log_term is not None:
            terms.insert(2, log_term[:width])
        # summed left to right, in piece order
        sums[k] = [functools.reduce(operator.add, part)
                   for part in zip(*terms)]
    # (A, A/lam) on the (re, im) parts of (S1, dS1/dz)
    sums.view(float).reshape(len(ss), width, 2)[...] *= np.array(
        [(amp, amp / r.scale) for (_, amp, *_), r in zip(views, rhos)]
    ).reshape(len(ss), 2, 1)[:, :width]
    return [tuple(row) if derivative else row[0] for row in sums]


def _second_sheet(rho, ss: list, steps=None) -> list:
    """s_hat_second_sheet at each of the complex points ``ss``, as one
    batch; ``rho`` is one density or one per point.

    Given ``steps``, one real h per point, each entry is the pair (value,
    derivative): the transform's derivative comes from its own quadrature,
    and the Plemelj term's from a central difference of the closed-form
    extension at s +- h.  The callers refuse Re s = 0 and missing extensions.
    """
    rhos = [rho] * len(ss) if isinstance(rho, SpectralDensity) else list(rho)
    sheet = _cauchy_transform(rhos, ss, derivative=steps is not None)
    if steps is None:
        return [v if s.real > 0.0
                else v + 2.0 * math.pi * r.analytic_extension(1j * s)
                for s, r, v in zip(ss, rhos, sheet)]
    out = []
    for s, r, h, (v, dv) in zip(ss, rhos, steps, sheet):
        if s.real < 0.0:
            ext = r.analytic_extension
            v = v + 2.0 * math.pi * ext(1j * s)
            dv = dv + 2.0 * math.pi * (ext(1j * (s + h))
                                       - ext(1j * (s - h))) / (2.0 * h)
        out.append((v, dv))
    return out


def s_hat(rho: SpectralDensity, s: complex) -> complex:
    """Laplace transform of the stationary kernel, valid for Re s > 0."""
    s = complex(s)
    if s.real <= 0.0:
        raise ValueError("s_hat requires Re s > 0; "
                         "use s_hat_second_sheet for the continuation")
    return _cauchy_transform(rho, [s])[0]


def s_hat_second_sheet(rho: SpectralDensity, s: complex) -> complex:
    """Analytic continuation of s_hat across the cut on -i[0, inf).

    Equals s_hat for Re s > 0; for Re s < 0 it adds the Plemelj jump
    2 pi rho(i s), which requires the density's analytic extension.
    """
    s = complex(s)
    if s.real == 0.0:
        raise ValueError("evaluation on Re s = 0 is ambiguous; offset s")
    if s.real < 0.0 and rho.analytic_extension is None:
        raise MissingExtensionError(
            f"density {rho.label!r} has no analytic extension; "
            "second-sheet evaluation refused")
    return _second_sheet(rho, [s])[0]


def markov_rate(rho: SpectralDensity, params: ModelParams) -> float:
    """Weak-coupling decay rate of |c|^2: gamma_M = 2 pi alpha rho(omega)."""
    return 2.0 * math.pi * params.alpha * float(rho(params.omega))


def _newton(fun, seeds, scales):
    """Newton iteration from every seed, in lockstep.

    ``fun(ids, points)`` maps the points of the seeds ``ids`` to their
    (F, F') pairs, so each round is one batch at the unfinished seeds; a
    None in place of a pair stops that seed unconverged.  Seed i steps with
    its own scale ``scales[i]``.  A seed whose |F| < _POLE_TOL
    is accepted, and its root is that round's point less F/F' (the point
    itself where F' = 0): the last Newton step costs no further batch.
    Each seed gets its own ``_MAX_NEWTON`` rounds and stops on the same
    tests as when iterated on its own, so the results do not depend on the
    other seeds.  Returns, in seed order, (root, |F|), where |F| is the
    residual of the accepting round, before that last step, or None for a
    seed that did not converge.
    """
    s = [complex(s0) for s0 in seeds]
    found = [None] * len(s)
    active = list(range(len(s)))
    for _ in range(_MAX_NEWTON):
        if not active:
            break
        stepped = []
        for i, pair in zip(active, fun(active, [s[i] for i in active])):
            if pair is None:
                continue
            f, df = pair
            if abs(f) < _POLE_TOL:
                found[i] = (s[i] - f / df if df != 0.0 else s[i], abs(f))
                continue
            if df == 0.0:
                continue
            step = f / df
            if abs(step) > 10.0 * scales[i]:
                continue
            s[i] -= step
            stepped.append(i)
        active = stepped
    return found


# Newton seeds around the first-sheet estimate, in units of the search scale
_SEED_OFFSETS = (0.0, 0.3, -0.3, 0.3j, -0.3j, 0.3 + 0.3j, 0.3 - 0.3j, 1.0j)


def _find_poles(rhos, params) -> list:
    """(s0, residual) for each problem (rhos[k], params[k]), from one
    lockstep Newton search over every problem's seeds; the residual is |F|
    of the accepting round, before its last step to s0.

    Every problem's seeds surround -alpha S_hat(1e-6 scale - i omega), and
    those first-sheet transforms are one batch.  Each problem keeps its own
    seeds, scale and root selection, so its pole does not depend on the
    other problems.
    """
    for rho, p in zip(rhos, params):
        if rho.analytic_extension is None:
            raise MissingExtensionError(
                f"density {rho.label!r} has no analytic extension; "
                "pole finding refused")
        if p.alpha == 0.0:
            raise ValueError("alpha = 0 has no resonance pole")
    # its smallest difference step, 1e-7 of the scale floor 1e-3 scale,
    # must be a normal float, or the Plemelj difference overflows
    if any(not 1e-10 * rho.scale >= np.finfo(float).tiny for rho in rhos):
        raise SolverError("pole search cannot start: its smallest step "
                          "1e-10 * scale is not a normal float (density "
                          "scale too small)")
    points = [complex(1e-6 * rho.scale - 1j * p.omega)
              for rho, p in zip(rhos, params)]
    # Re > 0 at every point, 1e-6 scale being a normal float (checked above)
    centres = [-p.alpha * v
               for p, v in zip(params, _cauchy_transform(rhos, points))]
    scales = [max(abs(z), 1e-3 * rho.scale) for z, rho in zip(centres, rhos)]
    owner = [k for k in range(len(rhos)) for _ in _SEED_OFFSETS]
    seeds = [z + off * scale for z, scale in zip(centres, scales)
             for off in _SEED_OFFSETS]

    def F(ids, zs):
        # complex() as in s_hat_second_sheet: the Plemelj term must see a
        # Python complex, whose ** differs from numpy's in the last bits.
        # A point on Re s = 0, where the continuation is ambiguous, leaves
        # the batch and stops its seed unconverged
        points = [complex(z - 1j * params[owner[i]].omega)
                  for i, z in zip(ids, zs)]
        live = [j for j, z in enumerate(points) if z.real != 0.0]
        sheet = _second_sheet([rhos[owner[ids[j]]] for j in live],
                              [points[j] for j in live],
                              [1e-7 * max(abs(zs[j]), scales[owner[ids[j]]])
                               for j in live])
        out = [None] * len(ids)
        for j, (v, dv) in zip(live, sheet):
            alpha = params[owner[ids[j]]].alpha
            out[j] = (zs[j] + alpha * v, 1.0 + alpha * dv)
        return out

    found = _newton(F, seeds, [scales[k] for k in owner])
    n = len(_SEED_OFFSETS)
    out = []
    for k, (rho, p) in enumerate(zip(rhos, params)):
        roots = [r for r in found[k * n:(k + 1) * n]
                 if r is not None and abs(r[0].imag) <= rho.scale + p.omega]
        if not roots:
            raise SolverError("pole search did not converge from any seed")
        # the dominant (largest Re) root, the first seed's on a tie
        s0, resid = min(roots, key=lambda r: -r[0].real)
        rel_tol = _CAUCHY_CFG.rel_tol
        if not s0.real < -rel_tol * abs(s0):
            raise SolverError(
                f"pole s0 = {s0:g} resolves no decay: Re s0 is not below "
                f"-{rel_tol:g} |s0|, the transforms' relative tolerance "
                "(a Re s0 > 0 would violate unitarity)")
        out.append((s0, resid))
    return out


def find_pole(rho: SpectralDensity, params: ModelParams) -> complex:
    """Dominant resonance pole s0 of 1 / (s + alpha s_hat(s - i omega)).

    Newton iteration on F(s) = s + alpha * S_hat_II(s - i omega) from 8
    seeds, run in lockstep so that each round is one quadrature that gives
    F and F' together; an accepted seed's root takes one last Newton step
    from the values it was accepted on.  The root with the greatest real
    part is returned.  The pole must be a decay the transforms resolve,
    Re s0 < -_CAUCHY_CFG.rel_tol |s0|; a pole with Re s0 > 0 would violate
    unitarity and signal a broken kernel.  A seed whose iterate lands on
    Re(s - i omega) = 0, where the continuation is ambiguous, counts as not
    converged.  Raises :class:`SolverError` when no seed converges, or for
    a pole that resolves no decay.
    """
    return _find_poles([rho], [params])[0][0]


def analyze(rho, params):
    """Markov rate, resonance pole and derived quantities in one record.

    Given sequences of densities and params instead, one per problem, it
    returns one record per problem, in order, from one lockstep pole search
    for all of them; each record equals the one of its problem alone.  The
    residual is |F| of the Newton round that accepted the root, at the
    point before that round's last step to s0, so |F(s0)| is no larger up
    to the transforms' accuracy.
    """
    single = isinstance(rho, SpectralDensity)
    rhos, ps = ([rho], [params]) if single else (list(rho), list(params))
    if len(rhos) != len(ps):
        raise ValueError("one params record per density is needed")
    out = [LaplaceAnalysis(density=r, params=p, pole=pole,
                           gamma_pole=-2.0 * pole.real,
                           gamma_markov=markov_rate(r, p),
                           lamb_shift=pole.imag, residual=resid)
           for r, p, (pole, resid) in zip(
               rhos, ps, _find_poles(rhos, ps))]
    return out[0] if single else out


def bromwich_invert(rho: SpectralDensity, params: ModelParams,
                    t_grid: TimeGrid) -> AmplitudeSeries:
    """Numerical Bromwich inversion of c_hat(s) = 1/(s + alpha S_hat(s-iw)).

    The 1/s part (initial value) is inverted analytically; the remainder
    decays like 1/|s|^3 along the contour and is summed by the trapezoid
    rule with spacing pi / (2 t_max).  The contour abscissa is fixed at
    sigma = _BROMWICH_SIGMA_TMAX / t_max = 3 / t_max, which keeps the
    e^{sigma t} amplification at e^3 while the aliasing error stays below
    e^{-4 sigma t_max} = e^{-12}.  The contour is walked in blocks of 512
    points per side; each block is one batch of Cauchy transforms, and its
    terms are added to c in contour order.  The truncation test reads the
    block's last points on each side, sigma +- i y_edge.  The walk stops
    once the estimated truncation error falls below
    0.1 _BROMWICH_TOL = 1e-5.
    """
    alpha, omega = params.alpha, params.omega
    times = t_grid.times
    t_max = t_grid.t_max
    c = np.ones(len(times), dtype=complex)
    trunc = np.zeros(len(times))
    if alpha == 0.0:
        return AmplitudeSeries(grid=t_grid, values=c, method="bromwich",
                               kernel_label=rho.label, alpha=alpha,
                               omega=omega, truncation_error=trunc)
    sigma = _BROMWICH_SIGMA_TMAX / t_max
    h = math.pi / (2.0 * t_max)

    def chat_minus(points):
        sheet = _cauchy_transform(
            rho, [complex(s - 1j * omega) for s in points], _BROMWICH_CFG)
        return [1.0 / (s + alpha * sh) - 1.0 / s
                for s, sh in zip(points, sheet)]

    block = 512
    max_points = 400000
    amp = np.exp(sigma * times) * (h / (2.0 * math.pi))
    k0 = 0
    while k0 < max_points:
        ks = np.arange(k0, k0 + block)
        ys = ks * h
        k0 += block
        y_edge = (k0 - 1) * h
        # k = 0 handled once; negative side mirrored explicitly.  The block
        # is one batch of transforms; ys[-1] == y_edge ends each side
        terms = [(sign, y) for sign in (1.0, -1.0)
                 for y in (ys[ys > 0] if sign < 0 else ys)]
        g = chat_minus([complex(sigma, sign * y) for sign, y in terms])
        for (sign, y), g_k in zip(terms, g):
            c += amp * np.exp(1j * sign * y * times) * g_k
        gm = max(abs(g[len(ys) - 1]), abs(g[-1]))
        # 1/y^3 tail: sum_{y>Y} |g| ~ gm * Y / (2 h)
        tail = amp[-1] * gm * y_edge / (2.0 * h) * 2.0
        trunc[:] = tail
        if tail < 0.1 * _BROMWICH_TOL:
            break
    else:
        raise QuadratureError("Bromwich contour truncation did not converge",
                              best_estimate=None, err_est=float(trunc[-1]))
    return AmplitudeSeries(grid=t_grid, values=c, method="bromwich",
                           kernel_label=rho.label, alpha=alpha, omega=omega,
                           truncation_error=trunc)
