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
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atom import ModelParams
from .kernels import SpectralDensity
from .quadrature import QuadConfig, QuadratureError, _integrate_many, \
    _truncation_points
from .volterra import AmplitudeSeries, SolverError, TimeGrid

_POLE_TOL = 1e-12
_MAX_NEWTON = 50

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


def _cauchy_transform(rho: SpectralDensity, ss: list,
                      cfg: QuadConfig = _CAUCHY_CFG) -> list:
    """integral_0^inf rho(p)/(s + i p) dp for each s in ``ss``, off the cut.

    When the integrand develops a narrow Lorentzian at p* = -Im s (small
    |Re s|), the near-pole window is handled by subtracting rho(p*) and
    integrating the subtracted pole in closed form; a milder peak is split
    at p*.  Every piece of every transform is one problem of a single
    lockstep :func:`_integrate_many`, so each refinement step evaluates rho
    once for all of them.  The truncation rungs (P_k, |rho(P_k)|) do not
    depend on s, so one ladder walk gives every point its truncation point
    (the first rung below its own threshold 0.1 abs_tol max(|s|, 1)), and
    all the near-pole values rho(p*) come from one density call.  Each
    transform keeps its own truncation point and branch, and sums its
    pieces in the same order as a transform done on its own, so the values
    do not depend on how many share the batch.
    """
    for s in ss:
        if s == 0.0:
            raise ValueError("s = 0 lies on the branch cut")
    cutoffs = [P for P, _ in _truncation_points(
        rho.fn, [0.1 * cfg.abs_tol * max(abs(s), 1.0) for s in ss],
        decay_order=rho.decay_order, decay_rate=rho.decay_rate,
        peak=rho.peak)]
    near = [0.0 < -s.imag < P and abs(s.real) < 0.05 * rho.scale
            for s, P in zip(ss, cutoffs)]
    pstars = [-s.imag for s, is_near in zip(ss, near) if is_near]
    rstars = iter(np.asarray(rho.fn(np.array(pstars))).tolist()
                  if pstars else ())
    bounds, s_of, r_of = [], [], []
    # per transform: its first piece, its piece count, its closed-form term
    plans = []
    for s, P, is_near in zip(ss, cutoffs, near):
        pstar = -s.imag
        first = len(bounds)
        log_term = None
        # pieces (a, b, r) integrate (rho(p) - r) / (s + ip) over [a, b]
        if is_near:
            delta = min(pstar, P - pstar, rho.scale)
            a, b = pstar - delta, pstar + delta
            rstar = complex(next(rstars))
            pieces = [(0.0, a, 0.0), (a, b, rstar), (b, P, 0.0)]
            # int_a^b dp/(s+ip) along the vertical segment Re = Re(s); the
            # principal log branch is crossed when Re(s) < 0
            log_diff = cmath.log(s + 1j * b) - cmath.log(s + 1j * a)
            if s.real < 0.0:
                log_diff -= 2j * math.pi
            log_term = rstar * log_diff / 1j
        elif 0.0 < pstar < P:
            # mild peak: split to help the adaptive rule
            pieces = [(0.0, pstar, 0.0), (pstar, P, 0.0)]
        else:
            pieces = [(0.0, P, 0.0)]
        for a, b, r in pieces:
            bounds.append((a, b))
            s_of.append(s)
            r_of.append(r)
        plans.append((first, len(pieces), log_term))
    s_of = np.array(s_of, dtype=complex)
    r_of = np.array(r_of, dtype=complex)

    def f(p, idx):
        # subtracting r = 0 leaves the plain pieces' values unchanged
        return (np.asarray(rho.fn(p), dtype=complex) - r_of[idx]) \
            / (s_of[idx] + 1j * p)

    vals = [v for v, _ in _integrate_many(f, bounds, cfg)]
    out = []
    for first, n, log_term in plans:
        terms = vals[first:first + n]
        if log_term is not None:
            terms.insert(2, log_term)
        val = terms[0]
        for term in terms[1:]:
            val += term
        out.append(val)
    return out


def _first_sheet(rho: SpectralDensity, ss: list, cfg: QuadConfig) -> list:
    """s_hat at each of the complex points ``ss``, as one batch."""
    for s in ss:
        if s.real <= 0.0:
            raise ValueError("s_hat requires Re s > 0; "
                             "use s_hat_second_sheet for the continuation")
    return _cauchy_transform(rho, ss, cfg)


def _second_sheet(rho: SpectralDensity, ss: list, cfg: QuadConfig) -> list:
    """s_hat_second_sheet at each of the complex points ``ss``, as one batch."""
    for s in ss:
        if s.real > 0.0:
            continue
        if s.real == 0.0:
            raise ValueError("evaluation on Re s = 0 is ambiguous; offset s")
        if rho.analytic_extension is None:
            raise MissingExtensionError(
                f"density {rho.label!r} has no analytic extension; "
                "second-sheet evaluation refused")
    return [v if s.real > 0.0
            else v + 2.0 * math.pi * rho.analytic_extension(1j * s)
            for s, v in zip(ss, _cauchy_transform(rho, ss, cfg))]


def s_hat(rho: SpectralDensity, s: complex,
          cfg: QuadConfig = _CAUCHY_CFG) -> complex:
    """Laplace transform of the stationary kernel, valid for Re s > 0."""
    return _first_sheet(rho, [complex(s)], cfg)[0]


def s_hat_second_sheet(rho: SpectralDensity, s: complex,
                       cfg: QuadConfig = _CAUCHY_CFG) -> complex:
    """Analytic continuation of s_hat across the cut on -i[0, inf).

    Equals s_hat for Re s > 0; for Re s < 0 it adds the Plemelj jump
    2 pi rho(i s), which requires the density's analytic extension.
    """
    return _second_sheet(rho, [complex(s)], cfg)[0]


def markov_rate(rho: SpectralDensity, params: ModelParams) -> float:
    """Weak-coupling decay rate of |c|^2: gamma_M = 2 pi alpha rho(omega)."""
    return 2.0 * math.pi * params.alpha * float(rho(params.omega))


def _newton(fun, seeds, scale, tol=_POLE_TOL):
    """Newton iteration with central differences from every seed, in lockstep.

    ``fun`` maps a list of points to the list of F values.  Each round makes
    one batch of F at the unfinished seeds, then one batch of F(s +- h) at
    those not yet converged.  Each seed gets its own ``_MAX_NEWTON`` rounds
    and stops on the same tests as when iterated on its own, so the roots,
    returned in seed order, do not depend on the other seeds.
    """
    s = [complex(s0) for s0 in seeds]
    ok = [False] * len(s)
    active = list(range(len(s)))
    for _ in range(_MAX_NEWTON):
        if not active:
            break
        pending = []
        for i, f in zip(active, fun([s[i] for i in active])):
            if abs(f) < tol:
                ok[i] = True
            else:
                pending.append((i, f, 1e-7 * max(abs(s[i]), scale)))
        if not pending:
            break
        shifted = fun([z for i, _, h in pending for z in (s[i] + h, s[i] - h)])
        active = []
        for k, (i, f, h) in enumerate(pending):
            df = (shifted[2 * k] - shifted[2 * k + 1]) / (2.0 * h)
            if df == 0.0:
                continue
            step = f / df
            if abs(step) > 10.0 * scale:
                continue
            s[i] -= step
            active.append(i)
    return [z for z, good in zip(s, ok) if good]


def find_pole(rho: SpectralDensity, params: ModelParams,
              s_init: Optional[complex] = None,
              cfg: QuadConfig = _CAUCHY_CFG) -> complex:
    """Dominant resonance pole s0 of 1 / (s + alpha s_hat(s - i omega)).

    Newton iteration on F(s) = s + alpha * S_hat_II(s - i omega) from 8
    seeds, run in lockstep so that each round's transforms share one
    quadrature; the root with the greatest real part is returned.  A pole
    with Re s0 > 0 violates unitarity and signals a broken kernel.  Raises
    :class:`SolverError` when no seed converges, when an iterate lands on
    Re(s - i omega) = 0, or for such a pole.
    """
    if rho.analytic_extension is None:
        raise MissingExtensionError(
            f"density {rho.label!r} has no analytic extension; "
            "pole finding refused")
    alpha, omega = params.alpha, params.omega
    if alpha == 0.0:
        raise ValueError("alpha = 0 has no resonance pole")

    def F(ss):
        # complex() as in s_hat_second_sheet: the Plemelj term must see a
        # Python complex, whose ** differs from numpy's in the last bits
        points = [complex(z - 1j * omega) for z in ss]
        if any(z.real == 0.0 for z in points):
            raise SolverError("pole search reached Re s = 0, where the "
                              "continuation is ambiguous")
        sheet = _second_sheet(rho, points, cfg)
        return [z + alpha * v for z, v in zip(ss, sheet)]

    eps = 1e-6 * rho.scale
    if s_init is None:
        s_init = -alpha * s_hat(rho, eps - 1j * omega, cfg)
    scale = max(abs(s_init), 1e-3 * rho.scale)
    offsets = [0.0, 0.3 * scale, -0.3 * scale, 0.3j * scale, -0.3j * scale,
               (0.3 + 0.3j) * scale, (0.3 - 0.3j) * scale, 1.0j * scale]
    seeds = [s_init + off for off in offsets]
    roots = [r for r in _newton(F, seeds, scale)
             if abs(r.imag) <= rho.scale + omega]
    if not roots:
        raise SolverError("pole search did not converge from any seed")
    # deduplicate, keep the dominant (largest Re) root
    uniq: list[complex] = []
    for r in sorted(roots, key=lambda z: -z.real):
        if all(abs(r - u) > 1e-6 * scale for u in uniq):
            uniq.append(r)
    s0 = uniq[0]
    if s0.real > 1e-9 * scale:
        raise SolverError(
            f"pole with Re s0 = {s0.real:g} > 0 found; unitarity violated "
            "(kernel or density is inconsistent)")
    return s0


def analyze(rho: SpectralDensity, params: ModelParams,
            cfg: QuadConfig = _CAUCHY_CFG) -> LaplaceAnalysis:
    """Markov rate, resonance pole and derived quantities in one record."""
    pole = find_pole(rho, params, cfg=cfg)
    resid = abs(pole + params.alpha
                * s_hat_second_sheet(rho, pole - 1j * params.omega, cfg))
    return LaplaceAnalysis(
        density=rho, params=params, pole=pole,
        gamma_pole=-2.0 * pole.real,
        gamma_markov=markov_rate(rho, params),
        lamb_shift=pole.imag,
        residual=resid)


def bromwich_invert(rho: SpectralDensity, params: ModelParams,
                    t_grid: TimeGrid, cfg: QuadConfig = _BROMWICH_CFG,
                    sigma0: Optional[float] = None,
                    tol: float = 1e-4) -> AmplitudeSeries:
    """Numerical Bromwich inversion of c_hat(s) = 1/(s + alpha S_hat(s-iw)).

    The 1/s part (initial value) is inverted analytically; the remainder
    decays like 1/|s|^3 along the contour and is summed by the trapezoid
    rule with spacing pi / (2 t_max).  The contour abscissa defaults to
    3 / t_max, which keeps the e^{sigma0 t} amplification at e^3 while the
    aliasing error stays below e^{-4 sigma0 t_max} = e^{-12}.  The contour
    is walked in blocks of 512 points per side; each block and the two
    edge points of its truncation test are one batch of Cauchy transforms,
    and their terms are added to c in contour order.
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
    sigma = sigma0 if sigma0 is not None else 3.0 / t_max
    h = math.pi / (2.0 * t_max)

    def chat_minus(points):
        sheet = _first_sheet(rho, [complex(s - 1j * omega) for s in points],
                             cfg)
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
        # and its two edge points are one batch of transforms.
        terms = [(sign, y) for sign in (1.0, -1.0)
                 for y in (ys[ys > 0] if sign < 0 else ys)]
        points = [complex(sigma, sign * y) for sign, y in terms]
        g = chat_minus(points + [complex(sigma, y_edge),
                                 complex(sigma, -y_edge)])
        for (sign, y), g_k in zip(terms, g):
            c += amp * np.exp(1j * sign * y * times) * g_k
        gm = max(abs(g[-2]), abs(g[-1]))
        # 1/y^3 tail: sum_{y>Y} |g| ~ gm * Y / (2 h)
        tail = amp[-1] * gm * y_edge / (2.0 * h) * 2.0
        trunc[:] = tail
        if tail < 0.1 * tol:
            break
    else:
        raise QuadratureError("Bromwich contour truncation did not converge",
                              best_estimate=None, err_est=float(trunc[-1]))
    return AmplitudeSeries(grid=t_grid, values=c, method="bromwich",
                           kernel_label=rho.label, alpha=alpha, omega=omega,
                           truncation_error=trunc)
