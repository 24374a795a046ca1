"""Field-state kernels S(t, s): vacuum, squeezed, and custom spectral densities.

For stationary states the kernel is the half-line Fourier transform of a
spectral density,

    S(tau) = integral_0^inf rho(p) exp(-i p tau) dp,

where the transverse polarization sum and all angular integrals are already
absorbed into rho.  Squeezed states add a smooth non-stationary correction
Delta S(t, s) built from photon pairs.

Note on the squeezed-state formulas: the two displays for the squeezed
two-point function in the source derivation disagree on the placement of the
sinh^2 term.  This module follows the general-wavepacket form (the one that
follows directly from the pair expectation values) and obtains the
concentrated form as its narrow-wavepacket limit; the concentrated overall
amplitude is an explicit scalar (default 1) since the wavepacket
normalization convention is not fixed by the derivation.

scipy's ``CubicSpline`` is imported only inside the two functions that build
splines, ``density_from_table`` and the ``tabulate=`` path of
``make_kernel``, so a run that builds no spline imports numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .atom import SmearingFunction
from .quadrature import QuadConfig, DEFAULT_QUAD, oscillatory_halfline


@dataclass(frozen=True)
class SpectralDensity:
    """Nonnegative density rho(p) over momentum magnitude p >= 0.

    ``decay_order`` (algebraic tail |rho| ~ C/p^order) or ``decay_rate``
    (exponential tail) must be declared for the oscillatory quadrature.
    ``peak`` is the location of the maximum, ``scale`` the overall momentum
    scale of the density.  ``analytic_extension`` evaluates rho at complex
    argument and is required by the resonance-pole search.

    ``shape = (rho1, amplitude)`` declares rho(p) = amplitude *
    rho1(p / scale) up to rounding; the Laplace side reads rho1 in units of
    ``scale``, one call for every density that shares it.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    scale: float = 1.0
    peak: float = 0.0
    decay_order: Optional[float] = None
    decay_rate: Optional[float] = None
    analytic_extension: Optional[Callable[[complex], complex]] = None
    shape: Optional[tuple[Callable, float]] = None

    def __post_init__(self):
        if (self.decay_order is None) == (self.decay_rate is None):
            raise ValueError("declare exactly one of decay_order / decay_rate")
        # the tail bounds divide by decay_rate and by decay_order - 1, and
        # oscillatory_halfline needs an algebraic tail of order >= 2
        if self.decay_order is not None \
                and not 2.0 <= self.decay_order < math.inf:
            raise ValueError("decay_order must be finite and >= 2")
        if self.decay_rate is not None \
                and not 0.0 < self.decay_rate < math.inf:
            raise ValueError("decay_rate must be finite and > 0")
        # the Laplace side's unit; hydrogen at alpha = 0 has scale 0
        if not 0.0 <= self.scale < math.inf:
            raise ValueError("scale must be finite and >= 0")
        if self.shape is not None:
            rho1, amplitude = self.shape
            if not callable(rho1):
                raise ValueError("shape function must be callable")
            if not 0.0 < amplitude < math.inf:
                raise ValueError("shape amplitude must be finite and > 0")

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if (p < 0.0).any():
            raise ValueError("momentum magnitude must be >= 0")
        if not p.ndim:
            # as a one-element array: numpy's scalar ** can differ from the
            # array's in the last bit, and the quadratures read arrays
            return float(np.ravel(self.fn(p[None]))[0])
        val = self.fn(p)
        return val if np.ndim(val) else float(val)


def hydrogen_vacuum_density(p, alpha):
    """rho(p) = (alpha^2 / 3 pi^2) p / ((p/alpha)^2 + 9/4)^4 for hydrogen."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    p = np.asarray(p, dtype=float)
    if (p < 0.0).any():
        raise ValueError("momentum magnitude must be >= 0")
    # at a tiny alpha (p/alpha)^2 overflows to inf, and rho = 0 is its limit
    with np.errstate(over="ignore"):
        val = (alpha * alpha / (3.0 * math.pi**2)) * p \
            / ((p / alpha)**2 + 2.25)**4
    return val if val.ndim else float(val)


def _hydrogen_unit(x):
    """The hydrogen density at alpha = 1: the shape of every alpha."""
    return hydrogen_vacuum_density(x, 1.0)


def hydrogen_density(alpha: float) -> SpectralDensity:
    """Spectral density of the hydrogen 2P -> 1S transition in vacuum,
    rho_alpha(p) = alpha^3 rho_1(p / alpha): declared as a shape where
    alpha^3 is a float > 0, 1.7e-108 < alpha < 5.6e102."""
    pref = alpha * alpha / (3.0 * math.pi**2)
    # a float ** raises OverflowError where this gives inf
    amplitude = alpha * alpha * alpha

    def ext(z):
        return pref * z / ((z / alpha)**2 + 2.25)**4

    return SpectralDensity(
        fn=lambda p: hydrogen_vacuum_density(p, alpha),
        label=f"hydrogen_vacuum(alpha={alpha:g})",
        scale=alpha,
        peak=alpha * math.sqrt(9.0 / 28.0),
        decay_order=7.0,
        analytic_extension=ext,
        shape=(_hydrogen_unit, amplitude)
        if 0.0 < amplitude < math.inf else None,
    )


def density_from_table(table, tail_order: float,
                       label: str = "table") -> SpectralDensity:
    """Spectral density from a two-column (p, rho) table.

    ``table`` is a path to a whitespace-separated text file or an (n, 2)
    array.  Interpolation is cubic; beyond the last tabulated point the
    density is extrapolated with the declared algebraic tail exponent.
    Values are clipped at zero.
    """
    if isinstance(table, (str, Path)):
        data = np.loadtxt(table)
    else:
        data = np.asarray(table, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 4:
        raise ValueError("table must have two columns and at least 4 rows")
    p_tab, rho_tab = data[:, 0], data[:, 1]
    if np.any(np.diff(p_tab) <= 0.0):
        raise ValueError("table momenta must be strictly increasing")
    if not (p_tab[0] >= 0.0 and p_tab[-1] > 0.0):
        raise ValueError("table momenta must start at p >= 0 and end at "
                         "p > 0")
    if np.any(rho_tab < 0.0):
        raise ValueError("table density must be nonnegative")
    if tail_order < 2.0:
        raise ValueError("tail exponent must be >= 2")
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(p_tab, rho_tab)
    p_last, rho_last = p_tab[-1], rho_tab[-1]
    i_peak = int(np.argmax(rho_tab))

    def fn(p):
        p = np.asarray(p, dtype=float)
        body = np.maximum(spline(np.minimum(p, p_last)), 0.0)
        tail = rho_last * (p_last / np.maximum(p, p_last)) ** tail_order
        return np.where(p > p_last, tail, body)

    return SpectralDensity(
        fn=fn, label=label,
        scale=max(p_tab[i_peak], 0.25 * p_last),
        peak=p_tab[i_peak],
        decay_order=tail_order,
    )


def vacuum_kernel(tau: float, rho: SpectralDensity,
                  cfg: QuadConfig = DEFAULT_QUAD) -> complex:
    """Stationary kernel S(tau) = integral_0^inf rho(p) exp(-i p tau) dp.

    rho is real, so S(-tau) = conj(S(tau)); negative lags are computed by
    conjugation, which makes Hermiticity exact.
    """
    if tau < 0.0:
        return np.conj(vacuum_kernel(-tau, rho, cfg))
    return oscillatory_halfline(
        rho.fn, tau, cfg, decay_order=rho.decay_order,
        decay_rate=rho.decay_rate, peak=rho.peak)


@dataclass
class SqueezeParams:
    """Squeezed-state parameters: amplitude r, carrier q, polarization d.

    ``d`` is normalized at construction and must be orthogonal to ``q``.
    ``wavepacket`` (complex-vector-valued function of the momentum 3-vector)
    with its momentum ``wavepacket_width`` enables the general-form kernel;
    the concentrated form needs only (r, q, d, amplitude).
    """

    r: float
    q: np.ndarray
    d: np.ndarray
    amplitude: float = 1.0
    wavepacket: Optional[Callable[[np.ndarray], np.ndarray]] = None
    wavepacket_width: Optional[float] = None

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.d = np.asarray(self.d, dtype=complex)
        if self.q.shape != (3,) or self.d.shape != (3,):
            raise ValueError("q and d must be 3-vectors")
        nd = math.sqrt(abs(np.vdot(self.d, self.d)))
        if nd == 0.0:
            raise ValueError("polarization must be nonzero")
        self.d = self.d / nd
        qn = np.linalg.norm(self.q)
        if qn > 0.0 and abs(np.dot(self.d, self.q)) > 1e-10 * qn:
            raise ValueError("polarization must be orthogonal to the carrier")
        if self.wavepacket is not None and self.wavepacket_width is None:
            raise ValueError("wavepacket requires wavepacket_width")

    @property
    def q0(self) -> float:
        return float(np.linalg.norm(self.q))


def _transverse(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply the projector delta_ij - p_i p_j / p^2 to v (both (..., 3))."""
    p2 = np.sum(p * p, axis=-1)
    p2 = np.where(p2 > 0.0, p2, 1.0)
    return v - p * (np.sum(p * v, axis=-1) / p2)[..., None]


class _PairMode:
    """F(t) = integral d^3p / sqrt(2p) f(p) . (P_T chi)(p) exp(-i|p| t)."""

    def __init__(self, params: SqueezeParams, chi: SmearingFunction,
                 cfg: QuadConfig, n_theta: int = 40, n_phi: int = 40):
        self.params = params
        self.chi = chi
        self.cfg = cfg
        u, wu = leggauss(n_theta)
        phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
        st = np.sqrt(1.0 - u * u)
        # unit directions, shape (n_theta * n_phi, 3), with solid-angle weights
        nx = np.outer(st, np.cos(phi)).ravel()
        ny = np.outer(st, np.sin(phi)).ravel()
        nz = np.repeat(u, n_phi)
        self._dirs = np.stack([nx, ny, nz], axis=-1)
        self._wts = np.repeat(wu, n_phi) * (2.0 * math.pi / n_phi)
        self._cache: dict[float, complex] = {}

    def _radial_envelope(self, p: np.ndarray) -> np.ndarray:
        p = np.atleast_1d(p)
        pts = p[:, None, None] * self._dirs[None, :, :]
        fv = np.asarray(self.params.wavepacket(pts), dtype=complex)
        cv = self._transverse(pts)
        ang = np.sum(fv * cv, axis=-1) @ self._wts
        return p**2 / np.sqrt(2.0 * p) * ang

    def _transverse(self, pts):
        return _transverse(pts, np.asarray(self.chi(pts), dtype=complex))

    def __call__(self, t: float) -> complex:
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        q0 = max(self.params.q0, self.params.wavepacket_width)
        val = oscillatory_halfline(
            self._radial_envelope, t, self.cfg,
            decay_rate=1.0 / self.params.wavepacket_width,
            peak=q0 + 3.0 * self.params.wavepacket_width)
        self._cache[t] = val
        return val


def squeezed_delta_general(t: float, s: float, params: SqueezeParams,
                           chi: SmearingFunction,
                           cfg: QuadConfig = DEFAULT_QUAD,
                           _mode: Optional[_PairMode] = None) -> complex:
    """Delta S(t, s) for a squeezed state with an explicit pair wavepacket."""
    if params.wavepacket is None:
        raise ValueError("general squeezed kernel requires a wavepacket")
    if params.r == 0.0:
        return 0.0 + 0.0j
    mode = _mode if _mode is not None else _PairMode(params, chi, cfg)
    ft, fs = mode(t), mode(s)
    sh, ch = math.sinh(params.r), math.cosh(params.r)
    z1 = ft * fs
    z2 = np.conj(ft) * fs
    return (-(z1 + np.conj(z1)) * sh * ch + (z2 + np.conj(z2)) * sh * sh)


def squeezed_delta_concentrated(t, s, params: SqueezeParams,
                                chi: SmearingFunction) -> complex:
    """Delta S(t, s) in the limit of a wavepacket concentrated at q.

    Broadcasts over array-valued t or s.
    """
    if params.r == 0.0:
        z = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s)),
                     dtype=complex)
        return z if z.ndim else 0.0 + 0.0j
    m = complex(np.dot(params.d, chi(params.q)))
    q0 = params.q0
    sh, ch = math.sinh(params.r), math.cosh(params.r)
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    z1 = m * m * np.exp(-1j * q0 * (t + s))
    z2 = np.conj(m) * m * np.exp(-1j * q0 * (t - s))
    out = params.amplitude * (-(z1 + np.conj(z1)) * sh * ch
                              + (z2 + np.conj(z2)) * sh * sh)
    return out if out.ndim else complex(out)


class KernelEvaluator:
    """Complex kernel S(t, s) = S0(t - s) + R(t, s) with a stationary flag.

    ``tau_fn(lag)`` gives the stationary part S0; a kernel built without it
    reads S0 as zeros.  The correction R comes from ``row_fn(t, s_array)``
    over an array of s or, without it, from ``fn(t, s)`` at each point.  A
    stationary kernel has S0 and no R, and exposes ``tau_values(lags)``; a
    non-stationary one needs R.  All kernels expose ``eval(t, s)`` and
    ``row(t, s_array)``.

    The solvers read S0 on the lag grid k * dt through a memo, one read-only
    ``(dt, values)`` pair for the longest such grid read so far: a grid with
    the same dt and no more steps is served its prefix, bit for bit, and any
    other grid is read anew (through ``tau_values`` for a stationary kernel)
    and replaces the memo only if it is longer.  The memo is the evaluator's
    only mutable state; it is replaced as a whole, so evaluators are safe
    for concurrent use.
    """

    def __init__(self, fn, stationary: bool, label: str,
                 tau_fn=None, row_fn=None):
        if stationary and tau_fn is None:
            raise ValueError("a stationary kernel requires tau_fn")
        if stationary and (fn is not None or row_fn is not None):
            raise ValueError("a stationary kernel has no correction: "
                             "give neither fn nor row_fn")
        if not stationary and fn is None and row_fn is None:
            raise ValueError("a non-stationary kernel requires row_fn or fn")
        self._fn = fn
        self.stationary = stationary
        self.label = label
        self._tau_fn = tau_fn
        self._row_fn = row_fn
        self._lags = None

    def eval(self, t: float, s: float) -> complex:
        if self.stationary:
            return complex(self._tau_fn(t - s))
        return complex(self.row(t, np.array([s]))[0])

    def tau_values(self, lags: np.ndarray) -> np.ndarray:
        if not self.stationary:
            raise ValueError("tau_values() requires a stationary kernel")
        return self._s0(lags)

    def row(self, t: float, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.stationary:
            return self.tau_values(t - s)
        return self._s0(t - s) + self._r(t, s)

    def _r(self, t: float, s: np.ndarray) -> np.ndarray:
        """R(t, s) over the array s."""
        if self._row_fn is None:
            return np.array([self._fn(t, float(x)) for x in s],
                            dtype=complex)
        return np.asarray(self._row_fn(t, s), dtype=complex)

    def _s0(self, lags) -> np.ndarray:
        lags = np.asarray(lags, dtype=float)
        if self._tau_fn is None:
            return np.zeros(len(lags), dtype=complex)
        # tau_fn sees Python floats, read a block at a time: a list of all
        # 50 001 lags would add about 2 MiB to a long solve's peak memory
        floats = chain.from_iterable(lags[i:i + 4096].tolist()
                                     for i in range(0, len(lags), 4096))
        return np.fromiter(map(self._tau_fn, floats), complex, len(lags))

    def _grid_s0(self, times: np.ndarray) -> np.ndarray:
        """S0 on the uniform grid ``times`` = arange(n + 1) * dt, n >= 1,
        through the memo; the array returned is read-only."""
        dt = float(times[1])
        memo = self._lags
        if memo is not None and memo[0] == dt and len(memo[1]) >= len(times):
            return memo[1][:len(times)]
        values = self.tau_values(times) if self.stationary \
            else self._s0(times)
        values.flags.writeable = False
        if memo is None or len(values) > len(memo[1]):
            self._lags = (dt, values)
        return values

    def _history_split(self, times: np.ndarray, omega: float):
        """(W, extra) with K_k[j] = W[k - j] + extra(k)[j] for the history
        rows K_k[j] = e^{i omega (t_k - t_j)} S(t_k, t_j), j = 0..k, on the
        uniform grid ``times``.

        W[m] = e^{i omega t_m} S0(t_m) is the stationary part, read on the
        lag grid through the memo (zeros for a kernel built without
        ``tau_fn``).  ``times`` must be arange(n + 1) * dt, n >= 1.
        ``extra(k)`` is the correction R of row k over all j at once; it is
        None exactly when the kernel is stationary.  Each row is meant to be
        requested once, so none is kept.
        """
        phase = np.exp(1j * omega * times)
        if self.stationary:
            phase *= self._grid_s0(times)
            return phase, None
        return phase * self._grid_s0(times), \
            lambda k: self._r(times[k], times[:k + 1]) * phase[k::-1]


def _tabulated_tau(rho: SpectralDensity, cfg: QuadConfig, tau_max: float,
                   spacing: float):
    """Cubic-spline tabulation of S(tau) on [0, tau_max] (fast solver path)."""
    n = max(int(math.ceil(tau_max / spacing)), 8)
    taus = np.linspace(0.0, tau_max * (1.0 + 2.0 / n), n + 3)
    vals = np.array([vacuum_kernel(float(x), rho, cfg) for x in taus])
    from scipy.interpolate import CubicSpline
    spl_re = CubicSpline(taus, vals.real)
    spl_im = CubicSpline(taus, vals.imag)

    def tau_fn(lag):
        a = abs(lag)
        if a > taus[-1]:
            raise ValueError("lag outside tabulated range")
        v = complex(spl_re(a), spl_im(a))
        return v if lag >= 0.0 else np.conj(v)

    return tau_fn


def make_kernel(state: str, *,
                density: Optional[SpectralDensity] = None,
                squeeze: Optional[SqueezeParams] = None,
                chi: Optional[SmearingFunction] = None,
                cfg: QuadConfig = DEFAULT_QUAD,
                tabulate: Optional[tuple[float, float]] = None
                ) -> KernelEvaluator:
    """Build a kernel evaluator for a field state.

    state:
      * ``vacuum`` / ``custom`` -- requires ``density``; stationary.
      * ``squeezed_concentrated`` -- requires ``density``, ``squeeze``,
        ``chi``; non-stationary.
      * ``squeezed_general`` -- as above plus a wavepacket in ``squeeze``.

    ``tabulate=(tau_max, spacing)`` pre-tabulates the stationary part on a
    spline, trading one-off quadrature cost for O(1) lag lookups.
    """
    if state in ("vacuum", "custom"):
        if density is None:
            raise ValueError(f"state {state!r} requires a spectral density")
        if tabulate is not None:
            tau_fn = _tabulated_tau(density, cfg, *tabulate)
        else:
            def tau_fn(lag):
                return vacuum_kernel(lag, density, cfg)
        return KernelEvaluator(None, stationary=True,
                               label=f"{state}:{density.label}",
                               tau_fn=tau_fn)

    if state in ("squeezed_concentrated", "squeezed_general"):
        if density is None or squeeze is None or chi is None:
            raise ValueError(f"state {state!r} requires density, squeeze "
                             "parameters and a smearing function")
        base = make_kernel("vacuum", density=density, cfg=cfg,
                           tabulate=tabulate)
        if state == "squeezed_concentrated":
            def row_fn(t, s):
                return squeezed_delta_concentrated(t, s, squeeze, chi)
        else:
            if squeeze.wavepacket is None:
                raise ValueError("squeezed_general requires a wavepacket")
            mode = _PairMode(squeeze, chi, cfg)

            def row_fn(t, s):
                return np.array([squeezed_delta_general(
                    t, float(x), squeeze, chi, cfg, _mode=mode) for x in s])
        return KernelEvaluator(None, stationary=False,
                               label=f"{state}:r={squeeze.r:g}",
                               tau_fn=base._tau_fn, row_fn=row_fn)

    raise ValueError(f"unknown state {state!r}")
