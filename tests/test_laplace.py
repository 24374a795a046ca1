import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qedvolterra.kernels
import qedvolterra.laplace
from qedvolterra import KernelEvaluator, MissingExtensionError, \
    ModelParams, QuadratureError, SolverError, \
    SpectralDensity, TimeGrid, analyze, bromwich_invert, \
    density_from_table, find_pole, hydrogen_density, \
    hydrogen_vacuum_density, integrate_finite, make_kernel, markov_rate, \
    s_hat, s_hat_second_sheet, solve_ide
from qedvolterra.laplace import _BROMWICH_CFG, _CAUCHY_CFG, _MAX_NEWTON, \
    _POLE_TOL, _cauchy_transform, _newton, _second_sheet
from qedvolterra.kernels import _hydrogen_unit
from qedvolterra.quadrature import _truncation_walk
from qedvolterra.volterra import AmplitudeSeries
from test_quadrature import finite_at

# ------------------------------------------------- one-at-a-time oracles
# The Cauchy transform, the pole search and the Bromwich contour as they ran
# before their transforms were batched: one point per transform, a
# one-problem quadrature per piece, one seed at a time, each transform in its
# density's own units.  The batched routines must reproduce them bit for
# bit.


def _own_units(rho):
    """(rho1, A, peak1): the density's shape, or fn(scale x) at amplitude 1
    with peak / scale."""
    if rho.shape is not None:
        return rho.shape
    return (lambda x: rho.fn(rho.scale * x)), 1.0, rho.peak / rho.scale


def _scaled(v, a):
    """a v, each part scaled on its own."""
    return np.complex128(complex(a * v.real, a * v.imag))


def reference_cauchy_transform(rho, s, cfg=_CAUCHY_CFG, derivative=False):
    """The transform at s, or with ``derivative`` the pair (value, d/ds),
    in the density's own units: with rho(p) = A rho1(p / lam) it is
    A S1(z), z = s / lam, and its derivative A/lam dS1/dz.  Each piece's
    integrand carries its z-derivative -(rho1 - r)/(z + ix)^2 as a second
    component, and the near-pole term its closed form."""
    unit, amp, peak = _own_units(rho)
    lam = rho.scale
    z = complex(s.real / lam, s.imag / lam)
    rate = None if rho.decay_rate is None else rho.decay_rate * lam
    [(X, _)] = _truncation_walk(unit, [0.1 * cfg.abs_tol * max(abs(z), 1.0)],
                                rho.decay_order, rate, peak)

    def subtracted(r):
        def f(x):
            val = (np.asarray(unit(x), dtype=complex) - r) / (z + 1j * x)
            return (val, val / -(z + 1j * x)) if derivative else val
        return f

    def piece(f, a, b):
        out = finite_at(cfg, f, a, b)
        if not derivative:
            return out[0]
        # an empty piece has no second component
        return np.array([out[0], out[2] if len(out) > 2 else 0.0 + 0.0j])

    f = subtracted(0.0)
    xstar = -z.imag
    if 0.0 < xstar < X and abs(z.real) < 0.05:
        delta = min(xstar, X - xstar, 1.0)
        a, b = xstar - delta, xstar + delta
        rstar = complex(unit(np.array([xstar]))[0])
        val = piece(f, 0.0, a)
        val += piece(subtracted(rstar), a, b)
        log_diff = cmath.log(z + 1j * b) - cmath.log(z + 1j * a)
        if z.real < 0.0:
            log_diff -= 2j * math.pi
        log_term = rstar * log_diff / 1j
        if derivative:
            log_term = np.array([log_term, rstar / 1j * (
                1.0 / (z + 1j * b) - 1.0 / (z + 1j * a))])
        val += log_term
        val += piece(f, b, X)
    elif 0.0 < xstar < X:
        val = piece(f, 0.0, xstar)
        val += piece(f, xstar, X)
    else:
        val = piece(f, 0.0, X)
    if derivative:
        return _scaled(val[0], amp), _scaled(val[1], amp / lam)
    return _scaled(val, amp)


def reference_second_sheet(rho, s, cfg=_CAUCHY_CFG, h=None):
    """The continuation at s, or given h the pair (value, d/ds), whose
    Plemelj part is a central difference at s +- h."""
    s = complex(s)
    if h is None:
        val = reference_cauchy_transform(rho, s, cfg)
        if s.real > 0.0:
            return val
        return val + 2.0 * math.pi * rho.analytic_extension(1j * s)
    val, dval = reference_cauchy_transform(rho, s, cfg, derivative=True)
    if s.real > 0.0:
        return val, dval
    ext = rho.analytic_extension
    return (val + 2.0 * math.pi * ext(1j * s),
            dval + 2.0 * math.pi * (ext(1j * (s + h)) - ext(1j * (s - h)))
            / (2.0 * h))


def _reference_seeds(rho, params, cfg):
    s_init = -params.alpha * reference_cauchy_transform(
        rho, complex(1e-6 * rho.scale - 1j * params.omega), cfg)
    scale = max(abs(s_init), 1e-3 * rho.scale)
    offsets = [0.0, 0.3 * scale, -0.3 * scale, 0.3j * scale, -0.3j * scale,
               (0.3 + 0.3j) * scale, (0.3 - 0.3j) * scale, 1.0j * scale]
    return [complex(s_init + off) for off in offsets], scale


def _dominant(roots, rho, params, scale):
    roots = [r for r in roots if abs(r[0].imag) <= rho.scale + params.omega]
    uniq = []
    for r in sorted(roots, key=lambda z: -z[0].real):
        if all(abs(r[0] - u[0]) > 1e-6 * scale for u in uniq):
            uniq.append(r)
    return uniq[0]


def reference_find_pole(rho, params, cfg=_CAUCHY_CFG, residual=False):
    """One seed at a time, F' from the quadrature that gives F: the pole,
    the accepting round's point less F/F', or (pole, |F| of that round)."""
    alpha, omega = params.alpha, params.omega
    seeds, scale = _reference_seeds(rho, params, cfg)

    def F(s):
        v, dv = reference_second_sheet(rho, s - 1j * omega, cfg,
                                       1e-7 * max(abs(s), scale))
        return s + alpha * v, 1.0 + alpha * dv

    roots = []
    for s in seeds:
        for _ in range(_MAX_NEWTON):
            f, df = F(s)
            if abs(f) < _POLE_TOL:
                roots.append((s - f / df if df != 0.0 else s, abs(f)))
                break
            if df == 0.0:
                break
            step = f / df
            if abs(step) > 10.0 * scale:
                break
            s -= step
    pole = _dominant(roots, rho, params, scale)
    return pole if residual else pole[0]


def reference_find_pole_central(rho, params, cfg=_CAUCHY_CFG):
    """The search before F' came from the quadrature: F' is a central
    difference of F at s +- h, and the accepting round's point is the
    root.  A tolerance oracle for the pole."""
    alpha, omega = params.alpha, params.omega
    seeds, scale = _reference_seeds(rho, params, cfg)

    def F(s):
        return s + alpha * reference_second_sheet(rho, s - 1j * omega, cfg)

    roots = []
    for s in seeds:
        for _ in range(_MAX_NEWTON):
            f = F(s)
            if abs(f) < _POLE_TOL:
                roots.append((s, abs(f)))
                break
            h = 1e-7 * max(abs(s), scale)
            df = (F(s + h) - F(s - h)) / (2.0 * h)
            if df == 0.0:
                break
            step = f / df
            if abs(step) > 10.0 * scale:
                break
            s -= step
    return _dominant(roots, rho, params, scale)[0]


def reference_bromwich(rho, params, t_grid, cfg=_BROMWICH_CFG, tol=1e-4):
    alpha, omega = params.alpha, params.omega
    times, t_max = t_grid.times, t_grid.t_max
    c = np.ones(len(times), dtype=complex)
    sigma = 3.0 / t_max
    h = math.pi / (2.0 * t_max)

    def chat_minus(s):
        sh = reference_cauchy_transform(rho, s - 1j * omega, cfg)
        return 1.0 / (s + alpha * sh) - 1.0 / s

    amp = np.exp(sigma * times) * (h / (2.0 * math.pi))
    k0 = 0
    while True:
        ys = np.arange(k0, k0 + 512) * h
        for sign in (1.0, -1.0):
            for y in (ys[ys > 0] if sign < 0 else ys):
                g = chat_minus(complex(sigma, sign * y))
                c += amp * np.exp(1j * sign * y * times) * g
        k0 += 512
        y_edge = (k0 - 1) * h
        gm = max(abs(chat_minus(complex(sigma, y_edge))),
                 abs(chat_minus(complex(sigma, -y_edge))))
        tail = amp[-1] * gm * y_edge / (2.0 * h) * 2.0
        if tail < 0.1 * tol:
            return c, tail


def _hydrogen(alpha):
    return hydrogen_density(alpha), ModelParams(alpha=alpha,
                                                omega=0.375 * alpha**2)


@pytest.mark.parametrize("alpha", [0.2, 0.7565217391304349,
                                   0.7913043478260870, 1.0])
def test_lockstep_pole_search_matches_per_seed_reference(alpha):
    # the two middle values are sweep points where a numpy complex in the
    # Plemelj term moves the pole in the last bits
    rho, params = _hydrogen(alpha)
    assert find_pole(rho, params) == reference_find_pole(rho, params)


def test_lockstep_pole_search_matches_reference_synthetic(synthetic_density):
    for alpha in (0.0025, 0.01, 0.2):
        params = ModelParams(alpha=alpha, omega=1.0)
        assert find_pole(synthetic_density, params) \
            == reference_find_pole(synthetic_density, params)


def test_batched_cauchy_transform_matches_one_at_a_time(synthetic_density):
    # near-pole (|Re s| small), split (mild peak) and plain branches, on
    # both sides of the cut, in one batch
    points = [1e-6 - 0.09375j, -1e-6 - 0.09375j, 0.3 - 0.1j, -0.02 - 0.2j,
              0.5, 2.0 + 1.0j, 1e-3 - 5.0j]
    for rho in (hydrogen_density(0.5), synthetic_density):
        want = [reference_cauchy_transform(rho, s) for s in points]
        assert _cauchy_transform(rho, points) == want
        assert [s_hat_second_sheet(rho, s) for s in points] \
            == [reference_second_sheet(rho, s) for s in points]


def _logged(rho):
    """rho with the function its transforms read, its shape's or fn,
    recording the size of each call."""
    calls = []
    unit, *rest = rho.shape if rho.shape is not None else (rho.fn,)

    def logged(x):
        calls.append(np.size(x))
        return unit(x)

    if rho.shape is not None:
        return replace(rho, shape=(logged, *rest)), calls
    return replace(rho, fn=logged), calls


def test_batched_near_pole_values_share_one_density_call(synthetic_density):
    # near-pole points with distinct p* on both sheets, among plain ones:
    # their rho(p*) come from one density call, each at its own point
    points = [1e-6 - 0.3j, 0.4 - 0.2j, -2e-4 - 0.05j, 1e-3 - 0.7j,
              -1e-5 - 1.1j, 2.0 + 1.0j, 3e-3 - 0.3j]
    for rho in (hydrogen_density(0.5), synthetic_density):
        logged, calls = _logged(rho)
        want = [reference_cauchy_transform(rho, s) for s in points]
        assert _cauchy_transform(logged, points) == want
        near = [s for s in points if abs(s.real) < 0.05 * rho.scale]
        assert len(near) == 5
        # one ladder call and one rho(p*) call; every other call is a
        # lockstep step of 15 or 30 nodes per piece
        assert calls.count(len(near)) == 1
        assert all(n % 15 == 0 or n in (8, len(near)) for n in calls)


def test_multi_density_cauchy_transform_matches_per_density(
        synthetic_density):
    # three densities, their points interleaved, near-pole, split and plain
    # branches on both sides of the cut: each value equals its density's
    # own batch, and each density sees exactly the calls of its own batch
    # (each density's first point is not near its pole, whose first piece
    # [0, p* - delta] is often empty, so each density's first problem is
    # live in the first call)
    plain = [(hydrogen_density(0.5), [0.3 - 0.1j, 1e-6 - 0.09375j, 0.5]),
             (synthetic_density, [2.0 + 1.0j, -0.02 - 0.2j, 1e-3 - 5.0j,
                                  -1e-5 - 1.1j]),
             (hydrogen_density(0.9), [0.2 - 0.3j, -1e-6 - 0.30375j])]
    alone, mixed = [], []
    for rho, points in plain:
        alone_rho, alone_calls = _logged(rho)
        mixed_rho, mixed_calls = _logged(rho)
        want = _cauchy_transform(alone_rho, points)
        assert want == [reference_cauchy_transform(rho, s) for s in points]
        alone.append((points, want, alone_calls))
        mixed.append((mixed_rho, mixed_calls))
    rhos, points = [], []
    for k in range(4):
        for (rho, _), (pts, _, _) in zip(mixed, alone):
            if k < len(pts):
                rhos.append(rho)
                points.append(pts[k])
    got = _cauchy_transform(rhos, points)
    for (rho, calls), (pts, want, alone_calls) in zip(mixed, alone):
        assert [v for r, v in zip(rhos, got) if r is rho] == want
        assert calls == alone_calls


def test_batched_analyze_matches_per_problem_analyze(synthetic_density):
    rhos, params = [], []
    for alpha in (0.2, 0.7565217391304349, 1.0):
        rho, p = _hydrogen(alpha)
        rhos.append(rho)
        params.append(p)
    rhos.insert(1, synthetic_density)
    params.insert(1, ModelParams(alpha=0.01, omega=1.0))
    got = analyze(rhos, params)
    assert isinstance(got, list) and len(got) == 4
    for rho, p, an in zip(rhos, params, got):
        one = analyze(rho, p)
        assert an.density is rho and an.params is p
        assert (an.pole, an.gamma_pole, an.gamma_markov, an.lamb_shift,
                an.residual) == (one.pole, one.gamma_pole, one.gamma_markov,
                                 one.lamb_shift, one.residual)
        assert an.pole == reference_find_pole(rho, p)
    assert analyze([], []) == []
    with pytest.raises(ValueError):
        analyze(rhos, params[:2])


@pytest.mark.parametrize("alpha", [0.2, 0.7565217391304349, 1.0, None])
def test_residual_is_the_accepting_rounds(alpha, synthetic_density):
    # the residual is |F| of the Newton round that accepted the root, before
    # its last step, bit for bit the reference's; an extra transform at the
    # pole, after that step, gives no larger |F|
    if alpha is None:
        rho, params = synthetic_density, ModelParams(alpha=0.01, omega=1.0)
    else:
        rho, params = _hydrogen(alpha)
    an = analyze(rho, params)
    pole, want = reference_find_pole(rho, params, residual=True)
    assert _bits([an.pole]) == _bits([pole])
    assert np.array(an.residual).tobytes() == np.array(want).tobytes()
    assert type(an.residual) is type(want)
    after = abs(an.pole + params.alpha
                * s_hat_second_sheet(rho, an.pole - 1j * params.omega))
    assert after <= an.residual


def _bits(values):
    return np.array(values, dtype=complex).tobytes()


def _hydrogen_family(alphas):
    """Hydrogen densities at ``alphas``, sharing one shape function that
    records each call's nodes and values."""
    calls = []

    def unit(x):
        val = _hydrogen_unit(x)
        calls.append((np.array(x), np.array(val)))
        return val

    return [replace(rho, shape=(unit, *rho.shape[1:]))
            for rho in map(hydrogen_density, alphas)], calls


def _interleaved(per_density):
    """The (density, point) pairs of ``per_density``, k-th points first."""
    rhos, points = [], []
    for k in range(max(len(pts) for _, pts in per_density)):
        for rho, pts in per_density:
            if k < len(pts):
                rhos.append(rho)
                points.append(pts[k])
    return rhos, points


def test_family_cauchy_transform_matches_per_density(synthetic_density):
    # hydrogen at three alpha sharing one shape, mixed with p e^{-p} and a
    # table density (no shape) in one batch, points interleaved: near-pole,
    # split and plain branches on both sides of the cut.  Every value
    # equals its density's own batch and the one-at-a-time reference, bit
    # for bit; the densities without a shape see exactly the calls of
    # their own batch, and the shape exactly those of the family's batch
    family, unit_calls = _hydrogen_family([0.3, 0.5, 0.9])
    p = np.linspace(0.0, 8.0, 200)
    table = density_from_table(np.column_stack([p, p * np.exp(-p)]), 4.0)
    per_density = [
        (family[0], [0.2 - 0.1j, 1e-6 - 0.03375j, -1e-6 - 0.03375j, 0.5]),
        (synthetic_density, [2.0 + 1.0j, -0.02 - 0.2j, 1e-3 - 5.0j]),
        (family[1], [0.3 - 0.1j, -1e-6 - 0.09375j, 1e-6 - 0.3j]),
        (table, [0.5 - 0.5j, 1e-4 - 1.2j, 3.0]),
        (family[2], [0.2 - 0.3j, -1e-6 - 0.30375j, 1e-3 - 2.0j])]
    alone, logged = [], []
    for rho, points in per_density:
        want = _cauchy_transform(rho, points)
        assert _bits(want) == _bits(
            [reference_cauchy_transform(rho, s) for s in points])
        if rho.shape is None:
            alone_rho, alone_calls = _logged(rho)
            _cauchy_transform(alone_rho, points)
            rho, calls = _logged(rho)
            logged.append((calls, alone_calls))
        alone.append((rho, points, want))
    del unit_calls[:]
    _cauchy_transform(*_interleaved(
        [(rho, pts) for rho, pts, _ in alone if rho in family]))
    family_calls = [x.size for x, _ in unit_calls]
    del unit_calls[:]
    rhos, points = _interleaved([(rho, pts) for rho, pts, _ in alone])
    got = _cauchy_transform(rhos, points)
    for rho, pts, want in alone:
        assert _bits([v for r, v in zip(rhos, got) if r is rho]) \
            == _bits(want)
    for calls, alone_calls in logged:
        assert calls == alone_calls
    assert [x.size for x, _ in unit_calls] == family_calls


def test_family_ladders_and_near_pole_values_match_per_density():
    # hydrogen at five alpha sharing one shape.  peak / scale rounds to the
    # shape's peak at four of them and one ulp off at the fifth; the ladder
    # reads the shape's peak, so all five walk one ladder for all their
    # points, and each transform equals its density's own batch.  The
    # near-pole values rho1(x*) of the batch come from one call
    alphas = [0.2, 0.45, 1.0, 3.0, 0.4434782608695652]
    family, calls = _hydrogen_family(alphas)
    peak = family[0].shape[2]
    assert [r.peak / r.scale == peak for r in family] == [True] * 4 + [False]
    assert all(r.shape[2] == peak for r in family)
    points = [1e-6 - 0.01j, 0.4 - 0.2j, -1e-6 - 0.06j, 1e-5 - 0.4j,
              -2e-5 - 0.1j, 1e-6 - 0.5j, 0.3 - 0.2j, 2e-6 - 0.3j,
              -3e-6 - 0.7j]
    rhos = [family[k % 5] for k in range(len(points))]
    want = [_cauchy_transform(r, [s])[0] for r, s in zip(rhos, points)]
    zs = [s / r.scale for r, s in zip(rhos, points)]
    del calls[:]
    assert _bits(_cauchy_transform(rhos, points)) == _bits(want)
    # one walk, as long as its strictest point's walk alone
    walked = []
    _truncation_walk(lambda x: walked.append(x) or _hydrogen_unit(x),
                     [0.1 * _CAUCHY_CFG.abs_tol * max(abs(z), 1.0)
                      for z in zs], 7.0, None, peak)
    assert [x.size for x, _ in calls].count(8) == len(walked)
    # the near-pole values, in batch order
    near = [-z.imag for z in zs if abs(z.real) < 0.05]
    assert len(near) == 7
    hits = [(x, v) for x, v in calls if x.tolist() == near]
    assert len(hits) == 1
    assert hits[0][1].tobytes() == np.array(
        [_hydrogen_unit(np.array([x]))[0] for x in near]).tobytes()


def test_hydrogen_sweep_walks_one_ladder_per_transform(monkeypatch):
    # 24 alpha in one analyze: every batch of transforms walks one ladder,
    # also where peak / scale misses the shape's peak by an ulp
    alphas = np.linspace(0.2, 1.0, 24).tolist()
    rhos = [hydrogen_density(a) for a in alphas]
    assert any(r.peak / r.scale != r.shape[2] for r in rhos)
    walks, transforms = [], []
    walk = qedvolterra.laplace._truncation_walk
    transform = qedvolterra.laplace._cauchy_transform
    monkeypatch.setattr(qedvolterra.laplace, "_truncation_walk",
                        lambda *a: walks.append(1) or walk(*a))
    monkeypatch.setattr(
        qedvolterra.laplace, "_cauchy_transform",
        lambda *a, **k: transforms.append(1) or transform(*a, **k))
    analyze(rhos, [ModelParams(alpha=a, omega=0.375 * a * a)
                   for a in alphas])
    assert len(transforms) >= 3 and len(walks) == len(transforms)


def test_family_analyze_matches_per_density_analyze(synthetic_density):
    # hydrogen at three alpha, read through its shape and through fn alone
    # (fn(scale x) at amplitude 1), with p e^{-p} in the batch: two routes
    # to one density, whose records agree to the transforms' tolerance
    rhos, params = [], []
    for alpha in (0.2, 0.7565217391304349, 1.0):
        rho, p = _hydrogen(alpha)
        rhos.append(rho)
        params.append(p)
    rhos.insert(1, synthetic_density)
    params.insert(1, ModelParams(alpha=0.01, omega=1.0))
    got = analyze(rhos, params)
    want = analyze([replace(r, shape=None) for r in rhos], params)
    for an, one in zip(got, want):
        assert an.gamma_markov == one.gamma_markov
        assert abs(an.pole - one.pole) <= 1e-12 * abs(one.pole)
        assert abs(an.gamma_pole / one.gamma_pole - 1.0) <= 1e-10
    # p e^{-p} and hydrogen at alpha = 1 (A = scale = 1) read the same
    # values both ways
    assert _bits([an.pole for an in got[1::2]]) \
        == _bits([an.pole for an in want[1::2]])


def test_family_is_called_once_per_lockstep_step(monkeypatch):
    # a 24-alpha hydrogen sweep shares one shape: every lockstep step of
    # every batch of transforms calls _hydrogen_unit exactly once and no
    # density's fn, so a return to one call per density per step fails
    # here.  _hydrogen_unit reads hydrogen_vacuum_density by its module
    # name, as perfbench's node counter does
    alphas = np.linspace(0.2, 1.0, 24).tolist()
    density_calls, fn_calls = [], []
    density = qedvolterra.kernels.hydrogen_vacuum_density

    def counted_density(p, alpha):
        density_calls.append(np.size(p))
        return density(p, alpha)

    def counting_fn(rho):
        def fn(p):
            fn_calls.append(np.size(p))
            return rho.fn(p)
        return fn

    plain = [hydrogen_density(a) for a in alphas]
    rhos = [replace(r, fn=counting_fn(r)) for r in plain]
    params = [ModelParams(alpha=a, omega=0.375 * a * a) for a in alphas]
    per_step = []
    integrate_many = qedvolterra.laplace._integrate_many

    def counted(f, bounds, cfg):
        def step(p, idx):
            before = len(density_calls), len(fn_calls)
            out = f(p, idx)
            per_step.append((len(density_calls) - before[0],
                             len(fn_calls) - before[1]))
            return out
        return integrate_many(step, bounds, cfg)

    monkeypatch.setattr(qedvolterra.kernels, "hydrogen_vacuum_density",
                        counted_density)
    monkeypatch.setattr(qedvolterra.laplace, "_integrate_many", counted)
    got = analyze(rhos, params)
    assert len(per_step) > 100
    assert set(per_step) == {(1, 0)}
    # fn serves only the Markov rates; the ladders and near-pole values
    # take a few calls per batch, not per alpha
    assert len(fn_calls) == 24
    assert len(density_calls) - len(fn_calls) - len(per_step) \
        < len(per_step) // 4
    monkeypatch.undo()
    want = analyze(plain, params)
    assert _bits([an.pole for an in got]) == _bits([an.pole for an in want])


@pytest.mark.parametrize("case", ["hydrogen", "synthetic"])
def test_batched_bromwich_matches_per_point_reference(case,
                                                      synthetic_density):
    if case == "hydrogen":
        rho, params = _hydrogen(0.5)
        grid = TimeGrid(dt=1.0, n_steps=40)
    else:
        rho, params = synthetic_density, ModelParams(alpha=0.01, omega=1.0)
        grid = TimeGrid(dt=1.0, n_steps=20)
    series = bromwich_invert(rho, params, grid)
    values, tail = reference_bromwich(rho, params, grid)
    assert isinstance(series, AmplitudeSeries)
    np.testing.assert_array_equal(series.values, values)
    np.testing.assert_array_equal(series.truncation_error, tail)


def test_s_hat_two_routes(synthetic_density):
    # momentum route: integral rho(p)/(s+ip) dp.  time route: the kernel of
    # rho = p e^{-p} is S(tau) = 1/(1+i tau)^2, so S_hat is its ordinary
    # Laplace transform.
    for s in (0.5, 2.0, 1.0 + 0.7j, 0.3 - 1.2j):
        momentum = s_hat(synthetic_density, s)

        def time_integrand(tau):
            return np.exp(-s * tau) / (1.0 + 1j * tau) ** 2

        time_route = sum(
            integrate_finite(time_integrand, a, b)[0]
            for a, b in [(0.0, 20.0), (20.0, 200.0), (200.0, 2000.0)])
        assert momentum == pytest.approx(time_route, abs=1e-6)


def test_s_hat_rejects_left_half_plane(synthetic_density):
    with pytest.raises(ValueError):
        s_hat(synthetic_density, -0.1 - 1.0j)


def test_second_sheet_is_continuous_across_the_cut(synthetic_density):
    # the continuation must glue smoothly onto the first sheet through the
    # cut on -i [0, inf)
    y = 0.8
    for eps in (1e-3, 1e-4, 1e-5):
        right = s_hat(synthetic_density, eps - 1j * y)
        left = s_hat_second_sheet(synthetic_density, -eps - 1j * y)
        assert abs(left - right) < 20.0 * eps


def test_second_sheet_jump_is_plemelj(synthetic_density):
    # first-sheet boundary values jump by 2 pi rho(y) across the cut
    y, eps = 1.3, 1e-6
    upper = s_hat(synthetic_density, eps - 1j * y)
    lower = s_hat_second_sheet(synthetic_density, -eps - 1j * y) \
        - 2.0 * math.pi * synthetic_density.analytic_extension(
            1j * (-eps - 1j * y))
    jump = upper - lower
    assert jump == pytest.approx(2.0 * math.pi * synthetic_density(y),
                                 abs=1e-5)


def test_second_sheet_requires_extension():
    rho = SpectralDensity(fn=lambda p: p * np.exp(-p), decay_rate=1.0,
                          peak=1.0)
    with pytest.raises(MissingExtensionError):
        s_hat_second_sheet(rho, -0.1 - 1.0j)
    with pytest.raises(MissingExtensionError):
        find_pole(rho, ModelParams(alpha=0.01, omega=1.0))


def test_second_sheet_on_axis_rejected(synthetic_density):
    with pytest.raises(ValueError):
        s_hat_second_sheet(synthetic_density, -1.0j)


def test_large_s_asymptotics(synthetic_density):
    # s * S_hat(s) -> integral rho = 1 for rho = p e^{-p}
    for s in (50.0, 200.0):
        assert s * s_hat(synthetic_density, s) \
            == pytest.approx(1.0, rel=5.0 / s)


def test_markov_rate_formula(synthetic_density):
    params = ModelParams(alpha=0.01, omega=1.0)
    assert markov_rate(synthetic_density, params) \
        == pytest.approx(2.0 * math.pi * 0.01 * math.exp(-1.0), rel=1e-12)


def test_pole_residual_and_rate(synthetic_density):
    params = ModelParams(alpha=0.01, omega=1.0)
    result = analyze(synthetic_density, params)
    assert result.residual < 1e-10
    assert result.pole.real < 0.0
    assert result.gamma_pole == pytest.approx(-2.0 * result.pole.real)
    assert result.gamma_pole == pytest.approx(result.gamma_markov, rel=0.02)
    assert result.lamb_shift == result.pole.imag


def test_pole_weak_coupling_scaling(synthetic_density):
    # gamma_pole - gamma_markov is the second-order correction: the
    # deviation must scale like alpha^2, i.e. slope >= 1.8 on a log-log fit
    alphas = np.array([0.0025, 0.005, 0.01])
    devs = []
    for a in alphas:
        params = ModelParams(alpha=float(a), omega=1.0)
        pole = find_pole(synthetic_density, params)
        devs.append(abs(-2.0 * pole.real - markov_rate(synthetic_density,
                                                       params)))
    slope = np.polyfit(np.log(alphas), np.log(devs), 1)[0]
    assert slope >= 1.8


def test_hydrogen_pole_rate_tends_to_markov_like_alpha_squared():
    # the last Newton step resolves gamma_pole relative to itself: the
    # deviation from the Markov rate falls monotonically as alpha does,
    # through the physical alpha down to 2e-3
    alphas = [0.25, 0.1, 0.05, 0.02, 0.01, 1.0 / 137.036, 5e-3, 3e-3, 2e-3]
    devs = []
    for alpha in alphas:
        an = analyze(*_hydrogen(alpha))
        devs.append(abs(an.gamma_pole / an.gamma_markov - 1.0))
    assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:])), devs
    assert devs[-1] < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.floats(-320.0, 1.0).map(lambda e: 10.0 ** e))
@example(1.0 / 137.036)
@example(1e-10)
@example(1e-320)
def test_hydrogen_pole_is_a_decay_or_an_error(alpha):
    # a pole the transforms cannot resolve as a decay is refused: analyze
    # returns gamma_pole > 0 or raises, at any alpha
    try:
        an = analyze(*_hydrogen(alpha))
    except (SolverError, QuadratureError):
        return
    assert an.gamma_pole > 0.0


def _mp_hydrogen_pole(alpha, omega, dps=25):
    """The hydrogen pole s0 from mpmath at ``dps`` digits, an oracle that
    shares no code with the package.  In units of alpha, u = s / alpha is a
    root of F(u) = u + alpha^3 (-i) G_II(i (u - i omega / alpha)), where
    G_II(zeta) = integral rho_1(x) / (x - zeta) dx is taken along
    0 -> -0.5i -> 2 - 0.5i -> 2 -> inf, a path that passes below zeta, and
    rho_1(x) = x / (3 pi^2 (x^2 + 9/4)^4) is hydrogen at alpha = 1.  The
    search starts from the first-order root, F's value at u = 0 negated.
    At 25 digits it agrees with 40 digits exactly at the gate's alpha."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        a, w = mp.mpf(alpha), mp.mpf(omega)

        def G(zeta):
            return mp.quad(lambda x: x / (3 * mp.pi**2)
                           / (x**2 + mp.mpf(9) / 4)**4 / (x - zeta),
                           [0, -0.5j, 2 - 0.5j, 2, mp.inf])

        def F(u):
            return u - 1j * a**3 * G(1j * (u - 1j * w / a))

        return complex(a * mp.findroot(F, 1j * a**3 * G(w / a)))


@pytest.mark.parametrize("alpha", [0.25, 0.05, 1.0 / 137.036, 2e-3, 1e-3,
                                   1e-4])
def test_hydrogen_pole_matches_a_high_precision_oracle(alpha):
    # gamma_pole and the Lamb shift within 1e-8 of the mpmath root, down
    # to alpha = 1e-4; with tolerances absolute in p, the Lamb shift at
    # alpha = 1e-3 was 99.88 % too small and alpha <= 5.4e-4 raised
    rho, params = _hydrogen(alpha)
    an = analyze(rho, params)
    s0 = _mp_hydrogen_pole(alpha, params.omega)
    assert abs(an.gamma_pole / (-2.0 * s0.real) - 1.0) <= 1e-8
    assert abs(an.lamb_shift / s0.imag - 1.0) <= 1e-8


def _family(n, b):
    """rho(p) = p^n e^{-p/b}, declared as the shape x^n e^{-x} at b."""
    return SpectralDensity(
        fn=lambda p: p**n * np.exp(-p / b), label=f"p^{n} e^(-p/{b:g})",
        scale=b, peak=n * b, decay_rate=1.0 / b,
        analytic_extension=lambda z: z**n * np.exp(-z / b),
        shape=(lambda x: x**n * np.exp(-x), b**n, n))


def _mp_family_transform(n, b, s, second_sheet=False):
    """S_hat of p^n e^{-p/b} at s from mpmath at 30 digits, an oracle that
    shares no code with the package: with u = -i s / b it is
    -i b^n I_n(u), where I_0(u) = e^u E_1(u) and I_k = (k - 1)! - u I_{k-1}
    (I_n(u) = integral_0^inf x^n e^{-x} / (x + u) dx).  On the second sheet
    a point with Re s < 0 adds 2 pi rho(i s)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s, b = mp.mpc(s), mp.mpf(b)
        u = -1j * s / b
        integral = mp.exp(u) * mp.e1(u)
        for k in range(1, n + 1):
            integral = mp.factorial(k - 1) - u * integral
        value = -1j * b**n * integral
        if second_sheet and s.real < 0:
            value += 2 * mp.pi * (1j * s)**n * mp.exp(-1j * s / b)
        return value


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(-2.0, 2.0),
       st.floats(1e-3, 5.0), st.floats(-6.0, 6.0), st.booleans())
def test_transforms_of_the_closed_form_family(n, log_b, x, y, left):
    # s_hat at z = s / b = x + iy and s_hat_second_sheet at z = -x + iy
    # (left) or x + iy, within 1e-12 relative of the E_1 closed form
    b = 10.0 ** log_b
    rho = _family(n, b)
    s = complex(b * x, b * y)
    want = complex(_mp_family_transform(n, b, s))
    assert abs(s_hat(rho, s) - want) <= 1e-12 * abs(want)
    if left:
        s = complex(-b * x, b * y)
    want = complex(_mp_family_transform(n, b, s, second_sheet=True))
    assert abs(s_hat_second_sheet(rho, s) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha", [0.0025, 0.01, 0.2])
def test_pole_of_the_closed_form_family(alpha):
    # analyze's pole of p e^{-p} at omega = 1 within 1e-10 of the mpmath
    # root of s + alpha S_hat_II(s - i), searched from the first-order root
    mp = pytest.importorskip("mpmath")
    pole = analyze(_family(1, 1.0), ModelParams(alpha=alpha, omega=1.0)).pole
    with mp.workdps(30):
        def F(s):
            return s + alpha * _mp_family_transform(1, 1.0, s - 1j, True)

        start = -alpha * _mp_family_transform(1, 1.0, 1e-20 - 1j)
        root = complex(mp.findroot(F, start))
    assert abs(pole - root) <= 1e-10


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(-0.3, 0.3),
       st.floats(-2.5, -1.5), st.floats(0.5, 2.0))
def test_solve_of_the_closed_form_family_meets_bromwich(n, log_b, log_alpha,
                                                        w):
    # a gregory4 solve on the closed-form kernel S(tau) = n!/(1/b + i
    # tau)^{n+1}, so no quadrature enters it, agrees with bromwich_invert
    # within criterion 6's 1e-3
    b = 10.0 ** log_b
    rho = _family(n, b)
    params = ModelParams(alpha=10.0 ** log_alpha, omega=w * n * b)
    factorial = float(math.factorial(n))
    kernel = KernelEvaluator(
        None, stationary=True, label=rho.label,
        tau_fn=lambda tau: factorial / complex(1.0 / b, tau) ** (n + 1))
    ide = solve_ide(kernel, params, TimeGrid(dt=0.05, n_steps=2000),
                    "gregory4")
    inv = bromwich_invert(rho, params, TimeGrid(dt=1.0, n_steps=100))
    assert np.max(np.abs(inv.values - ide.values[::20])) <= 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [1.43e-54, 5.87e-53])
def test_hydrogen_at_a_tiny_alpha_fails_cleanly(alpha):
    # in p the integrand overflowed here ("overflow encountered in
    # divide"), and the search spent 0.5-1.7 s before a QuadratureError;
    # in own units its root resolves no decay
    with pytest.raises(SolverError, match="resolves no decay"):
        analyze(*_hydrogen(alpha))


def _count_unconverged(monkeypatch):
    """Patch the pole search's Newton loop to record the seeds whose F is
    None, those whose iterate landed on Re(s - i omega) = 0."""
    seen = []
    newton = qedvolterra.laplace._newton

    def counted(fun, seeds, scales):
        def f(ids, zs):
            out = fun(ids, zs)
            seen.extend(i for i, pair in zip(ids, out) if pair is None)
            return out
        return newton(f, seeds, scales)

    monkeypatch.setattr(qedvolterra.laplace, "_newton", counted)
    return seen


@pytest.mark.parametrize("alphas", [[3e-4, 0.5], [9.223851039358457e-06,
                                                  0.5, 3e-4]])
def test_a_seed_on_re_s_zero_stops_alone(alphas, monkeypatch):
    # a seed whose iterate lands on Re(s - i omega) = 0 stops unconverged
    # and leaves the batch; it raised SolverError for every problem of the
    # batch.  Each problem gets its lone record, and at 9.2e-6, where four
    # of the eight seeds land there, the pole meets the mpmath oracle
    problems = [_hydrogen(a) for a in alphas]
    seen = _count_unconverged(monkeypatch)
    got = analyze([r for r, _ in problems], [p for _, p in problems])
    assert len(seen) == (4 if 9.223851039358457e-06 in alphas else 0)
    for (rho, params), an in zip(problems, got):
        one = analyze(rho, params)
        assert _bits([an.pole, an.residual]) == _bits([one.pole,
                                                       one.residual])
    rho, params = problems[0]
    s0 = _mp_hydrogen_pole(alphas[0], params.omega)
    assert abs(got[0].gamma_pole / (-2.0 * s0.real) - 1.0) <= 1e-8


def test_search_agrees_with_the_central_difference_search():
    # the central-difference search is a tolerance oracle: at the sweep's
    # alpha both find the same rate to 1e-10 relative
    alphas = np.linspace(0.2, 1.0, 24)[[0, 5, 10, 14, 19, 23]].tolist()
    problems = [_hydrogen(a) for a in alphas]
    got = analyze([r for r, _ in problems], [p for _, p in problems])
    for (rho, params), an in zip(problems, got):
        old = -2.0 * reference_find_pole_central(rho, params).real
        assert abs(an.gamma_pole / old - 1.0) <= 1e-10


def test_pole_search_makes_one_transform_batch_per_round(monkeypatch):
    # a 24-alpha analyze: one batch for the first-sheet points, then one
    # per Newton round at the unfinished seeds, with no batch at s +- h
    calls = []
    transform = qedvolterra.laplace._cauchy_transform

    def counted(rho, ss, cfg=_CAUCHY_CFG, derivative=False):
        calls.append((len(ss), derivative))
        return transform(rho, ss, cfg, derivative)

    monkeypatch.setattr(qedvolterra.laplace, "_cauchy_transform", counted)
    problems = [_hydrogen(a) for a in np.linspace(0.2, 1.0, 24).tolist()]
    analyze([r for r, _ in problems], [p for _, p in problems])
    assert len(calls) == 4
    assert calls[:2] == [(24, False), (24 * 8, True)]
    assert all(derivative and n <= 24 * 8 for n, derivative in calls[1:])


@pytest.mark.parametrize("alpha, bound", [(0.2, 1e-12),
                                          (1.0 / 137.036, 1e-8)])
def test_pole_derivative_matches_a_central_difference(alpha, bound):
    # alpha dS_II/ds at the pole, from the quadrature of S_II, against a
    # central difference of S_II at h = 1e-3 of the search scale; at the
    # physical alpha the derivative is that of the quadrature rule
    rho, params = _hydrogen(alpha)
    an = analyze(rho, params)
    z = complex(an.pole - 1j * params.omega)
    s_init = -alpha * s_hat(rho, 1e-6 * rho.scale - 1j * params.omega)
    h = 1e-3 * max(abs(s_init), 1e-3 * rho.scale)
    (_, dv), = _second_sheet(rho, [z], [h])
    up, down = _second_sheet(rho, [z + h, z - h])
    assert alpha * abs(dv - (up - down) / (2.0 * h)) <= bound


def test_newton_returns_the_accepting_rounds_step():
    # the root is the accepting round's point less F/F', or the point
    # itself where F' = 0; the residual is that round's |F|.  A seed whose
    # F' = 0 before acceptance is dropped
    def fun(ids, zs):
        return [{0: (z - 0.25, 1.0), 1: (1e-13, 0.0), 2: (0.5, 0.0)}[i]
                for i, z in zip(ids, zs)]

    assert _newton(fun, [1.0, 2.0, 3.0], [1.0] * 3) \
        == [(0.25 + 0j, 0.0), (2.0 + 0j, 1e-13), None]
    # a None in place of (F, F') stops that seed unconverged, alone
    rounds = []

    def on_axis(ids, zs):
        rounds.append(list(ids))
        return [None if i == 1 else (z - 0.25, 1.0) for i, z in zip(ids, zs)]

    assert _newton(on_axis, [1.0, 2.0], [1.0] * 2) == [(0.25 + 0j, 0.0),
                                                       None]
    assert rounds == [[0, 1], [0]]
    half = _newton(lambda ids, zs: [(1e-13, 2.0) for _ in ids], [1.0], [1.0])
    assert half == [(1.0 - 5e-14 + 0j, 1e-13)]


def test_pole_alpha_zero_rejected(synthetic_density):
    with pytest.raises(ValueError):
        find_pole(synthetic_density, ModelParams(alpha=0.0, omega=1.0))


def test_pole_hydrogen_density():
    alpha = 0.25
    rho = hydrogen_density(alpha)
    params = ModelParams(alpha=alpha, omega=0.375 * alpha**2)
    result = analyze(rho, params)
    assert result.residual < 1e-10
    assert result.gamma_pole == pytest.approx(result.gamma_markov, rel=0.02)


def test_bromwich_alpha_zero(synthetic_density):
    grid = TimeGrid(dt=1.0, n_steps=10)
    series = bromwich_invert(synthetic_density,
                             ModelParams(alpha=0.0, omega=1.0), grid)
    np.testing.assert_array_equal(series.values, np.ones(11, dtype=complex))


def test_bromwich_matches_time_domain(synthetic_density):
    params = ModelParams(alpha=0.01, omega=1.0)
    grid = TimeGrid(dt=0.01, n_steps=2000)
    kernel = make_kernel("custom", density=synthetic_density)
    ide = solve_ide(kernel, params, grid, "trapezoid")
    coarse = TimeGrid(dt=1.0, n_steps=20)
    inv = bromwich_invert(synthetic_density, params, coarse)
    picks = ide.values[::100]
    assert np.max(np.abs(inv.values - picks)) < 1e-3
    assert inv.truncation_error is not None
    assert np.all(inv.truncation_error < 1e-4)
