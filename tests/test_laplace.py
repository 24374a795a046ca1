import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qedvolterra.laplace
from qedvolterra import MissingExtensionError, ModelParams, QuadConfig, \
    QuadratureError, SolverError, \
    SpectralDensity, TimeGrid, analyze, bromwich_invert, \
    density_from_table, find_pole, hydrogen_density, \
    hydrogen_vacuum_density, integrate_finite, make_kernel, markov_rate, \
    s_hat, s_hat_second_sheet, solve_ide
from qedvolterra.laplace import _BROMWICH_CFG, _CAUCHY_CFG, _MAX_NEWTON, \
    _POLE_TOL, _cauchy_transform, _newton, _second_sheet
from qedvolterra.quadrature import _truncation_walks
from qedvolterra.volterra import AmplitudeSeries

# ------------------------------------------------- one-at-a-time oracles
# The Cauchy transform, the pole search and the Bromwich contour as they ran
# before their transforms were batched: one point per transform, one
# integrate_finite call per piece, one seed at a time.  The batched
# routines must reproduce them bit for bit.


def reference_cauchy_transform(rho, s, cfg=_CAUCHY_CFG, derivative=False):
    """The transform at s, or with ``derivative`` the pair (value, d/ds):
    each piece's integrand carries its s-derivative -(rho - r)/(s + ip)^2
    as a second component, and the near-pole term its closed form."""
    [[(P, _)]] = _truncation_walks(lambda p, m: rho.fn(p), [
        ([0.1 * cfg.abs_tol * max(abs(s), 1.0)], rho.decay_order,
         rho.decay_rate, rho.peak, None)])

    def subtracted(r):
        def f(p):
            val = (np.asarray(rho.fn(p), dtype=complex) - r) / (s + 1j * p)
            return (val, val / -(s + 1j * p)) if derivative else val
        return f

    def piece(f, a, b):
        out = integrate_finite(f, a, b, cfg)
        if not derivative:
            return out[0]
        # an empty piece has no second component
        return np.array([out[0], out[2] if len(out) > 2 else 0.0 + 0.0j])

    f = subtracted(0.0)
    pstar = -s.imag
    if 0.0 < pstar < P and abs(s.real) < 0.05 * rho.scale:
        delta = min(pstar, P - pstar, rho.scale)
        a, b = pstar - delta, pstar + delta
        rstar = complex(rho.fn(np.array([pstar]))[0])
        val = piece(f, 0.0, a)
        val += piece(subtracted(rstar), a, b)
        log_diff = cmath.log(s + 1j * b) - cmath.log(s + 1j * a)
        if s.real < 0.0:
            log_diff -= 2j * math.pi
        log_term = rstar * log_diff / 1j
        if derivative:
            log_term = np.array([log_term, rstar / 1j * (
                1.0 / (s + 1j * b) - 1.0 / (s + 1j * a))])
        val += log_term
        val += piece(f, b, P)
    elif 0.0 < pstar < P:
        val = piece(f, 0.0, pstar)
        val += piece(f, pstar, P)
    else:
        val = piece(f, 0.0, P)
    return tuple(val) if derivative else val


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


def test_batched_near_pole_values_share_one_density_call(synthetic_density):
    # near-pole points with distinct p* on both sheets, among plain ones:
    # their rho(p*) come from one density call, each at its own point
    points = [1e-6 - 0.3j, 0.4 - 0.2j, -2e-4 - 0.05j, 1e-3 - 0.7j,
              -1e-5 - 1.1j, 2.0 + 1.0j, 3e-3 - 0.3j]
    for rho in (hydrogen_density(0.5), synthetic_density):
        calls = []

        def fn(p, rho=rho):
            calls.append(np.size(p))
            return rho.fn(p)

        logged = SpectralDensity(fn=fn, label=rho.label, scale=rho.scale,
                                 peak=rho.peak, decay_order=rho.decay_order,
                                 decay_rate=rho.decay_rate)
        want = [reference_cauchy_transform(rho, s) for s in points]
        assert _cauchy_transform(logged, points) == want
        near = [s for s in points if abs(s.real) < 0.05 * rho.scale]
        assert len(near) == 5
        # one ladder call and one rho(p*) call; every other call is a
        # lockstep step of 22 or 44 nodes per piece
        assert calls.count(len(near)) == 1
        assert all(n % 22 == 0 or n in (8, len(near)) for n in calls)


def _logged(rho):
    """rho with a density function that records the size of each call."""
    calls = []

    def fn(p):
        calls.append(np.size(p))
        return rho.fn(p)

    return SpectralDensity(fn=fn, label=rho.label, scale=rho.scale,
                           peak=rho.peak, decay_order=rho.decay_order,
                           decay_rate=rho.decay_rate,
                           analytic_extension=rho.analytic_extension), calls


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
    """Hydrogen densities at ``alphas``, declared as one family whose g
    records each call's nodes, parameters and values."""
    calls = []

    def g(p, alpha):
        val = hydrogen_vacuum_density(p, alpha)
        calls.append((np.array(p), np.broadcast_to(alpha, np.shape(p)).copy(),
                      np.array(val)))
        return val

    return [replace(hydrogen_density(a), family=(g, a)) for a in alphas], \
        calls


def test_family_cauchy_transform_matches_per_density(synthetic_density):
    # hydrogen at three alpha, one family, mixed with p e^{-p} and a table
    # density (no family) in one batch, points interleaved: near-pole,
    # split and plain branches on both sides of the cut.  Every value
    # equals its density's own batch without a family, bit for bit, and
    # the densities without a family see exactly the calls of their own
    # batch
    family, g_calls = _hydrogen_family([0.3, 0.5, 0.9])
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
        plain = replace(rho, family=None)
        want = _cauchy_transform(plain, points)
        assert _bits(want) == _bits(
            [reference_cauchy_transform(plain, s) for s in points])
        if rho.family is None:
            alone_rho, alone_calls = _logged(rho)
            _cauchy_transform(alone_rho, points)
            rho, calls = _logged(rho)
            logged.append((calls, alone_calls))
        alone.append((rho, points, want))
    rhos, points = [], []
    for k in range(4):
        for rho, pts, _ in alone:
            if k < len(pts):
                rhos.append(rho)
                points.append(pts[k])
    got = _cauchy_transform(rhos, points)
    for rho, pts, want in alone:
        assert _bits([v for r, v in zip(rhos, got) if r is rho]) \
            == _bits(want)
    for calls, alone_calls in logged:
        assert calls == alone_calls
    # the first family call is a ladder block of all three members
    assert len(g_calls) > 10
    assert set(g_calls[0][1].tolist()) == {0.3, 0.5, 0.9}


def test_family_ladders_and_near_pole_values_match_per_density():
    # each member walks its own ladder (start 8 * peak, decay p^-7) with
    # its own tolerances; the lockstep walk makes one g call per block, as
    # many as the longest walk alone, and each result equals the member's
    # own walk alone
    alphas = [0.2, 0.45, 1.0, 3.0]
    family, calls = _hydrogen_family(alphas)
    thetas = np.array(alphas)
    tols = [[1e-16, 1e-20, 1e-13], [1e-16], [], [1e-25, 1e-16]]
    walks = [(t, rho.decay_order, rho.decay_rate, rho.peak, None)
             for rho, t in zip(family, tols)]
    got = _truncation_walks(lambda P, m: family[0].family[0](P, thetas[m]),
                            walks)
    blocks = []
    for rho, t, walk in zip(family, tols, got):
        sizes = []

        def fn(P, m, rho=rho):
            sizes.append(np.size(P))
            return rho.fn(P)

        assert [walk] == _truncation_walks(
            fn, [(t, rho.decay_order, None, rho.peak, None)])
        blocks.append(len(sizes))
    assert len(calls) == max(blocks) > 1
    # the near-pole values rho(p*) of a family batch come from one call,
    # each equal to its own density's value
    points = [1e-6 - 0.01j, 0.4 - 0.2j, -1e-6 - 0.06j, 1e-5 - 0.4j,
              -2e-5 - 0.1j, 1e-6 - 0.5j]
    rhos = [family[k % 4] for k in range(len(points))]
    del calls[:]
    _cauchy_transform(rhos, points)
    # in the batch's order: member by member, each member's points in order
    near = sorted([(r, -s.imag) for r, s in zip(rhos, points)
                   if abs(s.real) < 0.05 * r.scale],
                  key=lambda n: family.index(n[0]))
    assert len(near) == 5
    pstars = [p for _, p in near]
    hits = [c for c in calls if c[0].tolist() == pstars]
    assert len(hits) == 1
    _, th, vals = hits[0]
    assert th.tolist() == [r.family[1] for r, _ in near]
    assert vals.tobytes() == np.array(
        [r.fn(np.array([p]))[0] for r, p in near]).tobytes()


def test_family_analyze_matches_per_density_analyze(synthetic_density):
    # hydrogen at three alpha, as one family and as densities without a
    # family, with p e^{-p} in the batch: the same records bit for bit
    rhos, params = [], []
    for alpha in (0.2, 0.7565217391304349, 1.0):
        rho, p = _hydrogen(alpha)
        rhos.append(rho)
        params.append(p)
    rhos.insert(1, synthetic_density)
    params.insert(1, ModelParams(alpha=0.01, omega=1.0))
    got = analyze(rhos, params)
    want = analyze([replace(r, family=None) for r in rhos], params)
    for an, one in zip(got, want):
        assert _bits([an.pole, an.gamma_pole, an.gamma_markov,
                      an.lamb_shift, an.residual]) \
            == _bits([one.pole, one.gamma_pole, one.gamma_markov,
                      one.lamb_shift, one.residual])


def test_family_is_called_once_per_lockstep_step(monkeypatch):
    # a 24-alpha hydrogen sweep: every lockstep step of every batch of
    # transforms calls the family's g exactly once and no density's fn, so
    # a return to one call per density per step fails here
    alphas = np.linspace(0.2, 1.0, 24).tolist()
    family, calls = _hydrogen_family(alphas)
    fn_calls = []

    def counting_fn(rho):
        def fn(p):
            fn_calls.append(np.size(p))
            return rho.fn(p)
        return fn

    rhos = [replace(r, fn=counting_fn(r)) for r in family]
    params = [ModelParams(alpha=a, omega=0.375 * a * a) for a in alphas]
    per_step = []
    integrate_many = qedvolterra.laplace._integrate_many

    def counted(f, bounds, cfg):
        def step(p, idx):
            before = len(calls), len(fn_calls)
            out = f(p, idx)
            per_step.append((len(calls) - before[0],
                             len(fn_calls) - before[1]))
            return out
        return integrate_many(step, bounds, cfg)

    monkeypatch.setattr(qedvolterra.laplace, "_integrate_many", counted)
    got = analyze(rhos, params)
    assert len(per_step) > 100
    assert set(per_step) == {(1, 0)}
    # ladders and near-pole values: a few calls per batch, not per alpha
    assert len(calls) - len(per_step) < len(per_step) // 4
    monkeypatch.undo()
    want = analyze([replace(r, family=None) for r in family], params)
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
    cfg = QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=6000)
    for s in (0.5, 2.0, 1.0 + 0.7j, 0.3 - 1.2j):
        momentum = s_hat(synthetic_density, s)

        def time_integrand(tau):
            return np.exp(-s * tau) / (1.0 + 1j * tau) ** 2

        time_route = sum(
            integrate_finite(time_integrand, a, b, cfg)[0]
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
