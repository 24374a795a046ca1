import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qedvolterra import QuadratureError, hydrogen_density, \
    integrate_finite, oscillatory_halfline
from qedvolterra.kernels import _hydrogen_unit, hydrogen_vacuum_density
import qedvolterra.quadrature
from qedvolterra.quadrature import DEFAULT_QUAD, QuadConfig, _LADDER_BLOCK, \
    _LADDER_RUNGS, _WG, _WK, _XK, _integrate_many, _rule_estimates, \
    _truncation_walk, _worst

TIGHT = QuadConfig(rel_tol=1e-12, abs_tol=1e-14)


def finite_at(cfg, f, a, b):
    """integrate_finite's engine on one problem at the tolerance ``cfg``."""
    return _integrate_many(lambda p, idx: f(p), [(a, b)], cfg)[0]


# ------------------------------------------------ one-interval reference
# The adaptive rule as it was before the integrand calls were batched: one
# interval per estimate and one integrand call per interval, on its 15
# Kronrod nodes; the 7-point Gauss rule reads the odd ones.  The batched
# rule must reproduce it bit for bit.  An integrand may return a pair (y,
# y2); y2 is integrated by the Kronrod rule on the same intervals, and its
# running total is updated like the value's.


def _components(y):
    return [np.asarray(c, dtype=complex)
            for c in (y if isinstance(y, tuple) else (y,))]


def _reference_pair_estimate(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ys = _components(f(mid + half * _XK))
    k15 = [half * np.dot(_WK, y) for y in ys]
    g7 = half * np.dot(_WG, ys[0][1::2])
    return k15, abs(k15[0] - g7)


def reference_integrate_finite(f, a, b, cfg=DEFAULT_QUAD):
    if a == b:
        return 0.0 + 0.0j, 0.0
    val, err = _reference_pair_estimate(f, a, b)
    heap = [(-err, a, b, val, err)]
    total_val, total_err = val, err
    n_sub = 1
    while n_sub < cfg.max_subdivisions:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_val[0]))
        if total_err <= tol:
            return (total_val[0], total_err, *total_val[1:])
        _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        v1, e1 = _reference_pair_estimate(f, ia, mid)
        v2, e2 = _reference_pair_estimate(f, mid, ib)
        total_val = [t + ((x1 + x2) - x)
                     for t, x1, x2, x in zip(total_val, v1, v2, ival)]
        total_err += (e1 + e2) - ierr
        heapq.heappush(heap, (-e1, ia, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, ib, v2, e2))
        n_sub += 1
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(total_val[0]))
    if total_err <= tol:
        return (total_val[0], total_err, *total_val[1:])
    raise QuadratureError(
        f"no convergence after {cfg.max_subdivisions} subdivisions "
        f"(err={total_err:.3e}, tol={tol:.3e})",
        best_estimate=total_val[0], err_est=total_err)


def reference_truncation_point(g, abs_tol, *, decay_order=None,
                               decay_rate=None, peak=0.0):
    P = max(8.0 * max(peak, 0.0), 1.0)
    for _ in range(200):
        gP = abs(complex(np.max(np.abs(np.asarray(g(np.array([P])))))))
        if decay_rate is not None:
            bound = gP / decay_rate
        else:
            bound = gP * P / (decay_order - 1.0)
        if bound <= abs_tol:
            return P, bound
        P *= 1.5
    raise QuadratureError("could not find a truncation point for the tail")


def _walk_spec(tols, kw):
    """The _truncation_walk arguments after g of a walk for ``tols`` whose
    decay and peak are the reference's keywords ``kw``."""
    return (tols, kw.get("decay_order"), kw.get("decay_rate"),
            kw.get("peak", 0.0))


class _CallLog:
    """Wraps an integrand and records the number of points of each call."""

    def __init__(self, f):
        self.f = f
        self.sizes = []

    def __call__(self, x):
        self.sizes.append(np.size(x))
        return self.f(x)


def _near_pole_f_sub():
    # the subtracted near-pole window of laplace._cauchy_transform at
    # s = sigma - i omega, sigma = 1e-6, in hydrogen's own units
    # z = s / alpha: a costly window of the search
    alpha = 0.5
    rho = hydrogen_density(alpha)
    unit = rho.shape[0]
    z = complex(1e-6 / alpha, -0.375 * alpha * alpha / alpha)
    xstar = -z.imag
    [(X, _)] = _truncation_walk(unit, [0.1 * 1e-15 * max(abs(z), 1.0)],
                                rho.decay_order, None, rho.peak / alpha)
    delta = min(xstar, X - xstar, 1.0)
    rstar = complex(unit(np.array([xstar]))[0])

    def f_sub(x):
        return (np.asarray(unit(x), dtype=complex) - rstar) / (z + 1j * x)

    return f_sub, xstar - delta, xstar + delta


def _oracle_cases():
    f_sub, a_sub, b_sub = _near_pole_f_sub()
    w = 1e-4
    return {
        # past the degree the Kronrod rule integrates exactly
        "polynomial": (lambda x: x**40 - 3.0 * x**2 + 1.0, 0.0, 2.0,
                       DEFAULT_QUAD),
        "exp_ix": (lambda x: np.exp(1j * x), 0.0, 60.0, TIGHT),
        "lorentzian": (lambda x: w / (x**2 + w**2), -1.0, 1.0,
                       QuadConfig(rel_tol=1e-10, abs_tol=1e-12,
                                  max_subdivisions=5000)),
        "near_pole_f_sub": (f_sub, a_sub, b_sub,
                            QuadConfig(rel_tol=1e-12, abs_tol=1e-15,
                                       max_subdivisions=4000)),
    }


@pytest.mark.parametrize("name", ["polynomial", "exp_ix", "lorentzian",
                                  "near_pole_f_sub"])
def test_batched_rule_matches_one_interval_reference(name):
    f, a, b, cfg = _oracle_cases()[name]
    new_log, ref_log = _CallLog(f), _CallLog(f)
    got = finite_at(cfg, new_log, a, b)
    want = reference_integrate_finite(ref_log, a, b, cfg)
    assert got == want
    # one call per refinement step: [a, b] first, then both halves of each
    # split together, on the same nodes the reference visits
    assert new_log.sizes == [15] + [30] * (len(new_log.sizes) - 1)
    assert 2 * len(new_log.sizes) - 1 == len(ref_log.sizes)
    assert sum(new_log.sizes) == sum(ref_log.sizes)


def test_batched_rule_matches_reference_on_budget_exhaustion():
    cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=40)
    f = lambda x: np.cos(40.0 * x) / (1e-6 + x * x)
    with pytest.raises(QuadratureError) as got:
        finite_at(cfg, f, -1.0, 1.0)
    with pytest.raises(QuadratureError) as want:
        reference_integrate_finite(f, -1.0, 1.0, cfg)
    assert got.value.best_estimate == want.value.best_estimate
    assert got.value.err_est == want.value.err_est
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("abs_tol", [1e-2, 1e-10, 1e-17, 1e-40])
def test_batched_ladder_matches_one_rung_reference(abs_tol):
    rho = hydrogen_density(0.7)
    for kw in (dict(decay_order=rho.decay_order, peak=rho.peak),
               dict(decay_rate=0.5, peak=0.05)):
        g = rho.fn if "decay_order" in kw else (lambda p: np.exp(-0.5 * p))
        new_log, ref_log = _CallLog(g), _CallLog(g)
        [got] = _truncation_walk(new_log, *_walk_spec([abs_tol], kw))
        want = reference_truncation_point(ref_log, abs_tol, **kw)
        assert got == want
        # the rungs the reference walked, eight to a call
        assert new_log.sizes == [8] * -(-len(ref_log.sizes) // 8)


def _bits(values):
    """The IEEE bit patterns of a list of floats or complexes."""
    return np.asarray(values).view(np.uint64).tolist()


def _oracle_rows(rng, n):
    """n rows of 15 integrand values that stress the rule sums: parts from
    1e-300 to 1e300, exact and signed zeros, and two-node rows whose K15
    and G7 sums are equal."""
    kind = (np.arange(n) + rng.integers(4)) % 4
    mag = 10.0 ** rng.uniform(-300.0, 300.0, (n, 1))
    # kind 0: one magnitude per row; kind 1: every part its own magnitude
    y = mag * (rng.standard_normal((n, 15))
               + 1j * rng.standard_normal((n, 15)))
    wide = 10.0 ** rng.uniform(-300.0, 300.0, (n, 15, 2))
    y[kind == 1] = (np.sign(rng.standard_normal((n, 15)))
                    * wide[..., 0] + 1j * wide[..., 1])[kind == 1]
    for r in np.flatnonzero(kind == 2):
        # exact and signed zeros among the parts, or a whole zero row
        zero = rng.random(15) < 0.5 if r % 8 != 2 else np.ones(15, bool)
        y[r, zero] = rng.choice([0.0, -0.0]) + 1j * rng.choice([0.0, -0.0])
    for r in np.flatnonzero(kind == 3):
        # 2^m at Gauss node 2k + 1 and, at Kronrod-only node j, a value
        # within an ulp of (wg[k] - wk[2k + 1]) 2^m / wk[j] that makes both
        # sums equal, so that the error estimate is exactly zero
        scale = 2.0 ** int(rng.integers(-900, 900))
        while True:
            k, j = int(rng.integers(7)), 2 * int(rng.integers(8))
            x = (_WG[k] - _WK[2 * k + 1]) * scale / _WK[j]
            y[r] = 0.0
            y[r, 2 * k + 1] = scale
            y[r, j] = [x, np.nextafter(x, -math.inf),
                       np.nextafter(x, math.inf)][rng.integers(3)]
            if np.dot(_WK, y[r]) == np.dot(_WG, y[r, 1::2]):
                break
    return y


@pytest.mark.parametrize("n", [1, 2, 7, 44, 1000])
def test_rule_estimates_match_per_row_reference(n):
    # the array-form rule sums against one np.dot per row and scalar abs,
    # bit for bit; two draws per span count, 2 108 rows in all
    rng = np.random.default_rng(n)
    for _ in range(2):
        a = rng.uniform(-5.0, 5.0, n)
        b = a + 10.0 ** rng.uniform(-6.0, 0.0, n)
        y = _oracle_rows(rng, n)
        idx = np.arange(n).repeat(15)
        seen = []

        def f(p, owner):
            seen.append(p.reshape(n, 15))
            return y.ravel()

        vals, errs = _rule_estimates(f, a, b, idx)
        assert len(seen) == 1
        want_vals, want_errs = [], []
        for ak, bk, row, nodes in zip(a.tolist(), b.tolist(), y, seen[0]):
            half = 0.5 * (bk - ak)
            mid = 0.5 * (ak + bk)
            np.testing.assert_array_equal(nodes, mid + half * _XK)
            k15 = half * np.dot(_WK, row)
            g7 = half * np.dot(_WG, row[1::2])
            want_vals.append(k15)
            want_errs.append(abs(k15 - g7))
        assert vals.dtype == np.complex128 and errs.dtype == np.float64
        vals, errs = vals.tolist(), errs.tolist()
        assert vals == want_vals and errs == want_errs
        assert _bits(vals) == _bits(want_vals)
        assert _bits(errs) == _bits(want_errs)
        if n >= 4:
            assert 0.0 in errs


@pytest.mark.parametrize("kind", ["algebraic", "exponential"])
def test_batched_ladder_matches_per_tolerance_reference(kind):
    # one ladder walk for many tolerances, unsorted and duplicated, against
    # one reference walk per tolerance
    rho = hydrogen_density(0.7)
    if kind == "algebraic":
        g, kw = rho.fn, dict(decay_order=rho.decay_order, peak=rho.peak)
    else:
        g, kw = (lambda p: np.exp(-0.5 * p)), dict(decay_rate=0.5, peak=0.05)
    tols = [1e-10, 1e-2, 1e-17, 1e-10, 3e-16, 1e-40, 1e-2, 2e-16, 1e-17]
    # a tolerance equal to a rung's bound is met at that rung
    tols.append(reference_truncation_point(g, 1e-12, **kw)[1])
    log = _CallLog(g)
    got = _truncation_walk(log, *_walk_spec(tols, kw))
    want, walked = [], []
    for tol in tols:
        ref_log = _CallLog(g)
        want.append(reference_truncation_point(ref_log, tol, **kw))
        walked.append(len(ref_log.sizes))
    assert got == want
    # the strictest tolerance's rungs, eight to a call, walked once
    assert log.sizes == [8] * -(-max(walked) // 8)
    assert max(walked) > 8
    assert _truncation_walk(log, *_walk_spec([], kw)) == []
    # a tolerance no rung meets fails the whole batch, as it fails alone
    with pytest.raises(QuadratureError):
        reference_truncation_point(g, -1.0, **kw)
    with pytest.raises(QuadratureError):
        _truncation_walk(g, *_walk_spec(tols + [-1.0], kw))


_walk = st.one_of(
    st.tuples(st.just("algebraic"), st.floats(0.05, 5.0)),
    st.tuples(st.just("exponential"), st.floats(0.1, 4.0)))


@settings(max_examples=60, deadline=None)
@given(_walk, st.lists(st.integers(-40, -1), max_size=6))
def test_random_ladders_match_per_tolerance_reference(walk, exps):
    # a ladder with its own envelope, decay, peak and unsorted, duplicated
    # tolerances (one of them a rung's own bound): it equals one reference
    # walk per tolerance, and walks the strictest one's rungs once, eight
    # to a call
    kind, x = walk
    if kind == "algebraic":
        g = (lambda p: hydrogen_vacuum_density(p, x))
        kw = dict(decay_order=7.0, peak=x * math.sqrt(9.0 / 28.0))
    else:
        g = (lambda p: np.exp(-x * p))
        kw = dict(decay_rate=x, peak=x / 16.0)
    tols = [10.0 ** e for e in exps]
    if tols:
        tols.append(reference_truncation_point(g, tols[0], **kw)[1])
    want, rungs = [], [0]
    for tol in tols:
        log = _CallLog(g)
        want.append(reference_truncation_point(log, tol, **kw))
        rungs.append(len(log.sizes))
    log = _CallLog(g)
    assert _truncation_walk(log, *_walk_spec(tols, kw)) == want
    assert log.sizes == [_LADDER_BLOCK] * -(-max(rungs) // _LADDER_BLOCK)


def test_nan_tolerance_walks_every_rung_and_fails():
    # a NaN tolerance is met by no rung: as alone, the walk takes every
    # block and fails
    rho = hydrogen_density(0.7)
    kw = dict(decay_order=7.0, peak=rho.peak)
    log = _CallLog(rho.fn)
    with pytest.raises(QuadratureError):
        _truncation_walk(log, *_walk_spec([1e-12, math.nan, 1e-3], kw))
    with pytest.raises(QuadratureError):
        reference_truncation_point(rho.fn, math.nan, **kw)
    assert log.sizes == [_LADDER_BLOCK] * (_LADDER_RUNGS // _LADDER_BLOCK)


# ------------------------------------------------------ lockstep batch
# _integrate_many advances many problems together.  Each problem must come
# out exactly as the one-interval reference gives it alone.

def _batched(fs):
    """f(p, idx) for a batch of one-problem integrands; logs each call."""
    calls = []

    def f(p, idx):
        calls.append(np.bincount(idx, minlength=len(fs)))
        out = np.empty(p.shape, dtype=complex)
        for i, fi in enumerate(fs):
            sel = idx == i
            if sel.any():
                out[sel] = fi(p[sel])
        return out

    return f, calls


def test_lockstep_batch_matches_one_interval_reference():
    # problems that finish at different steps, plus an empty interval
    f_sub, a_sub, b_sub = _near_pole_f_sub()
    w = 1e-4
    cases = [(lambda x: x**40 - 3.0 * x**2 + 1.0, 0.0, 2.0),
             (lambda x: np.exp(1j * x), 0.0, 60.0),
             (lambda x: w / (x**2 + w**2), -1.0, 1.0),
             (f_sub, a_sub, b_sub),
             (lambda x: np.ones_like(x), 0.5, 0.5)]
    cfg = QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
    f, calls = _batched([fi for fi, _, _ in cases])
    got = _integrate_many(f, [(a, b) for _, a, b in cases], cfg)
    splits = []
    for (fi, a, b), value in zip(cases, got):
        log = _CallLog(fi)
        assert value == reference_integrate_finite(log, a, b, cfg)
        # the reference calls f once for [a, b], then twice per split
        splits.append(max(len(log.sizes) - 1, 0) // 2)
    assert got[4] == (0.0 + 0.0j, 0.0)
    assert len(set(splits[:4])) == 4
    # one call per lockstep step: 15 nodes of [a, b] per non-empty problem,
    # then 30 per problem still refining
    assert len(calls) == 1 + max(splits)
    np.testing.assert_array_equal(calls[0], [15, 15, 15, 15, 0])
    for step, per_problem in enumerate(calls[1:], start=1):
        want = [30 if n >= step else 0 for n in splits]
        np.testing.assert_array_equal(per_problem, want)


def _peak_pair(x0, w):
    """A Lorentzian peak at x0 and, as second component, its x0-derivative,
    whose integral over [a, b] is peak(a) - peak(b)."""
    def f(x):
        u = x - x0
        return w / (u * u + w * w), 2.0 * w * u / (u * u + w * w) ** 2
    return f


def test_second_component_rides_the_value_intervals():
    # an integrand that returns a pair (y, y2): y's values, errors and
    # integrand calls are those of y alone, bit for bit, and y2's integral
    # is the one-interval reference's, carried on y's intervals
    cases = [(_peak_pair(0.3, 1e-3), -1.0, 1.0),
             (_peak_pair(-0.5, 0.2), -1.0, 2.0),
             (_peak_pair(0.0, 1.0), 0.5, 0.5),
             (_peak_pair(1.0, 1e-2), 0.0, 3.0)]
    cfg = QuadConfig(rel_tol=1e-12, abs_tol=1e-15, max_subdivisions=4000)
    sizes = {1: [], 2: []}

    def batch(p, idx, parts):
        sizes[parts].append(p.size)
        out = [np.empty(p.shape, dtype=complex) for _ in range(2)]
        for i, (fi, _, _) in enumerate(cases):
            sel = idx == i
            if sel.any():
                for o, y in zip(out, fi(p[sel])):
                    o[sel] = y
        return tuple(out) if parts == 2 else out[0]

    bounds = [(a, b) for _, a, b in cases]
    got = _integrate_many(lambda p, idx: batch(p, idx, 2), bounds, cfg)
    alone = _integrate_many(lambda p, idx: batch(p, idx, 1), bounds, cfg)
    assert sizes[1] == sizes[2]
    assert got[2] == alone[2] == (0.0 + 0.0j, 0.0)
    for k in (0, 1, 3):
        assert len(got[k]) == 3
        assert _bits(got[k][:2]) == _bits(alone[k])
        fi, a, b = cases[k]
        want = reference_integrate_finite(fi, a, b, cfg)
        assert _bits(got[k]) == _bits(want)
        assert [type(x) for x in got[k]] == [np.complex128, np.float64,
                                             np.complex128]
        exact = fi(np.array([a]))[0][0] - fi(np.array([b]))[0][0]
        assert abs(got[k][2] - exact) <= 1e-9 * abs(exact)


def test_lockstep_budget_exhaustion_matches_single_call():
    cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=40)
    easy = lambda x: 3.0 * x**2 + 1.0
    hard = lambda x: np.cos(40.0 * x) / (1e-6 + x * x)
    f, _ = _batched([easy, hard, hard])
    with pytest.raises(QuadratureError) as got:
        _integrate_many(f, [(0.0, 2.0), (-1.0, 1.0), (-1.0, 0.5)], cfg)
    with pytest.raises(QuadratureError) as want:
        finite_at(cfg, hard, -1.0, 1.0)
    assert got.value.best_estimate == want.value.best_estimate
    assert got.value.err_est == want.value.err_est
    assert str(got.value) == str(want.value)
    # a NaN error estimate never meets the tolerance, as in a single call
    nan = lambda x: np.full(x.shape, np.nan)
    f, _ = _batched([easy, nan])
    with pytest.raises(QuadratureError):
        _integrate_many(f, [(0.0, 2.0), (0.0, 1.0)], cfg)
    with pytest.raises(QuadratureError):
        reference_integrate_finite(nan, 0.0, 1.0, cfg)


def test_results_are_numpy_scalars():
    # callers' arithmetic (the Newton division, the Plemelj term) has
    # always seen numpy scalars
    val, err = integrate_finite(lambda x: np.exp(1j * x), 0.0, 2.0)
    assert type(val) is np.complex128 and type(err) is np.float64
    f, _ = _batched([lambda x: 3.0 * x**2 + 1.0, np.exp])
    for got in _integrate_many(f, [(0.0, 2.0), (0.0, 1.0), (1.0, 1.0)])[:2]:
        assert [type(x) for x in got] == [np.complex128, np.float64]
    with pytest.raises(QuadratureError) as exc:
        finite_at(QuadConfig(max_subdivisions=8),
                  lambda x: np.cos(40.0 * x) / (1e-6 + x * x), -1.0, 1.0)
    assert type(exc.value.best_estimate) is np.complex128
    assert type(exc.value.err_est) is np.float64


def _reference_batch(cases, cfg):
    """Each problem through the one-interval reference, in order: the list
    of (value, error), or the first problem's QuadratureError."""
    want = []
    for fi, a, b in cases:
        try:
            want.append(reference_integrate_finite(fi, a, b, cfg))
        except QuadratureError as exc:
            return exc
    return want


def _assert_batch_matches_reference(cases, cfg):
    f, calls = _batched([fi for fi, _, _ in cases])
    bounds = [(a, b) for _, a, b in cases]
    want = _reference_batch(cases, cfg)
    if isinstance(want, QuadratureError):
        # the same first problem runs out of budget, with the same payload
        with pytest.raises(QuadratureError) as got:
            _integrate_many(f, bounds, cfg)
        assert str(got.value) == str(want)
        assert _bits([got.value.best_estimate]) == _bits([want.best_estimate])
        assert _bits([got.value.err_est]) == _bits([want.err_est])
        return calls
    got = _integrate_many(f, bounds, cfg)
    assert got == want
    assert _bits([v for v, _ in got]) == _bits([v for v, _ in want])
    assert _bits([e for _, e in got]) == _bits([e for _, e in want])
    return calls


def _peak_and_wave(x0, w, k, c):
    return lambda x: w / ((x - x0) ** 2 + w * w) + c * np.exp(1j * k * x)


_PROBLEM = st.tuples(
    st.floats(-2.0, 2.0), st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
    st.floats(-1.0, 1.0), st.floats(1e-3, 1.0), st.floats(0.0, 40.0),
    st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(_PROBLEM, min_size=1, max_size=7),
       st.sampled_from([(1e-8, 1e-10, 400), (1e-12, 1e-14, 60),
                        (1e-13, 1e-15, 12)]),
       st.sampled_from([1, 2, 3, 128]))
# a draw whose h im underflows: the sign of a zero imaginary part depends
# on how the half-width scales the rule sums
@example([(0.0, 0.0, 0.0, 1.0, 0.0, 0.0)] * 2
         + [(0.625, 0.5, 0.0, 1.0, 2.054852519690901e-215,
             -6.671120503337947e-109)], (1e-8, 1e-10, 400), 128)
def test_random_lockstep_batches_match_one_interval_reference(problems,
                                                              tols, cap):
    # peaks and waves on random intervals, some empty, under budgets that
    # some problems exhaust, with batches of 1, 2, 3 or 128 problems: every
    # value and error, or the first raising problem and its payload, comes
    # out bit for bit as the one-interval reference gives it
    rel_tol, abs_tol, max_sub = tols
    cfg = QuadConfig(rel_tol=rel_tol, abs_tol=abs_tol,
                     max_subdivisions=max_sub)
    cases = [(_peak_and_wave(x0, w, k, c), a, a + width)
             for a, width, x0, w, k, c in problems]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qedvolterra.quadrature, "_LOCKSTEP_PROBLEMS", cap)
        _assert_batch_matches_reference(cases, cfg)


@pytest.mark.parametrize("f", [lambda x: 1.0 / (x * x + 2e-3),
                               lambda x: np.cos(16.0 * x)],
                         ids=["lorentzian", "cosine"])
def test_exact_error_ties_split_the_smaller_a_first(f, monkeypatch):
    # an even integrand on [-1, 1]: mirrored intervals read the same values
    # in reverse node order, and at some steps their errors are bitwise
    # equal; the heap order (-err, a, b) splits the one with the smaller a
    # first, which is not always the first column
    moved = []

    def spy(error, a, b):
        j = worst(error, a, b)
        moved.append(np.any(j != error.argmax(axis=1)))
        return j

    worst = qedvolterra.quadrature._worst
    monkeypatch.setattr(qedvolterra.quadrature, "_worst", spy)
    cfg = QuadConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=400)
    _assert_batch_matches_reference([(f, -1.0, 1.0), (f, -1.0, 1.0)], cfg)
    assert any(moved)


def test_worst_interval_order():
    # largest error, then smallest a, then smallest b; a NaN error is taken
    # first, in column order
    nan = math.nan
    error = np.array([[1.0, 2.0, 2.0, 0.5], [3.0, 1.0, 3.0, 3.0],
                      [2.0, 2.0, 1.0, 0.0], [1.0, nan, 2.0, nan]])
    a = np.array([[0.0, 0.5, 0.25, 0.75], [0.5, 0.0, 0.5, 0.25],
                  [0.3, 0.3, 0.0, 0.9], [0.0, 0.5, 0.25, 0.1]])
    b = np.array([[0.25, 0.75, 0.5, 1.0], [0.6, 0.5, 0.55, 0.5],
                  [0.4, 0.35, 0.3, 1.0], [0.25, 0.75, 0.5, 0.2]])
    np.testing.assert_array_equal(_worst(error, a, b), [2, 3, 1, 1])


def test_budget_exhaustion_in_a_later_batch(monkeypatch):
    # six non-empty problems and a cap of four make two batches of three:
    # the first problem to run out of budget is the sixth, in the second
    # batch, and raises its own error; each call of f holds the live
    # problems of one batch only
    monkeypatch.setattr(qedvolterra.quadrature, "_LOCKSTEP_PROBLEMS", 4)
    cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=40)
    easy = lambda x: 3.0 * x**2 + 1.0
    hard = lambda x: np.cos(40.0 * x) / (1e-6 + x * x)
    cases = [(easy, 0.0, 2.0), (np.exp, 0.0, 1.0), (easy, 1.0, 1.0),
             (np.sin, 0.0, 3.0), (easy, -1.0, 0.0), (hard, -1.0, 1.0),
             (hard, -1.0, 0.5)]
    calls = _assert_batch_matches_reference(cases, cfg)
    batches = [set(np.flatnonzero(c).tolist()) for c in calls]
    assert batches[0] == {0, 1, 3} and {4, 5, 6} in batches
    assert all(s <= {0, 1, 3} or s <= {4, 5, 6} for s in batches)


def _batch_firsts(calls):
    """The problems of each batch's first call: the calls in which every
    problem shows the 15 nodes of its whole interval."""
    return [np.flatnonzero(c).tolist() for c in calls
            if set(c[c > 0].tolist()) == {15}]


@pytest.mark.parametrize("n, cap", [(5, 5), (6, 5), (7, 3), (12, 4),
                                    (13, 4), (40, 7)])
def test_batches_are_the_fewest_of_nearly_equal_size(n, cap, monkeypatch):
    # n live problems, one empty interval among them, under a cap: the
    # fewest batches, consecutive in index order, whose sizes differ by at
    # most one; no call of f sees more than 30 nodes per problem of the cap
    monkeypatch.setattr(qedvolterra.quadrature, "_LOCKSTEP_PROBLEMS", cap)
    rng = np.random.default_rng(n)
    cases = [(_peak_and_wave(x0, 0.3, k, 0.5), a, a + 1.0)
             for x0, k, a in zip(*rng.uniform(-1, 3, (3, n)))]
    cases.insert(n // 2, (np.exp, 1.0, 1.0))
    calls = _assert_batch_matches_reference(
        cases, QuadConfig(rel_tol=1e-10, abs_tol=1e-12))
    firsts = _batch_firsts(calls)
    sizes = [len(ids) for ids in firsts]
    assert len(sizes) == -(-n // cap) and max(sizes) - min(sizes) <= 1
    assert sum(firsts, []) == [i for i in range(n + 1) if i != n // 2]
    assert max(int(np.sum(c)) for c in calls) <= 30 * cap


def test_batch_larger_than_the_cap_matches_reference():
    # more problems than one lockstep batch holds, at the module's own cap:
    # three nearly equal batches in index order, every result as alone
    cap = qedvolterra.quadrature._LOCKSTEP_PROBLEMS
    rng = np.random.default_rng(5)
    cases = [(_peak_and_wave(x0, 0.3, k, 0.5), a, a + 1.0)
             for x0, k, a in zip(rng.uniform(-1, 1, 2 * cap + 5),
                                 rng.uniform(0, 5, 2 * cap + 5),
                                 rng.uniform(-1, 1, 2 * cap + 5))]
    calls = _assert_batch_matches_reference(
        cases, QuadConfig(rel_tol=1e-10, abs_tol=1e-12))
    n = len(cases)
    assert [len(ids) for ids in _batch_firsts(calls)] \
        == [n * (k + 1) // 3 - n * k // 3 for k in range(3)]
    assert max(np.count_nonzero(c) for c in calls) <= cap
    assert max(int(np.sum(c)) for c in calls) <= 30 * cap
    firsts = [int(np.flatnonzero(c)[0]) for c in calls]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize("node", [0, 1, 6, 7], ids=[
    "kronrod-only", "gauss", "kronrod-only-inner", "gauss-centre"])
def test_nan_on_one_node(node):
    # a NaN at one node of [a, b], a Kronrod-only one (even index) or one
    # the 7-point Gauss rule shares (odd): the K15 value and the error are
    # NaN, the totals stay NaN and never meet the tolerance, so the budget
    # runs out with err = nan, exactly as in the reference
    bad = 0.5 + 0.5 * _XK[node]

    def f(x):
        return np.where(x == bad, np.nan, np.exp(1j * x))

    cfg = QuadConfig(max_subdivisions=30)
    _assert_batch_matches_reference([(np.exp, 0.0, 1.0), (f, 0.0, 1.0)],
                                    cfg)
    with pytest.raises(QuadratureError) as exc:
        finite_at(cfg, f, 0.0, 1.0)
    assert math.isnan(exc.value.err_est) and "err=nan" in str(exc.value)
    assert np.isnan(exc.value.best_estimate)
    # the G7 sum alone reads the Gauss nodes: a NaN at a Kronrod-only node
    # leaves it finite
    y = f(0.5 + 0.5 * _XK)
    assert np.isnan(np.dot(_WK, y))
    assert np.isnan(np.dot(_WG, y[1::2])) == bool(node % 2)


def test_gauss_kronrod_constants():
    # K15 integrates x^k exactly on [-1, 1] for k <= 22 and G7 for k <= 13,
    # to 1e-15; the odd Kronrod nodes are leggauss(7)'s to one ulp, and the
    # tables are symmetric with positive weights
    x7, _ = np.polynomial.legendre.leggauss(7)
    xg = _XK[1::2]
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(_WK, _XK ** k) - exact) <= 1e-15, k
        if k <= 13:
            assert abs(np.dot(_WG, xg ** k) - exact) <= 1e-15, k
    assert abs(np.dot(_WG, xg ** 14) - 2.0 / 15.0) > 1e-6
    assert np.all(np.abs(xg[::-1] - x7) <= np.spacing(np.abs(x7)))
    assert _XK.shape == _WK.shape == (15,) and _WG.shape == (7,)
    assert np.all(np.diff(_XK) < 0.0) and _XK[7] == 0.0
    np.testing.assert_array_equal(_XK, -_XK[::-1])
    np.testing.assert_array_equal(_WK, _WK[::-1])
    np.testing.assert_array_equal(_WG, _WG[::-1])
    assert np.all(_WK > 0.0) and np.all(_WG > 0.0)


def test_ladder_without_decay_raises():
    with pytest.raises(QuadratureError):
        _truncation_walk(np.ones_like, [1e-12], 3.0, None, 0.0)


def test_finite_polynomial_exact():
    val, err = integrate_finite(lambda x: 3.0 * x**2 + 1.0, 0.0, 2.0)
    assert val == pytest.approx(10.0, rel=1e-13)
    assert err < 1e-10


def test_finite_complex_exponential():
    val, _ = finite_at(TIGHT, lambda x: np.exp(1j * x), 0.0, math.pi)
    assert val == pytest.approx(2.0j, abs=1e-12)


def test_finite_handles_sharp_peak():
    # narrow Lorentzian: forces the heap to refine where it matters
    w = 1e-4
    val, _ = finite_at(QuadConfig(rel_tol=1e-10, abs_tol=1e-12,
                                  max_subdivisions=5000),
                       lambda x: w / (x**2 + w**2), -1.0, 1.0)
    exact = 2.0 * math.atan(1.0 / w)
    assert val == pytest.approx(exact, rel=1e-9)


def test_finite_budget_exhaustion_raises_with_estimate():
    cfg = QuadConfig(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=8)
    with pytest.raises(QuadratureError) as exc:
        finite_at(cfg, lambda x: np.cos(40.0 * x) / (1e-6 + x * x),
                  -1.0, 1.0)
    assert exc.value.best_estimate is not None
    assert exc.value.err_est > 0.0


def test_oscillatory_exponential_envelope_closed_form():
    # integral_0^inf e^{-p} e^{-ip tau} dp = 1 / (1 + i tau)
    for tau in (0.0, 0.4, 3.0, 25.0, 400.0):
        val = oscillatory_halfline(lambda p: np.exp(-p), tau,
                                   decay_rate=1.0)
        exact = 1.0 / (1.0 + 1j * tau)
        assert val == pytest.approx(exact, abs=1e-11)


def test_oscillatory_algebraic_envelope_closed_form():
    # integral_0^inf p/(p^2+1)^2 e^{-ip tau} dp is 1/2 at tau = 0
    val = oscillatory_halfline(lambda p: p / (p * p + 1.0)**2, 0.0,
                               decay_order=3.0)
    assert val == pytest.approx(0.5, abs=1e-11)
    # p/(p^2+1)^((m+1)/2) decays like p^-m, so its tail bound puts P near
    # 1e14 (m = 2) or 1e7 (m = 3): these lags are summed half period by half
    # period, the first one adaptive where it holds the whole bulk (one
    # 15-point panel there was up to 1e7 tolerances off at tau = 0.25); one
    # adaptive integral over [0, P] would not converge
    mp = pytest.importorskip("mpmath")
    exact = {
        2: lambda t: 1 - mp.pi / 2 * t * (mp.besseli(0, t) - mp.struvel(0, t))
        - 1j * t * mp.besselk(0, t),
        3: lambda t: 0.5 - t / 4 * (mp.exp(-t) * mp.ei(t)
                                    - mp.exp(t) * mp.ei(-t))
        - 1j * mp.pi / 4 * t * mp.exp(-t),
    }
    for m, form in exact.items():
        g = lambda p: p / (p * p + 1.0) ** ((m + 1) / 2.0)
        for tau in (0.25, 0.5, 1.0, 2.0, 5.0):
            want = complex(form(mp.mpf(tau)))
            got = oscillatory_halfline(g, tau, decay_order=float(m),
                                       peak=1.0 / math.sqrt(m))
            assert abs(got - want) <= 10.0 * max(1e-13, 1e-11 * abs(want)), \
                (m, tau)


def test_oscillatory_requires_one_decay_declaration():
    with pytest.raises(ValueError):
        oscillatory_halfline(lambda p: np.exp(-p), 1.0)
    with pytest.raises(ValueError):
        oscillatory_halfline(lambda p: np.exp(-p), 1.0, decay_rate=1.0,
                             decay_order=3.0)
    with pytest.raises(ValueError):
        oscillatory_halfline(lambda p: 1.0 / (1.0 + p)**1.5, 1.0,
                             decay_order=1.5)


@pytest.mark.parametrize("tau_over_alpha", [0.5, 5.0, 50.0])
def test_oscillatory_against_brute_force(tau_over_alpha):
    # fine-grid trapezoid over [0, 200 alpha]; the algebraic tail beyond is
    # below 1e-14 for this envelope
    alpha = 1.0
    tau = tau_over_alpha / alpha
    g = lambda p: hydrogen_vacuum_density(p, alpha)
    p = np.linspace(0.0, 200.0 * alpha, 4_000_001)
    brute = np.trapezoid(g(p) * np.exp(-1j * tau * p), p)
    val = oscillatory_halfline(g, tau, decay_order=7.0,
                               peak=alpha * math.sqrt(9.0 / 28.0))
    assert val == pytest.approx(brute, abs=1e-7)


@pytest.mark.parametrize("abs_tol", [1e-15, 1e-16, 1e-18])
def test_oscillatory_tighter_tolerance_keeps_the_looser_value(abs_tol,
                                                              monkeypatch):
    # a tighter tolerance moves the truncation point P out, and tau P past
    # 40 pi left the adaptive branch: at tau = 0.5 the first half-period
    # panel, [0, 2 pi], held the whole bulk of hydrogen's shape, and the
    # value was 1e-6 relative off at abs_tol = 1e-15.  The layer's one
    # tolerance is the module constant DEFAULT_QUAD, so it is swapped here
    kw = dict(decay_order=7.0, peak=math.sqrt(9.0 / 28.0))
    loose = QuadConfig(rel_tol=1e-13, abs_tol=1e-13)
    tight = QuadConfig(rel_tol=1e-13, abs_tol=abs_tol)
    for tau in (0.25, 0.5, 1.0, 2.0, 5.0):
        monkeypatch.setattr(qedvolterra.quadrature, "DEFAULT_QUAD", loose)
        want = oscillatory_halfline(_hydrogen_unit, tau, **kw)
        monkeypatch.setattr(qedvolterra.quadrature, "DEFAULT_QUAD", tight)
        got = oscillatory_halfline(_hydrogen_unit, tau, **kw)
        assert abs(got - want) \
            <= 10.0 * max(loose.abs_tol, loose.rel_tol * abs(want)), tau


def test_oscillatory_hydrogen_shape_matches_mpmath():
    # hydrogen's shape x / (3 pi^2 (x^2 + 9/4)^4) against a closed form:
    # with F(c) = integral_0^inf x e^{-i tau x} / (x^2 + c) dx
    # = -(e^{-a tau} Ei(a tau) + e^{a tau} Ei(-a tau)) / 2 - i pi/2 e^{-a tau},
    # a = sqrt(c), the shape's transform is -F'''(9/4) / (18 pi^2).  Where
    # tau P passes 40 pi the first half period holds the whole bulk and is
    # integrated adaptively (one 15-point panel there was 1e-6 relative
    # off at tau = 0.5); 1.08 <= tau < 2.77 takes that branch
    mp = pytest.importorskip("mpmath")

    def F(c, t):
        a = mp.sqrt(c)
        return mp.mpc(-(mp.exp(-a * t) * mp.ei(a * t)
                        + mp.exp(a * t) * mp.ei(-a * t)) / 2,
                      -mp.pi / 2 * mp.exp(-a * t))

    kw = dict(decay_order=7.0, peak=math.sqrt(9.0 / 28.0))
    for tau in (0.25, 0.5, 1.0, 2.0, 5.0):
        with mp.workdps(30):
            want = complex(-mp.diff(lambda c: F(c, tau), mp.mpf(2.25), 3)
                           / (18 * mp.pi**2))
        got = oscillatory_halfline(_hydrogen_unit, tau, **kw)
        assert abs(got - want) <= 10.0 * max(
            DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * abs(want)), tau


def test_oscillatory_conjugation():
    g = lambda p: hydrogen_vacuum_density(p, 0.5)
    kw = dict(decay_order=7.0, peak=0.5 * math.sqrt(9.0 / 28.0))
    for tau in (0.7, 12.0, 90.0):
        plus = oscillatory_halfline(g, tau, **kw)
        minus = oscillatory_halfline(g, -tau, **kw)
        assert minus == pytest.approx(np.conj(plus), abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.2, 4.0), st.floats(-3.0, 3.0))
def test_oscillatory_linearity(a, b):
    tau = 2.5
    g1 = lambda p: np.exp(-p)
    g2 = lambda p: p * np.exp(-2.0 * p)
    combo = oscillatory_halfline(lambda p: a * g1(p) + b * g2(p), tau,
                                 decay_rate=1.0)
    parts = a * oscillatory_halfline(g1, tau, decay_rate=1.0) \
        + b * oscillatory_halfline(g2, tau, decay_rate=2.0)
    assert combo == pytest.approx(parts, abs=1e-10)


def test_truncate_with_bound_strategy(monkeypatch):
    # tau * P is small enough that the tail is truncated at P and [0, P]
    # integrated directly, without the between-zeros acceleration
    calls = []
    finite = qedvolterra.quadrature.integrate_finite

    def spy(f, a, b):
        calls.append((a, b))
        return finite(f, a, b)

    monkeypatch.setattr(qedvolterra.quadrature, "integrate_finite", spy)
    val = oscillatory_halfline(lambda p: np.exp(-p), 1.5, decay_rate=1.0)
    assert val == pytest.approx(1.0 / (1.0 + 1.5j), abs=1e-9)
    assert len(calls) == 1 and calls[0][0] == 0.0
