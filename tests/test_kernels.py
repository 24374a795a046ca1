import math

import numpy as np
import pytest

from qedvolterra import KernelEvaluator, ModelParams, QuadConfig, \
    SmearingFunction, SpectralDensity, SqueezeParams, TimeGrid, \
    chi_momentum, density_from_table, hydrogen_chi, hydrogen_density, \
    hydrogen_vacuum_density, make_kernel, solve_ide, \
    squeezed_delta_concentrated, squeezed_delta_general, vacuum_kernel
from qedvolterra.kernels import _PairMode

TIGHT = QuadConfig(rel_tol=1e-12, abs_tol=1e-14)


def _s0_closed_form(alpha):
    return 32.0 * alpha**4 / (6561.0 * math.pi**2)


@pytest.mark.parametrize("alpha", [1.0, 0.1])
def test_kernel_at_zero_lag(alpha):
    rho = hydrogen_density(alpha)
    s0 = vacuum_kernel(0.0, rho, TIGHT)
    assert s0.imag == pytest.approx(0.0, abs=1e-15 * _s0_closed_form(alpha))
    assert s0.real == pytest.approx(_s0_closed_form(alpha), rel=1e-8)


def test_kernel_hermiticity():
    rho = hydrogen_density(0.5)
    for tau in np.linspace(0.1, 40.0, 20):
        assert vacuum_kernel(-tau, rho, TIGHT) \
            == pytest.approx(np.conj(vacuum_kernel(tau, rho, TIGHT)),
                             abs=1e-10)


def test_kernel_curvature_matches_second_moment():
    # S''(0) = -integral p^2 rho(p) dp = -4 alpha^6 / (729 pi^2)
    alpha = 1.0
    rho = hydrogen_density(alpha)
    s0 = vacuum_kernel(0.0, rho, TIGHT).real

    def second_diff(h):
        return 2.0 * (vacuum_kernel(h, rho, TIGHT).real - s0) / h**2

    h = 0.05
    richardson = (16.0 * second_diff(h / 2.0) - second_diff(h)) / 15.0
    exact = -4.0 * alpha**6 / (729.0 * math.pi**2)
    # the p^-7 density tail caps kernel smoothness, so the Richardson step
    # is only good to ~1e-4 here
    assert richardson == pytest.approx(exact, rel=1e-3)


def test_kernel_riemann_lebesgue_decay():
    alpha = 0.5
    rho = hydrogen_density(alpha)
    s0 = _s0_closed_form(alpha)
    small = abs(vacuum_kernel(50.0 / alpha, rho, TIGHT))
    tiny = abs(vacuum_kernel(500.0 / alpha, rho, TIGHT))
    assert small < 0.05 * s0
    assert tiny < small


def test_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(fn=lambda p: p, decay_order=3.0, decay_rate=1.0)
    with pytest.raises(ValueError):
        SpectralDensity(fn=lambda p: p)
    rho = hydrogen_density(1.0)
    with pytest.raises(ValueError):
        rho(np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        hydrogen_vacuum_density(1.0, -0.3)


@pytest.mark.parametrize("value", [0.0, -1.0, 1.0, 1.5, math.nan, math.inf])
def test_density_refuses_a_bad_tail(value):
    # the tail bounds divide by decay_rate and by decay_order - 1: a bad
    # one raised ZeroDivisionError, or truncated s_hat silently; an order
    # in (1, 2) walked every truncation rung in s_hat and failed inside
    # oscillatory_halfline
    def fn(q):
        return q * np.exp(-q)

    with pytest.raises(ValueError, match="decay_order must be finite"):
        SpectralDensity(fn=fn, decay_order=value)
    if value in (1.0, 1.5):
        assert SpectralDensity(fn=fn, decay_rate=value).decay_rate == value
    else:
        with pytest.raises(ValueError, match="decay_rate must be finite"):
            SpectralDensity(fn=fn, decay_rate=value)


@pytest.mark.parametrize("p", [np.array([0.5, -1.0, 2.0]), -1.0,
                               np.array(-1.0), -0.0 - 1e-300],
                         ids=["array", "scalar", "0-d", "tiny-negative"])
def test_negative_momentum_rejected(p):
    # a density whose fn does not check its argument: the wrapper must
    rho = SpectralDensity(fn=lambda q: q * np.exp(-q), decay_rate=1.0)
    with pytest.raises(ValueError, match="momentum"):
        rho(p)
    with pytest.raises(ValueError, match="momentum"):
        hydrogen_vacuum_density(p, 1.0)


@pytest.mark.parametrize("p", [np.array([0.0, 0.5, 2.0]), 0.0, -0.0,
                               np.array(0.7)])
def test_nonnegative_momentum_accepted(p):
    rho = hydrogen_density(1.0)
    want = hydrogen_vacuum_density(p, 1.0)
    assert np.shape(rho(p)) == np.shape(want)
    np.testing.assert_array_equal(rho(p), want)
    assert np.all(np.asarray(want) >= 0.0)


def _hydrogen_formula(p, alpha):
    # the formula with one scalar alpha: the reference for the array form
    p = np.asarray(p, dtype=float)
    val = (alpha * alpha / (3.0 * math.pi**2)) * p / ((p / alpha)**2 + 2.25)**4
    return val if val.ndim else float(val)


_P_GRIDS = [np.linspace(0.0, 30.0, 1200), np.linspace(0.1, 40.0, 20),
            np.array([0.0, 0.5, 2.0]), 0.0, -0.0, np.array(0.7)]


@pytest.mark.parametrize("p", _P_GRIDS,
                         ids=["table", "lags", "array", "zero", "-zero",
                              "0-d"])
def test_hydrogen_density_of_an_alpha_array(p):
    # scalar alpha: the values of the formula as written, bit for bit; an
    # alpha array broadcast against p: each value that of its own scalar
    # alpha
    alphas = [1.0, 0.1, 0.5, 0.7565217391304349]
    for alpha in alphas:
        got = hydrogen_vacuum_density(p, alpha)
        want = _hydrogen_formula(p, alpha)
        assert type(got) is type(want)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    column = np.array(alphas)[:, None]
    grid = hydrogen_vacuum_density(p, column)
    assert grid.shape == (len(alphas), np.size(p))
    for row, alpha in zip(grid, alphas):
        assert row.tobytes() == np.atleast_1d(
            _hydrogen_formula(p, alpha)).tobytes()
    # one alpha per node, each checked against a one-node array (a numpy
    # scalar's ** is not the array's and may differ in the last bit)
    flat = np.ravel(p)
    per_node = np.resize(alphas, flat.shape)
    want = np.concatenate([_hydrogen_formula(flat[k:k + 1], a)
                           for k, a in enumerate(per_node.tolist())])
    assert hydrogen_vacuum_density(flat, per_node).tobytes() == want.tobytes()


def test_density_at_a_scalar_reads_the_array_path():
    # markov_rate reads rho(omega) at a scalar, the quadratures at arrays
    rho = hydrogen_density(1.0)
    for x in np.linspace(0.0, 30.0, 1200).tolist():
        got = rho(x)
        assert type(got) is float
        assert got == rho(np.array([x]))[0]
    flat = SpectralDensity(fn=lambda p: 0.25, decay_rate=1.0)
    assert flat(2.0) == 0.25 and flat(np.array([1.0, 2.0])) == 0.25


@pytest.mark.parametrize("bad", [0.0, -0.3, math.nan])
def test_hydrogen_density_refuses_a_bad_alpha_element(bad):
    p = np.array([0.5, 1.0, 2.0])
    for alpha in (bad, np.array([0.5, bad, 1.0]), np.array([[bad]])):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            hydrogen_vacuum_density(p, alpha)


def test_density_from_table_round_trip(tmp_path):
    alpha = 1.0
    p = np.linspace(0.0, 30.0, 1200)
    table = np.column_stack([p, hydrogen_vacuum_density(p, alpha)])
    path = tmp_path / "rho.txt"
    np.savetxt(path, table)
    rho_tab = density_from_table(path, tail_order=7.0, label="tab")
    rho = hydrogen_density(alpha)
    for tau in (0.0, 1.5, 8.0):
        direct = vacuum_kernel(tau, rho, TIGHT)
        from_table = vacuum_kernel(tau, rho_tab)
        assert from_table == pytest.approx(direct, abs=1e-8)


def test_density_from_table_rejections():
    good = np.column_stack([np.linspace(0.0, 1.0, 8), np.ones(8)])
    with pytest.raises(ValueError):
        density_from_table(good[:, :1], tail_order=4.0)
    bad_order = good.copy()
    bad_order[3, 0] = bad_order[2, 0]
    with pytest.raises(ValueError):
        density_from_table(bad_order, tail_order=4.0)
    negative = good.copy()
    negative[4, 1] = -1.0
    with pytest.raises(ValueError):
        density_from_table(negative, tail_order=4.0)
    with pytest.raises(ValueError):
        density_from_table(good, tail_order=1.2)
    for shift in (-3.0, -1.0, -1e-12):
        # momenta below 0, or a last momentum at or below 0
        with pytest.raises(ValueError, match="p >= 0"):
            density_from_table(good + [shift, 0.0], tail_order=4.0)


def test_tabulated_kernel_matches_direct():
    rho = hydrogen_density(0.5)
    direct = make_kernel("vacuum", density=rho, cfg=TIGHT)
    fast = make_kernel("vacuum", density=rho, cfg=TIGHT,
                       tabulate=(30.0, 0.02))
    lags = np.array([0.0, 0.37, 5.111, 29.0, -13.2])
    np.testing.assert_allclose(fast.tau_values(lags),
                               direct.tau_values(lags), rtol=0.0, atol=1e-8)
    with pytest.raises(ValueError):
        fast.tau_values(np.array([31.0]))


def test_make_kernel_argument_errors():
    rho = hydrogen_density(1.0)
    chi = hydrogen_chi(1.0)
    with pytest.raises(ValueError):
        make_kernel("vacuum")
    with pytest.raises(ValueError):
        make_kernel("thermal", density=rho)
    with pytest.raises(ValueError):
        make_kernel("squeezed_concentrated", density=rho, chi=chi)
    sq = SqueezeParams(r=0.2, q=np.array([1.0, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        make_kernel("squeezed_general", density=rho, chi=chi, squeeze=sq)


def test_kernel_evaluator_interface():
    rho = hydrogen_density(1.0)
    kernel = make_kernel("vacuum", density=rho)
    assert kernel.stationary
    assert kernel.eval(3.0, 1.0) == kernel.tau_values(np.array([2.0]))[0]
    s = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(
        kernel.row(1.0, s),
        [kernel.tau_values(np.array([1.0 - x]))[0] for x in s])
    sq = SqueezeParams(r=0.3, q=np.array([0.5, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]), amplitude=1e-3)
    nonstat = make_kernel("squeezed_concentrated", density=rho,
                          squeeze=sq, chi=hydrogen_chi(1.0))
    assert not nonstat.stationary
    with pytest.raises(ValueError):
        nonstat.tau_values(np.array([1.0]))
    np.testing.assert_allclose(
        nonstat.row(1.0, s), [nonstat.eval(1.0, float(x)) for x in s])


def _exp_tau(lag):
    return complex(math.exp(-abs(lag)))


def _exp_row(t, s):
    return np.exp(-np.abs(t - np.asarray(s, dtype=float))) + 0j


@pytest.mark.parametrize("args, message", [
    (dict(fn=None, stationary=True), "requires tau_fn"),
    (dict(fn=None, stationary=True, tau_fn=_exp_tau, row_fn=_exp_row),
     "no correction"),
    (dict(fn=lambda t, s: 0j, stationary=True, tau_fn=_exp_tau),
     "no correction"),
    (dict(fn=None, stationary=False, tau_fn=_exp_tau),
     "requires row_fn or fn"),
], ids=["stationary-without-tau_fn", "stationary-with-row_fn",
        "stationary-with-fn", "non-stationary-without-correction"])
def test_kernel_evaluator_refuses_what_it_cannot_compute(args, message):
    with pytest.raises(ValueError, match=message):
        KernelEvaluator(label="bad", **args)


@pytest.mark.parametrize("with_s0", [False, True], ids=["full-row", "s0+r"])
@pytest.mark.parametrize("method", ["trapezoid", "gregory4"])
def test_point_correction_solves_like_its_row_form(method, with_s0):
    # R given point by point (fn) against the same R given as rows (row_fn),
    # with no S0 and with one, over several non-stationary leaves
    def row(t, s):
        s = np.asarray(s, dtype=float)
        return 0.3 * np.exp(-0.2j * (t + s) - 0.5 * np.abs(t - s))

    tau_fn = _exp_tau if with_s0 else None
    by_point = KernelEvaluator(lambda t, s: row(t, np.array([s]))[0],
                               stationary=False, label="fn", tau_fn=tau_fn)
    by_row = KernelEvaluator(None, stationary=False, label="row_fn",
                             tau_fn=tau_fn, row_fn=row)
    params = ModelParams(alpha=0.3, omega=0.5)
    grid = TimeGrid(dt=0.05, n_steps=150)
    a = solve_ide(by_point, params, grid, method).values
    b = solve_ide(by_row, params, grid, method).values
    assert a.tobytes() == b.tobytes()
    assert by_point.eval(0.7, 0.2) == by_row.eval(0.7, 0.2)


def test_squeeze_params_validation():
    q = np.array([1.0, 0.0, 0.0])
    sq = SqueezeParams(r=0.5, q=q, d=np.array([0.0, 0.0, 2.0]))
    assert np.linalg.norm(sq.d) == pytest.approx(1.0)
    assert sq.q0 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SqueezeParams(r=0.5, q=q, d=np.array([1.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        SqueezeParams(r=0.5, q=q, d=np.zeros(3))
    with pytest.raises(ValueError):
        SqueezeParams(r=0.5, q=q, d=np.array([0.0, 1.0, 0.0]),
                      wavepacket=lambda p: p)


def test_squeezed_concentrated_properties():
    alpha = 1.0
    chi = hydrogen_chi(alpha)
    q = np.array([0.8, 0.0, 0.0])
    sq = SqueezeParams(r=0.5, q=q, d=np.array([0.0, 0.0, 1.0]))
    m = complex(np.dot(sq.d, chi(q)))
    sh, ch = math.sinh(0.5), math.cosh(0.5)
    bound = 2.0 * abs(m) ** 2 * (sh * ch + sh * sh)
    rng = np.random.default_rng(11)
    for t, s in rng.uniform(0.0, 20.0, size=(40, 2)):
        v = squeezed_delta_concentrated(t, s, sq, chi)
        assert abs(v) <= bound * (1.0 + 1e-12)
        # hermitian under (t, s) exchange
        assert v == pytest.approx(np.conj(
            squeezed_delta_concentrated(s, t, sq, chi)), abs=1e-12)
    # reference value assembled by hand
    t, s = 1.3, 0.4
    z1 = m * m * np.exp(-1j * 0.8 * (t + s))
    z2 = abs(m) ** 2 * np.exp(-1j * 0.8 * (t - s))
    manual = -(z1 + np.conj(z1)) * sh * ch + (z2 + np.conj(z2)) * sh**2
    assert squeezed_delta_concentrated(t, s, sq, chi) \
        == pytest.approx(manual, rel=1e-12)


def test_squeezed_r_zero_vanishes():
    chi = hydrogen_chi(1.0)
    sq = SqueezeParams(r=0.0, q=np.array([1.0, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]))
    assert squeezed_delta_concentrated(2.0, 1.0, sq, chi) == 0.0
    out = squeezed_delta_concentrated(np.array([1.0, 2.0]), 0.5, sq, chi)
    np.testing.assert_array_equal(out, np.zeros(2, dtype=complex))


def _gaussian_packet(q, d, width):
    q0 = float(np.linalg.norm(q))
    norm = math.sqrt(2.0 * q0) / ((2.0 * math.pi) ** 1.5 * width**3)

    def fn(p):
        dp2 = np.sum((p - q) ** 2, axis=-1)
        return d * (norm * np.exp(-0.5 * dp2 / width**2))[..., None]

    return fn


def test_squeezed_general_converges_to_concentrated():
    # a pair wavepacket shrinking onto the carrier momentum must reproduce
    # the concentrated kernel
    alpha = 1.0
    chi = hydrogen_chi(alpha)
    q = np.array([1.0, 0.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    conc = SqueezeParams(r=0.5, q=q, d=d)
    target = squeezed_delta_concentrated(0.8, 0.3, conc, chi)
    scale = 2.0 * abs(np.dot(d, chi(q))) ** 2 \
        * (math.sinh(0.5) * math.cosh(0.5) + math.sinh(0.5) ** 2)
    errs = []
    for width in (0.4, 0.2, 0.1):
        sq = SqueezeParams(r=0.5, q=q, d=d,
                           wavepacket=_gaussian_packet(q, d, width),
                           wavepacket_width=width)
        mode = _PairMode(sq, chi, QuadConfig(rel_tol=1e-9, abs_tol=1e-12),
                         n_theta=100, n_phi=100)
        val = squeezed_delta_general(0.8, 0.3, sq, chi, _mode=mode)
        errs.append(abs(val - target))
    # the finite-width correction changes sign near w = 0.4, so only the
    # last pair is required to shrink monotonically
    assert errs[2] < errs[1]
    assert max(errs) < 0.02 * scale


def test_squeezed_general_requires_wavepacket():
    chi = hydrogen_chi(1.0)
    sq = SqueezeParams(r=0.5, q=np.array([1.0, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        squeezed_delta_general(1.0, 0.5, sq, chi)


def test_squeezed_general_kernel_rows_and_solve():
    # make_kernel's general squeezed kernel reads, per point, the vacuum S0
    # plus squeezed_delta_general, and a short solve of it is finite; a wide
    # packet and loose tolerances keep the pair-mode quadratures cheap
    alpha, width = 1.0, 1.0
    rho, chi = hydrogen_density(alpha), hydrogen_chi(alpha)
    q, d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    sq = SqueezeParams(r=0.5, q=q, d=d,
                       wavepacket=_gaussian_packet(q, d, width),
                       wavepacket_width=width)
    cfg = QuadConfig(rel_tol=1e-4, abs_tol=1e-7)
    kernel = make_kernel("squeezed_general", density=rho, squeeze=sq,
                         chi=chi, cfg=cfg)
    grid = TimeGrid(dt=0.01, n_steps=8)
    c = solve_ide(kernel, ModelParams(alpha=alpha, omega=0.375), grid,
                  "trapezoid").values
    assert np.isfinite(c).all()
    vacuum = make_kernel("vacuum", density=rho, cfg=cfg)
    mode = _PairMode(sq, chi, cfg)
    t, s = grid.t_max, np.array([0.0, grid.t_max])
    want = [vacuum.eval(t, x)
            + squeezed_delta_general(t, x, sq, chi, cfg, _mode=mode)
            for x in s]
    assert kernel.row(t, s).tolist() == want
    # the squeezing shows in the row
    assert np.min(np.abs(kernel.row(t, s) - vacuum.row(t, s))) > 1e-4


def test_longitudinal_chi_component_is_projected_out():
    # adding a part parallel to p to chi must not change the pair kernel
    alpha = 1.0
    q = np.array([0.0, 1.0, 0.0])
    d = np.array([0.0, 0.0, 1.0])
    width = 0.3
    sq_args = dict(r=0.4, q=q, d=d, wavepacket=_gaussian_packet(q, d, width),
                   wavepacket_width=width)
    chi = hydrogen_chi(alpha)
    chi_long = SmearingFunction(
        fn=lambda p: chi_momentum(p, alpha) + 0.7 * p, label="with-long")
    cfg = QuadConfig(rel_tol=1e-9, abs_tol=1e-12)
    base = squeezed_delta_general(1.1, 0.6, SqueezeParams(**sq_args), chi,
                                  cfg)
    shifted = squeezed_delta_general(1.1, 0.6, SqueezeParams(**sq_args),
                                     chi_long, cfg)
    assert shifted == pytest.approx(base, rel=1e-6)
