import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qedvolterra import KernelEvaluator, ModelParams, SmearingFunction, \
    SpectralDensity, SqueezeParams, TimeGrid, chi_momentum, \
    density_from_table, hydrogen_chi, hydrogen_density, \
    hydrogen_vacuum_density, make_kernel, s_hat, solve_ide, \
    squeezed_delta_concentrated, squeezed_delta_general, vacuum_kernel
import qedvolterra.kernels
from qedvolterra.kernels import _hydrogen_unit


def _s0_closed_form(alpha):
    return 32.0 * alpha**4 / (6561.0 * math.pi**2)


@pytest.mark.parametrize("alpha", [1.0, 0.1])
def test_kernel_at_zero_lag(alpha):
    rho = hydrogen_density(alpha)
    s0 = vacuum_kernel(0.0, rho)
    assert s0.imag == pytest.approx(0.0, abs=1e-15 * _s0_closed_form(alpha))
    assert s0.real == pytest.approx(_s0_closed_form(alpha), rel=1e-8)


def test_kernel_hermiticity():
    rho = hydrogen_density(0.5)
    for tau in np.linspace(0.1, 40.0, 20):
        assert vacuum_kernel(-tau, rho) \
            == pytest.approx(np.conj(vacuum_kernel(tau, rho)),
                             abs=1e-10)


def test_kernel_curvature_matches_second_moment():
    # S''(0) = -integral p^2 rho(p) dp = -4 alpha^6 / (729 pi^2)
    alpha = 1.0
    rho = hydrogen_density(alpha)
    s0 = vacuum_kernel(0.0, rho).real

    def second_diff(h):
        return 2.0 * (vacuum_kernel(h, rho).real - s0) / h**2

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
    small = abs(vacuum_kernel(50.0 / alpha, rho))
    tiny = abs(vacuum_kernel(500.0 / alpha, rho))
    assert small < 0.05 * s0
    assert tiny < small


@pytest.mark.parametrize("alpha", [0.5, 0.1, 1.0 / 137.036, 1e-3, 1e-6])
def test_kernel_is_scale_covariant(alpha):
    # hydrogen's kernel is exactly covariant, S_alpha(tau) =
    # alpha^4 S_1(alpha tau) (Facchi & Pascazio, Phys. Lett. A 241 (1998)
    # 139), and the quadrature runs in units of alpha, so the two agree to
    # rounding at every alpha
    rho, unit = hydrogen_density(alpha), hydrogen_density(1.0)
    for theta in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
        want = vacuum_kernel(theta, unit)
        got = vacuum_kernel(theta / alpha, rho) / alpha**4
        assert abs(got - want) <= 1e-12 * abs(want), theta


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.floats(-4.0, 4.0),
       st.floats(0.0, 40.0))
def test_kernel_of_the_closed_form_family(n, log_b, theta):
    # rho(p) = p^n exp(-p / b) = b^n rho1(p / b), rho1(x) = x^n exp(-x),
    # has S(tau) = n! / (1/b + i tau)^(n + 1); in units of b the default
    # tolerance holds relative to b^(n + 1) at every b
    b = 10.0 ** log_b
    rho = SpectralDensity(
        fn=lambda p: p**n * np.exp(-p / b), scale=b, peak=n * b,
        decay_rate=1.0 / b, shape=(lambda x: x**n * np.exp(-x), b**n, n))
    exact = math.factorial(n) / (1.0 / b + 1j * (theta / b))**(n + 1)
    unit = abs(math.factorial(n) / (1.0 + 1j * theta)**(n + 1))
    got = vacuum_kernel(theta / b, rho)
    assert abs(got - exact) <= 10.0 * b**(n + 1) * max(1e-13, 1e-11 * unit)


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
    # the formula as written
    p = np.asarray(p, dtype=float)
    val = (alpha * alpha / (3.0 * math.pi**2)) * p / ((p / alpha)**2 + 2.25)**4
    return val if val.ndim else float(val)


@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.5, 0.7565217391304349,
                                   1e-4, 3.0])
def test_hydrogen_density_is_its_shape_at_a_scale(alpha):
    # fn is the formula as written, bit for bit, and the declared shape
    # gives the same density, rho(p) = alpha^3 rho_1(p / alpha), to rounding
    rho = hydrogen_density(alpha)
    unit, amplitude, peak1 = rho.shape
    assert unit is _hydrogen_unit and amplitude == alpha * alpha * alpha
    assert peak1 == math.sqrt(9.0 / 28.0) and rho.peak == alpha * peak1
    p = np.linspace(0.0, 30.0 * alpha, 1200)
    got = rho.fn(p)
    assert got.tobytes() == _hydrogen_formula(p, alpha).tobytes()
    assert unit(p).tobytes() == hydrogen_vacuum_density(p, 1.0).tobytes()
    np.testing.assert_allclose(amplitude * unit(p / alpha), got,
                               rtol=1e-14, atol=0.0)
    for q in (0.0, -0.0, np.array(0.7), np.linspace(0.1, 40.0, 20)):
        got = hydrogen_vacuum_density(q, alpha)
        want = _hydrogen_formula(q, alpha)
        assert type(got) is type(want)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_hydrogen_density_without_a_shape_where_alpha3_leaves_floats():
    # a shape's amplitude is finite and > 0: where alpha^3 underflows to 0
    # or overflows, fn serves the transforms as it is
    assert hydrogen_density(1e-107).shape[1] > 0.0
    assert hydrogen_density(5e102).shape[1] < math.inf
    for alpha in (1e-110, 1e103, 1e200):
        assert hydrogen_density(alpha).shape is None
    assert not hydrogen_density(1e-110).fn(np.linspace(0.0, 1e-108, 50)).any()


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_density_refuses_a_bad_shape_or_scale(value):
    # the Laplace side divides s by scale and multiplies its transforms by
    # the shape's amplitude.  A scale of 0 (hydrogen at alpha = 0) builds,
    # and its transforms refuse
    def fn(q):
        return q * np.exp(-q)

    with pytest.raises(ValueError, match="shape amplitude must be finite"):
        SpectralDensity(fn=fn, decay_rate=1.0, shape=(fn, value, 1.0))
    if value == 0.0:
        rho = SpectralDensity(fn=fn, decay_rate=1.0, scale=value)
        with pytest.raises(ValueError, match="scale 0"):
            s_hat(rho, 1.0)
    else:
        with pytest.raises(ValueError, match="scale must be finite"):
            SpectralDensity(fn=fn, decay_rate=1.0, scale=value)
    with pytest.raises(ValueError, match="shape function must be callable"):
        SpectralDensity(fn=fn, decay_rate=1.0, shape=(value, 1.0, 1.0))
    if math.isfinite(value):
        assert SpectralDensity(fn=fn, decay_rate=1.0,
                               shape=(fn, 1.0, value)).shape[2] == value
    else:
        with pytest.raises(ValueError, match="shape peak must be finite"):
            SpectralDensity(fn=fn, decay_rate=1.0, shape=(fn, 1.0, value))
    assert SpectralDensity(fn=fn, decay_rate=1.0, scale=2.0,
                           shape=(fn, 0.5, 1.0)).shape == (fn, 0.5, 1.0)


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
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        hydrogen_vacuum_density(p, bad)


def test_density_from_table_round_trip(tmp_path):
    alpha = 1.0
    p = np.linspace(0.0, 30.0, 1200)
    table = np.column_stack([p, hydrogen_vacuum_density(p, alpha)])
    path = tmp_path / "rho.txt"
    np.savetxt(path, table)
    rho_tab = density_from_table(path, tail_order=7.0, label="tab")
    rho = hydrogen_density(alpha)
    for tau in (0.0, 1.5, 8.0):
        direct = vacuum_kernel(tau, rho)
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
    direct = make_kernel("vacuum", density=rho)
    fast = make_kernel("vacuum", density=rho, tabulate=(30.0, 0.02))
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
    assert nonstat.row(1.0, s).tolist() \
        == [nonstat.eval(1.0, float(x)) for x in s]


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


def test_squeeze_params_cannot_change_after_its_checks():
    with pytest.raises(FrozenInstanceError):
        _squeeze().r = 1e3


def test_squeeze_params_compare_and_hash_by_identity():
    # the record holds arrays, so a field-wise == or hash could not answer
    sq1, sq2 = _squeeze(), _squeeze()
    assert sq1 == sq1 and sq1 != sq2
    assert hash(sq1) == hash(sq1)
    assert {sq1, sq2, sq1} == {sq1, sq2}


def test_squeeze_params_arrays_are_read_only_copies():
    q = np.array([1.0, 0.0, 0.0])
    sq = _squeeze(q=q)
    with pytest.raises(ValueError):
        sq.q[0] = 0.0
    with pytest.raises(ValueError):
        sq.d[0] = 1.0
    # the caller's array is its own: writable, and not read by the record
    q[0] = 2.0
    assert sq.q.tolist() == [1.0, 0.0, 0.0]


def _squeeze(**changes):
    args = dict(r=0.5, q=np.array([1.0, 0.0, 0.0]),
                d=np.array([0.0, 0.0, 1.0]))
    return SqueezeParams(**{**args, **changes})


def _packet(width):
    return _squeeze(wavepacket=lambda p: p, wavepacket_width=width)


def _peaked_at(peak):
    return SpectralDensity(fn=lambda p: p * np.exp(-p), peak=peak,
                           decay_rate=1.0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ModelParams(alpha=math.nan, omega=1.0),
                 id="alpha-nan"),
    pytest.param(lambda: ModelParams(alpha=math.inf, omega=1.0),
                 id="alpha-inf"),
    pytest.param(lambda: ModelParams(alpha=0.1, omega=math.nan),
                 id="omega-nan"),
    pytest.param(lambda: ModelParams(alpha=0.1, omega=math.inf),
                 id="omega-inf"),
    pytest.param(lambda: _squeeze(r=math.nan), id="r-nan"),
    pytest.param(lambda: _squeeze(r=math.inf), id="r-inf"),
    pytest.param(lambda: _squeeze(r=-math.inf), id="r-minus-inf"),
    pytest.param(lambda: _squeeze(r=1e3), id="r-overflows"),
    pytest.param(lambda: _squeeze(amplitude=math.nan), id="amplitude-nan"),
    pytest.param(lambda: _squeeze(amplitude=math.inf), id="amplitude-inf"),
    pytest.param(lambda: _squeeze(q=np.array([math.nan, 0.0, 0.0])),
                 id="q-nan"),
    pytest.param(lambda: _squeeze(q=np.array([math.inf, 0.0, 0.0])),
                 id="q-inf"),
    pytest.param(lambda: _squeeze(d=np.array([0.0, 0.0, math.nan])),
                 id="d-nan"),
    pytest.param(lambda: _squeeze(d=np.array([0.0, math.inf, 1.0])),
                 id="d-inf"),
    pytest.param(lambda: _packet(0.0), id="width-zero"),
    pytest.param(lambda: _packet(-1.0), id="width-negative"),
    pytest.param(lambda: _packet(math.nan), id="width-nan"),
    pytest.param(lambda: _packet(math.inf), id="width-inf"),
    pytest.param(lambda: _peaked_at(math.inf), id="peak-inf"),
    pytest.param(lambda: _peaked_at(math.nan), id="peak-nan"),
    pytest.param(lambda: TimeGrid(dt=math.inf, n_steps=10), id="dt-inf"),
    pytest.param(lambda: TimeGrid(dt=math.nan, n_steps=10), id="dt-nan"),
    pytest.param(lambda: TimeGrid(dt=0.1, n_steps=2.5),
                 id="n-steps-fraction"),
    pytest.param(lambda: TimeGrid(dt=0.1, n_steps=10.0), id="n-steps-float"),
])
def test_constructors_refuse_what_they_cannot_compute(build):
    with pytest.raises(ValueError):
        build()


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
        val = squeezed_delta_general(0.8, 0.3, sq, chi)
        errs.append(abs(val - target))
    # the finite-width correction changes sign near w = 0.4, so only the
    # last pair is required to shrink monotonically
    assert errs[2] < errs[1]
    assert max(errs) < 0.02 * scale


def test_amplitude_scales_the_general_pair_term():
    # amplitude is the overall pair amplitude of both forms
    chi = hydrogen_chi(1.0)
    q, d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    packet = dict(wavepacket=_gaussian_packet(q, d, 1.0), wavepacket_width=1.0)
    one = squeezed_delta_general(0.8, 0.3, _squeeze(**packet), chi)
    five = squeezed_delta_general(0.8, 0.3, _squeeze(amplitude=5.0, **packet),
                                  chi)
    assert one != 0.0
    assert five == 5.0 * one


def test_squeezed_general_requires_wavepacket():
    chi = hydrogen_chi(1.0)
    sq = SqueezeParams(r=0.5, q=np.array([1.0, 0.0, 0.0]),
                       d=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        squeezed_delta_general(1.0, 0.5, sq, chi)


def test_squeezed_general_kernel_rows_and_solve():
    # make_kernel's general squeezed kernel reads the vacuum S0 plus
    # squeezed_delta_general over the whole row, and a short solve of it
    # is finite; a wide packet keeps the pair-mode quadratures cheap
    alpha, width = 1.0, 1.0
    rho, chi = hydrogen_density(alpha), hydrogen_chi(alpha)
    q, d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    sq = SqueezeParams(r=0.5, q=q, d=d,
                       wavepacket=_gaussian_packet(q, d, width),
                       wavepacket_width=width)
    kernel = make_kernel("squeezed_general", density=rho, squeeze=sq,
                         chi=chi)
    grid = TimeGrid(dt=0.01, n_steps=8)
    c = solve_ide(kernel, ModelParams(alpha=alpha, omega=0.375), grid,
                  "trapezoid").values
    assert np.isfinite(c).all()
    vacuum = make_kernel("vacuum", density=rho)
    t, s = grid.t_max, np.array([0.0, grid.t_max])
    want = vacuum.row(t, s) + squeezed_delta_general(t, s, sq, chi)
    assert kernel.row(t, s).tolist() == want.tolist()
    # the squeezing shows in the row
    assert np.min(np.abs(kernel.row(t, s) - vacuum.row(t, s))) > 1e-4


def test_squeezed_general_broadcasts_like_its_points(monkeypatch):
    # one call over an array of s equals the per-point values, and it
    # integrates the pair mode once per distinct time
    chi = hydrogen_chi(1.0)
    q, d = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    sq = SqueezeParams(r=0.5, q=q, d=d,
                       wavepacket=_gaussian_packet(q, d, 1.0),
                       wavepacket_width=1.0)
    halfline = qedvolterra.kernels.oscillatory_halfline
    taus = []

    def counted(g, tau, **kwargs):
        taus.append(tau)
        return halfline(g, tau, **kwargs)

    monkeypatch.setattr(qedvolterra.kernels, "oscillatory_halfline", counted)
    s = np.array([0.0, 0.05, 0.3, 0.05, 0.0])
    row = squeezed_delta_general(0.3, s, sq, chi)
    assert sorted(taus) == [0.0, 0.05, 0.3]
    assert row.tolist() \
        == [squeezed_delta_general(0.3, x, sq, chi) for x in s.tolist()]
    # at r = 0 both forms are exact zeros, with no quadrature
    taus.clear()
    flat = SqueezeParams(r=0.0, q=q, d=d, wavepacket=sq.wavepacket,
                         wavepacket_width=1.0)
    for delta in (squeezed_delta_general, squeezed_delta_concentrated):
        assert delta(0.3, s, flat, chi).tolist() == [0j] * len(s)
        assert delta(0.3, 0.1, flat, chi) == 0j
    assert taus == []


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
    base = squeezed_delta_general(1.1, 0.6, SqueezeParams(**sq_args), chi)
    shifted = squeezed_delta_general(1.1, 0.6, SqueezeParams(**sq_args),
                                     chi_long)
    assert shifted == pytest.approx(base, rel=1e-6)
