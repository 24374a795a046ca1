import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qedvolterra.cli
import qedvolterra.laplace
import qedvolterra.quadrature
from qedvolterra import FINE_STRUCTURE, KernelEvaluator, ModelParams, \
    SmearingFunction, SqueezeParams, TimeGrid, chi_momentum, \
    density_from_table, hydrogen_density, make_kernel, solve_ide
from qedvolterra.cli import SUMMARY_KEYS, ConfigError, DecayFit, RunConfig, \
    _fit_window, _fmt, build_config, fit_decay, main, parse_config_file
from test_quadrature import reference_integrate_finite, \
    reference_truncation_point


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, cwd=None):
    # the child imports the package from this checkout, installed or not
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    return subprocess.run([sys.executable, "-m", "qedvolterra", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


# ---------------------------------------------------------------- config


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.25   # coupling\n"
                   "\n"
                   "method = gregory4\n"
                   "sweep_values = 0.1, 0.2\n"
                   "force = true\n")
    values = parse_config_file(str(cfg))
    assert values == {"alpha": 0.25, "method": "gregory4",
                      "sweep_values": (0.1, 0.2), "force": True}


def test_parse_config_rejects_garbage(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.25\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_flags_override_file_values():
    cfg = build_config({"alpha": 0.1, "dt": 0.5}, {"alpha": 0.2, "out": None})
    assert cfg.alpha == 0.2
    assert cfg.dt == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        build_config({"alhpa": 0.1}, {})


_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**400, 10**400).map(str),
    st.sampled_from(["nan", "-inf", "Infinity", "1e400", "-0", "1_000"]))
_WORD_TEXT = st.one_of(
    st.text("abcdefghijklmnopqrstuvwxyz_./-0123456789", max_size=12),
    st.sampled_from(["solve", "rates", "sweep", "kernel", "vacuum",
                     "squeezed_concentrated", "squeezed_general", "custom",
                     "hydrogen_2p1s", "gregory4", "alpha"]))
_BOOL_TEXT = st.sampled_from(["true", "false", "yes", "no", "on", "off",
                              "True", "FALSE"])
_LIST_TEXT = st.lists(st.one_of(_NUMBER_TEXT, _WORD_TEXT, _BOOL_TEXT),
                      min_size=2, max_size=4).map(", ".join)
_CONFIG_LINE = st.tuples(
    st.sampled_from([f.name for f in fields(RunConfig)]
                    + ["alhpa", "n_steps", "Mode", ""]),
    st.one_of(_NUMBER_TEXT, _WORD_TEXT, _BOOL_TEXT, _LIST_TEXT))


@settings(deadline=None, max_examples=150)
@given(st.lists(_CONFIG_LINE, max_size=8))
def test_random_config_text_is_valid_or_config_error(lines):
    # in process, no run: a config file either validates or is refused
    # with ConfigError, never another exception
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        Path(path).write_text(text)
        try:
            cfg = build_config(parse_config_file(path), {})
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)
    assert isinstance(cfg.fit, bool) and isinstance(cfg.force, bool)
    for f in fields(RunConfig):
        if "str" in f.type:
            assert getattr(cfg, f.name) is None \
                or isinstance(getattr(cfg, f.name), str), f.name


_RUN_MODES = ("kernel", "solve", "rates", "sweep")


@st.composite
def _small_run(draw):
    """A config file for one bounded run: at most 40 steps of dt >= 0.05,
    and values that may still be refused or fail numerically."""
    alpha = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, 1e-3, 50.0,
                                                            1e200]))
    lines = {"alpha": draw(alpha)}
    lines["dt"] = dt = draw(st.floats(0.05, 1.0))
    lines["tmax"] = dt * draw(st.floats(0.5, 40.0))
    if draw(st.booleans()):
        lines["method"] = "gregory4"
    if draw(st.booleans()):
        lines["transition"] = "custom"
        lines["omega"] = draw(st.floats(0.0, 3.0))
    state = draw(st.sampled_from(["vacuum", "vacuum", "squeezed_concentrated",
                                  "custom"]))
    lines["state"] = state
    if state == "squeezed_concentrated":
        lines["r"] = draw(st.floats(-1.0, 1.0))
        vec = st.tuples(*[st.sampled_from([0.0, 0.3, 1.0])] * 3)
        lines["q"] = ", ".join(map(str, draw(vec)))
        lines["d"] = ", ".join(map(str, draw(vec)))
        lines["amplitude"] = draw(st.floats(0.0, 2.0))
    lines["fit"] = draw(st.sampled_from(["true", "false"]))
    if draw(st.booleans()):
        t1 = draw(st.floats(0.0, 40.0))
        lines["fit_window"] = f"{t1}, {t1 + draw(st.floats(0.0, 40.0))}"
    lines["sweep_values"] = ", ".join(
        map(str, draw(st.lists(alpha, min_size=1, max_size=2))))
    return draw(st.sampled_from(_RUN_MODES)), lines


@settings(deadline=None, max_examples=40)
@given(_small_run())
# the pole search's smallest step 1e-10 * scale is not a normal float
@example(("rates", {"alpha": 5e-324, "dt": 1.0, "tmax": 2.0,
                    "state": "vacuum", "fit": "false"}))
# alpha^3 overflows, where a float ** raises OverflowError
@example(("kernel", {"alpha": 1e200, "dt": 1.0, "tmax": 2.0,
                     "transition": "custom", "omega": 0.0, "state": "vacuum",
                     "fit": "true", "sweep_values": "0.0"}))
def test_random_small_runs_end_in_an_exit_code(run):
    # in process, through main: every run ends in 0, 2 or 3 and raises
    # nothing; a custom state reads a valid p e^{-p} table
    mode, lines = run
    with tempfile.TemporaryDirectory() as tmp:
        if lines["state"] == "custom":
            p = np.linspace(0.0, 20.0, 60)
            table = os.path.join(tmp, "rho.txt")
            np.savetxt(table, np.column_stack([p, p * np.exp(-p)]))
            lines["rho_table"] = table
        path = os.path.join(tmp, "run.cfg")
        Path(path).write_text("".join(f"{k} = {v}\n"
                                      for k, v in lines.items()))
        out = os.path.join(tmp, "out")
        code = main([mode, "--config", path, "--out", out])
        assert code in (0, 2, 3)
        assert os.path.exists(out) == (code == 0)


def test_text_and_boolean_keys_are_type_checked():
    assert build_config({"out": "5", "fit": False}, {}).out == "5"
    for bad in ({"out": 5}, {"rho_table": 1.0}, {"fit": "abc"},
                {"force": 1}):
        with pytest.raises(ConfigError):
            build_config(bad, {})


def test_list_values_coerced_to_floats():
    cfg = build_config({"sweep_values": 1, "q": (1, 0, 0)}, {})
    assert cfg.sweep_values == (1.0,)
    assert cfg.q == (1.0, 0.0, 0.0)
    for bad in ({"sweep_values": "abc"}, {"d": (0.0, True, 1.0)},
                {"fit_window": 5.0}):
        with pytest.raises(ConfigError):
            build_config(bad, {})


def test_fit_window_checked_against_grid():
    grid = TimeGrid(dt=0.1, n_steps=100)
    assert _fit_window(RunConfig(), grid) == (0.2 * grid.t_max,
                                              0.9 * grid.t_max)
    assert _fit_window(RunConfig(fit_window=(1.0, 10.0)), grid) == (1.0, 10.0)
    for window in ((1.0, 10.5), (-1.0, 5.0), (5.0, 5.0)):
        with pytest.raises(ConfigError):
            _fit_window(RunConfig(fit_window=window), grid)
    # fit_decay's own mask: [1.0, 1.95] holds 10 grid points, [1.0, 1.85] 9
    assert _fit_window(RunConfig(fit_window=(1.0, 1.95)), grid) == (1.0, 1.95)
    with pytest.raises(ConfigError, match="holds 9 grid points"):
        _fit_window(RunConfig(fit_window=(1.0, 1.85)), grid)
    with pytest.raises(ConfigError, match="holds 8 grid points"):
        _fit_window(RunConfig(), TimeGrid(dt=0.1, n_steps=10))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(mode="simulate").validate()
    with pytest.raises(ConfigError):
        RunConfig(dt=-0.1).validate()
    with pytest.raises(ConfigError):
        RunConfig(dt=1.0, tmax=0.5).validate()
    with pytest.raises(ConfigError):
        RunConfig(transition="custom").validate()
    with pytest.raises(ConfigError):
        RunConfig(state="custom").validate()
    with pytest.raises(ConfigError):
        RunConfig(mode="sweep").validate()
    # caught before any work: alpha (every sweep value too) and (r, q, d)
    for bad in (dict(alpha=0.0), dict(alpha=math.nan),
                dict(mode="sweep", sweep_values=(0.3, 0.0)),
                dict(state="squeezed_concentrated", q=(1.0, 0.0, 0.0),
                     d=(1.0, 0.0, 0.0))):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()
    # the decoupled limit stays valid for a custom transition
    RunConfig(alpha=0.0, transition="custom", omega=1.0).validate()


# ---------------------------------------------------------------- fitting


def _decaying_series(gamma=0.02, dt=0.1, n=2000):
    grid = TimeGrid(dt=dt, n_steps=n)
    values = np.exp(-0.5 * gamma * grid.times) \
        * np.exp(-1j * 0.3 * grid.times)
    from qedvolterra import AmplitudeSeries
    return AmplitudeSeries(grid=grid, values=values)


def test_fit_decay_recovers_rate():
    series = _decaying_series(gamma=0.02)
    fit = fit_decay(series, (40.0, 180.0))
    assert isinstance(fit, DecayFit)
    assert fit.gamma_fit == pytest.approx(0.02, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)


def test_fit_decay_window_validation():
    series = _decaying_series()
    with pytest.raises(ValueError):
        fit_decay(series, (150.0, 250.0))
    with pytest.raises(ValueError):
        fit_decay(series, (10.0, 10.05))


# ---------------------------------------------------------------- CLI runs


def test_solve_csv_contract(tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli("solve", "--alpha", "0.25", "--dt", "0.05", "--tmax", "5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_c,im_c,abs2_c"
    assert len(lines) == 102  # header + 101 grid points
    first = lines[1].split(",")
    assert first == ["0.0000000000000000e+00", "1.0000000000000000e+00",
                     "0.0000000000000000e+00", "1.0000000000000000e+00"]
    # every float in 17-significant-digit scientific notation
    for tok in lines[37].split(","):
        assert "e" in tok and len(tok.split("e")[0].replace("-", "")) == 18


def test_solve_is_deterministic(tmp_path):
    args = ("solve", "--alpha", "0.3", "--dt", "0.05", "--tmax", "4")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_matches_library(tmp_path):
    out = tmp_path / "c.csv"
    res = run_cli("solve", "--alpha", "0.5", "--dt", "0.1", "--tmax", "10",
                  "--method", "gregory4", "--out", str(out))
    assert res.returncode == 0, res.stderr
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    params = ModelParams(alpha=0.5, omega=0.375 * 0.25)
    kernel = make_kernel("vacuum", density=hydrogen_density(0.5))
    series = solve_ide(kernel, params, TimeGrid(dt=0.1, n_steps=100),
                       "gregory4")
    np.testing.assert_allclose(data[:, 1] + 1j * data[:, 2], series.values,
                               atol=1e-12)


def test_physical_alpha_solve_refused(tmp_path):
    res = run_cli("solve", "--out", str(tmp_path / "c.csv"))
    assert res.returncode == 2
    assert "--force" in res.stderr


def test_rates_summary_keys(tmp_path):
    out = tmp_path / "rates.txt"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.3\ndt = 0.1\ntmax = 120\n")
    res = run_cli("rates", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = read_summary(out)
    for key in ("gamma_markov", "gamma_pole", "pole_re", "pole_im",
                "lamb_shift", "residual", "gamma_fit", "fit_r_squared"):
        assert key in summary
    assert float(summary["gamma_pole"]) \
        == pytest.approx(-2.0 * float(summary["pole_re"]))


def test_rates_at_physical_alpha_skips_fit(tmp_path):
    out = tmp_path / "rates.txt"
    res = run_cli("rates", "--out", str(out))
    assert res.returncode == 0, res.stderr
    summary = read_summary(out)
    assert "gamma_markov" in summary
    assert "gamma_fit" not in summary


def test_sweep_ordered_table(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep_values = 0.3, 0.1, 0.2\n")
    res = run_cli("sweep", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("alpha,gamma_markov,gamma_pole")
    alphas = [float(line.split(",")[0]) for line in lines[1:]]
    assert alphas == [0.3, 0.1, 0.2]  # axis order, not completion order


@pytest.mark.parametrize("table", [False, True],
                         ids=["hydrogen", "rho-table"])
def test_sweep_rows_equal_per_alpha_rates_runs(tmp_path, table):
    # one pole search serves the whole sweep, and each row is still byte
    # for byte the summary of a `rates` run at its alpha; a table density
    # has no analytic extension, so its rows keep the Markov rate and carry
    # NaN pole values
    base = ""
    if table:
        p = np.linspace(0.0, 3.0, 60)
        np.savetxt(tmp_path / "rho.txt", np.column_stack([p, p * np.exp(-p)]))
        base = (f"state = custom\nrho_table = {tmp_path / 'rho.txt'}\n"
                "transition = custom\nomega = 0.5\n")
    alphas = ["0.3", "0.55", "0.8"]
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cfg.write_text(base + f"sweep_values = {', '.join(alphas)}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "alpha," + ",".join(SUMMARY_KEYS)
    assert len(rows) == 1 + len(alphas)
    for alpha, row in zip(alphas, rows[1:]):
        cfg.write_text(base + f"alpha = {alpha}\nfit = false\n")
        summary_path = tmp_path / f"rates-{alpha}.txt"
        assert main(["rates", "--config", str(cfg),
                     "--out", str(summary_path)]) == 0
        summary = read_summary(summary_path)
        assert row == ",".join([_fmt(float(alpha))]
                               + [summary[k] for k in SUMMARY_KEYS])
        assert (row.split(",")[2:] == ["nan"] * 5) == table


def _allocation_refused() -> bool:
    """Whether the kernel refuses at once a request far beyond its memory
    (Linux overcommit heuristic or strict accounting), so none is touched."""
    try:
        mode = Path("/proc/sys/vm/overcommit_memory").read_text().strip()
    except OSError:
        return False
    return mode in ("0", "2")


@pytest.mark.skipif(not _allocation_refused(),
                    reason="a 16 TB request might be granted and touched")
@pytest.mark.parametrize("mode, lines", [
    ("solve", "alpha = 0\ntransition = custom\nomega = 1\nforce = true")])
def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, mode,
                                                    lines):
    # a grid of 1e12 steps (about 16 TB for a solve; `force` lets a solve
    # ask for it) fails to allocate, and the run exits 2 naming the step
    # count
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{lines}\ndt = 1e-9\ntmax = 1000\n")
    assert main([mode, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "1000000000000 steps" in err
    assert not (tmp_path / "o").exists()


def test_kernel_dump_of_a_grid_too_large_to_allocate(tmp_path):
    # 1e12 steps: the grid's times alone would take 8 TB, but the dump
    # keeps 4 096 samples, grid.times[::stride], and builds only those
    n = 10**12 + 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\ndt = 1e-12\ntmax = 1\n")
    out = tmp_path / "o"
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,re_S,im_S" and len(lines) == 4097
    stride = n // 4096 + 1
    assert [line.split(",")[0] for line in lines[1:]] \
        == [_fmt(k * 1e-12) for k in range(0, n, stride)]


def test_memory_error_in_a_rates_solve_is_config_error(tmp_path, capsys,
                                                       monkeypatch):
    def refuse(kernel, params, grid, method):
        raise MemoryError

    monkeypatch.setattr(qedvolterra.cli, "solve_ide", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.3\ndt = 0.1\ntmax = 120\n")
    assert main(["rates", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "grid of 1200 steps does not fit in memory" \
        in capsys.readouterr().err


def test_kernel_mode(tmp_path):
    out = tmp_path / "kernel.csv"
    res = run_cli("kernel", "--alpha", "0.5", "--dt", "0.1", "--tmax", "5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,re_S,im_S"
    assert len(lines) == 52


def test_kernel_mode_at_the_physical_alpha(tmp_path):
    # at the default alpha, S(0) = 32 alpha^4 / (6561 pi^2) to 1e-9
    # relative; a quadrature with absolute tolerances in p was 1.4e-5 off
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--dt", "10", "--tmax", "1000",
                 "--out", str(out)]) == 0
    tau, re_s, _ = out.read_text().splitlines()[1].split(",")
    exact = 32.0 * FINE_STRUCTURE**4 / (6561.0 * math.pi**2)
    assert float(tau) == 0.0
    assert abs(float(re_s) / exact - 1.0) <= 1e-9


@pytest.mark.parametrize("state", ["vacuum", "squeezed_concentrated"])
def test_kernel_dump_matches_one_read_per_sample(tmp_path, state):
    # the dump reads a stationary kernel in one tau_values call and a
    # squeezed one in one row per t; its bytes must equal a dump that
    # reads every sample on its own through eval
    cfg = RunConfig(mode="kernel", state=state, alpha=0.5, dt=0.5, tmax=10.0,
                    r=0.5, q=(1.0, 0.0, 0.0), amplitude=1e-3,
                    out=str(tmp_path / "kernel.csv"))
    assert qedvolterra.cli.run(cfg) == 0
    params, density = qedvolterra.cli._model(cfg)
    grid = qedvolterra.cli._default_grid(cfg, params, density)
    kernel = qedvolterra.cli._build_kernel(cfg, params, density, None)
    # a grid this small is dumped whole, and 21 samples are one per row
    times = grid.times
    assert len(times) == 21
    if state == "vacuum":
        lines = ["tau,re_S,im_S"]
        for tau in times.tolist():
            v = kernel.eval(tau, 0.0)
            lines.append(",".join((_fmt(tau), _fmt(v.real), _fmt(v.imag))))
    else:
        lines = ["t,s,re_S,im_S"]
        for t in times.tolist():
            for s in times[times <= t].tolist():
                v = kernel.eval(t, s)
                lines.append(",".join((_fmt(t), _fmt(s),
                                       _fmt(v.real), _fmt(v.imag))))
        assert len(lines) == 1 + 21 * 22 // 2
    assert Path(cfg.out).read_text() == "\n".join(lines) + "\n"


def test_custom_density_via_table(tmp_path):
    p = np.linspace(0.0, 30.0, 400)
    table = tmp_path / "rho.txt"
    np.savetxt(table, np.column_stack([p, p * np.exp(-p)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = custom\nrho_table = {table}\n"
                   "rho_tail_order = 6\ntransition = custom\nomega = 1.0\n"
                   "alpha = 0.01\ndt = 0.05\ntmax = 50\n")
    out = tmp_path / "c.csv"
    res = run_cli("solve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    # Markov prediction: |c|^2 = exp(-2 pi alpha rho(omega) t)
    gamma = 2.0 * np.pi * 0.01 * np.exp(-1.0)
    assert data[-1, 3] == pytest.approx(np.exp(-gamma * 50.0), rel=0.05)


def test_rates_with_custom_density_table(tmp_path):
    p = np.linspace(0.0, 30.0, 400)
    table = tmp_path / "rho.txt"
    np.savetxt(table, np.column_stack([p, p * np.exp(-p)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = custom\nrho_table = {table}\n"
                   "rho_tail_order = 6\ntransition = custom\nomega = 1.0\n"
                   "alpha = 0.01\nfit = false\n")
    out = tmp_path / "rates.txt"
    res = run_cli("rates", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    gamma = 2.0 * np.pi * 0.01 * np.exp(-1.0)
    # a cubic spline with step 0.075 is good to ~1e-7 relative here
    assert float(read_summary(out)["gamma_markov"]) \
        == pytest.approx(gamma, rel=1e-6)


def test_kernel_dump_with_a_chi_table(tmp_path):
    # a custom transition in a squeezed state reads chi from its table along
    # the carrier ray; the dump equals make_kernel's with the same spline chi
    p = np.linspace(0.0, 30.0, 400)
    rho_table = tmp_path / "rho.txt"
    np.savetxt(rho_table, np.column_stack([p, p * np.exp(-p)]))
    ray = np.linspace(0.0, 3.0, 31)
    chi_table = tmp_path / "chi.txt"
    np.savetxt(chi_table, np.column_stack(
        [ray, chi_momentum(ray[:, None] * np.array([1.0, 0.0, 0.0]), 1.0)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = squeezed_concentrated\nrho_table = {rho_table}\n"
                   f"rho_tail_order = 6\nchi_table = {chi_table}\n"
                   "transition = custom\nomega = 1.0\nalpha = 0.5\n"
                   "r = 0.5\nq = 0.3, 0, 0\ndt = 0.1\ntmax = 1\n")
    out = tmp_path / "kernel.csv"
    res = run_cli("kernel", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr

    from scipy.interpolate import CubicSpline
    data = np.loadtxt(chi_table)
    spline = CubicSpline(data[:, 0], data[:, 1:], axis=0)
    chi = SmearingFunction(
        fn=lambda p: spline(np.sqrt(np.sum(p * p, axis=-1))))
    kernel = make_kernel(
        "squeezed_concentrated", density=density_from_table(rho_table, 6.0),
        squeeze=SqueezeParams(r=0.5, q=np.array([0.3, 0.0, 0.0]),
                              d=np.array([0.0, 0.0, 1.0])), chi=chi)
    times = TimeGrid(dt=0.1, n_steps=10).times
    lines = ["t,s,re_S,im_S"]
    for t in times:
        s = times[times <= t]
        for s_j, v in zip(s, kernel.row(float(t), s)):
            lines.append(",".join((_fmt(t), _fmt(s_j),
                                   _fmt(v.real), _fmt(v.imag))))
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("chi_line", [
    "", "chi_table = {three}", "chi_table = {words}", "chi_table = absent.txt",
], ids=["missing", "three-columns", "not-numbers", "absent"])
def test_bad_chi_table_is_config_error(tmp_path, chi_line):
    three, words = tmp_path / "three.txt", tmp_path / "words.txt"
    np.savetxt(three, np.column_stack([np.linspace(0.0, 1.0, 8)] * 3))
    words.write_text("p chi_x chi_y chi_z\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = squeezed_concentrated\ntransition = custom\n"
                   "omega = 1.0\nalpha = 0.5\nr = 0.5\nq = 0.3, 0, 0\n"
                   "dt = 0.1\ntmax = 1\n"
                   + chi_line.format(three=three, words=words) + "\n")
    res = run_cli("kernel", "--config", str(cfg),
                  "--out", str(tmp_path / "kernel.csv"), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "configuration error" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("dt, n_steps, tabulated", [
    (0.01, 4001, True), (0.05, 4001, True), (0.01, 4000, False),
])
def test_long_solves_tabulate_the_kernel(tmp_path, monkeypatch, dt, n_steps,
                                         tabulated):
    # above 4000 steps the solve asks for S0 on a spline over [0, t_max],
    # spaced max(dt, 0.02 / scale); hydrogen at alpha = 0.5 has scale 0.5.
    # The spy's closed-form kernel keeps the test free of quadrature
    asked = []

    def spy(state, **kwargs):
        asked.append(kwargs["tabulate"])
        return KernelEvaluator(None, stationary=True, label="exp",
                               tau_fn=lambda lag: complex(math.exp(-abs(lag))))

    monkeypatch.setattr(qedvolterra.cli, "make_kernel", spy)
    grid = TimeGrid(dt=dt, n_steps=n_steps)
    assert main(["solve", "--alpha", "0.5", "--dt", str(dt),
                 "--tmax", str(grid.t_max),
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert asked == [(grid.t_max, max(dt, 0.02 / 0.5)) if tabulated
                     else None]


def test_readme_key_table_names_every_config_field():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    table = readme.read_text().split("| Key | Meaning (default) |\n", 1)[1]
    names = set()
    for line in table.split("\n\n", 1)[0].splitlines()[1:]:
        names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert names == {f.name for f in fields(RunConfig)}


def test_missing_config_file_is_config_error(tmp_path):
    res = run_cli("solve", "--config", str(tmp_path / "absent.cfg"))
    assert res.returncode == 2


def test_unknown_config_key_is_config_error(tmp_path):
    # the kernel quadrature's tolerances are no configuration keys
    cfg = tmp_path / "run.cfg"
    for key, value in (("alhpa", "0.1"), ("rel_tol", "-1")):
        cfg.write_text(f"{key} = {value}\n")
        res = run_cli("solve", "--config", str(cfg))
        assert res.returncode == 2
        assert f"unknown configuration key {key!r}" in res.stderr


@pytest.mark.parametrize("line", ["dt = abc", "alpha = foo",
                                  "rel_tol = -1", "alpha = 0", "alpha = nan",
                                  "q = 1, abc, 0", "fit_window = 1, 2, 3",
                                  "r = nan", "omega = inf", "tmax = inf",
                                  "r = 1e3", "amplitude = nan",
                                  "q = inf, 0, 0", "fit_window = 0.2, nan",
                                  "fit = abc", "fit = 1", "force = maybe",
                                  pytest.param("alpha = 1" + "0" * 400,
                                               id="alpha = 1e400 as digits")])
def test_bad_config_value_is_config_error(tmp_path, line):
    # a small solvable run but for the one bad value (a later line wins)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 0.5\ndt = 0.1\ntmax = 1\n{line}\n")
    res = run_cli("solve", "--config", str(cfg),
                  "--out", str(tmp_path / "c.csv"))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_numeric_out_names_a_file(tmp_path):
    # a str field keeps its text: `out = 5` writes the file "5"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.5\ndt = 0.1\ntmax = 1\nout = 5\n")
    res = run_cli("solve", "--config", str(cfg), cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "5").read_text().startswith("t,re_c,im_c,abs2_c\n")


def test_binary_config_file_is_config_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"alpha = 0.5\n\xff\xfe\x00\n")
    res = run_cli("solve", "--config", str(cfg), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr


def test_table_with_negative_momenta_is_config_error(tmp_path):
    table = tmp_path / "rho.txt"
    np.savetxt(table, [[-3.0, 1.0], [-2.0, 1.0], [-1.0, 1.0], [0.0, 1.0]])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = custom\nrho_table = {table}\n"
                   "transition = custom\nomega = 1.0\nalpha = 0.01\n")
    res = run_cli("solve", "--config", str(cfg), cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "p >= 0" in res.stderr
    assert "Traceback" not in res.stderr and "Warning" not in res.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("mode, lines", [
    ("rates", "alpha = 0"),
    ("rates", "fit_window = 0.5, 20"),
    ("rates", "# the default window [0.2, 0.9] holds 8 grid points"),
    ("sweep", "sweep_values = 0.3, 0"),
    ("sweep", "sweep_values = abc"),
    ("solve", "state = squeezed_concentrated\nq = 1, 0, 0\nd = 1, 0, 0"),
    ("solve", "state = custom\nrho_table = absent.txt\n"
              "transition = custom\nomega = 1"),
    ("sweep", "sweep_values = 0.3, inf"),
    ("solve", "state = squeezed_concentrated\nr = nan"),
    ("solve", "state = squeezed_concentrated\nr = 0.5\namplitude = nan"),
    ("solve", "state = squeezed_concentrated\nr = 1e3"),
    ("solve", "state = squeezed_general\nr = 0.5"),
    ("kernel", "state = squeezed_general\nr = 0.5"),
    ("rates", "transition = custom\nomega = 1\nalpha = 0"),
    ("kernel", "transition = custom\nomega = 1\nalpha = 0"),
    ("solve", "alpha = 1e200"),
    ("solve", "dt = 1e-300\nforce = true"),
    ("sweep", "state = squeezed_concentrated\nr = 0.5\nq = 0.1, 0, 0\n"
              "sweep_values = 0.5"),
], ids=["rates-alpha-0", "rates-fit-window-outside",
        "rates-fit-window-too-few-points", "sweep-alpha-0",
        "sweep-values-not-numbers", "solve-d-along-q",
        "solve-missing-rho-table", "sweep-alpha-inf", "solve-squeezed-r-nan",
        "solve-squeezed-amplitude-nan", "solve-squeezed-r-overflows",
        "solve-squeezed-general", "kernel-squeezed-general",
        "rates-custom-alpha-0", "kernel-hydrogen-alpha-0",
        "solve-omega-overflows", "solve-grid-overflows", "sweep-squeezed"])
def test_bad_config_is_config_error_in_every_mode(tmp_path, mode, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 0.5\ndt = 0.1\ntmax = 1\n{lines}\n")
    res = run_cli(mode, "--config", str(cfg), "--out", str(tmp_path / "o"),
                  cwd=tmp_path)
    assert res.returncode == 2, res.stderr
    assert "configuration error" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("tmax", ["-1", "0"])
def test_nonpositive_tmax_without_dt_is_config_error(tmp_path, tmax):
    # with no dt there is no tmax > dt check to catch it
    res = run_cli("solve", "--alpha", "0.5", "--tmax", tmax,
                  "--out", str(tmp_path / "c.csv"))
    assert res.returncode == 2
    assert "tmax must be positive" in res.stderr
    assert not (tmp_path / "c.csv").exists()


def test_sweep_matches_one_interval_quadrature(tmp_path, monkeypatch):
    # the lockstep quadrature must leave the sweep CSV byte-identical to the
    # one-interval-at-a-time reference in test_quadrature.py, run one
    # transform piece at a time; the Newton rounds' pieces pass their
    # derivative, the integrand's second component, through the reference
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep_values = 0.3, 0.55, 0.8\n")
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(fast)]) == 0
    ran, pairs = [], []

    def one_at_a_time(f, bounds, quad_cfg):
        out = []
        for i, (a, b) in enumerate(bounds):
            ran.append(i)
            out.append(reference_integrate_finite(
                lambda p, i=i: f(p, np.full(p.shape, i)), a, b, quad_cfg))
            pairs.append(len(out[-1]) == 3)
        return out

    walked = []

    def one_ladder_per_tolerance(g, tols, order, rate, peak):
        walked.extend(tols)
        return [reference_truncation_point(g, tol, decay_order=order,
                                           decay_rate=rate, peak=peak)
                for tol in tols]

    points = []
    transform = qedvolterra.laplace._cauchy_transform

    def counted(rho, ss, *args, **kwargs):
        points.extend(ss)
        return transform(rho, ss, *args, **kwargs)

    monkeypatch.setattr(qedvolterra.laplace, "_cauchy_transform", counted)
    for module in (qedvolterra.quadrature, qedvolterra.laplace):
        monkeypatch.setattr(module, "_integrate_many", one_at_a_time)
    monkeypatch.setattr(qedvolterra.laplace, "_truncation_walk",
                        one_ladder_per_tolerance)
    monkeypatch.setattr(qedvolterra.quadrature, "integrate_finite",
                        reference_integrate_finite)
    assert main(["sweep", "--config", str(cfg), "--out", str(slow)]) == 0
    assert fast.read_bytes() == slow.read_bytes()
    # the slow sweep's transform pieces and ladders went through the
    # references, one ladder tolerance per transform: each alpha's
    # first-sheet point and at least one Newton round of its 8 seeds
    assert len(ran) > 100
    assert len(walked) == len(points) > 3 * (1 + 8)
    assert pairs.count(True) > 100 and not all(pairs)


@pytest.mark.parametrize("alpha, message", [
    ("50", "did not converge"), ("1", "did not converge from any seed"),
    ("0.5", "resolves no decay"), ("2", "did not converge from any seed"),
    ("3", "did not converge from any seed")])
def test_pole_search_failure_exit_code(tmp_path, capsys, alpha, message):
    # omega = 0 puts the branch point at s = 0: the pole search fails as a
    # numerical failure, exit 3, whether no seed converges or a root does
    # not resolve a decay
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"transition = custom\nomega = 0\nsweep_values = {alpha}\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_at_a_tiny_alpha_warns_nothing(tmp_path, capsys):
    # (p / alpha)^2 overflows in the hydrogen density, whose limit is 0.
    # A seed that reaches Re s = 0 no longer stops the search, only itself:
    # the search ends on its root s0 = 0, which resolves no decay
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("transition = custom\nomega = 0\n"
                   "sweep_values = 1.7310555150289214e-291\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 3
    assert "resolves no decay" in capsys.readouterr().err


def test_sweep_of_a_small_and_a_large_alpha(tmp_path):
    # hydrogen at 3e-4 and 0.5 in one sweep: it exited 3 when a seed of
    # one alpha reached Re s = 0 and failed the lockstep search of both.
    # Each row equals that alpha's sweep alone
    rows = []
    for k, values in enumerate(("3e-4, 0.5", "3e-4", "0.5")):
        cfg, out = tmp_path / f"sweep{k}.cfg", tmp_path / f"sweep{k}.csv"
        cfg.write_text(f"sweep_values = {values}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows.append(out.read_text().splitlines())
    assert rows[0] == rows[1] + rows[2][1:]
    assert float(rows[0][1].split(",")[2]) > 0.0


def test_numerical_failure_exit_code(tmp_path):
    # an absurd dt trips the solver's diagonal-weight refusal -> exit 3
    p = np.linspace(0.0, 2.0, 50)
    table = tmp_path / "rho.txt"
    np.savetxt(table, np.column_stack([p, 1e6 * np.exp(-p)]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"state = custom\nrho_table = {table}\n"
                   "rho_tail_order = 4\ntransition = custom\nomega = 0.5\n"
                   "alpha = 1.0\ndt = 1.0\ntmax = 5\n")
    res = run_cli("solve", "--config", str(cfg),
                  "--out", str(tmp_path / "c.csv"))
    assert res.returncode == 3
    assert "dt" in res.stderr
