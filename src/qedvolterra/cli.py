"""Command-line front end: kernel dumps, time-domain solves, rate analysis
and parameter sweeps with deterministic CSV / summary output.

Configuration is a flat ``key = value`` text file; command-line flags
override file values.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .atom import ModelParams, SmearingFunction, hydrogen_chi, \
    transition_frequency
from .kernels import SpectralDensity, SqueezeParams, density_from_table, \
    hydrogen_density, make_kernel
from .laplace import analyze, markov_rate
from .quadrature import QuadratureError
from .units import FINE_STRUCTURE
from .volterra import AmplitudeSeries, SolverError, TimeGrid, solve_ide

_MODES = ("kernel", "solve", "rates", "sweep")
_STATES = ("vacuum", "squeezed_concentrated", "squeezed_general", "custom")
_TRANSITIONS = ("hydrogen_2p1s", "custom")

SUMMARY_KEYS = ("gamma_markov", "gamma_pole", "pole_re", "pole_im",
                "lamb_shift", "residual")

# largest grid a solve may request without --force; physical-alpha hydrogen
# needs ~1e13 steps (decay time 1/gamma ~ alpha^-5 vs kernel memory ~ 1/alpha).
# 2e5 trapezoid steps solve in 0.063 s once their lags are in the kernel's
# memo (closed-form kernel, 2-vCPU Xeon), but tabulating hydrogen's takes
# 13 min: 4 ms per lag on average out to alpha tau = 6600, 0.75 ms up to 40.
_MAX_SOLVE_STEPS = 200_000


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    mode: str = "solve"
    state: str = "vacuum"
    alpha: float = FINE_STRUCTURE
    transition: str = "hydrogen_2p1s"
    omega: Optional[float] = None        # required for transition=custom
    rho_table: Optional[str] = None      # two-column (p, rho) text table
    rho_tail_order: float = 4.0
    chi_table: Optional[str] = None      # four-column (p, chi_x, chi_y, chi_z)
    r: float = 0.0
    q: tuple = (0.0, 0.0, 0.0)
    d: tuple = (0.0, 0.0, 1.0)
    amplitude: float = 1.0
    dt: Optional[float] = None
    tmax: Optional[float] = None
    method: str = "trapezoid"
    fit_window: Optional[tuple] = None   # (t1, t2); default [0.2, 0.9]*tmax
    fit: bool = True
    sweep_axis: str = "alpha"
    sweep_values: tuple = ()
    out: str = "out.csv"
    force: bool = False

    def validate(self):
        if self.mode not in _MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.state not in _STATES:
            raise ConfigError(f"unknown state {self.state!r}")
        if self.transition not in _TRANSITIONS:
            raise ConfigError(f"unknown transition {self.transition!r}")
        if self.method not in ("trapezoid", "gregory4"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.state == "squeezed_general":
            raise ConfigError("squeezed_general needs a pair wavepacket, "
                              "which no configuration key supplies")
        if self.mode in ("rates", "sweep") \
                and self.state.startswith("squeezed"):
            raise ConfigError(f"{self.mode} mode needs a stationary "
                              "(vacuum/custom) state")
        for name in sorted(_FLOAT_FIELDS | _TUPLE_FIELDS):
            val = getattr(self, name)
            vals = val if name in _TUPLE_FIELDS and val is not None \
                else (val,)
            if not all(v is None or math.isfinite(v) for v in vals):
                raise ConfigError(f"{name} must be finite, got {val!r}")
        try:
            squeeze_finite = math.isfinite(math.sinh(self.r)
                                           * math.cosh(self.r))
        except OverflowError:
            squeeze_finite = False
        if not squeeze_finite:
            raise ConfigError(f"r = {self.r:g} is too large: sinh(r) cosh(r) "
                              "overflows")
        alphas = (self.alpha,) + (tuple(self.sweep_values)
                                  if self.mode == "sweep" else ())
        for alpha in alphas:
            if not alpha >= 0.0:
                raise ConfigError(f"alpha must be nonnegative, got {alpha:g}")
            if self.transition == "hydrogen_2p1s" and alpha == 0.0:
                raise ConfigError("alpha must be positive for the "
                                  "hydrogen_2p1s transition")
        analyzed = {"rates": (self.alpha,), "sweep": self.sweep_values}
        if 0.0 in analyzed.get(self.mode, ()):
            raise ConfigError(f"{self.mode} mode needs alpha > 0: alpha = 0 "
                              "has no resonance pole")
        if self.mode == "kernel" and self.alpha == 0.0 \
                and self.state != "custom" and self.rho_table is None:
            raise ConfigError("the hydrogen density needs alpha > 0")
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if self.tmax is not None and self.tmax <= 0.0:
            raise ConfigError("tmax must be positive")
        if self.dt is not None and self.tmax is not None \
                and self.tmax <= self.dt:
            raise ConfigError("tmax must exceed dt")
        if self.transition == "custom" and self.omega is None:
            raise ConfigError("custom transition requires omega")
        if self.state == "custom" and self.rho_table is None:
            raise ConfigError("custom state requires rho_table")
        if self.mode == "sweep" and not self.sweep_values:
            raise ConfigError("sweep mode requires nonempty sweep_values")
        if self.fit_window is not None and len(self.fit_window) != 2:
            raise ConfigError("fit_window needs two comma-separated values")
        if self.mode == "sweep" and self.sweep_axis != "alpha":
            raise ConfigError("only sweep_axis = alpha is supported")
        self.squeeze_params()

    def squeeze_params(self) -> Optional[SqueezeParams]:
        """The squeezed state's (r, q, d); None for a stationary state."""
        if not self.state.startswith("squeezed"):
            return None
        try:
            return SqueezeParams(r=self.r, q=np.asarray(self.q, dtype=float),
                                 d=np.asarray(self.d, dtype=float),
                                 amplitude=self.amplitude)
        except ValueError as exc:
            raise ConfigError(f"squeezed state: {exc}") from None


# the annotations are strings under ``from __future__ import annotations``
_FLOAT_FIELDS = frozenset(f.name for f in fields(RunConfig)
                          if f.type in ("float", "Optional[float]"))
_TUPLE_FIELDS = frozenset(f.name for f in fields(RunConfig)
                          if f.type in ("tuple", "Optional[tuple]"))
# a config file's text is kept as written for these: `out = 5` names file 5
_STR_FIELDS = frozenset(f.name for f in fields(RunConfig)
                        if f.type in ("str", "Optional[str]"))
_BOOL_FIELDS = frozenset(f.name for f in fields(RunConfig)
                         if f.type == "bool")


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


@dataclass
class DecayFit:
    """Least-squares exponential fit of |c(t)|^2 on a window."""

    gamma_fit: float
    intercept: float
    r_squared: float
    window: tuple


_MIN_FIT_POINTS = 10


def _window_mask(t: np.ndarray, t1: float, t2: float) -> np.ndarray:
    """The grid points a fit over [t1, t2] uses."""
    return (t >= t1) & (t <= t2)


def fit_decay(series: AmplitudeSeries, window: tuple) -> DecayFit:
    """Line through (t, log |c|^2); gamma_fit is minus the slope.

    A window outside the series is a ValueError; a |c| of 0 inside it, where
    the logarithm fails, is a :class:`SolverError`.
    """
    t1, t2 = window
    t = series.times
    if t1 < t[0] or t2 > t[-1] or t2 <= t1:
        raise ValueError("fit window must lie inside the solved range")
    mask = _window_mask(t, t1, t2)
    if np.count_nonzero(mask) < _MIN_FIT_POINTS:
        raise ValueError(f"fewer than {_MIN_FIT_POINTS} points in the fit "
                         "window")
    a2 = series.abs2[mask]
    if np.any(a2 <= 0.0):
        raise SolverError("|c| vanishes inside the fit window")
    x = t[mask]
    y = np.log(a2)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 0.0
    return DecayFit(gamma_fit=float(-slope), intercept=float(intercept),
                    r_squared=max(min(r2, 1.0), 0.0), window=(t1, t2))


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _parse_value(raw: str):
    raw = raw.strip()
    low = raw.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        if "," in raw:
            return tuple(float(tok) for tok in raw.split(","))
        return float(raw)
    except ValueError:
        return raw


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a text file ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        values[key] = raw if key in _STR_FIELDS else _parse_value(raw)
    return values


def build_config(file_values: dict, flag_values: dict) -> RunConfig:
    cfg = RunConfig()
    known = set(cfg.__dataclass_fields__)
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    for key, val in merged.items():
        if key not in known:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in _FLOAT_FIELDS:
            if not _is_number(val):
                raise ConfigError(f"{key} must be a number, got {val!r}")
            val = float(val)
        elif key in _TUPLE_FIELDS:
            val = val if isinstance(val, tuple) else (val,)
            if not all(_is_number(v) for v in val):
                raise ConfigError(f"{key} must be comma-separated numbers, "
                                  f"got {merged[key]!r}")
            val = tuple(float(v) for v in val)
        elif key in _STR_FIELDS and not isinstance(val, str):
            raise ConfigError(f"{key} must be text, got {val!r}")
        elif key in _BOOL_FIELDS and not isinstance(val, bool):
            raise ConfigError(f"{key} must be true or false, got {val!r}")
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _load_chi(cfg: RunConfig) -> SmearingFunction:
    if cfg.transition == "hydrogen_2p1s":
        return hydrogen_chi(cfg.alpha)
    if cfg.chi_table is None:
        raise ConfigError("custom transition with a squeezed state "
                          "requires chi_table")
    try:
        data = np.loadtxt(cfg.chi_table)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"chi_table: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 4:
        raise ConfigError("chi_table must have four columns "
                          "(p, chi_x, chi_y, chi_z)")
    from scipy.interpolate import CubicSpline
    try:
        spl = CubicSpline(data[:, 0], data[:, 1:], axis=0)
    except ValueError as exc:
        raise ConfigError(f"chi_table: {exc}") from None

    # table samples chi along the carrier ray; evaluated at |p|
    def fn(p):
        p = np.asarray(p, dtype=float)
        return spl(np.sqrt(np.sum(p * p, axis=-1)))

    return SmearingFunction(fn=fn, label=f"table:{cfg.chi_table}")


def _model(cfg: RunConfig) -> tuple[ModelParams, SpectralDensity]:
    """The run's parameters and density; a bad value or table is a
    configuration error."""
    try:
        omega = transition_frequency(cfg.alpha) \
            if cfg.transition == "hydrogen_2p1s" else float(cfg.omega)
        if not math.isfinite(omega):
            raise ValueError(f"the transition frequency of alpha = "
                             f"{cfg.alpha:g} overflows")
        params = ModelParams(alpha=cfg.alpha, omega=omega)
        if cfg.state == "custom" or cfg.rho_table is not None:
            density = density_from_table(cfg.rho_table, cfg.rho_tail_order,
                                         label=f"table:{cfg.rho_table}")
        else:
            density = hydrogen_density(cfg.alpha)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return params, density


def _default_grid(cfg: RunConfig, params: ModelParams,
                  density: SpectralDensity) -> TimeGrid:
    # resolve both the e^{i omega t} phase and the kernel memory width
    dt = cfg.dt
    if dt is None:
        if not density.scale > 0.0:
            raise ConfigError("the hydrogen density at alpha = 0 sets no "
                              "time step; give dt")
        candidates = [0.05 / density.scale * (2.0 / 3.0)]
        if params.omega > 0.0:
            candidates.append(0.05 / params.omega)
        dt = min(candidates)
    tmax = cfg.tmax
    if tmax is None:
        # the decoupled limit alpha = 0 reads no density value
        gamma = markov_rate(density, params) if params.alpha > 0.0 else 0.0
        tmax = 5.0 / gamma if gamma > 0.0 else 1000.0 * dt
    steps = tmax / dt
    if not (dt > 0.0 and steps < sys.maxsize):
        raise ConfigError(f"dt = {dt:g} and tmax = {tmax:g} give no usable "
                          "time grid")
    return TimeGrid(dt=dt, n_steps=max(int(round(steps)), 1))


def _build_kernel(cfg: RunConfig, params, density, grid: Optional[TimeGrid]):
    tabulate = None
    # the decoupled limit alpha = 0 reads no kernel value
    if grid is not None and grid.n_steps > 4000 and params.alpha > 0.0:
        tabulate = (grid.t_max, max(grid.dt, 0.02 / density.scale))
    squeeze = cfg.squeeze_params()
    chi = _load_chi(cfg) if squeeze is not None else None
    return make_kernel(cfg.state, density=density, squeeze=squeeze, chi=chi,
                       tabulate=tabulate)


def _refuse_oversized(cfg: RunConfig, grid: TimeGrid):
    if grid.n_steps > _MAX_SOLVE_STEPS and not cfg.force:
        raise ConfigError(
            f"solve needs {grid.n_steps} steps (> {_MAX_SOLVE_STEPS}): the "
            "decay time 1/gamma and the kernel resolution dt are separated "
            "by ~1e13 steps at the physical fine-structure constant; pass "
            "--force to insist, or set dt / tmax explicitly")


def _write_series(series: AmplitudeSeries, path: str):
    lines = ["t,re_c,im_c,abs2_c"]
    for t, c in zip(series.times, series.values):
        lines.append(",".join((_fmt(t), _fmt(c.real), _fmt(c.imag),
                               _fmt(abs(c) ** 2))))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_summary(pairs: list[tuple[str, object]], path: str):
    lines = [f"{k} = {_fmt(v) if isinstance(v, float) else v}"
             for k, v in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def _solve(cfg: RunConfig, params, density, grid: TimeGrid) -> AmplitudeSeries:
    kernel = _build_kernel(cfg, params, density, grid)
    return solve_ide(kernel, params, grid, cfg.method)


def _fit_window(cfg: RunConfig, grid: TimeGrid) -> tuple:
    """The fit window, checked against the grid before any solve."""
    if cfg.fit_window is None:
        t1, t2 = 0.2 * grid.t_max, 0.9 * grid.t_max
    else:
        t1, t2 = cfg.fit_window
        if not 0.0 <= t1 < t2 <= grid.t_max:
            raise ConfigError(f"fit_window ({t1:g}, {t2:g}) must lie inside "
                              f"the solved range [0, {grid.t_max:g}]")
    n = np.count_nonzero(_window_mask(grid.times, t1, t2))
    if n < _MIN_FIT_POINTS:
        raise ConfigError(f"fit window ({t1:g}, {t2:g}) holds {n} grid "
                          f"points; the decay fit needs at least "
                          f"{_MIN_FIT_POINTS} (refine dt or widen the window)")
    return t1, t2


def _laplace_summaries(models) -> list[dict]:
    """The Laplace summary values of each (params, density) in ``models``.

    One pole search serves every density with an analytic extension; the
    others keep their Markov rate and get NaN for the pole values.
    """
    searched = [(p, d) for p, d in models if d.analytic_extension is not None]
    found = iter(analyze([d for _, d in searched], [p for p, _ in searched]))
    out = []
    for params, density in models:
        if density.analytic_extension is None:
            out.append({"gamma_markov": markov_rate(density, params),
                        "gamma_pole": math.nan, "pole_re": math.nan,
                        "pole_im": math.nan, "lamb_shift": math.nan,
                        "residual": math.nan})
            continue
        an = next(found)
        out.append({"gamma_markov": an.gamma_markov,
                    "gamma_pole": an.gamma_pole, "pole_re": an.pole.real,
                    "pole_im": an.pole.imag, "lamb_shift": an.lamb_shift,
                    "residual": an.residual})
    return out


def _rates_pairs(cfg: RunConfig, params, density,
                 grid: TimeGrid) -> list[tuple[str, object]]:
    # skip the time-domain fit when the grid would be desk-scale infeasible
    solvable = grid.n_steps <= _MAX_SOLVE_STEPS or cfg.force
    window = _fit_window(cfg, grid) if cfg.fit and solvable else None
    pairs: list[tuple[str, object]] = [("alpha", _fmt(params.alpha)),
                                       ("omega", _fmt(params.omega))]
    lap = _laplace_summaries([(params, density)])[0]
    pairs.extend((k, lap[k]) for k in SUMMARY_KEYS)

    if window is not None:
        series = _solve(cfg, params, density, grid)
        fit = fit_decay(series, window)
        pairs.extend([("gamma_fit", fit.gamma_fit),
                      ("fit_intercept", fit.intercept),
                      ("fit_r_squared", fit.r_squared),
                      ("fit_t1", fit.window[0]), ("fit_t2", fit.window[1])])
    return pairs


def _kernel_lines(cfg: RunConfig, params, density,
                  grid: TimeGrid) -> list[str]:
    # point evaluations only; skip the solver's spline tabulation
    kernel = _build_kernel(cfg, params, density, None)
    # the samples of grid.times[::stride], without building the grid
    n = grid.n_steps + 1
    times = np.arange(0, n, n // 4096 + 1 if n > 4096 else 1) * grid.dt
    if kernel.stationary:
        lines = ["tau,re_S,im_S"]
        for tau, v in zip(times, kernel.tau_values(times)):
            lines.append(",".join((_fmt(tau), _fmt(v.real), _fmt(v.imag))))
    else:
        lines = ["t,s,re_S,im_S"]
        sample = times[::max(len(times) // 64, 1)]
        for t in sample:
            s = sample[sample <= t]
            for s_j, v in zip(s, kernel.row(float(t), s)):
                lines.append(",".join((_fmt(t), _fmt(s_j),
                                       _fmt(v.real), _fmt(v.imag))))
    return lines


def _sweep_rows(cfg: RunConfig) -> list[str]:
    # the `rates` summary of each axis value, in axis order.  Every value's
    # model and grid are checked first; then one pole search runs all their
    # Newton seeds in lockstep, so each quadrature step serves every alpha,
    # and each value's row equals its own `rates` run
    models = []
    for value in cfg.sweep_values:
        sub = replace(cfg, alpha=float(value), mode="rates")
        params, density = _model(sub)
        _default_grid(sub, params, density)
        models.append((params, density))
    return [",".join([_fmt(float(value))]
                     + [_fmt(float(lap[k])) for k in SUMMARY_KEYS])
            for value, lap in zip(cfg.sweep_values,
                                  _laplace_summaries(models))]


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit status."""
    cfg.validate()
    if cfg.mode == "sweep":
        header = "alpha," + ",".join(SUMMARY_KEYS)
        Path(cfg.out).write_text("\n".join([header] + _sweep_rows(cfg))
                                 + "\n")
        return 0
    params, density = _model(cfg)
    grid = _default_grid(cfg, params, density)
    try:
        if cfg.mode == "solve":
            _refuse_oversized(cfg, grid)
            _write_series(_solve(cfg, params, density, grid), cfg.out)
        elif cfg.mode == "kernel":
            Path(cfg.out).write_text(
                "\n".join(_kernel_lines(cfg, params, density, grid)) + "\n")
        else:
            _write_summary(_rates_pairs(cfg, params, density, grid), cfg.out)
    except MemoryError:
        # only arrays the size of the grid can exhaust memory
        raise ConfigError(f"the grid of {grid.n_steps} steps does not fit "
                          "in memory; set dt / tmax for a smaller grid") \
            from None
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qedvolterra",
        description="Spontaneous-emission amplitude dynamics of a two-level "
                    "atom in configurable field states")
    ap.add_argument("mode", choices=_MODES)
    ap.add_argument("--config", help="flat key = value configuration file")
    ap.add_argument("--alpha", type=float)
    ap.add_argument("--dt", type=float)
    ap.add_argument("--tmax", type=float)
    ap.add_argument("--state", choices=_STATES)
    ap.add_argument("--method", choices=("trapezoid", "gregory4"))
    ap.add_argument("--out")
    ap.add_argument("--force", action="store_true", default=None)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        flags = {k: getattr(args, k)
                 for k in ("mode", "alpha", "dt", "tmax", "state", "method",
                           "out", "force")}
        cfg = build_config(file_values, flags)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SolverError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
