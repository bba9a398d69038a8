"""Command-line front end: reproducible time series and diagnostic reports.

Commands: survival, reduced, gkls-compare, pw, potential.  Outputs are CSV
tables or structured-text reports written atomically, with a full parameter
echo in the header and no timestamps, so identical configurations produce
byte-identical files.

Commands compute, main writes: a command computes everything it will write
and returns its files with the quadrature failure that leaves them partial,
or None, and main hands both to one writer.  So the exit codes keep their
promise: 0, every output is written; 2, invalid input, and nothing is
written; 3, a numerical (quadrature) failure, and the partial output is
written with a .failures manifest, of the failed points with their best
estimates and error bounds, next to the table that holds them.

A command's flags are its DEFAULTS keys with '-' for '_' (t_end is
--t-end), plus --out and --config.  Flag precedence: command line >
--config file (JSON) > built-in defaults.  A config value is checked as its
flag would be, before anything is computed: a switch takes true or false, a
choice one of its choices, a number converts as the flag's text does.

main(argv) may be called any number of times in one process: it builds the
parser once, on the first call, and parse_args keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import diagnostics, gkls, oscint, output, pocket, potential
from .expressions import ExpressionError, parse_expression
from .oscint import QuadratureConfig, QuadratureFailure, SeriesFailure
from .spectral import (
    DephasingParams,
    exponential_density,
    lorentzian_density,
    normalize_check,
    table_density,
)

USAGE_ERROR = 2
NUMERICAL_ERROR = 3

_GRID_DEFAULTS = {"t_start": 0.0, "t_end": 10.0, "n_points": 41, "spacing": "linear"}
_TOL_DEFAULTS = {"abs_tol": 1e-9, "rel_tol": 1e-9}

DEFAULTS = {
    "survival": {"gamma": 1.0, "omega0": 0.0, "format": "csv", "density": None,
                 **_GRID_DEFAULTS, **_TOL_DEFAULTS},
    "reduced": {"gamma": 1.0, "omega0": 0.0, "format": "csv", "rho00": 0.5,
                "re_rho01": 0.5, "im_rho01": 0.0, **_GRID_DEFAULTS, **_TOL_DEFAULTS},
    "gkls-compare": {"gamma": 1.0, "omega0": 0.0, "format": "csv", "rho00": 0.5,
                     "re_rho01": 0.5, "im_rho01": 0.0,
                     "t_start": 0.0, "t_end": 20.0, "n_points": 41, "spacing": "linear",
                     **_TOL_DEFAULTS},
    "pw": {"gamma": 1.0, "omega0": 0.0, "rate": 1.0, "amplitude": "dephasing",
           "T_values": "10,31.6,100,316,1000", "w0": 0.5, "fit_window": None,
           "t_start": 0.25, "t_end": 10.0, "n_points": 40, "spacing": "linear",
           **_TOL_DEFAULTS},
    "potential": {"gamma": 1.0, "omega0": 0.0, "potential": "exp", "fd_derivative": False,
                  "t_start": 0.25, "t_end": 10.0, "n_points": 40, "spacing": "linear",
                  **_TOL_DEFAULTS},
}


class UsageError(ValueError):
    pass


def build_time_grid(t_start: float, t_end: float, n_points: int, spacing: str) -> np.ndarray:
    for name, value in (("t_start", t_start), ("t_end", t_end)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value}")
    n = int(n_points)
    if n < 1:
        raise UsageError(f"n_points must be >= 1, got {n_points}")
    if n == 1:
        return np.array([float(t_start)])
    if not t_end > t_start:
        raise UsageError(f"need t_end > t_start for {n} points, got [{t_start}, {t_end}]")
    if spacing == "linear":
        return np.linspace(float(t_start), float(t_end), n)
    if spacing == "log":
        if t_start <= 0:
            raise UsageError("log spacing requires t_start > 0")
        return np.geomspace(float(t_start), float(t_end), n)
    raise UsageError(f"spacing must be 'linear' or 'log', got {spacing!r}")


def _spec_object(spec, what: str) -> dict:
    if not isinstance(spec, dict):
        raise UsageError(f"{what} spec must be a JSON object, got {spec!r}")
    return spec


def _json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _number(value, what: str) -> float:
    # float() takes numbers and numeric strings; JSON null or a list is a usage error
    try:
        return float(value)
    except TypeError:
        raise UsageError(f"{what} must be a number, got {value!r}") from None


def _load_density_spec(spec, params: DephasingParams):
    if spec is None:
        return lorentzian_density(params)
    if isinstance(spec, str):
        text = spec.strip()
        if not text.startswith("{"):
            with open(text, "r") as fh:
                text = fh.read()
        spec = _json(text, "density spec")
    kind = _spec_object(spec, "density").get("kind")
    if kind == "lorentzian":
        p = DephasingParams(_number(spec.get("gamma", params.gamma), "gamma"),
                            _number(spec.get("omega0", params.omega0), "omega0"))
        return lorentzian_density(p)
    if kind == "exponential":
        return exponential_density(_number(spec.get("rate", 1.0), "rate"))
    if kind == "user-table":
        interp = spec.get("interpolation", "linear")
        if interp != "linear":
            raise UsageError(f"user-table interpolation must be 'linear', got {interp!r}")
        knots = spec.get("knots")
        if not (isinstance(knots, list) and knots
                and all(isinstance(k, list) and len(k) == 2 for k in knots)):
            raise UsageError("user-table needs a non-empty 'knots' list of [E, p] pairs")
        support = spec.get("support")
        if not (isinstance(support, list) and len(support) == 2):
            # no automatic tail detection: the support must be declared
            raise UsageError("user-table needs an explicit 'support': [lo, hi]")
        e = [_number(k[0], "knot energy") for k in knots]
        p = [_number(k[1], "knot density") for k in knots]
        d = table_density(e, p, (_number(support[0], "support"), _number(support[1], "support")))
        norm = normalize_check(d)
        if abs(norm - 1.0) > 1e-6:
            raise UsageError(f"user-table density is not normalized: integral = {norm:.9g}")
        return d
    raise UsageError(f"density kind must be lorentzian/exponential/user-table, got {kind!r}")


def _load_potential_spec(spec, fd_derivative: bool) -> potential.MonotonePotential:
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            spec = _json(text, "potential spec")
        elif text.startswith("expr:"):
            spec = {"kind": "user-expression", "expression": text[len("expr:"):]}
        else:
            spec = {"kind": text}
    kind = _spec_object(spec, "potential").get("kind")
    if kind == "ramp":
        return potential.ramp_potential(fd_derivative)
    if kind == "exp":
        return potential.exp_potential(fd_derivative)
    if kind == "user-expression":
        expr = spec.get("expression")
        if not expr:
            raise UsageError("user-expression potential needs an 'expression' string")
        # an expression has no V', so its W' is always the difference
        return potential.induced_map(parse_expression(expr), label=f"expr:{expr}")
    raise UsageError(f"potential kind must be ramp/exp/user-expression, got {kind!r}")


def _series_columns(series) -> list[tuple[str, np.ndarray]]:
    return [
        ("t", series.times),
        ("re", series.values.real),
        ("im", series.values.imag),
        ("abs", np.abs(series.values)),
    ]


def _table(cfg: dict, columns, echo: dict) -> tuple:
    """The file of a table at cfg's out in its format: CSV columns, or a
    structured-text report whose [data] section holds them comma-joined."""
    if cfg["format"] == "csv":
        return cfg["out"], "csv", columns, echo
    entries = [(name, ",".join(output.fmt(v) for v in arr)) for name, arr in columns]
    return cfg["out"], "structured-text", [("data", entries)], echo


def _write(command: str, files, failure) -> int:
    """Write every (path, format, body, echo) of files and return the exit
    code.  A failure, a SeriesFailure or one QuadratureFailure, leaves them
    partial: a .failures manifest of its failed points goes next to the last
    file, the table that holds them, one stderr line names it, and the code
    is 3."""
    for path, fmt, body, echo in files:
        if fmt == "csv":
            output.write_csv(path, body, echo)
        else:
            output.write_report(path, echo, body)
    if failure is None:
        return 0
    failures = failure.failures if isinstance(failure, SeriesFailure) else [failure]
    output.write_report(path + ".failures", echo, [
        (f"failure {i}", [
            ("t", f.t),
            ("estimate_re", complex(f.estimate).real),
            ("estimate_im", complex(f.estimate).imag),
            ("error_bound", f.error_bound),
            ("detail", f.detail),
        ]) for i, f in enumerate(failures)])
    print(f"decaylab {command}: {failure}", file=sys.stderr)
    return NUMERICAL_ERROR


def _echo(cfg: dict, command: str) -> dict:
    return {"command": command, **{key: cfg[key] for key in sorted(cfg)}}


def _merge(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        with open(args.config, "r") as fh:
            loaded = _json(fh.read(), "config file")
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold one JSON object")
        unknown = set(loaded) - set(cfg) - {"out"}
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update({key: _config_value(key, cfg.get(key), val) for key, val in loaded.items()})
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if "out" not in cfg or not cfg["out"]:
        raise UsageError("--out is required (or provide 'out' in the config file)")
    return cfg


def _setup(cfg: dict):
    """The dephasing parameters, time grid and quadrature tolerances of cfg."""
    return (DephasingParams(float(cfg["gamma"]), float(cfg["omega0"])),
            build_time_grid(cfg["t_start"], cfg["t_end"], cfg["n_points"], cfg["spacing"]),
            QuadratureConfig(abs_tol=float(cfg["abs_tol"]), rel_tol=float(cfg["rel_tol"])))


def _partial(series, *args):
    """(series(*args), None), or the partial series of best estimates and
    the SeriesFailure that names its failed points."""
    try:
        return series(*args), None
    except SeriesFailure as exc:
        return exc.series, exc


def _survival_series(cfg: dict):
    """What survival, reduced and gkls-compare share: the parameters, the
    density of cfg's spec (the Lorentzian of the parameters without one),
    and _partial's survival amplitude series on the time grid."""
    params, grid, qcfg = _setup(cfg)
    d = _load_density_spec(cfg.get("density"), params)
    return params, d, *_partial(oscint.amplitude_series, d, grid, qcfg)


# ---------------------------------------------------------------------------
# commands: each computes everything it writes and returns its files, as
# (path, format, body, echo), and the failure that leaves them partial or None


def cmd_survival(cfg: dict):
    _, d, series, failure = _survival_series(cfg)
    echo = {**_echo(cfg, "survival"), "density_label": d.label}
    return [_table(cfg, _series_columns(series), echo)], failure


def _qubit_from_cfg(cfg: dict) -> pocket.QubitState:
    rho00 = float(cfg["rho00"])
    rho01 = complex(float(cfg["re_rho01"]), float(cfg["im_rho01"]))
    return pocket.QubitState(rho00, 1.0 - rho00, rho01)


def cmd_reduced(cfg: dict):
    rho0 = _qubit_from_cfg(cfg)
    _, _, series, failure = _survival_series(cfg)
    states = pocket.dephased_states(rho0, series)
    return [_table(cfg, [
        ("t", series.times),
        ("rho00", np.array([s.rho00 for s in states])),
        ("rho11", np.array([s.rho11 for s in states])),
        ("re_rho01", np.array([s.rho01.real for s in states])),
        ("im_rho01", np.array([s.rho01.imag for s in states])),
        ("sigma_x", np.array([2.0 * s.rho01.real for s in states])),
    ], _echo(cfg, "reduced"))], failure


def cmd_gkls_compare(cfg: dict):
    rho0 = _qubit_from_cfg(cfg)
    params, _, series, failure = _survival_series(cfg)
    echo, columns = _echo(cfg, "gkls-compare"), [("t", series.times)]
    for mode in gkls.CONVENTIONS:
        generator = gkls.generator_from_params(params, mode)
        comp = gkls.compare_series_vs_semigroup(generator, rho0, series)
        echo[f"max_distance_{comp.convention}"] = output.fmt(comp.max_distance)
        columns.append((f"distance_{comp.convention}", comp.distances))
    return [_table(cfg, columns, echo)], failure


def _pw_amplitude(cfg: dict, params: DephasingParams, grid, qcfg: QuadratureConfig):
    """Amplitude callable (or quadrature series) plus the series used for fits."""
    kind = cfg["amplitude"]
    if kind == "global-survival":
        w0 = float(cfg["w0"])
        d = lorentzian_density(params)
        series = oscint.global_survival_series((w0, 1.0 - w0), d, grid, qcfg)
        return series, series
    if kind == "dephasing":
        gamma, om0 = params.gamma, params.omega0
        amp = lambda t: np.exp(-gamma * abs(t) / 2.0) * np.exp(-1j * om0 * t)
    elif kind == "halfline-exp":
        rate = float(cfg["rate"])
        if not 0 < rate < math.inf:
            raise UsageError(f"rate must be finite and positive, got {rate}")
        amp = lambda t: rate / complex(rate, t)
    else:  # "constant"
        amp = lambda t: 1.0 + 0.0j
    return amp, oscint.ComplexTimeSeries(grid, np.array([amp(t) for t in grid]))


def cmd_pw(cfg: dict):
    params, grid, qcfg = _setup(cfg)
    Ts = [float(tok) for tok in str(cfg["T_values"]).split(",") if tok.strip()]
    T = max(Ts, default=0.0)
    # the sweep needs the series on [0, T]; global_survival names a bad w0 first
    if cfg["amplitude"] == "global-survival" and 0 <= float(cfg["w0"]) <= 1 and (
            grid[0] > 1e-12 or grid[-1] < T - 1e-12):
        raise UsageError(f"the global-survival sweep needs --t-start 0 and --t-end {T:g}")
    echo = _echo(cfg, "pw")
    # no report without the series and its sweep: a failure of either leaves
    # the series' values as a table
    try:
        amplitude, series = _pw_amplitude(cfg, params, grid, qcfg)
        fit_window = cfg.get("fit_window")
        if fit_window:
            lo, hi = (float(x) for x in str(fit_window).split(","))
        else:
            lo, hi = float(series.times[0]), float(series.times[-1])
        growth = diagnostics.fit_pw_growth(amplitude, Ts, qcfg)
    except SeriesFailure as exc:
        return [(cfg["out"], "csv", _series_columns(exc.series), echo)], exc
    except QuadratureFailure as exc:
        return [(cfg["out"], "csv", _series_columns(series), echo)], exc
    fit = diagnostics.exponential_fit(series, (lo, hi))
    sections = [
        ("pw", [(f"T={output.fmt(T)}", v) for T, v in growth.pw_values]),
        ("classification", [
            ("class", growth.growth_class),
            ("c0", growth.c0),
            ("c1", growth.c1),
            ("rel_residual", growth.rel_residual),
        ]),
        ("fit", [
            ("window", f"{output.fmt(lo)},{output.fmt(hi)}"),
            ("rate", fit.rate),
            ("amplitude", fit.amplitude),
            ("residual", fit.residual),
        ]),
        ("longtime", [("abs_amplitude", float(abs(series.values[-1])))]),
    ]
    return [(cfg["out"], "structured-text", sections, echo)], None


def cmd_potential(cfg: dict):
    params, grid, qcfg = _setup(cfg)
    # a grid too short for the exponential fit of the factor is a usage error
    # before anything is computed
    if grid.size < diagnostics.MIN_FIT_SAMPLES:
        raise UsageError(f"n_points must be >= {diagnostics.MIN_FIT_SAMPLES} for the factor's "
                         f"exponential fit, got {cfg['n_points']}")
    pot = _load_potential_spec(cfg["potential"], bool(cfg["fd_derivative"]))
    echo = {**_echo(cfg, "potential"), "potential_label": pot.label}
    state = potential.build_initial_state(pot, params)
    prefix = cfg["out"]

    # density profile over the bulk of the transported distribution, and the
    # inverse round trip on [-20, 20]: the profile's ends and W(xr) are one
    # W_inverse call, elementwise
    half = params.gamma / 2.0
    e_lo = params.omega0 + half * math.tan(math.pi * (0.005 - 0.5))
    e_hi = params.omega0 + half * math.tan(math.pi * (0.995 - 0.5))
    xr = np.linspace(-20.0, 20.0, 401)
    inverses = pot.W_inverse(np.concatenate(([e_lo, e_hi], pot.W(xr))))
    xs = np.linspace(*inverses[:2].tolist(), 401)
    dens = state.density.density(xs)
    resid = np.abs(inverses[2:] - xr)

    series, failure = _partial(potential.generalized_factor_series, pot, params, grid, qcfg,
                               state)
    fit = diagnostics.exponential_fit(series, (float(grid[0]), float(grid[-1])))
    fit_echo = {**echo, **{f"fit_{key}": output.fmt(v) for key, v in fit._asdict().items()}}
    return [
        (prefix + "_density.csv", "csv", [("x", xs), ("density", dens)], echo),
        (prefix + "_roundtrip.csv", "csv", [("x", xr), ("roundtrip_residual", resid)], echo),
        (prefix + "_factor.csv", "csv", _series_columns(series), fit_echo),
    ], failure


# ---------------------------------------------------------------------------
# argument parsing


_CHOICES = {
    "spacing": ("linear", "log"),
    "format": ("csv", "structured-text"),
    "amplitude": ("dephasing", "halfline-exp", "constant", "global-survival"),
}

_HELP = {
    "survival": "survival amplitude a(t) of a spectral density",
    "reduced": "exact reduced qubit state under dephasing",
    "gkls-compare": "exact dynamics vs semigroup, both conventions",
    "pw": "Paley-Wiener sweep, growth class, exponential fit",
    "potential": "generalized potential: state, round trip, factor",
    "--density": "density spec: JSON object or path to a JSON file",
    "--potential": "ramp | exp | expr:<expression> | JSON spec",
}


def _flag_kind(key: str, default) -> dict:
    """argparse keywords of the flag of a config key: a bool default is an
    on-switch, a key in _CHOICES takes one of them, an int or float default
    converts with its type, anything else is taken as given."""
    if isinstance(default, bool):
        return {"action": "store_const", "const": True}
    if key in _CHOICES:
        return {"choices": _CHOICES[key]}
    if isinstance(default, (int, float)):
        return {"type": type(default)}
    return {}


def _config_value(key: str, default, value):
    """A config-file value checked by the rule of its flag (_flag_kind): a
    switch must be a JSON true/false, a number converts as its text would."""
    kind = _flag_kind(key, default)
    if "const" in kind and not isinstance(value, bool):
        raise UsageError(f"config key {key} must be true or false, got {value!r}")
    if "choices" in kind and value not in kind["choices"]:
        raise UsageError(f"config key {key} must be one of {list(kind['choices'])}, "
                         f"got {value!r}")
    if "type" in kind:
        try:
            return kind["type"](str(value))
        except ValueError:
            raise UsageError(f"config key {key}: invalid {kind['type'].__name__} "
                             f"value: {value!r}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per DEFAULTS entry, one flag per config key (plus
    --out and --config): --key with '-' for '_', its kind from _flag_kind.
    Unset flags parse to None."""
    parser = argparse.ArgumentParser(
        prog="decaylab",
        description="Reproducible decay-law numerics: survival amplitudes, reduced "
                    "dephasing dynamics, semigroup comparison, and Paley-Wiener reports.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, defaults in DEFAULTS.items():
        sub = subs.add_parser(command, help=_HELP[command])
        for key, default in {**defaults, "out": None, "config": None}.items():
            flag = "--" + key.replace("_", "-")
            sub.add_argument(flag, dest=key, help=_HELP.get(flag), **_flag_kind(key, default))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call: every flag defaults to
    None and parse_args returns a fresh namespace, so one serves all calls."""
    return build_parser()


_COMMANDS = {
    "survival": cmd_survival,
    "reduced": cmd_reduced,
    "gkls-compare": cmd_gkls_compare,
    "pw": cmd_pw,
    "potential": cmd_potential,
}


# a negative number in any spelling; argparse before Python 3.13 reads one in
# scientific notation ("-4.46e-05") as an option string
_NEGATIVE_NUMBER = re.compile(r"-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _attach_negative_numbers(argv):
    """argv with each negative number that follows an --option written as
    --option=value, the form argparse accepts for every spelling."""
    joined = []
    for arg in argv:
        if (joined and joined[-1].startswith("--") and "=" not in joined[-1]
                and _NEGATIVE_NUMBER.fullmatch(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_negative_numbers(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _merge(args.command, args)
        return _write(args.command, *_COMMANDS[args.command](cfg))
    except (UsageError, ExpressionError, potential.MonotonicityError,
            potential.RangeError, ValueError, OverflowError, OSError) as exc:
        print(f"decaylab {args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
