import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from decaylab import cli
from decaylab.oscint import ComplexTimeSeries, QuadratureFailure, SeriesFailure
from decaylab.output import read_csv


def run(*argv):
    return cli.main(list(argv))


def test_survival_row_at_t2(tmp_path):
    out = tmp_path / "a.csv"
    code = run("survival", "--gamma", "1", "--omega0", "0",
               "--t-start", "0", "--t-end", "10", "--n-points", "11",
               "--out", str(out))
    assert code == 0
    params, names, cols = read_csv(str(out))
    assert names == ["t", "re", "im", "abs"]
    assert params["command"] == "survival"
    i = list(cols["t"]).index(2.0)
    assert cols["abs"][i] == pytest.approx(math.exp(-1.0), abs=1e-7)
    assert cols["abs"][i] == pytest.approx(0.3678794, abs=1e-6)


def test_survival_single_point_grid(tmp_path):
    out = tmp_path / "one.csv"
    assert run("survival", "--t-start", "0", "--t-end", "0", "--n-points", "1",
               "--out", str(out)) == 0
    _, _, cols = read_csv(str(out))
    assert cols["t"].tolist() == [0.0]
    assert cols["abs"][0] == pytest.approx(1.0, abs=1e-9)


def test_survival_malformed_density_exits_2(tmp_path):
    out = tmp_path / "x.csv"
    code = run("survival", "--density", '{"kind": "nope"}', "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_survival_unnormalized_table_rejected(tmp_path):
    out = tmp_path / "x.csv"
    spec = json.dumps({"kind": "user-table", "knots": [[0.0, 1.0], [2.0, 1.0]],
                       "support": [0.0, 2.0],
                       "interpolation": "linear"})  # integrates to 2
    code = run("survival", "--density", spec, "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_survival_user_table_requires_support(tmp_path):
    out = tmp_path / "x.csv"
    spec = json.dumps({"kind": "user-table", "knots": [[0.0, 1.0], [2.0, 0.0]],
                       "interpolation": "linear"})
    assert run("survival", "--density", spec, "--out", str(out)) == 2
    assert not out.exists()


def test_survival_user_table_normalized(tmp_path):
    out = tmp_path / "tbl.csv"
    spec = json.dumps({"kind": "user-table", "support": [-1.0, 1.0],
                       "knots": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],
                       "interpolation": "linear"})
    assert run("survival", "--density", spec, "--t-start", "0", "--t-end", "2",
               "--n-points", "3", "--out", str(out)) == 0
    _, _, cols = read_csv(str(out))
    assert cols["abs"][2] == pytest.approx(2.0 * (1.0 - math.cos(2.0)) / 4.0, abs=1e-12)


def test_survival_exponential_density(tmp_path):
    out = tmp_path / "e.csv"
    assert run("survival", "--density", '{"kind": "exponential", "rate": 1.0}',
               "--t-start", "0", "--t-end", "2", "--n-points", "3",
               "--out", str(out)) == 0
    _, _, cols = read_csv(str(out))
    assert cols["abs"][1] == pytest.approx(abs(1.0 / (1.0 + 1.0j)), abs=1e-9)


def test_reduced_rows_and_header(tmp_path):
    out = tmp_path / "r.csv"
    assert run("reduced", "--gamma", "1", "--omega0", "0",
               "--t-start", "0", "--t-end", "4", "--n-points", "3",
               "--out", str(out)) == 0
    params, names, cols = read_csv(str(out))
    assert names == ["t", "rho00", "rho11", "re_rho01", "im_rho01", "sigma_x"]
    assert params["gamma"] == "1.0"  # header echoes every parameter
    assert cols["sigma_x"][0] == 1.0  # t = 0 reproduces the input state
    assert cols["re_rho01"][0] == 0.5
    i = list(cols["t"]).index(2.0)
    assert cols["sigma_x"][i] == pytest.approx(0.3678794, abs=1e-6)
    assert np.all(cols["rho00"] == 0.5)


def test_reduced_psd_violation_exits_2(tmp_path):
    out = tmp_path / "bad.csv"
    code = run("reduced", "--rho00", "0.7", "--re-rho01", "0.5", "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_gkls_compare_summary(tmp_path):
    out = tmp_path / "g.csv"
    assert run("gkls-compare", "--gamma", "1", "--omega0", "0",
               "--t-start", "0", "--t-end", "2", "--n-points", "3",
               "--out", str(out)) == 0
    params, names, cols = read_csv(str(out))
    assert names == ["t", "distance_matched", "distance_literal"]
    assert float(params["max_distance_matched"]) <= 1e-6
    assert cols["distance_matched"][0] == 0.0
    assert cols["distance_literal"][0] == 0.0
    i = list(cols["t"]).index(1.0)
    assert cols["distance_literal"][i] == pytest.approx(0.2356, abs=1e-4)


def test_gkls_compare_computes_one_series(tmp_path, monkeypatch):
    calls = []
    real = cli.oscint.amplitude_series

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.oscint, "amplitude_series", counting)
    for n in ("3", "5"):
        assert run("gkls-compare", "--t-start", "0", "--t-end", "2", "--n-points", n,
                   "--out", str(tmp_path / f"g{n}.csv")) == 0
    assert len(calls) == 2


def test_pw_dephasing_report(tmp_path):
    out = tmp_path / "pw.txt"
    assert run("pw", "--amplitude", "dephasing", "--gamma", "1", "--out", str(out)) == 0
    text = out.read_text()
    assert "class = logarithmic-divergent" in text
    assert "rate = 0.5" in text
    # truncated integral at T=1000: (1/2) ln(1+T^2)
    assert "6.9077557789818" in text


def test_pw_constant_bounded(tmp_path):
    out = tmp_path / "pwc.txt"
    assert run("pw", "--amplitude", "constant", "--T-values", "1,10,100,1000",
               "--out", str(out)) == 0
    text = out.read_text()
    assert "class = bounded" in text


def test_pw_halfline_exp_bounded(tmp_path):
    out = tmp_path / "pwe.txt"
    assert run("pw", "--amplitude", "halfline-exp", "--rate", "1",
               "--out", str(out)) == 0
    text = out.read_text()
    assert "class = bounded" in text
    # sweep approaches pi ln 2 = 2.1776 from below
    assert "T=1000 = 2.161770584" in text


def test_potential_ramp_matches_reduced_factor(tmp_path):
    prefix = tmp_path / "ramp"
    assert run("potential", "--potential", "ramp", "--gamma", "1",
               "--t-start", "0.5", "--t-end", "4", "--n-points", "8",
               "--out", str(prefix)) == 0
    _, _, fac = read_csv(str(prefix) + "_factor.csv")
    for t, a in zip(fac["t"], fac["abs"]):
        assert a == pytest.approx(math.exp(-t / 2.0), abs=2e-9)


def test_potential_exp_outputs(tmp_path):
    prefix = tmp_path / "pexp"
    assert run("potential", "--potential", "exp", "--gamma", "1", "--out", str(prefix)) == 0
    fit_params, _, _ = read_csv(str(prefix) + "_factor.csv")
    assert float(fit_params["fit_rate"]) == pytest.approx(0.5, abs=1e-5)
    assert float(fit_params["fit_residual"]) < 1e-6
    _, _, dens = read_csv(str(prefix) + "_density.csv")
    i = int(np.argmin(np.abs(dens["x"])))
    assert dens["density"][i] == pytest.approx(4.0 / math.pi, abs=1e-3)
    _, _, rt = read_csv(str(prefix) + "_roundtrip.csv")
    assert rt["roundtrip_residual"].max() <= 1e-9



def test_potential_job_makes_two_inverse_calls_outside_the_engine(tmp_path, monkeypatch):
    # one for the state's centre and feature points, one for the density
    # profile's ends and the round trip together; the factor series makes
    # its own
    outside, inside = [], []
    load, series = cli._load_potential_spec, cli.potential.generalized_factor_series

    def spied(spec, fd_derivative):
        pot = load(spec, fd_derivative)

        def W_inverse(y):
            (inside if inside else outside).append(np.shape(y))
            return pot.W_inverse(y)

        return dataclasses.replace(pot, W_inverse=W_inverse)

    def factor_series(*args):
        inside.append("series")
        try:
            return series(*args)
        finally:
            inside.clear()

    monkeypatch.setattr(cli, "_load_potential_spec", spied)
    monkeypatch.setattr(cli.potential, "generalized_factor_series", factor_series)
    assert run("potential", "--potential", "exp", "--n-points", "8",
               "--out", str(tmp_path / "p")) == 0
    assert len(outside) == 2
    assert outside[1] == (2 + 401,)


def test_potential_bounded_exits_2(tmp_path):
    prefix = tmp_path / "bnd"
    code = run("potential", "--potential", "expr:2 - 1/(1+exp(x))", "--out", str(prefix))
    assert code == 2


@pytest.mark.parametrize("expression", ["x+31", "exp(x)-exp(-40)"])
def test_potential_unbounded_below_exits_2_and_writes_nothing(tmp_path, expression):
    # non-negative on the check grid only: V(-inf) < 0
    out = tmp_path / "out"
    out.mkdir()
    assert run("potential", "--potential", f"expr:{expression}", "--out", str(out / "p")) == 2
    assert list(out.iterdir()) == []


def test_potential_non_monotone_exits_2(tmp_path):
    prefix = tmp_path / "osc"
    code = run("potential", "--potential", "expr:2 + 0.5*sinh(x) - x", "--out", str(prefix))
    assert code == 2


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 2.0, "t_start": 0.0, "t_end": 2.0,
                               "n_points": 3, "out": str(tmp_path / "c1.csv")}))
    # config supplies everything
    assert run("survival", "--config", str(cfg)) == 0
    _, _, cols = read_csv(str(tmp_path / "c1.csv"))
    assert cols["abs"][1] == pytest.approx(math.exp(-1.0), abs=1e-7)  # gamma=2, t=1
    # explicit flag overrides the config value
    assert run("survival", "--config", str(cfg), "--gamma", "1",
               "--out", str(tmp_path / "c2.csv")) == 0
    _, _, cols = read_csv(str(tmp_path / "c2.csv"))
    assert cols["abs"][1] == pytest.approx(math.exp(-0.5), abs=1e-7)


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamm": 2.0, "out": "x.csv"}))
    assert run("survival", "--config", str(cfg)) == 2


def test_missing_out_rejected():
    assert run("survival", "--gamma", "1") == 2


def test_byte_reproducibility(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["survival", "--gamma", "1.5", "--omega0", "0.5",
            "--t-start", "0", "--t-end", "5", "--n-points", "21"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")


def test_csv_round_trip_17_digits(tmp_path):
    out = tmp_path / "rt.csv"
    assert run("survival", "--gamma", "1", "--t-start", "0", "--t-end", "7",
               "--n-points", "15", "--out", str(out)) == 0
    _, _, cols = read_csv(str(out))
    from decaylab import (DephasingParams, QuadratureConfig, amplitude_series,
                          lorentzian_density)
    series = amplitude_series(lorentzian_density(DephasingParams(1.0, 0.0)),
                              np.linspace(0, 7, 15), QuadratureConfig())
    # full double-precision round trip through the text format
    assert np.array_equal(cols["re"], series.values.real)
    assert np.array_equal(cols["im"], series.values.imag)



def test_csv_rows_are_each_value_formatted_by_fmt(tmp_path):
    # one "%.17g" pattern a row gives fmt's bytes, for the special values too
    from decaylab.output import fmt, write_csv
    a = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0, 1e22])
    b = np.arange(a.size) * -1.5e-300
    out = tmp_path / "fmt.csv"
    write_csv(str(out), [("a", a), ("b", b)], {"k": 1})
    rows = out.read_text().splitlines()[2:]
    assert rows == [f"{fmt(x)},{fmt(y)}" for x, y in zip(a, b)]


def test_structured_text_format(tmp_path):
    out = tmp_path / "s.txt"
    assert run("survival", "--format", "structured-text", "--t-start", "0",
               "--t-end", "2", "--n-points", "3", "--out", str(out)) == 0
    text = out.read_text()
    assert "[data]" in text and "t = 0,1,2" in text


# command -> (module, series function the command calls, position of its
# time grid, extra flags, file of the partial table for --out f.csv)
SERIES_JOBS = {
    "survival": (cli.oscint, "amplitude_series", 1, (), "f.csv"),
    "reduced": (cli.oscint, "amplitude_series", 1, (), "f.csv"),
    "gkls-compare": (cli.oscint, "amplitude_series", 1, (), "f.csv"),
    # the factor's exponential fit needs at least 8 points
    "potential": (cli.potential, "generalized_factor_series", 2, ("--n-points", "8"),
                  "f.csv_factor.csv"),
    # a sweep within the grid [0, 2]
    "pw": (cli.oscint, "global_survival_series", 2,
           ("--amplitude", "global-survival", "--T-values", "0.02,0.2,1,2"), "f.csv"),
}


@pytest.mark.parametrize("command", list(SERIES_JOBS))
def test_numerical_failure_writes_partial_and_manifest(tmp_path, monkeypatch, capsys, command):
    module, name, grid_arg, flags, written = SERIES_JOBS[command]
    out = tmp_path / written

    def fake_series(*args):
        t = np.asarray(list(args[grid_arg]), dtype=float)
        series = ComplexTimeSeries(t, np.ones(t.shape, dtype=complex))
        raise SeriesFailure(series, [QuadratureFailure("stub", 0.5 + 0.0j, 1e-3, t=float(t[-1]))])

    monkeypatch.setattr(module, name, fake_series)
    code = run(command, "--t-start", "0", "--t-end", "2", "--n-points", "3",
               "--out", str(tmp_path / "f.csv"), *flags)
    assert code == 3
    assert out.exists()
    manifest = (str(out) + ".failures")
    text = open(manifest).read()
    assert "error_bound" in text and "stub" in text
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"decaylab {command}: ")


@pytest.mark.parametrize("grid", [(), ("--t-start", "0")], ids=["defaults", "t-start-0"])
def test_global_survival_grid_short_of_the_sweep_fails_before_computing(
        tmp_path, monkeypatch, capsys, grid):
    # the sweep integrates the series over [0, 1000], the largest default T:
    # the command's default grid, [0.25, 10], and [0, 10] are usage errors
    # that name both flags, and no series is computed
    calls = []
    monkeypatch.setattr(cli.oscint, "global_survival_series", lambda *args: calls.append(args))
    assert run("pw", "--amplitude", "global-survival", *grid,
               "--out", str(tmp_path / "pw.txt")) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert "--t-start 0" in line and "--t-end 1000" in line
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_failed_pw_sweep_writes_its_series_and_manifest(tmp_path, capsys):
    # at 1e-15 the sweep's first increment, over [0, 10], cannot converge:
    # no report, but the series as a table and a manifest naming that T
    out = tmp_path / "pw.csv"
    assert run("pw", "--amplitude", "dephasing", "--gamma", "10", "--abs-tol", "1e-15",
               "--rel-tol", "1e-15", "--out", str(out)) == 3
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pw.csv", "pw.csv.failures"]
    _, names, cols = read_csv(str(out))
    assert names == ["t", "re", "im", "abs"]
    assert np.allclose(cols["abs"], np.exp(-5.0 * cols["t"]), rtol=1e-15, atol=0.0)
    lines = (tmp_path / "pw.csv.failures").read_text().splitlines()
    entry = dict(line.split(" = ", 1) for line in lines[lines.index("[failure 0]") + 1:] if line)
    assert entry["t"] == "10"
    assert entry["detail"] == "Paley-Wiener sweep increment did not converge"
    # the estimate of int_0^10 5t/(1+t^2) dt, within its bound
    bound = float(entry["error_bound"])
    assert 0.0 < bound <= 1e-12
    assert abs(float(entry["estimate_re"]) - 2.5 * math.log(101.0)) <= max(bound, 1e-14)
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("decaylab pw: ")


def test_argparse_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as e:
        run("survival", "--spacing", "cubic", "--out", "x.csv")
    assert e.value.code == 2


@pytest.mark.parametrize("spaced,joined", [
    (["survival", "--omega0", "-4.46e-05"], ["survival", "--omega0=-4.46e-05"]),
    (["reduced", "--re-rho01", "-1e-1", "--im-rho01", "-1.5E-1", "--t-start", "-2e0"],
     ["reduced", "--re-rho01=-1e-1", "--im-rho01=-1.5E-1", "--t-start=-2e0"]),
], ids=["survival", "reduced"])
def test_negative_scientific_values_parse(tmp_path, spaced, joined):
    # argparse alone reads "-4.46e-05" as an option and exits 2
    outputs = []
    for argv in (spaced, joined):
        out = tmp_path / f"{len(argv)}.csv"
        assert run(*argv, "--t-end", "2", "--n-points", "3", "--out", str(out)) == 0
        outputs.append(out.read_text().replace(str(out), "<out>"))
    assert outputs[0] == outputs[1]


def test_log_spacing_grid(tmp_path):
    out = tmp_path / "log.csv"
    assert run("survival", "--t-start", "0.1", "--t-end", "10", "--n-points", "5",
               "--spacing", "log", "--out", str(out)) == 0
    _, _, cols = read_csv(str(out))
    assert cols["t"][0] == pytest.approx(0.1)
    ratios = cols["t"][1:] / cols["t"][:-1]
    assert np.allclose(ratios, ratios[0])
    assert run("survival", "--t-start", "0", "--t-end", "1", "--spacing", "log",
               "--out", str(out)) == 2


_FLAG_CASES = [(command, key) for command, defaults in cli.DEFAULTS.items()
               for key in defaults]


@pytest.mark.parametrize("command,key", _FLAG_CASES,
                         ids=[f"{c}-{k}" for c, k in _FLAG_CASES])
def test_every_config_key_is_a_flag(command, key):
    # --key with '-' for '_' reaches the merged config with the default's type
    default = cli.DEFAULTS[command][key]
    flag = "--" + key.replace("_", "-")
    if isinstance(default, bool):
        given, want = [flag], True
    elif key in cli._CHOICES:
        given = [flag, cli._CHOICES[key][-1]]
        want = cli._CHOICES[key][-1]
    elif isinstance(default, int):
        given, want = [flag, "7"], 7
    elif isinstance(default, float):
        given, want = [flag, "2.5"], 2.5
    else:
        given, want = [flag, "a,b"], "a,b"
    args = cli.build_parser().parse_args([command, *given, "--out", "x.csv"])
    cfg = cli._merge(command, args)
    assert cfg[key] == want
    assert type(cfg[key]) is (str if default is None else type(default))
    assert cfg["out"] == "x.csv"


_LORENTZIAN_SPEC = json.dumps({"kind": "lorentzian", "gamma": 2.0, "omega0": 0.5})
_TIMES = ("--t-start", "0", "--t-end", "2", "--n-points", "5")

# (argv, where {file} is a JSON file holding an exponential density of rate 2,
# the file that --out prefixes, exit code, header items, closed form of a(t))
CLI_PATHS = {
    "potential-fd-derivative": (
        ("potential", "--potential", "exp", "--fd-derivative", "--n-points", "8"),
        "_factor.csv", 0, {"potential_label": "exp+fd"}, lambda t: np.exp(-t / 2.0)),
    "lorentzian-spec-overrides-flags": (
        ("survival", "--gamma", "1", "--omega0", "0", "--density", _LORENTZIAN_SPEC, *_TIMES),
        "", 0, {"density_label": "lorentzian(gamma=2, omega0=0.5)"},
        lambda t: np.exp(-t - 0.5j * t)),
    "density-json-file": (
        ("survival", "--density", "{file}", *_TIMES),
        "", 0, {"density_label": "exponential(rate=2)"}, lambda t: 2.0 / (2.0 + 1j * t)),
    "malformed-density-json": (
        ("survival", "--density", '{"kind": "lorentzian",', *_TIMES), "", 2, None, None),
    "unknown-potential-kind": (
        ("potential", "--potential", '{"kind": "cubic"}'), "_factor.csv", 2, None, None),
}


@pytest.mark.parametrize("case", list(CLI_PATHS))
def test_density_and_potential_spec_paths(tmp_path, case):
    argv, suffix, code, header, closed_form = CLI_PATHS[case]
    spec_file = tmp_path / "density.json"
    spec_file.write_text(json.dumps({"kind": "exponential", "rate": 2.0}))
    argv = [str(spec_file) if arg == "{file}" else arg for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == code
    written = tmp_path / ("out.csv" + suffix)
    if code:
        assert not written.exists()
        return
    params, _, cols = read_csv(str(written))
    assert {key: params[key] for key in header} == header
    got = cols["re"] + 1j * cols["im"]
    assert np.max(np.abs(got - closed_form(cols["t"]))) <= 1e-8


@pytest.fixture
def fresh_parser():
    """main's cached parser cleared before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(tmp_path, monkeypatch, fresh_parser):
    builds, build = [], cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    for i in range(3):
        assert run("survival", "--t-end", "2", "--n-points", "3",
                   "--out", str(tmp_path / f"{i}.csv")) == 0
    assert run("pw", "--n-points", "8", "--out", str(tmp_path / "pw.txt")) == 0
    assert len(builds) == 1


def _exit_code(*argv):
    try:
        return run(*argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


# (first job, its exit code, a later job that must not see the first's flags,
# the file the later job writes for --out f.csv)
SHARED_PARSER_JOBS = {
    "fd-derivative-then-analytic": (
        ("potential", "--fd-derivative", "--n-points", "8"), 0,
        ("potential", "--n-points", "8"), "f.csv_factor.csv"),
    "negative-omega0-then-default": (
        ("survival", "--omega0", "-4.46e-05", "--t-end", "2", "--n-points", "3"), 0,
        ("survival", "--t-end", "2", "--n-points", "3"), "f.csv"),
    "argparse-rejection-then-valid": (
        ("survival", "--spacing", "cubic"), 2,
        ("survival", "--spacing", "log", "--t-start", "0.5", "--t-end", "2", "--n-points", "3"),
        "f.csv"),
}


@pytest.mark.parametrize("case", list(SHARED_PARSER_JOBS))
def test_shared_parser_keeps_no_state_between_calls(tmp_path, fresh_parser, case):
    first, code, later, written = SHARED_PARSER_JOBS[case]
    out = str(tmp_path / "f.csv")

    def outputs(*argv):
        for path in tmp_path.iterdir():
            path.unlink()
        assert _exit_code(*argv, "--out", out) == 0
        return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    assert _exit_code(*first, "--out", out) == code
    after_first = outputs(*later)
    cli._parser.cache_clear()
    assert after_first == outputs(*later)
    params, _, _ = read_csv(str(tmp_path / written))
    assert params["omega0"] == "0.0"
    assert not params.get("potential_label", "").endswith("+fd")


@pytest.mark.parametrize("command,config", [
    ("survival", {"format": "xml", "n_points": 401}),
    ("potential", {"fd_derivative": "false"}),
    ("survival", []),
], ids=["format-choice", "switch-not-bool", "not-an-object"])
def test_invalid_config_value_exits_2_before_computing(tmp_path, monkeypatch, command,
                                                       config):
    started, cmd = [], cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: started.append(1) or cmd(cfg))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(command, "--config", str(cfg), "--out", str(tmp_path / "f.csv")) == 2
    assert not started
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


def test_config_values_convert_like_flags(tmp_path):
    out = tmp_path / "f.csv"
    assert run("survival", "--gamma", "1", "--n-points", "3", "--out", str(out)) == 0
    by_flags = out.read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 1, "n_points": 3}))
    assert run("survival", "--config", str(cfg), "--out", str(out)) == 0
    assert out.read_bytes() == by_flags


_TABLE_BAD_KNOT = json.dumps({"kind": "user-table", "support": [0.0, 1.0], "knots": [[0.0]]})
_TABLE_NULL_KNOT = json.dumps({"kind": "user-table", "support": [0.0, 1.0],
                               "knots": [[None, 1.0], [1.0, 1.0]]})

# argv of a malformed input; a dict stands for a config file holding it, and
# {file} for a density spec file holding [1, 2]
MALFORMED_INPUTS = {
    "max-of-one-argument": ("potential", "--potential", "expr:max(x)"),
    "exp-of-no-argument": ("potential", "--potential", "expr:exp()"),
    "exp-of-two-arguments": ("potential", "--potential", "expr:exp(x,1)"),
    "complex-power": ("potential", "--potential", "expr:x^0.5"),
    "pole-at-zero": ("potential", "--potential", "expr:1/x"),
    # real on the check grid [-30, 30], complex where W_inverse's bracket reaches
    "complex-off-the-grid": ("potential", "--potential", "expr:(x+40)^0.5"),
    "density-not-an-object": ("survival", "--config", {"density": 5}),
    "density-file-not-an-object": ("survival", "--density", "{file}"),
    "potential-not-an-object": ("potential", "--config", {"potential": 5}),
    "knot-not-a-pair": ("survival", "--density", _TABLE_BAD_KNOT),
    "null-knot": ("survival", "--density", _TABLE_NULL_KNOT),
    "null-gamma": ("survival", "--density", '{"kind": "lorentzian", "gamma": null}'),
    "null-rate": ("survival", "--density", '{"kind": "exponential", "rate": null}'),
    "infinite-gamma": ("survival", "--gamma", "inf"),
    # omega0 +- gamma rounds to omega0: no cell could resolve the Lorentzian
    "width-below-an-ulp": ("survival", "--omega0", "1e17", "--gamma", "1"),
    "omega0-at-the-float-limit": ("survival", "--omega0", "1e308", "--gamma", "1"),
    # a time limit that is not finite is named, before any file is written
    "infinite-t-end-global-survival": ("pw", "--amplitude", "global-survival", "--t-end", "inf"),
    "infinite-t-end-potential": ("potential", "--t-end", "inf"),
    # a parameter that is not finite is named, before any file is written
    "rho00-nan": ("reduced", "--rho00", "nan"),
    "w0-nan": ("pw", "--amplitude", "global-survival", "--w0", "nan"),
    "rate-nan": ("pw", "--amplitude", "halfline-exp", "--rate", "nan"),
    "T-values-nan": ("pw", "--T-values", "10,31.6,100,316,nan"),
    "infinite-exponential-rate": ("survival", "--density",
                                  '{"kind": "exponential", "rate": "inf"}'),
    # a tolerance that is not finite is named: every stop rule would pass at once
    "abs-tol-inf": ("survival", "--abs-tol", "inf"),
    "rel-tol-inf": ("survival", "--rel-tol", "inf"),
    # the factor's exponential fit needs 8 points; nothing is computed without them
    "potential-too-few-points": ("potential", "--n-points", "3"),
    # the factor falls below the fit's 1e-14 floor: no file before the fit
    "potential-fit-below-floor": ("potential", "--t-start", "60", "--t-end", "100",
                                  "--n-points", "8"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, case):
    argv = list(MALFORMED_INPUTS[case])
    config, spec = tmp_path / "cfg.json", tmp_path / "spec.json"
    config.write_text(json.dumps(argv[-1] if isinstance(argv[-1], dict) else {}))
    spec.write_text("[1, 2]")
    argv = [str(config) if isinstance(arg, dict) else str(spec) if arg == "{file}" else arg
            for arg in argv]
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "spec.json"]


# a potential spec whose expression is not a string, or that is not JSON: a
# dict stands for a config file holding it
@pytest.mark.parametrize("argv,named", [
    (("--potential", '{"kind": "user-expression", "expression": 5}'),
     "an expression must be a string, got 5"),
    (("--potential", '{"kind": "user-expression", "expression": [1, 2]}'),
     "an expression must be a string, got [1, 2]"),
    (("--config", {"potential": {"kind": "user-expression", "expression": 5}}),
     "an expression must be a string, got 5"),
    (("--potential", '{"kind": "ramp"'), "potential spec is not valid JSON: "),
])
def test_malformed_potential_spec_exits_2_and_is_named(tmp_path, capsys, argv, named):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(argv[-1] if isinstance(argv[-1], dict) else {}))
    argv = [str(config) if isinstance(arg, dict) else arg for arg in argv]
    assert run("potential", *argv, "--out", str(tmp_path / "p")) == 2
    err = capsys.readouterr().err
    assert named in err and len(err.splitlines()) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv,name", [
    (("pw", "--amplitude", "global-survival", "--t-end", "inf"), "t_end"),
    (("potential", "--t-end", "inf"), "t_end"),
    (("survival", "--t-start", "nan", "--n-points", "1"), "t_start"),
    (("reduced", "--t-start=-inf"), "t_start"),
])
def test_non_finite_time_limit_is_named(tmp_path, capsys, argv, name):
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,named", [
    (("reduced", "--rho00", "nan"), "rho00 must be finite, got nan"),
    (("gkls-compare", "--rho00", "inf"), "rho00 must be finite, got inf"),
    (("pw", "--amplitude", "global-survival", "--w0", "nan"), "got (nan, nan)"),
    (("pw", "--amplitude", "halfline-exp", "--rate", "nan"), "rate must be finite and positive"),
    (("pw", "--amplitude", "halfline-exp", "--rate", "inf"), "rate must be finite and positive"),
    (("pw", "--T-values", "10,31.6,100,316,inf"), "positive and finite, got inf"),
    # the window's comparison once let nan through: "need at least 8 samples"
    (("pw", "--fit-window", "nan,10"), "empty window (nan, 10.0)"),
    (("survival", "--abs-tol", "inf"), "abs_tol must be positive and finite, got inf"),
    (("survival", "--rel-tol", "inf"), "rel_tol must be positive and finite, got inf"),
])
def test_non_finite_parameter_is_named(tmp_path, capsys, argv, named):
    assert run(*argv, "--out", str(tmp_path / "out.csv")) == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_extreme_parameters_end_without_a_signal(tmp_path):
    # the t = 0 mass once overflowed to NaN inside QUADPACK and killed the
    # process (SIGSEGV); a child process keeps such a crash to this test
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path))
    proc = subprocess.run(
        [sys.executable, "-m", "decaylab.cli", "survival", "--gamma", "1e308",
         "--omega0", "1e308", "--out", str(tmp_path / "x.csv")],
        env=env, capture_output=True, text=True, timeout=300)
    # omega0 + gamma overflows: a usage error that names both
    assert proc.returncode == 2, proc.stderr
    assert "gamma" in proc.stderr and "omega0" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_needs_no_scipy(tmp_path):
    # a fresh interpreter imports the CLI without loading scipy, and the
    # sweep (pw), survival and potential run with every scipy import refused
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path for path in (src, os.environ.get("PYTHONPATH")) if path))
    script = ("import sys\n"
              "import decaylab.cli as cli\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
              "sys.modules['scipy'] = None\n"
              "print([cli.main([command, '--out', sys.argv[1] + '/' + command])\n"
              "       for command in ('pw', 'survival', 'potential')])\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0, 0]"], proc.stderr
