"""Command-line surface: exit codes, determinism, file formats."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coupledsusy import cli, reports, towers
from coupledsusy.cli import main
from coupledsusy.reports import format_float
from coupledsusy.systems import make_xn_system

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_passes(capsys):
    code, out = run_cli(["verify", "--n", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["identities"]) == 11
    assert payload["mutation"] is None


def test_verify_rejects_bad_n(capsys):
    code, _ = run_cli(["verify", "--n", "0"], capsys)
    assert code == 2


def test_verify_mutation_fails(capsys):
    code, out = run_cli(["verify", "--n", "2", "--mutate", "b-coeff"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["mutation"] == "b[1].alpha += 1"
    failing = [r for r in payload["identities"] if not r["pass"]]
    assert failing and failing[0]["first_failure"] is not None


def test_verify_deterministic_output(capsys):
    _, first = run_cli(["verify", "--n", "3"], capsys)
    _, second = run_cli(["verify", "--n", "3"], capsys)
    assert first == second


def test_spectrum_theory_column(capsys):
    code, out = run_cli(["spectrum", "--n", "2", "--count", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["theory"] == [0, 3, 4, 7, 8, 11]
    assert len(payload["galerkin"]) == 2
    for report in payload["galerkin"]:
        assert max(report["rel_errors"]) < 1e-8


def test_spectrum_other_families(capsys):
    code, out = run_cli(["spectrum", "--n", "1", "--count", "5"], capsys)
    assert json.loads(out)["theory"] == [0, 1, 2, 3, 4]
    code, out = run_cli(["spectrum", "--n", "3", "--count", "4"], capsys)
    assert json.loads(out)["theory"] == [0, 5, 6, 11]


def test_spectrum_with_fd_csv(tmp_path, capsys):
    out_file = tmp_path / "spectrum.csv"
    code, _ = run_cli(
        [
            "spectrum",
            "--n",
            "1",
            "--count",
            "4",
            "--fd",
            "--fd-half-width",
            "8",
            "--fd-grid",
            "400",
            "--format",
            "csv",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "index,computed,theory,rel_error"
    assert len(lines) == 5


def test_eigenfunctions_csv_rows(tmp_path, capsys):
    out_file = tmp_path / "eigen.csv"
    code, _ = run_cli(
        [
            "eigenfunctions",
            "--n",
            "2",
            "--m",
            "3",
            "--grid",
            "-4:4:401",
            "--format",
            "csv",
            "--out",
            str(out_file),
        ],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 402


def test_eigenfunctions_rejects_psitilde_zero(capsys):
    code, _ = run_cli(
        ["eigenfunctions", "--n", "2", "--sector", "psitilde", "--m", "0"], capsys
    )
    assert code == 2


def _finite_samples(argv, capsys):
    """Run eigenfunctions with numpy warnings as errors; the sampled values, all finite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would add stderr lines
        code = main(["eigenfunctions", *argv])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    if "csv" in argv:
        rows = captured.out.strip().splitlines()[1:]
        values = [float(row.split(",")[1]) for row in rows]
    else:
        values = json.loads(captured.out)["values"]
    assert all(math.isfinite(v) for v in values)
    return values


@pytest.mark.parametrize("argv", [["--m", "120"], ["--m", "106", "--format", "csv"]])
def test_eigenfunctions_deep_levels_give_finite_samples(argv, capsys):
    # these levels used to overflow floats on the default grid (exit 2)
    values = _finite_samples(["--n", "2", *argv], capsys)
    assert len(values) == 401
    assert 0 < max(abs(v) for v in values) < 2


@pytest.mark.parametrize("sector, m", [("psi", "150"), ("phitilde", "160")])
def test_eigenfunctions_past_coefficient_overflow_give_finite_samples(sector, m, capsys):
    # the exact coefficients themselves exceed float range; sampling never converts them
    values = _finite_samples(["--n", "1", "--sector", sector, "--m", m], capsys)
    assert 0 < max(abs(v) for v in values) < 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "6", "--m", "2000", "--grid", "-1e300:1e300:3", "--format", "csv"],
        ["--n", "1", "--sector", "phi", "--m", "300", "--grid", "-1e-300:1e300:4"],
        ["--n", "3", "--sector", "phitilde", "--m", "40", "--grid", "-8e307:8e307:5"],
    ],
)
def test_eigenfunctions_extreme_grids_give_finite_samples(argv, capsys):
    values = _finite_samples(argv, capsys)
    assert values[-1] == 0  # far past the turning point


def test_eigenfunctions_json_past_int_text_limit_is_config_error(capsys):
    # n = 1 level 2000 has exact coefficients longer than Python's int-to-text limit
    code = main(["eigenfunctions", "--n", "1", "--m", "2000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: the exact record of m=2000 has integers longer than ")
    assert captured.err.endswith("digits: use --format csv\n")
    assert captured.err.count("\n") == 1


def test_coherent_norm_and_half_lowering(capsys):
    code, out = run_cli(
        ["coherent", "--n", "2", "--sector", "psi", "--z", "0.5", "--tol", "1e-12"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["norm_sq"] - 1.0) < 1e-12
    assert payload["half_lowering"]["residual"] < 1e-10
    assert payload["half_lowering"]["target_sector"] == "psi~"
    assert payload["full_lowering_best_fit_residual"] > 0.01
    assert payload["k"] == "1/8"


def test_coherent_rejects_unit_disk_boundary(capsys):
    code, _ = run_cli(["coherent", "--n", "2", "--z", "1.0"], capsys)
    assert code == 2


@pytest.mark.parametrize("z", ["nan", "nanj", "0.5+nanj"])
def test_coherent_nan_z_is_config_error(z, capsys):
    # abs(z) >= 1 is false for a NaN part, so the check reads not abs(z) < 1
    code = main(["coherent", "--n", "2", "--z", z])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: |z| must be < 1 (disk of convergence)\n"


@pytest.mark.parametrize(
    "sector,z",
    [
        ("psi", "0.999999"),
        # the state itself truncates; the half-lowering target (psi~) does not
        ("psi", "0.99988"),
        ("phitilde", "0.99986"),
    ],
)
def test_coherent_truncation_failure_is_config_error(sector, z, capsys):
    code = main(["coherent", "--n", "2", "--sector", sector, "--z", z])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too close to 1" in captured.err
    assert captured.err.count("\n") == 1


def test_tol_is_checked_only_where_it_is_read(capsys):
    # uncertainty never reads --tol, so any value gives the report of the run without it
    want = run_cli(["uncertainty", "--n", "1", "--state", "ground"], capsys)
    assert run_cli(["uncertainty", "--n", "1", "--state", "ground", "--tol", "-1"], capsys) == want
    assert want[0] == 0
    code = main(["coherent", "--n", "2", "--tol", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: tolerance must be positive\n"


def test_fd_flags_are_checked_only_with_fd(capsys):
    # spectrum reads --fd-grid only with --fd: without it a grid that is no multiple of 4 gives the
    # report of the run without the flag, and with it the grid exits 2 with one line
    want = run_cli(["spectrum", "--n", "1"], capsys)
    assert want[0] == 0 and "fd" not in json.loads(want[1])
    assert run_cli(["spectrum", "--n", "1", "--fd-grid", "7"], capsys) == want
    code = main(["spectrum", "--n", "1", "--fd", "--fd-grid", "7"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_spectrum_large_count_is_exact(capsys):
    # basis size 42 per residue: the exact solve has no precision to run out of
    code, out = run_cli(["spectrum", "--n", "2", "--count", "80"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["theory"]) == 80
    for report in payload["galerkin"]:
        assert report["pass"] is True
        assert report["details"]["basis_size"] == 42
        assert report["computed"] == [float(Fraction(t)) for t in report["theory"]]


def test_spectrum_failing_galerkin_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "make_xn_system", lambda n: make_xn_system(n, mutate="a-coeff")
    )
    code, out = run_cli(["spectrum", "--n", "2", "--count", "6"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert [r["pass"] for r in payload["galerkin"]] == [False, False]


@pytest.mark.parametrize("n, want", [(1, 0), (2, 0), (3, 0), (5, 1), (6, 1)])
def test_spectrum_fd_gate_sets_exit_code(n, want, capsys):
    # on the default grids the FD errors of n = 5 and 6 exceed the
    # documented 0.10 while the Galerkin reports pass
    code, out = run_cli(["spectrum", "--n", str(n), "--count", "6", "--fd"], capsys)
    payload = json.loads(out)
    assert code == want
    assert payload["fd"]["pass"] is (want == 0)
    assert [r["pass"] for r in payload["galerkin"]] == [True, True]


def test_spectrum_rejects_empty_galerkin_basis(capsys):
    code = main(["spectrum", "--n", "2", "--galerkin-size", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: galerkin-size must be >= 1\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--fd-grid", "4001"],
        ["--fd-grid", "6"],
        ["--fd-half-width", "0"],
        ["--count", "4000", "--fd-grid", "400"],
        ["--fd-half-width", "-3"],
        ["--fd-grid", "2002"],  # a half grid of 1001 cells cannot be refined
    ],
    ids=["odd-grid", "coarse-grid", "zero-half-width", "count-above-matrix",
         "negative-half-width", "unrefinable-grid"],
)
def test_bad_fd_input_is_config_error(extra, capsys):
    code = main(["spectrum", "--n", "1", "--count", "4", "--fd"] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_precision_bits_flag_is_gone(capsys):
    code = main(["spectrum", "--n", "2", "--precision-bits", "128"])
    assert code == 2
    assert "--precision-bits" in capsys.readouterr().err


def test_uncertainty_ground_product_half(capsys):
    code, out = run_cli(["uncertainty", "--n", "1", "--state", "ground"], capsys)
    assert code == 0
    payload = json.loads(out)
    result = payload["results"][0]
    assert result["observable_pair"] == "L,A"
    assert abs(result["product"] - 0.5) < 1e-12
    assert result["pass"] is True


def test_uncertainty_all_pairs_and_mixed(capsys):
    code, out = run_cli(["uncertainty", "--n", "2", "--state", "phitilde:0"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["results"][0]["product"] - 3.0) < 1e-11
    code, out = run_cli(["uncertainty", "--n", "2", "--state", "mixed"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["results"][0]["bound"] - 1.0) < 1e-12


@pytest.mark.parametrize("argv", [["--state", "psi:100"], ["--state", "psi:85"], ["--state", "phi:100", "--pair", "all"]])
def test_uncertainty_past_float_range_passes(argv, capsys):
    code, out = run_cli(["uncertainty", "--n", "1", *argv], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    for result in payload["results"]:
        assert result["pass"] and result["product"] >= result["bound"]
        details = result["details"]
        assert result["bound"] == details.get("bound_closed_form", details.get("bound_convex_combination"))


def test_uncertainty_rejects_unknown_state(capsys):
    code, _ = run_cli(["uncertainty", "--n", "2", "--state", "bogus"], capsys)
    assert code == 2


@pytest.mark.parametrize("state, message", [
    ("psi:abc", "cannot parse state descriptor 'psi:abc'"),
    ("phi:", "cannot parse state descriptor 'phi:'"),
    ("psitilde:0", "the tilde image of the PSI ground state vanishes (m >= 1)"),
    ("psi:-1", "tower level m must be nonnegative"),
])
def test_uncertainty_bad_state_names_the_descriptor(state, message, capsys):
    code = main(["uncertainty", "--n", "2", "--state", state])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n=1\ncount=3\n")
    _, out = run_cli(["spectrum", "--config", str(config)], capsys)
    assert json.loads(out)["theory"] == [0, 1, 2]
    # flags beat the config file
    _, out = run_cli(["spectrum", "--config", str(config), "--n", "2"], capsys)
    assert json.loads(out)["theory"] == [0, 3, 4]
    code, _ = run_cli(["spectrum", "--config", str(tmp_path / "missing.cfg")], capsys)
    assert code == 2


def test_config_key_no_command_reads_is_config_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 1\ncout = 3\n")
    code = main(["spectrum", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: config key cout: no command reads it\n"


#: The dests of every command's flags: a config file may set any of them.
CONFIG_KEYS = [
    "config", "count", "fd", "fd_grid", "fd_half_width", "format", "galerkin_size", "grid", "m",
    "mutate", "n", "out", "pair", "sector", "state", "tol", "window_hi", "window_lo", "z",
]


def test_every_flag_is_a_config_key(tmp_path, monkeypatch):
    dests = {dest for _, flags in cli._TABLE.values() for dest, _, _, _ in flags}
    assert sorted(dests) == CONFIG_KEYS and list(cli._TABLE) == list(cli._COMMANDS)
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = x\n" for key in CONFIG_KEYS) + "fd-grid = y\n")
    seen = {}

    def record(args, values):
        seen[args.command] = values
        return 0

    for name in cli._COMMANDS:  # each command accepts the keys of the others
        monkeypatch.setitem(cli._COMMANDS, name, record)
        assert main([name, "--config", str(config)]) == 0
    assert seen == dict.fromkeys(cli._COMMANDS, {**dict.fromkeys(CONFIG_KEYS, "x"), "fd_grid": "y"})


#: One argv of every malformed class, as text, and the start of its one error line.
MALFORMED = [
    ("", "missing command (choose from verify, spectrum, eigenfunctions, coherent, uncertainty)"),
    ("verfy --n 2", "unknown command 'verfy' (choose from "),
    ("--n 2 verify", "unknown command '--n' (choose from "),
    ("verify --bogus 1", "verify has no flag --bogus"),
    ("verify --win 3", "verify has no flag --win"),  # no abbreviations
    ("verify -n 2", "verify has no flag -n"),
    ("verify --count 3", "verify has no flag --count"),  # a flag of spectrum
    ("verify --n 2 3", "unexpected argument '3'"),
    ("verify --n", "--n needs a value"),
    ("verify --out --n 2", "--out needs a value"),
    ("verify --n x", "--n: invalid int value 'x'"),
    ("verify --n=2.5", "--n: invalid int value '2.5'"),
    ("coherent --tol tiny", "--tol: invalid float value 'tiny'"),
    ("spectrum --fd-half-width=", "--fd-half-width: invalid float value ''"),
    ("verify --format xml", "--format: invalid choice 'xml' (choose from 'json', 'csv')"),
    ("coherent --sector=chi", "--sector: invalid choice 'chi' (choose from "),
    ("uncertainty --pair lx", "--pair: invalid choice 'lx' (choose from "),
    ("spectrum --fd=1", "--fd is a switch and takes no value"),
]


@pytest.mark.parametrize("argv, message", MALFORMED, ids=[argv or "no-command" for argv, _ in MALFORMED])
def test_every_malformed_argv_is_one_error_line(argv, message, capsys):
    # parsed before any command runs: exit 2, nothing on stdout, one line on stderr
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: " + message) and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, dest, value", [
    ("coherent --z -0.3+0.2j", "z", "-0.3+0.2j"),
    ("coherent --z=-0.3+0.2j", "z", "-0.3+0.2j"),
    ("eigenfunctions --grid -4:4:401", "grid", "-4:4:401"),
    ("eigenfunctions --grid=-4:4:401", "grid", "-4:4:401"),
    ("verify --window-lo -5", "window_lo", -5),
    ("spectrum --fd-half-width -3", "fd_half_width", -3.0),
    ("verify --n 2 --n=3", "n", 3),  # the last repeat wins
    ("spectrum --fd --fd", "fd", "yes"),
])
def test_values_may_start_with_a_dash(argv, dest, value):
    argv = argv.split()
    assert cli._parse(argv) == (argv[0], {dest: value})


def test_help_lists_every_command_and_every_shown_flag():
    top = subprocess.run([sys.executable, "-m", "coupledsusy.cli", "--help"], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), check=True)
    assert top.stderr == "" and top.stdout.startswith("usage: coupledsusy <command>")
    assert all(f"  {name} " in top.stdout for name in cli._TABLE)
    for name, (_, flags) in cli._TABLE.items():
        for argv in ([name, "-h"], [name, "--n", "2", "--help"]):
            done = subprocess.run([sys.executable, "-m", "coupledsusy.cli", *argv], capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
            assert done.stderr == "" and done.stdout.startswith(f"usage: coupledsusy {name} ")
            shown = {dest for dest, _, _, text in flags if text is not None}
            assert shown == {dest for dest, *_ in flags} - {"mutate"}
            for dest in shown:
                assert f"  --{dest.replace('_', '-')}" in done.stdout, (name, dest)
            assert "--mutate" not in done.stdout


@pytest.mark.parametrize(
    "key, argv",
    [
        ("sector", ["eigenfunctions", "--n", "2"]),
        ("sector", ["coherent", "--n", "2"]),
        ("format", ["verify", "--n", "1"]),
        ("format", ["eigenfunctions", "--n", "1"]),
        ("pair", ["uncertainty", "--n", "1"]),
        ("fd", ["spectrum", "--n", "1"]),
    ],
)
def test_config_values_are_held_to_the_flag_choices(key, argv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = bogus\n")
    code = main(argv + ["--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key {key}: invalid choice 'bogus' (choose from ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "key, value, argv",
    [
        ("sector", "phitilde", ["eigenfunctions", "--n", "2", "--m", "1"]),
        ("sector", "phi", ["coherent", "--n", "2"]),
        ("format", "csv", ["coherent", "--n", "2"]),
        ("pair", "all", ["uncertainty", "--n", "1"]),
    ],
)
def test_valid_config_choices_act_as_their_flags(key, value, argv, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    from_config = run_cli(argv + ["--config", str(config)], capsys)
    assert from_config == run_cli(argv + [f"--{key}", value], capsys)
    assert from_config[0] == 0
    # a flag still beats a bad config value
    config.write_text(f"{key} = bogus\n")
    assert run_cli(argv + ["--config", str(config), f"--{key}", value], capsys) == from_config


@pytest.mark.parametrize("value, on", [("1", True), ("TRUE", True), ("Yes", True),
                                       ("0", False), ("false", False), ("NO", False), ("tru", None)])
def test_fd_config_value_is_a_switch(value, on, tmp_path, monkeypatch, capsys):
    # 1/true/yes and 0/false/no in any case; any other value is an invalid choice, not "off"
    from coupledsusy import spectral

    class Called(Exception):
        pass

    def fd_spectrum(n, half_width, grid_count, count):
        raise Called

    monkeypatch.setattr(spectral, "fd_spectrum", fd_spectrum)
    config = tmp_path / "run.cfg"
    config.write_text(f"fd = {value}\n")
    argv = ["spectrum", "--n", "1", "--config", str(config)]
    if on:
        with pytest.raises(Called):
            main(argv)
    elif on is False:
        assert run_cli(argv, capsys) == run_cli(["spectrum", "--n", "1"], capsys)
    else:
        assert main(argv) == 2
        err = "error: config key fd: invalid choice 'tru' (choose from '1', 'true', 'yes', '0', 'false', 'no')\n"
        assert capsys.readouterr() == ("", err)
    with pytest.raises(Called):  # the flag beats the config file
        main(argv + ["--fd"])


@pytest.mark.parametrize("key, value, want", [("window_lo", 5, [5, 34]), ("window_hi", 3, [-12, 3])])
@pytest.mark.parametrize("by_config", [False, True])
def test_verify_fills_a_lone_window_bound_from_the_default(key, value, want, by_config, tmp_path, capsys):
    # default_window(1) is (-12, 34); the bound not given keeps its default
    argv = ["verify", "--n", "1"]
    if by_config:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    else:
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert {tuple(r["range"]) for r in json.loads(out)["identities"]} == {tuple(want)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fd_defaults_are_the_reference_grids(n, monkeypatch, capsys):
    from coupledsusy import spectral

    class Called(Exception):
        pass

    def fd_spectrum(n, half_width, grid_count, count):
        raise Called(half_width, grid_count)

    monkeypatch.setattr(spectral, "fd_spectrum", fd_spectrum)
    with pytest.raises(Called) as called:
        main(["spectrum", "--n", str(n), "--fd"])
    assert called.value.args == spectral.FD_REFERENCE_GRID[min(n, 3)]
    assert sorted(spectral.FD_REFERENCE_GRID) == sorted(spectral.FD_DOCUMENTED_TOLERANCE)


def test_atomic_output_no_partial_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _ = run_cli(["verify", "--n", "0", "--out", str(target)], capsys)
    assert code == 2
    assert not target.exists()
    leftovers = [p for p in tmp_path.iterdir()]
    assert leftovers == []


@pytest.mark.parametrize("target", ["missing/x.json", "existing-dir"])
def test_unwritable_out_is_config_error(target, tmp_path, capsys):
    (tmp_path / "existing-dir").mkdir()
    code = main(["verify", "--n", "2", "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert captured.err.count("\n") == 1
    # no .tmp-report-* file is left next to the target
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing-dir"]


@pytest.mark.parametrize("grid", ["-1e308:1e308:5", "-inf:1:5", "0:inf:5", "0:nan:5"])
def test_non_finite_grid_is_config_error(grid, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would add stderr lines
        code = main(["eigenfunctions", "--n", "2", "--m", "3", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: grid ")
    assert captured.err.count("\n") == 1


# counts from 2^60 up: a list of that length fails its size check before anything is allocated
@pytest.mark.parametrize("count", ["100000000000000000000", str(2**63 - 1), str(2**60)])
def test_unsampleable_grid_count_is_config_error(count, capsys):
    code = main(["eigenfunctions", "--n", "2", "--grid", f"0:1:{count}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: grid count {count} is too large to sample\n"


@pytest.mark.parametrize(
    "lo, hi, count",
    [(-4.0, 4.0, 401), (-0.0, 1.0, 7), (0.1, 0.7, 3), (-1e300, 1e300, 9), (-3.3, 1e-9, 1000),
     (1.0, 1.0 + 2 ** -52, 10), (0.0, 5e-324, 3), (-5e-324, 5e-324, 9), (1e-310, 1.0000001e-310, 1000)],
)
def test_grid_points_match_linspace_bit_for_bit(lo, hi, count):
    assert np.array(cli._grid_points(lo, hi, count)).tobytes() == np.linspace(lo, hi, count).tobytes()


def test_grid_points_match_linspace_on_random_grids():
    rng = random.Random(20)
    underflows = 0
    for _ in range(3000):
        subnormal = rng.randint(-10 ** 4, 10 ** 4) * 5e-324
        lo = rng.choice([rng.uniform(-10, 10), rng.uniform(-1e300, 1e300), subnormal])
        hi = lo + abs(rng.choice([rng.uniform(0, 10), rng.uniform(0, 1e300), 5e-324 * rng.randint(1, 9)]))
        count = rng.randint(2, 60)
        if not hi > lo or not math.isfinite(hi - lo):
            continue
        underflows += (hi - lo) / (count - 1) == 0
        assert np.array(cli._grid_points(lo, hi, count)).tobytes() == np.linspace(lo, hi, count).tobytes()
    assert underflows > 100  # numpy's step == 0 branch is covered


def array_route_report(n, sector, m, out_format):
    """The eigenfunctions report on the default grid, sampled by np.linspace and the array route."""
    record = towers.eigenstate(make_xn_system(n), towers.SectorLabel(cli._SECTORS[sector]), m)
    xs = np.linspace(-4.0, 4.0, 401)
    values = towers.normalized_samples(record, xs)
    if out_format == "csv":
        return reports.csv_text(("x", "value"), [(float(x), float(v)) for x, v in zip(xs, values)])
    payload = {"record": record.to_json_dict(), "grid": {"lo": -4.0, "hi": 4.0, "count": 401},
               "values": [float(v) for v in values]}
    return reports.dumps(payload)


@pytest.mark.parametrize("out_format", ["json", "csv"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenfunctions_report_equals_the_array_route(n, out_format, capsys):
    for sector in ("psi", "phi", "psitilde", "phitilde"):
        for m in range(sector == "psitilde", 6):
            argv = ["eigenfunctions", "--n", str(n), "--sector", sector, "--m", str(m), "--format", out_format]
            code, out = run_cli(argv, capsys)
            assert code == 0
            assert out == array_route_report(n, sector, m, out_format), (sector, m)


@pytest.mark.parametrize("sector", ["psi", "phi", "psitilde", "phitilde"])
def test_coherent_half_lowering_runs_where_coherent_defines_it(sector, capsys):
    from coupledsusy import coherent
    from coupledsusy.towers import SectorLabel

    code, out = run_cli(["coherent", "--n", "2", "--sector", sector, "--z", "0.3"], capsys)
    assert code == 0
    label = SectorLabel(cli._SECTORS[sector])
    assert ("half_lowering" in json.loads(out)) == (label in coherent.HALF_LOWERING)


def test_float_formatting_17_digits():
    assert format_float(0.5) == "0.5"
    assert format_float(1e-13) == "1e-13"
    assert format_float(1 / 3) == "0.33333333333333331"
    # 17 significant digits round-trip every double exactly
    for value in (0.1 + 0.2, 2.1558005495409279, 5.877471754111438e-39):
        assert float(format_float(value)) == value
    with pytest.raises(ValueError):
        format_float(float("nan"))


#: sha256 of the stdout, or of the --out file, of each README command.
README_GOLDEN = [
    ("verify --n 2", "95ff087a79f596c95984715402522f3fa14c288f6ff930088810112bc9565b26"),
    ("spectrum --n 2 --count 6", "76e85070b197775dbb99471e8f0366b8569cc6c8e02e53aca5ac755efe75fd52"),
    ("spectrum --n 1 --count 6 --fd --format csv --out spectrum.csv",
     "ed785bfb0d17c39c75b43172491ad9f921c0b068a63bb5e9642fda9a43d5c5b1"),
    ("eigenfunctions --n 2 --m 3 --grid -4:4:401 --format csv --out eigen.csv",
     "f554d2e923dc89d03fa63c883a9df8047213d939b901166a8a376e2b3df227d7"),
    ("coherent --n 2 --sector psi --z 0.5 --tol 1e-12",
     "d9593c2ae199c6a26e36337cbe44cda9cefe6246b73d2b8bebc4e290dfd40899"),
    ("uncertainty --n 1 --state ground", "c891e91962bd56afff54e3451d567d49a316de18034d05ce7fdc92d68f905718"),
    ("uncertainty --n 2 --state mixed", "dfa39659439f4a4f718f134b5e9760476d543a785e8cb1d26fafdbb163f1f949"),
]


@pytest.mark.parametrize("command,digest", README_GOLDEN, ids=[c for c, _ in README_GOLDEN])
def test_readme_command_bytes_are_pinned(command, digest, tmp_path, capsys):
    argv = command.split()
    out_file = None
    if "--out" in argv:
        at = argv.index("--out") + 1
        out_file = tmp_path / argv[at]
        argv[at] = str(out_file)
    code, out = run_cli(argv, capsys)
    data = out.encode() if out_file is None else out_file.read_bytes()
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == digest


#: sha256 of `verify --n 2 --mutate T` for each named mutation tag; every one exits 1.
MUTATED_VERIFY_GOLDEN = [
    ("b-coeff", "2b69f4e2ed40eb45a6c32978a4a2cf05af0d5ac15dd713a2a84e6a348e63f865"),
    ("a-coeff", "8752d7c174d3c678bfe2e622782619e62dcb480fe54e2fe2eac5858100378266"),
    ("adag-coeff", "5236636ccdf0e5242672e511d2fc272e3603a7fe49d3c8f8cabe024407318b92"),
    ("bdag-coeff", "ba5fd108e32983616c1260926521ed48241786661607ea81ea730c4ddbbc669f"),
]


@pytest.mark.parametrize("tag,digest", MUTATED_VERIFY_GOLDEN, ids=[t for t, _ in MUTATED_VERIFY_GOLDEN])
def test_mutated_verify_bytes_are_pinned(tag, digest, capsys):
    code, out = run_cli(["verify", "--n", "2", "--mutate", tag], capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: numpy CPU features whose SIMD power and exp differ from libm by an ulp on some inputs.
_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


#: Samples the README eigenfunctions record on np.linspace(-4, 4, 401) by the array route, as float hex.
_ARRAY_ROUTE_SAMPLES = """
import numpy as np
from coupledsusy.systems import make_xn_system
from coupledsusy.towers import SectorLabel, eigenstate, normalized_samples
record = eigenstate(make_xn_system(2), SectorLabel.PSI, 3)
values = normalized_samples(record, np.linspace(-4.0, 4.0, 401))
assert isinstance(values, np.ndarray)
print(" ".join(float(v).hex() for v in values))
"""


@pytest.mark.parametrize("disabled", [None, _AVX512], ids=["default", "no-avx512"])
def test_eigenfunction_bytes_do_not_depend_on_numpy_dispatch(disabled):
    command, _ = next(pin for pin in README_GOLDEN if pin[0].startswith("eigenfunctions"))
    assert command.split()[:5] == ["eigenfunctions", "--n", "2", "--m", "3"] and "-4:4:401" in command
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    result = subprocess.run([sys.executable, "-c", _ARRAY_ROUTE_SAMPLES], env=env, check=True,
                            capture_output=True, text=True, timeout=120)
    record = towers.eigenstate(make_xn_system(2), towers.SectorLabel.PSI, 3)
    listed = towers.normalized_samples(record, cli._grid_points(-4.0, 4.0, 401))
    assert isinstance(listed, list)
    assert result.stdout.split() == [v.hex() for v in listed]
