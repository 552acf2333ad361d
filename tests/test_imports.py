"""Import graph: which submodules run, and which third-party modules load, on each route.

``import coupledsusy`` runs no submodule and each CLI command runs only
the submodules it calls, since a cold CLI process otherwise spends most
of its time compiling the package's source.  mpmath loads only on the
routes that compute with it, numpy and scipy on no CLI route.  The
package itself loads neither dataclasses nor inspect, which cost a cold
CLI process tens of milliseconds, and the CLI, which reads its flags off
one table, loads none of argparse, gettext and locale.  Each check runs
in a fresh interpreter, since the test process itself has long since
imported them.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import sys
_WATCHED = ("numpy", "scipy", "scipy.linalg", "mpmath", "dataclasses", "inspect", "argparse", "gettext", "locale")
print(" ".join(m for m in _WATCHED if m in sys.modules))
"""


def loaded_after(code):
    """Which of the watched modules (_REPORT) a fresh interpreter holds after running `code`."""
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(result.stdout.split())


def test_package_and_cli_import_without_numpy_or_scipy():
    assert loaded_after("import coupledsusy, coupledsusy.cli\n") == set()


def cli_code(argv):
    """Code that runs one CLI command, which must exit 0, with its report discarded."""
    return (
        "import contextlib, io\n"
        "from coupledsusy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )


def test_verify_command_runs_without_numpy_or_scipy():
    assert loaded_after(cli_code(["verify", "--n", "2"])) == set()


def test_fd_spectrum_loads_none_of_the_watched_modules():
    code = "from coupledsusy.spectral import fd_spectrum\nfd_spectrum(1, 6.0, 16, count=2)\n"
    assert loaded_after(code) == set()


def test_fd_spectrum_command_runs_without_numpy_or_scipy():
    for n in (1, 2, 3):
        assert loaded_after(cli_code(["spectrum", "--n", str(n), "--count", "6", "--fd"])) == set(), n


def test_galerkin_spectrum_command_runs_without_numpy_or_scipy():
    assert loaded_after(cli_code(["spectrum", "--n", "2", "--count", "6"])) == set()


def test_uncertainty_and_coherent_commands_run_without_mpmath():
    for argv in (
        ["uncertainty", "--n", "1", "--state", "ground"],
        ["uncertainty", "--n", "2", "--state", "mixed"],
        ["coherent", "--n", "2", "--sector", "psi", "--z", "0.5", "--tol", "1e-12"],
    ):
        assert loaded_after(cli_code(argv)) == set(), argv


def test_eigenfunctions_command_loads_none_of_the_watched_modules():
    argv = ["eigenfunctions", "--n", "2", "--m", "3", "--grid", "-4:4:401", "--format", "csv"]
    assert loaded_after(cli_code(argv)) == set()


PACKAGE_DIR = os.path.join(SRC, "coupledsusy")
SUBMODULES = {"calculus", "coherent", "spectral", "systems", "towers", "uncertainty"}

#: Records, by file stem, every package module whose code runs; a module
#: registered lazily (cli._LazyModule) and never read does not run.
_RAN_HOOK = f"""
import os, sys
_ran = set()
def _record(event, args):
    code = args[0] if event == "exec" else None
    if getattr(code, "co_name", None) == "<module>" and os.path.dirname(code.co_filename) == {PACKAGE_DIR!r}:
        _ran.add(os.path.basename(code.co_filename)[:-3])
sys.addaudithook(_record)
"""


def ran_after(code):
    """The package modules (file stems, minus __init__) whose code a fresh interpreter ran for `code`."""
    result = subprocess.run(
        [sys.executable, "-c", _RAN_HOOK + code + "\nprint(' '.join(sorted(_ran)))\n"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(result.stdout.split()) - {"__init__"}


def test_package_import_runs_no_submodule():
    assert ran_after("import coupledsusy\n") == set()


def test_unknown_attribute_raises_without_running_a_submodule():
    code = (
        "import coupledsusy\n"
        "try:\n"
        "    coupledsusy.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
    )
    assert ran_after(code) == set()


def test_first_public_name_runs_every_submodule():
    assert ran_after("import coupledsusy\ncoupledsusy.SectorLabel\n") == SUBMODULES


def main_code(argv):
    """Code that runs the CLI as __main__, as `python -m coupledsusy.cli` does, and checks exit 0."""
    return (
        "import contextlib, io, runpy\n"
        f"sys.argv = ['coupledsusy'] + {argv!r}\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        runpy.run_module('coupledsusy.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )


@pytest.mark.parametrize(
    "argv,extra",
    [
        pytest.param(["verify", "--n", "2"], set(), id="verify"),
        pytest.param(["spectrum", "--n", "2", "--count", "6"], {"towers", "spectral"}, id="spectrum"),
        pytest.param(["spectrum", "--n", "1", "--count", "6", "--fd", "--format", "csv", "--out", "OUT"],
                     {"towers", "spectral"}, id="spectrum-fd"),
        pytest.param(["eigenfunctions", "--n", "2", "--m", "3", "--grid", "-4:4:401", "--format", "csv",
                      "--out", "OUT"], {"towers"}, id="eigenfunctions"),
        pytest.param(["coherent", "--n", "2", "--sector", "psi", "--z", "0.5", "--tol", "1e-12"],
                     {"towers", "coherent"}, id="coherent"),
        pytest.param(["uncertainty", "--n", "1", "--state", "ground"], {"towers", "uncertainty"},
                     id="uncertainty-ground"),
        pytest.param(["uncertainty", "--n", "2", "--state", "mixed"], {"towers", "uncertainty"},
                     id="uncertainty-mixed"),
    ],
)
def test_each_readme_command_runs_only_the_submodules_it_calls(argv, extra, tmp_path):
    argv = [str(tmp_path / "report") if a == "OUT" else a for a in argv]
    assert ran_after(main_code(argv)) == {"cli", "reports", "calculus", "systems"} | extra


def test_after_cli_import_every_submodule_is_registered_and_exposes_its_functions():
    # A tracer that wraps the functions of the package modules in
    # sys.modules, reading each with vars(), finds all six.
    code = (
        "import types, coupledsusy.cli\n"
        f"for name in {sorted(SUBMODULES)!r}:\n"
        "    module = sys.modules['coupledsusy.' + name]\n"
        "    assert any(isinstance(v, types.FunctionType) and v.__module__ == module.__name__\n"
        "               for v in vars(module).values()), name\n"
    )
    assert ran_after(code) == SUBMODULES | {"cli", "reports"}


def four_threads(setup, statement):
    """Code that runs `setup`, then `statement` in four threads released at once; none may raise."""
    return (
        f"import threading\n{setup}\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, errors = threading.Barrier(4), []\n"
        "def read():\n"
        "    barrier.wait()\n"
        "    try:\n"
        f"        {statement}\n"
        "    except Exception as exc:\n"
        "        errors.append(exc)\n"
        "threads = [threading.Thread(target=read) for _ in range(4)]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(60)\n"
        "assert not any(thread.is_alive() for thread in threads)\n"
        "assert not errors, errors\n"
    )


@pytest.mark.parametrize("first", ["coupledsusy", "coupledsusy.cli"])
def test_concurrent_first_reads_of_a_public_name_all_succeed(first):
    code = four_threads(f"import {first}", "coupledsusy.make_xn_system, coupledsusy.eigenstate")
    assert SUBMODULES <= ran_after(code)


#: The submodules the CLI registers lazily, each with a function to import from it.
LAZY_SUBMODULES = {
    "coherent": "coherent_state",
    "spectral": "fd_spectrum",
    "towers": "eigenstate",
    "uncertainty": "direct_sum",
}


@pytest.mark.parametrize("name", sorted(LAZY_SUBMODULES))
def test_concurrent_first_imports_from_a_lazy_submodule_all_succeed(name):
    # each thread's import is the module's first attribute read: one runs it, the others wait
    code = four_threads("import coupledsusy.cli", f"from coupledsusy.{name} import {LAZY_SUBMODULES[name]}")
    assert name in ran_after(code)


#: (2a, a+/2, b, b+) passes verify, but not the tower proof (the a images have four times the norm
#: the lemma needs), so every call on it takes the unproved route, which loads _oracle on first use.
_UNPROVED = (
    "from fractions import Fraction\n"
    "from coupledsusy.systems import CoupledSusySystem, make_xn_system\n"
    "from coupledsusy.towers import SectorLabel, eigenstate, verify_lemma_half_lowering\n"
    "from coupledsusy.uncertainty import uncertainty_product_LA\n"
    "a, adag, b, bdag = make_xn_system(2).generators\n"
    "system = CoupledSusySystem(2, Fraction(-1), Fraction(3), (a.scale(2), adag.scale(Fraction(1, 2)), b, bdag))\n"
    "assert 'coupledsusy._oracle' not in sys.modules\n"
)


@pytest.mark.parametrize("call, want", [
    ("eigenstate(system, SectorLabel.PSI_TILDE, 2)",
     {"sector": "psi~", "m": 2, "n": 2, "eigenvalue": "8/1", "state": "2; 1; 2:-40/1, 6:16/1",
      "norm_sq": "2; 1:160/1"}),
    ("uncertainty_product_LA(system, eigenstate(system, SectorLabel.PSI, 1))",
     {"observable_pair": "L,A", "sigma1": 3.3166247903554, "sigma2": 3.3166247903554, "product": 11.0,
      "bound": 9.0, "equality_gap": 2.0, "pass": True, "details": {"mean_number": 4.0, "bound_closed_form": 9.0}}),
    ("verify_lemma_half_lowering(system, 3)",
     {"identity": "half-lowering norm relations", "n": 2, "range": [0, 3], "pass": False,
      "first_failure": {"sector": "phi", "m": 0}, "note": "lambda^2 values: m(d-g) for PSI and PHI_TILDE, "
      "m(d-g)+delta for PHI, m(d-g)-delta for PSI_TILDE"}),
], ids=["eigenstate", "uncertainty_product_LA", "verify_lemma_half_lowering"])
def test_an_unproved_system_loads_the_oracle_on_its_first_call(call, want):
    code = _UNPROVED + f"assert {call}.to_json_dict() == {want!r}\n"
    assert ran_after(code) == {"calculus", "systems", "towers", "uncertainty", "_oracle"}


def test_concurrent_first_unproved_calls_all_succeed():
    statement = ("assert uncertainty_product_LA(system, eigenstate(system, SectorLabel.PSI, 3)).passed; "
                 "assert not verify_lemma_half_lowering(system, 2).passed")
    assert "_oracle" in ran_after(four_threads(_UNPROVED, statement))
