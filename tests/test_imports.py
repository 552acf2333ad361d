"""Import graph: numpy and mpmath load only on the routes that compute with them, scipy never.

The package itself loads neither dataclasses nor inspect, which cost a cold
CLI process tens of milliseconds; numpy imports inspect on the sampling
route that needs it.  Each check runs in a fresh interpreter, since the
test process itself has long since imported them.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import sys
_WATCHED = ("numpy", "scipy", "scipy.linalg", "mpmath", "dataclasses", "inspect")
print(" ".join(m for m in _WATCHED if m in sys.modules))
"""


def loaded_after(code):
    """Which of numpy, scipy, scipy.linalg, mpmath, dataclasses and inspect a fresh interpreter holds."""
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


def test_eigenfunctions_command_loads_only_numpy():
    argv = ["eigenfunctions", "--n", "2", "--m", "3", "--grid", "-4:4:401", "--format", "csv"]
    assert loaded_after(cli_code(argv)) == {"numpy", "inspect"}
