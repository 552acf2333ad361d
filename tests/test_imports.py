"""Import graph: numpy and scipy load only on the routes that compute with them.

Each check runs in a fresh interpreter, since the test process itself has
long since imported both.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_REPORT = """
import sys
print(" ".join(m for m in ("numpy", "scipy", "scipy.linalg") if m in sys.modules))
"""


def loaded_after(code):
    """Which of numpy, scipy and scipy.linalg a fresh interpreter holds after `code`."""
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


def test_verify_command_runs_without_numpy_or_scipy():
    code = (
        "import contextlib, io\n"
        "from coupledsusy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--n', '2']) == 0\n"
    )
    assert loaded_after(code) == set()


def test_fd_spectrum_loads_scipy_linalg():
    code = "from coupledsusy.spectral import fd_spectrum\nfd_spectrum(1, 6.0, 16, count=2)\n"
    assert loaded_after(code) == {"numpy", "scipy", "scipy.linalg"}


def test_galerkin_spectrum_command_runs_without_numpy_or_scipy():
    code = (
        "import contextlib, io\n"
        "from coupledsusy import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['spectrum', '--n', '2', '--count', '6']) == 0\n"
    )
    assert loaded_after(code) == set()
