"""Distribution metadata agrees with the package."""

import os

import pytest

import coupledsusy

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")


def test_distribution_name_and_version_match_package():
    with open(PYPROJECT, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["name"] == "coupledsusy"
    assert project["version"] == coupledsusy.__version__
