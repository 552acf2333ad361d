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


#: The public surface of ``import coupledsusy``; a change to it is deliberate.
PUBLIC_API = [
    "CoherentState", "CoupledSusySystem", "DirectSumState", "DivergenceError",
    "EigenstateRecord", "FD_DOCUMENTED_TOLERANCE", "FamilyMismatchError", "GalerkinProblem",
    "GammaVector", "GaussPolyState", "Generator", "HalfLoweringCheck", "IDENTITY",
    "LOWERING_WORD", "Operator", "RAISING_WORD", "SectorDomainError", "SectorLabel",
    "SpectrumReport", "UncertaintyResult", "VerificationReport", "all_reports_pass",
    "apply_generator", "apply_word", "bargmann_index", "bargmann_indices", "build_galerkin",
    "calculus", "coherent", "coherent_state", "default_window", "direct_sum", "eigenstate",
    "expectation", "fd_spectrum", "full_lowering_misfit", "galerkin_spectrum", "gram_matrix",
    "ground_states", "half_lowering_factor_squared", "inner_product", "k_operators",
    "make_xn_system", "merged_spectrum", "monomial_state", "mutation_slots",
    "normalized_samples", "observable_A", "observable_A_tilde", "observable_L",
    "observable_L_tilde", "proportionality_ratio", "sigma", "solve_generalized", "spectral",
    "systems", "tower_eigenvalue", "towers", "uncertainty", "uncertainty_product_LA",
    "uncertainty_product_XP", "uncertainty_product_tilde", "variance", "verify_coupled_susy",
    "verify_half_lowering", "verify_lemma_half_lowering", "verify_su11", "zero_state",
]


def test_public_api_is_pinned():
    assert sorted(coupledsusy.__all__) == PUBLIC_API


def test_star_import_and_dir_give_the_pinned_names():
    namespace = {}
    exec("from coupledsusy import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_API
    assert dir(coupledsusy) == PUBLIC_API
    assert "__version__" in vars(coupledsusy)  # read without loading a submodule
