"""Exact and numerical workbench for the x^n coupled SUSY family.

The package realises the quadruple {a, b, gamma, delta} with
a+a = b+b + gamma and aa+ = bb+ + delta on Gaussian-weighted polynomial
states, verifies the algebra exactly, builds the eigenstate towers and
their su(1,1) coherent states, cross-checks the spectrum numerically, and
evaluates the associated uncertainty principles.

``import coupledsusy`` runs none of the submodules below.  The first read
of a public name (PEP 562 ``__getattr__``) imports all six and binds every
export, so a library session compiles the whole package once, before its
first call.  The CLI imports the submodules its command calls and no
others (see ``cli``).
"""

import importlib
import threading

__version__ = "0.1.0"

#: Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "calculus": (
        "DivergenceError", "FamilyMismatchError", "GammaVector", "GaussPolyState", "Generator",
        "IDENTITY", "LOWERING_WORD", "Operator", "RAISING_WORD", "apply_generator", "apply_word",
        "inner_product", "monomial_state", "proportionality_ratio", "zero_state",
    ),
    "coherent": (
        "CoherentState", "HalfLoweringCheck", "bargmann_index", "bargmann_indices",
        "coherent_state", "full_lowering_misfit", "verify_half_lowering",
    ),
    "spectral": (
        "FD_DOCUMENTED_TOLERANCE", "GalerkinProblem", "SpectrumReport", "build_galerkin",
        "fd_spectrum", "galerkin_spectrum", "solve_generalized",
    ),
    "systems": (
        "CoupledSusySystem", "VerificationReport", "all_reports_pass", "default_window",
        "k_operators", "make_xn_system", "mutation_slots", "verify_coupled_susy", "verify_su11",
    ),
    "towers": (
        "EigenstateRecord", "SectorLabel", "eigenstate", "gram_matrix", "ground_states",
        "half_lowering_factor_squared", "merged_spectrum", "normalized_samples",
        "tower_eigenvalue", "verify_lemma_half_lowering",
    ),
    "uncertainty": (
        "DirectSumState", "SectorDomainError", "UncertaintyResult", "direct_sum", "expectation",
        "observable_A", "observable_A_tilde", "observable_L", "observable_L_tilde", "sigma",
        "uncertainty_product_LA", "uncertainty_product_tilde", "uncertainty_product_XP",
        "variance",
    ),
}

#: Every export and the six submodule names, sorted.
__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


#: Serialises first reads from several threads: a submodule the CLI
#: registered with LazyLoader runs on its first attribute read, and before
#: Python 3.12 that trigger takes no lock.
_LOAD_LOCK = threading.RLock()


def __getattr__(name):
    """Run every submodule and bind the whole public namespace (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    with _LOAD_LOCK:
        for submodule, exports in _EXPORTS.items():
            module = importlib.import_module(f"{__name__}.{submodule}")
            namespace[submodule] = module
            for export in exports:
                namespace[export] = getattr(module, export)
    return namespace[name]


def __dir__():
    return list(__all__)
