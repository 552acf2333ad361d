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
others (see ``cli``).  The unproved-system route, ``_oracle``, exports
nothing: ``towers`` and ``uncertainty`` import it on their first input that
the tower proof does not cover, a mutated system or a bare state.
"""

import importlib
import threading

__version__ = "0.1.0"

#: Submodule -> the names the package re-exports from it.
_EXPORTS = {
    "calculus": (
        "DivergenceError", "FamilyMismatchError", "GammaVector", "GaussPolyState", "Generator",
        "IDENTITY", "Operator", "apply_generator", "apply_word", "inner_product", "monomial_state",
        "proportionality_ratio",
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
        "DirectSumState", "SectorDomainError", "UncertaintyResult", "direct_sum",
        "uncertainty_product_LA", "uncertainty_product_tilde", "uncertainty_product_XP",
    ),
}

#: Every export and the six submodule names, sorted.
__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


#: Serialises the first runs of submodules from several threads: this
#: module's first public read, and the first attribute read of a submodule
#: the CLI registered lazily (cli._LazyModule).  One reentrant lock, as
#: running one submodule may run another.
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
