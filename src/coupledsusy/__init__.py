"""Exact and numerical workbench for the x^n coupled SUSY family.

The package realises the quadruple {a, b, gamma, delta} with
a+a = b+b + gamma and aa+ = bb+ + delta on Gaussian-weighted polynomial
states, verifies the algebra exactly, builds the eigenstate towers and
their su(1,1) coherent states, cross-checks the spectrum numerically, and
evaluates the associated uncertainty principles.
"""

from .calculus import (
    DivergenceError,
    FamilyMismatchError,
    GammaVector,
    GaussPolyState,
    Generator,
    IDENTITY,
    LOWERING_WORD,
    Operator,
    RAISING_WORD,
    apply_generator,
    apply_word,
    inner_product,
    monomial_state,
    proportionality_ratio,
    zero_state,
)
from .coherent import (
    CoherentState,
    HalfLoweringCheck,
    bargmann_index,
    bargmann_indices,
    coherent_state,
    full_lowering_misfit,
    verify_half_lowering,
)
from .spectral import (
    FD_DOCUMENTED_TOLERANCE,
    GalerkinProblem,
    SpectrumReport,
    build_galerkin,
    fd_spectrum,
    galerkin_spectrum,
    solve_generalized,
)
from .systems import (
    CoupledSusySystem,
    VerificationReport,
    all_reports_pass,
    default_window,
    k_operators,
    make_xn_system,
    mutation_slots,
    verify_coupled_susy,
    verify_su11,
)
from .towers import (
    EigenstateRecord,
    SectorLabel,
    eigenstate,
    gram_matrix,
    ground_states,
    half_lowering_factor_squared,
    merged_spectrum,
    normalized_samples,
    tower_eigenvalue,
    verify_lemma_half_lowering,
)
from .uncertainty import (
    DirectSumState,
    SectorDomainError,
    UncertaintyResult,
    direct_sum,
    expectation,
    observable_A,
    observable_A_tilde,
    observable_L,
    observable_L_tilde,
    sigma,
    uncertainty_product_LA,
    uncertainty_product_tilde,
    uncertainty_product_XP,
    variance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
