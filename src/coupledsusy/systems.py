"""Coupled SUSY systems and exact proofs of their algebra.

A coupled SUSY system is a quadruple {a, b, gamma, delta} with

    a+ a = b+ b + gamma,        a a+ = b b+ + delta,        gamma < delta.

The x^n family realises this with a = (x^(1-n) d/dx + x^n)/sqrt(2) and
b = (-x^(1-n) d/dx + x^n)/sqrt(2), giving gamma = -1 and delta = 2n - 1.
Differentiating x^k exp(-x^(2n)/(2n)) turns each generator into an
Operator with one or two shifts, x^k -> (alpha + beta k) x^(k+shift).

The definition is two pairs of partner Hamiltonians, H = partner + c,
each laddered by its own quadratic words; _PAIRS is their one table:

    H      partner   raising   lowering   shift c
    a+a    b+b       a+b       b+a        gamma
    aa+    bb+       ba+       ab+        delta

A system composes the eight words once (`pairs`, indexed by is_tilde) for
every identity, tower check and observable to read.  Rescaled by
1/(delta-gamma), each pair's words close into su(1,1).  Each identity is
proved by checking that its residual Operator lhs - rhs, a map {shift ->
polynomial in k}, is identically zero, which settles it for every integer
exponent k.  Each su(1,1) row's residual is a two-sided combination of the
two defining residuals, for any four operators (verify_su11), so a system
whose defining residuals vanish passes every su(1,1) row with no product
composed; any other system, such as a mutated one, has each row composed,
the rescaled K rows scaled from the first pair's.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .calculus import IDENTITY, GaussPolyState, Generator, Operator, Record, _integer

_GENERATOR_INDEX = {gen: i for i, gen in enumerate(Generator)}

_PROOF_NOTE = (
    "proof for every integer k: pass iff the residual operator {shift -> "
    "polynomial in k} is zero; first_failure.k is the first k >= range[0] "
    "where it is not"
)


#: (H, partner, raising, lowering, shift) per pair; a word reads as an operator product.
_PAIRS = (
    ("a+a", "b+b", "a+b", "b+a", "gamma"),
    ("aa+", "bb+", "ba+", "ab+", "delta"),
)


class PartnerPair(NamedTuple):
    """A row of _PAIRS (`names`) composed for one system: its four words and the shift."""

    names: tuple
    hamiltonian: Operator
    partner: Operator
    raising: Operator
    lowering: Operator
    shift: Fraction


def _compose(generators: tuple, word: str) -> Operator:
    """The two-generator word, e.g. "a+b" = a+ . b (b acts first)."""
    split = 2 if word[1] == "+" else 1
    left, right = (generators[_GENERATOR_INDEX[Generator(g)]] for g in (word[:split], word[split:]))
    return left @ right


class CoupledSusySystem(Record):
    """The quadruple (a, b, gamma, delta) with its four generator Operators.

    `generators` holds the Operators of a, a+, b, b+ in Generator order,
    `pairs` the rows of _PAIRS composed from them and `spacing` = delta -
    gamma (2n for the x^n family), neither in == or the hash.  The hash is
    computed once, because systems key the tower-state cache.
    """

    _fields = ("n", "gamma", "delta", "generators", "mutation")
    __slots__ = _fields + ("pairs", "spacing", "_hash")
    _defaults = {"mutation": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.gamma > 0 or self.delta < 0:
            raise ValueError("positivity requires gamma <= 0 <= delta")
        if not self.gamma < self.delta:
            raise ValueError("a coupled SUSY system needs gamma < delta")
        object.__setattr__(self, "pairs", tuple(
            PartnerPair(row, *[_compose(self.generators, w) for w in row[:4]], getattr(self, row[4]))
            for row in _PAIRS
        ))
        object.__setattr__(self, "spacing", self.delta - self.gamma)
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self):
        return self._hash

    def generator(self, gen: Generator) -> Operator:
        return self.generators[_GENERATOR_INDEX[gen]]


def _xn_generators(n: int) -> tuple:
    """a, a+, b, b+ of the x^n family; half power 1 is the 1/sqrt(2)."""
    return (
        Operator({-n: (0, 1)}, 1),
        Operator({-n: (n - 1, -1), n: (2,)}, 1),
        Operator({-n: (0, -1), n: (2,)}, 1),
        Operator({-n: (1 - n, 1)}, 1),
    )


#: Named single-coefficient mutations used by the verification harness.
_NAMED_MUTATIONS = {
    "b-coeff": (Generator.B, 1, "alpha", Fraction(1)),
    "a-coeff": (Generator.A, 0, "beta", Fraction(1)),
    "adag-coeff": (Generator.ADAG, 1, "alpha", Fraction(1)),
    "bdag-coeff": (Generator.BDAG, 0, "alpha", Fraction(1)),
}

#: Coefficient position of each mutation field: p(k) = alpha + beta k.
_FIELDS = {"alpha": 0, "beta": 1}


def mutation_slots(system: CoupledSusySystem):
    """All (generator, term index, field) coefficient slots of the generators.

    Term index 0 is the shift -n term and index 1 the shift +n term.
    """
    return [(gen, int(shift >= 0), field) for gen, op in zip(Generator, system.generators)
            for shift, _ in op.polys for field in _FIELDS]


def make_xn_system(n: int, mutate=None) -> CoupledSusySystem:
    """Build the x^n family member: gamma = -1, delta = 2n - 1.

    `mutate` optionally perturbs a single generator coefficient, either by
    one of the named tags in _NAMED_MUTATIONS or as a (generator,
    term_index, "alpha"|"beta", delta) tuple; term index 0 is the shift -n
    term, 1 the shift +n term, alpha the constant and beta the k
    coefficient.  Mutated systems exist so the verifiers can prove they are
    not vacuous.  An integral n (2.0, True) is taken as that int; any other
    n is a ValueError.
    """
    n = _integer(n, "family index n")
    if n < 1:
        raise ValueError("family index n must be a positive integer")
    generators = _xn_generators(n)
    note = None
    if mutate is not None:
        if isinstance(mutate, str):
            try:
                mutate = _NAMED_MUTATIONS[mutate]
            except KeyError:
                raise ValueError(f"unknown mutation tag {mutate!r}") from None
        gen, idx, which, delta = mutate
        if which not in _FIELDS:
            raise ValueError("mutation field must be 'alpha' or 'beta'")
        op = generators[_GENERATOR_INDEX[gen]]
        shift = (-n, n)[idx]
        if shift not in dict(op.polys):
            raise ValueError(f"generator {gen.value} has no term {idx}")
        mutated = op + Operator({shift: [0] * _FIELDS[which] + [delta]}, op.half_power)
        generators = tuple(mutated if g is gen else o for g, o in zip(Generator, generators))
        note = f"{gen.value}[{idx}].{which} += {delta}"
    return CoupledSusySystem(
        n=n,
        gamma=Fraction(-1),
        delta=Fraction(2 * n - 1),
        generators=generators,
        mutation=note,
    )


def default_window(n: int) -> tuple:
    """Default exponent window in which a failing identity's first_failure is located."""
    return (-2 * n - 10, 4 * n + 30)


class VerificationReport(Record):
    """Outcome of proving one operator identity.

    `passed` is exact for every exponent.  `k_range` and `checked` describe
    the window where a failure is located: first_failure.k is the first
    k >= k_range[0] whose monomial image under the residual is nonzero,
    searched past k_range[1] when the residual vanishes on the window.
    first_failure also carries that image (`residual`) and the serialized
    residual Operator (`residual_operator`).
    """

    __slots__ = _fields = ("identity", "n", "k_range", "passed", "first_failure", "checked", "note")
    _defaults = {"first_failure": None, "checked": 0, "note": ""}

    def to_json_dict(self) -> dict:
        payload = {
            "identity": self.identity,
            "n": self.n,
            "range": list(self.k_range),
            "pass": self.passed,
            "first_failure": self.first_failure,
        }
        if self.note:
            payload["note"] = self.note
        return payload


def _prove(system: CoupledSusySystem, name: str, residual: Operator, window: tuple) -> VerificationReport:
    k_range, checked = window
    first_failure = None
    if not residual.is_zero:
        # a nonzero residual has a nonzero polynomial, which has finitely many roots
        k = k_range[0]
        while not any((image := residual._image({k: 1})).values()):  # x^k's image, in ints
            k += 1
        first_failure = {
            "k": k,
            "residual": GaussPolyState._from_ints(system.n, image, residual.den, residual.half_power).serialize(),
            "residual_operator": residual.serialize(),
        }
    return VerificationReport(name, system.n, k_range, residual.is_zero, first_failure, checked, _PROOF_NOTE)


def _window(system, exponent_range) -> tuple:
    """((lo, hi), count) of the exponent window, taken once per verify call."""
    if exponent_range is None:
        lo, hi = default_window(system.n)
        return (lo, hi), hi - lo + 1
    ks = list(exponent_range)
    if not ks:
        raise ValueError("exponent range must be nonempty")
    return (min(ks), max(ks)), len(ks)


#: The defining identity of each pair of _PAIRS, as verify_coupled_susy names it.
_DEFINING_ROWS = tuple(f"{h} = {partner} + {shift_name}" for h, partner, _, _, shift_name in _PAIRS)


def _defining_residual(pair: PartnerPair) -> Operator:
    """H - partner - c, zero iff the pair's defining identity H = partner + c holds."""
    return pair.hamiltonian - pair.partner - IDENTITY.scale(pair.shift)


def verify_coupled_susy(system: CoupledSusySystem, exponent_range=None) -> list:
    """Prove the two defining identities H = partner + c for every exponent.

    Returns one VerificationReport per identity; both must pass for the
    system to satisfy the coupled SUSY definition.
    """
    window = _window(system, exponent_range)
    return [
        _prove(system, name, _defining_residual(pair), window) for name, pair in zip(_DEFINING_ROWS, system.pairs)
    ]


def k_operators(system: CoupledSusySystem) -> dict:
    """The su(1,1) triple K+ = a+b/(d-g), K- = b+a/(d-g), K0 = (a+a - g/2)/(d-g).

    "k0~" = (aa+ - d/2)/(d-g) is the second-sector K0, whose value on the
    lowest state of a tilde tower is that tower's Bargmann index.
    """
    pref = 1 / system.spacing
    k0, k0_tilde = ((p.hamiltonian - IDENTITY.scale(p.shift / 2)).scale(pref) for p in system.pairs)
    first = system.pairs[0]
    return {"k+": first.raising.scale(pref), "k-": first.lowering.scale(pref), "k0": k0, "k0~": k0_tilde}


#: The nine su(1,1) rows of verify_su11: three per pair of _PAIRS, then the rescaled K rows.
_SU11_ROWS = tuple(
    name
    for h, _, r, l, shift_name in _PAIRS
    for name in (
        f"[{h}, {r}] = (delta-gamma) {r}",
        f"[{h}, {l}] = -(delta-gamma) {l}",
        f"[{r}, {l}] = 2(gamma-delta)({h} - {shift_name}/2)",
    )
) + ("[K0, K+] = K+", "[K0, K-] = -K-", "[K+, K-] = -2 K0")

_ZERO = Operator({})


def _satisfies_definition(system: CoupledSusySystem) -> bool:
    """Whether both defining residuals are zero; False where forming one raises on mixed
    sqrt(2) parities, so that the composed rows raise exactly where they always did."""
    try:
        return all(_defining_residual(pair).is_zero for pair in system.pairs)
    except ValueError:
        return False


def _composed_su11(system: CoupledSusySystem) -> list:
    """The residuals of the _SU11_ROWS, each pair commutator composed in one pass.

    The K rows are the first pair's three residuals over (delta-gamma)^2,
    scaled, not composed: K0 = (H - gamma/2)/(delta-gamma), K+- = R, L/(delta-
    gamma) and a constant commutes, so e.g. [K+, K-] + 2 K0 = ([R, L] +
    2(delta-gamma)(H - gamma/2))/(delta-gamma)^2, exactly, as forms are exact.
    """
    dg = system.spacing
    residuals = []
    for _, H, _, R, L, c in system.pairs:
        residuals += [
            H._commutator(R) - R.scale(dg),
            H._commutator(L) + L.scale(dg),
            R._commutator(L) + (H - IDENTITY.scale(c / 2)).scale(2 * dg),
        ]
    return residuals + [residual.scale(1 / dg ** 2) for residual in residuals[:3]]


def verify_su11(system: CoupledSusySystem, exponent_range=None) -> list:
    """Prove the su(1,1) ladder commutators for every exponent, pair by pair.

    Per pair, [H, R] = (delta-gamma) R, [H, L] = -(delta-gamma) L and
    [R, L] = 2(gamma-delta)(H - c/2), then the rescaled rows [K0, K+-] =
    +-K+- and [K+, K-] = -2 K0 of k_operators.  With D1 = a+a - b+b - gamma
    and D2 = aa+ - bb+ - delta, the defining residuals, each pair row's
    residual is a two-sided combination of D1 and D2 for any four operators
    (P = b+b, P~ = bb+, R = a+b, L = b+a, R~ = ba+, L~ = ab+):

        [H, R] - dg R              = a+ D2 b - R D1
        [H, L] + dg L              = D1 L - b+ D2 a
        [R, L] + 2 dg (H - g/2)    = P D1 + D1 P + D1^2 + d D1 - a+ D2 a - b+ D2 b
        [H~, R~] - dg R~           = D2 R~ - b D1 a+
        [H~, L~] + dg L~           = a D1 b+ - L~ D2
        [R~, L~] + 2 dg (H~ - d/2) = a D1 a+ + b D1 b+ - P~ D2 - D2 P~ - D2^2 - g D2

    (dg = delta-gamma, g = gamma, d = delta) and the K rows are the first
    three over dg^2.  So when both defining residuals are zero every row is
    the zero Operator, and its passing report needs no product.  Otherwise,
    as on a mutated system, every row is composed (_composed_su11), which
    locates its first failure.
    """
    window = _window(system, exponent_range)
    residuals = [_ZERO] * len(_SU11_ROWS) if _satisfies_definition(system) else _composed_su11(system)
    return [_prove(system, name, residual, window) for name, residual in zip(_SU11_ROWS, residuals)]


def all_reports_pass(reports: Iterable[VerificationReport]) -> bool:
    return all(r.passed for r in reports)
