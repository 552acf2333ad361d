"""Exact calculus on Gaussian-weighted Laurent polynomials.

Everything in this package acts on wavefunctions of the form

    q(x) * exp(-x^(2n) / (2n)),

where q is a sparse Laurent polynomial with rational coefficients and n is
the family index of the x^n coupled SUSY system.  The four first-order
generators a, a+, b, b+ map each monomial x^k to a short rational
combination of shifted monomials, times a global 1/sqrt(2).  Those sqrt(2)
factors are tracked separately as an integer "half power" so that all
coefficient arithmetic stays in Q: a state represents

    2^(-w/2) * sum_k (c_k / d) x^k * exp(-x^(2n)/(2n)),

with w canonicalised into {0, 1} (even parts are folded into the
coefficients) and int numerators c_k over one int denominator d > 0,
reduced so that gcd(d, c_k...) = 1.  The {k: Fraction} map `terms` is
derived from them on first read.

Operators live in the same exact world.  An Operator sends each monomial
x^k to sum_s p_s(k) x^(k+s), where every p_s is a polynomial in k with
rational coefficients, again times a sqrt(2) half power.  The generators
are Operators whose p_s have degree <= 1; words, the su(1,1) triples,
the defining identities and the observables are built from them by
composition, so an operator identity holds for every integer exponent
exactly when its residual Operator is zero.

Inner products over the real line reduce, by the Gamma recurrence, to
exact rational combinations of the base symbols G_r = Gamma(r/(2n)) *
n^(r/(2n)) with odd r in 1..2n-1: for even j >= 0 and j + 1 = r + 2nt,

    int_R x^j exp(-x^(2n)/n) dx = G_r * prod_{i<t} (r + 2ni) / (n 2^t).

A GammaVector stores such a combination exactly; numeric values come out of
an arbitrary-precision evaluator with a certified error bound.  An Operator
stores its polynomials like a state: int coefficients over one int
denominator, reduced once per result.  Applying operators, composing,
adding and scaling them, and the inner product all run on those ints with
no Fraction in between.

Negative exponents are legal in intermediate states (some generators leave
the polynomial towers); integrability is only enforced when an inner
product is requested.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .systems import CoupledSusySystem


class Record:
    """Base of the immutable result records: field-wise ==, hash and repr.

    A subclass names its fields in `_fields` and holds them in `__slots__`;
    `_defaults` maps a field that may be omitted to its default, or to a
    factory (any callable, such as dict) called once per record.  == holds
    only within one class.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        """Bind the arguments to `_fields` in order, like a signature of those names and defaults.

        A call that gives every field by position skips the binding step, so
        the records built on every library call are built that way.
        """
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """One value per field, omitted ones from `_defaults`; TypeError where a signature raises it."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields[len(args):]:
                problem = "multiple values for argument" if key in fields else "an unexpected keyword argument"
                raise TypeError(f"{name}() got {problem} {key!r}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs[field])
            elif field in self._defaults:
                default = self._defaults[field]
                values.append(default() if callable(default) else default)
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return values

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({body})"


class FamilyMismatchError(ValueError):
    """Two objects built for different family indices n were combined."""


class DivergenceError(ValueError):
    """An inner product integrand contains a non-integrable power x^j, j <= -1."""


class Generator(Enum):
    """The four first-order generators of a coupled SUSY system."""

    A = "a"
    ADAG = "a+"
    B = "b"
    BDAG = "b+"


#: Composition words are tuples of generators applied right-to-left,
#: matching operator products: (ADAG, B) means "apply b, then a+".
RAISING_WORD = (Generator.ADAG, Generator.B)
LOWERING_WORD = (Generator.BDAG, Generator.A)


class GaussPolyState:
    """A sparse exact state q(x) * exp(-x^(2n)/(2n)) with a sqrt(2) half power.

    Immutable.  The coefficients are nonzero int numerators `nums` {k: c_k}
    over one int denominator `den` > 0 with gcd(den, *c_k) == 1, and even
    half powers of 2 are folded into them, so two states are equal iff their
    n, half_power, den and nums are.  `terms`, the same map as {k: Fraction}
    in the same key order, is derived on first read.
    """

    __slots__ = ("n", "half_power", "nums", "den", "_terms")

    def __init__(self, n: int, terms: Mapping[int, object], half_power: int = 0):
        if n < 1:
            raise ValueError("family index n must be a positive integer")
        fracs = {int(k): Fraction(c) for k, c in terms.items()}
        fracs = {k: c for k, c in fracs.items() if c}
        den = math.lcm(*[c.denominator for c in fracs.values()])
        nums = {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}
        self._set(int(n), nums, den, half_power)

    def _set(self, n: int, nums: dict, den: int, half_power: int):
        """Store nonzero int numerators over den > 0, folding the half power and reducing."""
        fold = half_power >> 1  # floor division, works for negatives
        if fold > 0:
            den <<= fold
        elif fold < 0:
            nums = {k: c << -fold for k, c in nums.items()}
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "half_power", half_power & 1 if nums else 0)  # one zero state
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _from_ints(cls, n: int, nums: dict, den: int, half_power: int) -> "GaussPolyState":
        """The state 2^(-half_power/2) * sum_k nums[k]/den x^k ...; nums nonzero, den > 0."""
        state = object.__new__(cls)
        state._set(n, nums, den, half_power)
        return state

    def __setattr__(self, *_):
        raise AttributeError("GaussPolyState is immutable")

    @property
    def terms(self) -> dict:
        """The coefficients as {k: Fraction}, in the key order of `nums`."""
        if self._terms is None:
            den = self.den
            object.__setattr__(self, "_terms", {k: Fraction(c, den) for k, c in self.nums.items()})
        return self._terms

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def min_exponent(self):
        return min(self.nums) if self.nums else None

    def residues(self) -> set:
        """Residue classes mod 2n occupied by the exponents."""
        mod = 2 * self.n
        return {k % mod for k in self.nums}

    # -- algebra -----------------------------------------------------------

    def scale(self, r) -> "GaussPolyState":
        r = Fraction(r)
        p = r.numerator
        nums = {k: c * p for k, c in self.nums.items()} if p else {}
        return GaussPolyState._from_ints(self.n, nums, self.den * r.denominator, self.half_power)

    def scale_sqrt2(self, j: int) -> "GaussPolyState":
        """Multiply the state by 2^(j/2) exactly."""
        return GaussPolyState._from_ints(self.n, self.nums, self.den, self.half_power - j)

    def __add__(self, other: "GaussPolyState") -> "GaussPolyState":
        if self.n != other.n:
            raise FamilyMismatchError("cannot add states with different n")
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.half_power != other.half_power:
            raise ValueError(
                "cannot add states of mismatched sqrt(2) parity exactly; "
                "rescale one side with scale_sqrt2 first"
            )
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, den // other.den
        out = {k: c * mine for k, c in self.nums.items()}
        for k, c in other.nums.items():
            out[k] = out.get(k, 0) + c * theirs
        nums = {k: c for k, c in out.items() if c}
        return GaussPolyState._from_ints(self.n, nums, den, self.half_power)

    def __neg__(self) -> "GaussPolyState":
        return self.scale(-1)

    def __sub__(self, other: "GaussPolyState") -> "GaussPolyState":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussPolyState):
            return NotImplemented
        return (
            self.n == other.n
            and self.half_power == other.half_power
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.n, self.half_power, self.den, frozenset(self.nums.items())))

    def __repr__(self):
        return f"GaussPolyState({self.serialize()!r})"

    # -- canonical text form ------------------------------------------------

    def serialize(self) -> str:
        """Canonical text `n; w; k1:c1, ...`; raises ValueError for an int past Python's
        int-to-text digit limit (4300 by default), which the library never raises."""
        den = self.den
        parts = []
        for k, c in sorted(self.nums.items()):
            g = math.gcd(c, den)
            parts.append(f"{k}:{c // g}/{den // g}")
        return f"{self.n}; {self.half_power}; {', '.join(parts)}"

    @classmethod
    def parse(cls, text: str) -> "GaussPolyState":
        head, w, body = (part.strip() for part in text.split(";", 2))
        terms = {}
        if body:
            for chunk in body.split(","):
                k, c = chunk.split(":")
                terms[int(k)] = Fraction(c.strip())
        return cls(int(head), terms, int(w))


def monomial_state(n: int, k: int, coeff=1) -> GaussPolyState:
    """The state coeff * x^k * exp(-x^(2n)/(2n))."""
    return GaussPolyState(n, {k: Fraction(coeff)})


def zero_state(n: int) -> GaussPolyState:
    return GaussPolyState(n, {})


# ---------------------------------------------------------------------------
# Operators: {shift -> polynomial in k} with a sqrt(2) half power
# ---------------------------------------------------------------------------


def _poly_add(p, q) -> list:
    if len(p) < len(q):
        p, q = q, p
    return [c + q[i] if i < len(q) else c for i, c in enumerate(p)]


def _poly_mul(p, q) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _poly_shift(p, s: int) -> list:
    """Coefficients of k -> p(k + s), by repeated synthetic division in place."""
    out = list(p)
    for i in range(len(out) - 1):
        for j in range(len(out) - 2, i - 1, -1):
            out[j] += s * out[j + 1]
    return out


class Operator:
    """An exact linear map x^k -> 2^(-w/2) * sum_s p_s(k) x^(k+s).

    The polynomials p_s(k) = (c0 + c1 k + ...) / den are stored like a
    GaussPolyState: `polys` holds (s, (c0, c1, ...)) with int c_i in
    ascending shift order, trailing zero coefficients and zero polynomials
    dropped, over one int `den` > 0 with gcd(den, every c_i) == 1, and even
    half powers w are folded into the ints.  Two operators are therefore
    equal iff they act identically on x^k for every integer k.  `terms`,
    the same map as {s: (Fraction, ...)}, is derived on first read.

    Immutable; the hash is computed once, because the systems that hold
    generator operators key the tower-state cache.
    """

    __slots__ = ("polys", "den", "half_power", "_hash", "_terms")

    def __init__(self, terms: Mapping[int, Iterable], half_power: int = 0):
        fracs = {int(s): [Fraction(c) for c in p] for s, p in terms.items()}
        den = math.lcm(*[c.denominator for p in fracs.values() for c in p])
        polys = {s: [c.numerator * (den // c.denominator) for c in p] for s, p in fracs.items()}
        self._set(polys, den, half_power)

    def _set(self, polys: dict, den: int, half_power: int):
        """Store {s: int list} over den > 0 canonically, with one gcd; trims the lists in place."""
        fold = half_power >> 1  # floor division, works for negatives
        if fold > 0:
            den <<= fold
        canon = []
        for s in sorted(polys):
            p = polys[s]
            while p and not p[-1]:
                p.pop()
            if p:
                canon.append((s, [c << -fold for c in p] if fold < 0 else p))
        g = math.gcd(den, *[c for _, p in canon for c in p])
        if g != 1:
            canon = [(s, [c // g for c in p]) for s, p in canon]
            den //= g
        polys = tuple([(s, tuple(p)) for s, p in canon])
        half_power = half_power & 1 if polys else 0  # the zero operator has one canonical form
        object.__setattr__(self, "polys", polys)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "half_power", half_power)
        object.__setattr__(self, "_hash", hash((half_power, den, polys)))
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _from_ints(cls, polys: dict, den: int, half_power: int) -> "Operator":
        """The operator 2^(-half_power/2) * {s: polys[s] / den}; fresh int lists, den > 0."""
        op = object.__new__(cls)
        op._set(polys, den, half_power)
        return op

    def __setattr__(self, *_):
        raise AttributeError("Operator is immutable")

    @property
    def terms(self) -> dict:
        """The polynomials as {s: (Fraction, ...)}, in ascending shift order."""
        if self._terms is None:
            terms = {s: tuple([Fraction(c, self.den) for c in p]) for s, p in self.polys}
            object.__setattr__(self, "_terms", terms)
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self.polys

    def apply(self, state: GaussPolyState) -> GaussPolyState:
        """The image of a state, built shift by shift in ascending order, in ints."""
        items = state.nums.items()
        out: dict = {}
        for shift, poly in self.polys:
            top, rest = poly[-1], poly[-2::-1]
            for k, c in items:
                value = top
                for a in rest:  # Horner's rule for p_s(k)
                    value = value * k + a
                coeff = c * value
                if coeff:
                    kk = k + shift
                    out[kk] = out.get(kk, 0) + coeff
        nums = {k: c for k, c in out.items() if c}
        return GaussPolyState._from_ints(
            state.n, nums, state.den * self.den, state.half_power + self.half_power
        )

    def __matmul__(self, other: "Operator") -> "Operator":
        """The product self . other (other acts first).

        x^k -> p2(k) x^(k+s2) -> p1(k+s2) p2(k) x^(k+s1+s2), summed over the
        shifts s1 of self and s2 of other.
        """
        out: dict = {}
        for s2, p2 in other.polys:
            for s1, p1 in self.polys:
                s = s1 + s2
                out[s] = _poly_add(out.get(s, ()), _poly_mul(_poly_shift(p1, s2), p2))
        return Operator._from_ints(out, self.den * other.den, self.half_power + other.half_power)

    def scale(self, r) -> "Operator":
        r = Fraction(r)
        p = r.numerator
        polys = {s: [c * p for c in poly] for s, poly in self.polys}
        return Operator._from_ints(polys, self.den * r.denominator, self.half_power)

    def scale_sqrt2(self, j: int) -> "Operator":
        """Multiply the operator by 2^(j/2) exactly."""
        return Operator._from_ints({s: list(p) for s, p in self.polys}, self.den, self.half_power - j)

    def __add__(self, other: "Operator") -> "Operator":
        return self._sum(other, 1)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._sum(other, -1)

    def _sum(self, other: "Operator", sign: int) -> "Operator":
        """self + sign * other, for sign in {1, -1}."""
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign == 1 else -other
        if self.half_power != other.half_power:
            raise ValueError(
                "cannot add operators of mismatched sqrt(2) parity exactly; "
                "rescale one side with scale_sqrt2 first"
            )
        den = math.lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        out = {s: [c * mine for c in p] for s, p in self.polys}
        for s, p in other.polys:
            out[s] = _poly_add(out.get(s, ()), [c * theirs for c in p])
        return Operator._from_ints(out, den, self.half_power)

    def __neg__(self) -> "Operator":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return (self.half_power, self.den, self.polys) == (other.half_power, other.den, other.polys)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Operator({self.serialize()!r})"

    def serialize(self) -> str:
        """Canonical text `w; s1:[c0 c1 ...], s2:[...]` (c_i multiply k^i)."""
        body = ", ".join(
            f"{s}:[{' '.join(f'{c.numerator}/{c.denominator}' for c in p)}]"
            for s, p in self.terms.items()
        )
        return f"{self.half_power}; {body}"


#: The identity map x^k -> x^k.
IDENTITY = Operator({0: (1,)})


def apply_generator(system: "CoupledSusySystem", gen: Generator, state: GaussPolyState) -> GaussPolyState:
    """Apply one generator to a state.

    Each generator is an Operator linear in k, x^k -> (alpha + beta*k)
    x^(k+shift) per shift, whose half power 1 carries the 1/sqrt(2).
    """
    if state.n != system.n:
        raise FamilyMismatchError(
            f"state has n={state.n} but system has n={system.n}"
        )
    return system.generator(gen).apply(state)


def apply_word(system: "CoupledSusySystem", word: Iterable[Generator], state: GaussPolyState) -> GaussPolyState:
    """Apply a composition word right-to-left: (ADAG, B) acts as a+ after b."""
    for gen in reversed(tuple(word)):
        state = apply_generator(system, gen, state)
    return state


def proportionality_ratio(f: GaussPolyState, g: GaussPolyState):
    """Exact scalar between two states, if one exists.

    Returns (q, j) with f == q * 2^(j/2) * g for a rational q, or None when
    the states are not exactly proportional.  Leading terms are compared at
    the largest exponent.
    """
    if f.n != g.n:
        raise FamilyMismatchError("states belong to different families")
    if g.is_zero:
        return (Fraction(0), 0) if f.is_zero else None
    if f.is_zero:
        return (Fraction(0), 0)
    fn, gn = f.nums, g.nums
    if fn.keys() != gn.keys():
        return None
    lead = max(gn)
    p, q = fn[lead], gn[lead]  # f = (p/q) (g.den/f.den) g termwise
    for k, c in gn.items():
        if fn[k] * q != p * c:
            return None
    return Fraction(p * g.den, q * f.den), g.half_power - f.half_power


# ---------------------------------------------------------------------------
# Exact inner products over the Gamma symbols G_r = Gamma(r/(2n)) n^(r/(2n))
# ---------------------------------------------------------------------------


class GammaVector:
    """Exact value sum_r coeffs[r] * Gamma(r/(2n)) * n^(r/(2n)), odd r in 1..2n-1."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, object]):
        if n < 1:
            raise ValueError("family index n must be a positive integer")
        canon = {}
        for r, c in coeffs.items():
            r = int(r)
            if r % 2 == 0 or not (1 <= r <= 2 * n - 1):
                raise ValueError(f"residue {r} is not an odd integer in 1..{2*n-1}")
            c = Fraction(c)
            if c != 0:
                canon[r] = c
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "coeffs", canon)

    def __setattr__(self, *_):
        raise AttributeError("GammaVector is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def scale(self, r) -> "GammaVector":
        r = Fraction(r)
        return GammaVector(self.n, {k: c * r for k, c in self.coeffs.items()})

    def __add__(self, other: "GammaVector") -> "GammaVector":
        if self.n != other.n:
            raise FamilyMismatchError("cannot add GammaVectors with different n")
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            out[r] = out.get(r, Fraction(0)) + c
        return GammaVector(self.n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GammaVector):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"GammaVector({self.serialize()!r})"

    def rational_ratio(self, other: "GammaVector"):
        """Rational q with self == q * other, or None if no exact ratio exists."""
        if self.n != other.n:
            raise FamilyMismatchError("GammaVectors belong to different families")
        if self.is_zero or other.is_zero:
            return Fraction(0) if self.is_zero else None
        r = max(other.coeffs)
        q = self.coeffs.get(r, Fraction(0)) / other.coeffs[r]
        return q if self == other.scale(q) else None

    def serialize(self) -> str:
        """Canonical text `n; r1:c1, ...`; ValueError past the int-to-text digit limit, as for states."""
        body = ", ".join(
            f"{r}:{c.numerator}/{c.denominator}" for r, c in sorted(self.coeffs.items())
        )
        return f"{self.n}; {body}"

    @classmethod
    def parse(cls, text: str) -> "GammaVector":
        head, body = (part.strip() for part in text.split(";", 1))
        coeffs = {}
        if body:
            for chunk in body.split(","):
                r, c = chunk.split(":")
                coeffs[int(r)] = Fraction(c.strip())
        return cls(int(head), coeffs)


_ODD_PARITY = (
    "inner product of states with odd combined sqrt(2) parity is "
    "irrational; rescale one argument with scale_sqrt2 first"
)


def inner_product(f: GaussPolyState, g: GaussPolyState) -> GammaVector:
    """Exact <f, g> = int f g dx as a GammaVector.

    The term pairs collect, in ints over one denominator, into
    sum_j d_j x^j exp(-x^(2n)/n): j <= -1 diverges, odd j vanishes, and each
    residue class r sums d_j prod_{i<t} (r + 2ni) / (n 2^t), j + 1 = r + 2nt,
    with one running product over t into one Fraction.

    When no exponent sum can be negative (min f + min g >= 0), only terms of
    equal parity are paired, since odd powers integrate to zero, and <f, f>
    on one object pairs each unordered term pair once (c_k^2, and
    2 c_k c_l for k before l).  Otherwise every pair is summed, so the
    lowest divergent power is the one named.  Either way the even-power sums
    d_j, and so the value and its key order, are the same.

    The combined sqrt(2) half power of the two states must be even (every
    pairing arising from the operator algebra is); an odd total would leave
    an irrational sqrt(2) that the Gamma symbols cannot absorb.  The one
    exception is a product that is exactly 0: no exponent sum is negative
    and every even-power sum d_j is zero, so the integrand f g is odd.
    """
    if f.n != g.n:
        raise FamilyMismatchError("states belong to different families")
    if f.is_zero or g.is_zero:
        return GammaVector(f.n, {})
    total_half = f.half_power + g.half_power
    odd_parity = total_half % 2 != 0
    n, two_n = f.n, 2 * f.n
    collected: dict = {}
    if min(f.nums) + min(g.nums) < 0:  # every pair, so the sweep below names the first divergent term
        if odd_parity:
            raise ValueError(_ODD_PARITY)
        g_items = g.nums.items()
        for k, c in f.nums.items():
            for l, d in g_items:
                j = k + l
                collected[j] = collected.get(j, 0) + c * d
    else:
        same_parity = ([], [])  # odd powers integrate to zero
        if f is not g:
            for l, d in g.nums.items():
                same_parity[l & 1].append((l, d))
        for k, c in f.nums.items():
            partners = same_parity[k & 1]
            weight = c << 1 if f is g else c  # <f, f>: each unordered pair once
            for l, d in partners:
                j = k + l
                collected[j] = collected.get(j, 0) + weight * d
            if f is g:
                collected[2 * k] = collected.get(2 * k, 0) + c * c
                partners.append((k, c))
        if odd_parity:  # collected holds the even powers only
            if any(collected.values()):
                raise ValueError(_ODD_PARITY)
            return GammaVector(n, {})
    by_residue: dict = {}  # r -> {t: d_j}
    for j, d in sorted(collected.items()):
        if d == 0:
            continue
        if j <= -1:
            raise DivergenceError(f"integrand term x^{j} is not integrable")
        if j % 2 == 0:
            t, r = divmod(j + 1, two_n)
            by_residue.setdefault(r, {})[t] = d
    coeffs: dict = {}
    for r, ds in by_residue.items():
        top, total, product = max(ds), 0, 1
        for t in range(top + 1):
            total += ds.get(t, 0) * product << (top - t)
            product *= r + two_n * t
        coeffs[r] = Fraction(total, n * f.den * g.den << (top + total_half // 2))
    return GammaVector(n, coeffs)


# ---------------------------------------------------------------------------
# Numeric evaluation of Gamma symbols
# ---------------------------------------------------------------------------


def evaluate_gamma_vector_mp(v: GammaVector, prec_bits: int = 113):
    """Evaluate at the given binary precision; returns (value, error_bound) as mpf.

    The bound covers the rounding of each Gamma/power/multiply/add at working
    precision; it is a small multiple of one ulp of the absolute-value sum.
    """
    from mpmath import mp

    with mp.workprec(prec_bits):
        total = mp.mpf(0)
        absum = mp.mpf(0)
        two_n = 2 * v.n
        for r, c in sorted(v.coeffs.items()):
            term = (
                mp.mpf(c.numerator)
                / c.denominator
                * mp.gamma(mp.mpf(r) / two_n)
                * mp.power(v.n, mp.mpf(r) / two_n)
            )
            total += term
            absum += abs(term)
        bound = absum * (len(v.coeffs) + 4) * mp.mpf(2) ** (2 - prec_bits)
        return total, bound
