"""Exact calculus on Gaussian-weighted Laurent polynomials.

Everything in this package acts on wavefunctions of the form

    q(x) * exp(-x^(2n) / (2n)),

where q is a sparse Laurent polynomial with rational coefficients and n is
the family index of the x^n coupled SUSY system.  The four first-order
generators a, a+, b, b+ map each monomial x^k to a short rational
combination of shifted monomials, times a global 1/sqrt(2).  Those sqrt(2)
factors are tracked separately as an integer "half power" so that all
coefficient arithmetic stays in Q: a state represents

    2^(-w/2) * sum_k (c_k / d) x^k * exp(-x^(2n)/(2n)).

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
an arbitrary-precision evaluator with a certified error bound.

States, operators and GammaVectors share one exact int form (_IntForm):
a map {key: nonzero int} over one int denominator d > 0, reduced so that
gcd(d, every numerator) = 1, with the half power w folded into {0, 1}
(even parts go into the ints; a GammaVector's w is 0).  A state's map is
{k: c_k}, an operator's {(s, i): coefficient of k^i in p_s} and a
GammaVector's {r: coefficient of G_r}.  Applying and composing
operators, adding and scaling any of them, comparing them, exact ratios
and the inner product all run on those ints with no Fraction in between;
the Fraction maps `terms` and `coeffs` are derived on first read.

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


def _integer(value, name: str) -> int:
    """int(value); ValueError naming the value unless that int equals it (True and 2.0 pass)."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # None, "abc", inf
        pass
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _reduced(c: int, den: int) -> str:
    """The text p/q of c/den in lowest terms (den > 0), 0 as 0/1."""
    g = math.gcd(c, den)
    return f"{c // g}/{den // g}"


class _IntForm:
    """Base of the exact forms: 2^(-half/2) * (int numerators over one int den).

    This is the one canonical store: a map `_data` {key: nonzero int} over
    one den > 0 with gcd(den, every int) == 1, even half powers of 2 folded
    into the ints, so the half power is 0 or 1 (0 for the zero form); two
    forms of one class are equal iff their family, half power, den and maps
    are.  A subclass picks its keys and names its plural for error messages
    in `_KIND`.  Immutable; the Fraction view and the hash are None until
    first use.  States and GammaVectors share one text writer (_text) and
    reader (_read) of the body `k1:p1/q1, ...`.
    """

    __slots__ = ("_family", "_data", "_den", "_half", "_hash", "_view")

    def _set(self, family, data: dict, den: int, half: int):
        """Store data {key: int} canonically over den > 0; a map with no zero that needs no
        reduction is kept as it is (callers pass one built for the call, or a form's own)."""
        if 0 in data.values():
            data = {k: c for k, c in data.items() if c}
        fold = half >> 1  # floor division, works for negatives
        if fold > 0:
            den <<= fold
        elif fold < 0:
            data = {k: c << -fold for k, c in data.items()}
        g = math.gcd(den, *data.values())
        if g != 1:
            data, den = {k: c // g for k, c in data.items()}, den // g
        store = object.__setattr__
        store(self, "_family", family)
        store(self, "_data", data)
        store(self, "_den", den)
        store(self, "_half", half & 1 if data else 0)  # one zero form
        store(self, "_hash", None)
        store(self, "_view", None)

    @classmethod
    def _from_ints(cls, family, data: dict, den: int, half: int):
        """The form 2^(-half/2) * data / den of a family, den > 0."""
        form = object.__new__(cls)
        form._set(family, data, den, half)
        return form

    def _set_fractions(self, family, fracs: dict, half: int):
        """Store {key: Fraction} as its ints over the lcm of the denominators."""
        den = math.lcm(*[c.denominator for c in fracs.values()])
        self._set(family, {k: c.numerator * (den // c.denominator) for k, c in fracs.items()}, den, half)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fraction_view(self):
        if self._view is None:
            den = self._den
            object.__setattr__(self, "_view", {k: Fraction(c, den) for k, c in self._data.items()})
        return self._view

    @property
    def is_zero(self) -> bool:
        return not self._data

    def scale(self, r):
        r = Fraction(r)
        data = {k: c * r.numerator for k, c in self._data.items()}
        return self._from_ints(self._family, data, self._den * r.denominator, self._half)

    def __add__(self, other):
        return self._sum(other, 1)

    def _sum(self, other, sign: int):
        """self + sign * other, for sign in {1, -1}."""
        if self._family != other._family:
            raise FamilyMismatchError(f"cannot add {self._KIND} with different n")
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign == 1 else other.scale(-1)
        if self._half != other._half:
            raise ValueError(
                f"cannot add {self._KIND} of mismatched sqrt(2) parity exactly; "
                "rescale one side with scale_sqrt2 first"
            )
        den = math.lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        data = {k: c * a for k, c in self._data.items()}
        for k, c in other._data.items():
            data[k] = data.get(k, 0) + c * b
        return self._from_ints(self._family, data, den, self._half)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self._family, self._half, self._den, self._data) == (
            other._family, other._half, other._den, other._data)

    def __hash__(self):
        if self._hash is None:
            ints = frozenset(self._data.items())
            object.__setattr__(self, "_hash", hash((self._family, self._half, self._den, ints)))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.serialize()!r})"

    def _text(self) -> str:
        """The text `k1:p1/q1, ...` over sorted int keys, each term reduced by its gcd with den."""
        return ", ".join([f"{k}:{_reduced(c, self._den)}" for k, c in sorted(self._data.items())])

    @staticmethod
    def _read(body: str) -> dict:
        """{int key: Fraction} of a `_text` body."""
        pairs = [chunk.split(":") for chunk in body.split(",")] if body else []
        return {int(k): Fraction(c.strip()) for k, c in pairs}

    def _ratio(self, other):
        """(p, q, j) with self == (p/q) * 2^(j/2) * other for ints p and q != 0, or None.

        Zero is 0 times anything, and nothing nonzero is a multiple of zero.
        Otherwise the keys must agree and the ints be proportional, checked
        in ints against the pair at the largest key.
        """
        if self._family != other._family:
            raise FamilyMismatchError(f"{self._KIND} belong to different families")
        mine, theirs = self._data, other._data
        if not mine:
            return 0, 1, 0
        if mine.keys() != theirs.keys():
            return None
        lead = max(theirs)
        p, q = mine[lead], theirs[lead]  # self = (p/q) (other den / self den) other, termwise
        for k, c in theirs.items():
            if mine[k] * q != p * c:
                return None
        return p * other._den, q * self._den, other._half - self._half


class _HalfPowerForm(_IntForm):
    """An int form that scales by powers of sqrt(2) and negates: states and operators."""

    __slots__ = ()

    def scale_sqrt2(self, j: int):
        """Multiply by 2^(j/2) exactly."""
        j = _integer(j, "sqrt(2) power j")
        return self._from_ints(self._family, self._data, self._den, self._half - j)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._sum(other, -1)


class GaussPolyState(_HalfPowerForm):
    """A sparse exact state q(x) * exp(-x^(2n)/(2n)) with a sqrt(2) half power.

    An int form (_IntForm) of family n: nonzero int numerators `nums`
    {k: c_k} over `den`, so two states are equal iff their n, half_power,
    den and nums are.  `terms`, the same map as {k: Fraction} in the same
    key order, is derived on first read.
    """

    __slots__ = ()
    _KIND = "states"
    n, nums, den, half_power = _IntForm._family, _IntForm._data, _IntForm._den, _IntForm._half

    def __init__(self, n: int, terms: Mapping[int, object], half_power: int = 0):
        if _integer(n, "family index n") < 1:
            raise ValueError("family index n must be a positive integer")
        fracs = {_integer(k, "exponent"): Fraction(c) for k, c in terms.items()}
        self._set_fractions(int(n), fracs, _integer(half_power, "half power"))

    terms = property(_IntForm._fraction_view,
                     doc="The coefficients as {k: Fraction}, in the key order of `nums`.")

    # -- basic queries ----------------------------------------------------

    def residues(self) -> set:
        """Residue classes mod 2n occupied by the exponents."""
        mod = 2 * self.n
        return {k % mod for k in self.nums}

    # -- canonical text form ------------------------------------------------

    def serialize(self) -> str:
        """Canonical text `n; w; k1:c1, ...`; ValueError for an int past Python's int-to-text
        digit limit (4300 by default), which the library never raises."""
        return f"{self.n}; {self.half_power}; {self._text()}"

    @classmethod
    def parse(cls, text: str) -> "GaussPolyState":
        head, w, body = (part.strip() for part in text.split(";", 2))
        return cls(int(head), cls._read(body), int(w))


def monomial_state(n: int, k: int, coeff=1) -> GaussPolyState:
    """The state coeff * x^k * exp(-x^(2n)/(2n))."""
    return GaussPolyState(n, {k: Fraction(coeff)})


# ---------------------------------------------------------------------------
# Operators: {(shift, power) -> int} with a sqrt(2) half power
# ---------------------------------------------------------------------------


class Operator(_HalfPowerForm):
    """An exact linear map x^k -> 2^(-w/2) * sum_s p_s(k) x^(k+s).

    An int form (_IntForm) with no family whose map holds {(s, i): c} for
    the coefficient c / den of k^i in p_s(k), so two operators are equal
    iff they act identically on x^k for every integer k.  `polys`, the same
    coefficients as (s, (c0, c1, ...)) in ascending shift order with no
    trailing zero, and `terms`, those as {s: (Fraction, ...)}, are derived
    on first read.  The systems that hold generator operators key the
    tower-state cache, so the hash, computed once, matters.
    """

    __slots__ = ("_polys",)
    _KIND = "operators"
    den, half_power = _IntForm._den, _IntForm._half

    def __init__(self, terms: Mapping[int, Iterable], half_power: int = 0):
        fracs = {(_integer(s, "shift"), i): Fraction(c) for s, p in terms.items() for i, c in enumerate(p)}
        self._set_fractions(None, fracs, _integer(half_power, "half power"))

    def _set(self, family, data: dict, den: int, half: int):
        super()._set(family, data, den, half)
        object.__setattr__(self, "_polys", None)

    @property
    def polys(self) -> tuple:
        """The int coefficients as ((s, (c0, c1, ...)), ...), in ascending shift order."""
        if self._polys is None:
            by_shift: dict = {}
            for (s, i), c in self._data.items():
                by_shift.setdefault(s, {})[i] = c
            object.__setattr__(self, "_polys", tuple([
                (s, tuple([p.get(i, 0) for i in range(max(p) + 1)])) for s, p in sorted(by_shift.items())
            ]))
        return self._polys

    @property
    def terms(self) -> dict:
        """The polynomials as {s: (Fraction, ...)}, in ascending shift order."""
        if self._view is None:
            den = self._den
            object.__setattr__(self, "_view", {s: tuple([Fraction(c, den) for c in p]) for s, p in self.polys})
        return self._view

    def apply(self, state: GaussPolyState) -> GaussPolyState:
        """The image of a state, built shift by shift in ascending order, in ints."""
        half = state.half_power + self.half_power
        return GaussPolyState._from_ints(state.n, self._image(state.nums), state.den * self.den, half)

    def _image(self, nums: dict) -> dict:
        """{k + s: sum of p_s(k) c_k} over the ints c_k of a state; a sum may be zero."""
        items = nums.items()
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
        return out

    def _products(self, other: "Operator", sign: int, out: dict) -> None:
        """Add sign * (self . other) to out {(s, i): int} over den self.den * other.den.

        x^k -> p2(k) x^(k+s2) -> p1(k+s2) p2(k) x^(k+s1+s2) for each
        polynomial p1 at shift s1 of self and p2 at shift s2 of other; each
        p1(k+s2) is Taylor-shifted once, by repeated synthetic division, and
        multiplied out with p2.
        """
        mine = self.polys
        for s2, p2 in other.polys:
            for s1, q in mine:
                if s2 and len(q) > 1:
                    q = list(q)
                    for i in range(len(q) - 1):
                        for j in range(len(q) - 2, i - 1, -1):
                            q[j] += s2 * q[j + 1]
                s = s1 + s2
                for i, a in enumerate(q):
                    if a:
                        a *= sign
                        for j, b in enumerate(p2, i):
                            key = (s, j)
                            out[key] = out.get(key, 0) + a * b

    def __matmul__(self, other: "Operator") -> "Operator":
        """The product self . other (other acts first)."""
        out: dict = {}
        self._products(other, 1, out)
        return Operator._from_ints(None, out, self.den * other.den, self.half_power + other.half_power)

    def _commutator(self, other: "Operator") -> "Operator":
        """[self, other] = self . other - other . self, summed in one int map and canonicalised once."""
        out: dict = {}
        self._products(other, 1, out)
        other._products(self, -1, out)
        return Operator._from_ints(None, out, self.den * other.den, self.half_power + other.half_power)

    def serialize(self) -> str:
        """Canonical text `w; s1:[c0 c1 ...], s2:[...]` (c_i multiply k^i), written from the ints."""
        body = ", ".join([f"{s}:[{' '.join([_reduced(c, self.den) for c in p])}]" for s, p in self.polys])
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


# No src/ caller: the acceptance tests apply words generator by generator with it.
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
    ratio = f._ratio(g)
    return None if ratio is None else (Fraction(ratio[0], ratio[1]), ratio[2])


# ---------------------------------------------------------------------------
# Exact inner products over the Gamma symbols G_r = Gamma(r/(2n)) n^(r/(2n))
# ---------------------------------------------------------------------------


class GammaVector(_IntForm):
    """Exact value sum_r coeffs[r] * Gamma(r/(2n)) * n^(r/(2n)), odd r in 1..2n-1.

    An int form (_IntForm) of family n with half power 0: int numerators
    {r: c_r} over one den.  `coeffs`, the same map as {r: Fraction} in the
    same key order, is derived on first read.
    """

    __slots__ = ()
    _KIND = "GammaVectors"
    n = _IntForm._family

    def __init__(self, n: int, coeffs: Mapping[int, object]):
        if _integer(n, "family index n") < 1:
            raise ValueError("family index n must be a positive integer")
        n, fracs = int(n), {}
        for r, c in coeffs.items():
            r = _integer(r, "residue")
            if r % 2 == 0 or not (1 <= r <= 2 * n - 1):
                raise ValueError(f"residue {r} is not an odd integer in 1..{2*n-1}")
            fracs[r] = Fraction(c)
        self._set_fractions(n, fracs, 0)

    coeffs = property(_IntForm._fraction_view, doc="The coefficients as {r: Fraction}, in key order.")

    def rational_ratio(self, other: "GammaVector"):
        """Rational q with self == q * other, or None if no exact ratio exists."""
        ratio = self._ratio(other)
        return None if ratio is None else Fraction(ratio[0], ratio[1])

    def serialize(self) -> str:
        """Canonical text `n; r1:c1, ...`; ValueError past the int-to-text digit limit, as for states."""
        return f"{self.n}; {self._text()}"

    @classmethod
    def parse(cls, text: str) -> "GammaVector":
        head, body = (part.strip() for part in text.split(";", 1))
        return cls(int(head), cls._read(body))


_ODD_PARITY = (
    "inner product of states with odd combined sqrt(2) parity is "
    "irrational; rescale one argument with scale_sqrt2 first"
)


def inner_product(f: GaussPolyState, g: GaussPolyState) -> GammaVector:
    """Exact <f, g> = int f g dx as a GammaVector.

    The term pairs collect, in ints over one denominator, into
    sum_j d_j x^j exp(-x^(2n)/n): j <= -1 diverges, odd j vanishes, and each
    residue class r sums d_j prod_{i<t} (r + 2ni) / (n 2^t), j + 1 = r + 2nt,
    with one running product over t into one int over the common
    denominator n f.den g.den 2^(T + w/2), T the largest t.

    When no exponent sum can be negative (min f + min g >= 0), each term of
    f pairs only with the terms of g of its parity, since odd powers
    integrate to zero.  Otherwise it pairs with every term of g, so the
    lowest divergent power is the one named, odd ones included.  Either way
    the even-power sums d_j, and so the value and its key order, are the same.

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
    if min(f.nums) + min(g.nums) < 0:  # every pair, so the sweep below names the first divergent term
        if odd_parity:
            raise ValueError(_ODD_PARITY)
        partners = (list(g.nums.items()),) * 2
    else:  # odd powers integrate to zero: pair equal parities only
        partners = tuple([(l, d) for l, d in g.nums.items() if l & 1 == parity] for parity in (0, 1))
    collected: dict = {}
    for k, c in f.nums.items():
        for l, d in partners[k & 1]:
            j = k + l
            collected[j] = collected.get(j, 0) + c * d
    if odd_parity:  # no exponent sum is negative, and collected holds the even powers only
        if any(collected.values()):
            raise ValueError(_ODD_PARITY)
        return GammaVector(n, {})
    by_residue: dict = {}  # r -> {t: d_j}
    top = 0
    for j, d in sorted(collected.items()):
        if d == 0:
            continue
        if j <= -1:
            raise DivergenceError(f"integrand term x^{j} is not integrable")
        if j % 2 == 0:
            top, r = divmod(j + 1, two_n)  # t grows with j, so the last is the largest
            by_residue.setdefault(r, {})[top] = d
    nums: dict = {}
    for r, ds in by_residue.items():
        total, product = 0, 1
        for t in range(max(ds) + 1):
            total += ds.get(t, 0) * product << (top - t)
            product *= r + two_n * t
        nums[r] = total
    return GammaVector._from_ints(n, nums, n * f.den * g.den << (top + total_half // 2), 0)


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
