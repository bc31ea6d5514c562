"""Exact scalar arithmetic: rationals and cyclotomic extensions.

A scalar is either a rational (the rational variant) or a ``Cyc``
element of ``CyclotomicField(m)`` (coefficients in the power basis of a
primitive m-th root of unity, always reduced modulo the m-th cyclotomic
polynomial).  Rationals embed into every cyclotomic field and
mixed arithmetic lifts them automatically; mixing two different cyclotomic
orders raises ``FieldMismatchError`` instead of guessing an embedding.

A rational is canonical (``rational``): an ``int`` when it is integral,
a ``fractions.Fraction`` only otherwise.  Every place that makes one
(parsing, ``QQ``, ``invert_scalar``, ``linalg``'s matrices and
eliminations) makes it canonical, so integral tables compute on small
ints; an int, the Fraction of its value and a ``Cyc`` of that rational
value compare and hash alike.

A document names its field as "q" (also "Q", "rational" or absent) for
Q, or as {"cyclotomic": m} or "cyc:m" for Q(zeta_m), where m is a JSON
integer >= 1 (not a bool) or, in the string form, its decimal digits.
Any other spec is an input error located at "field".

All values are immutable and safe to share between threads.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionError, FieldMismatchError, InputError

Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


def rational(q):
    """q (anything ``Fraction`` takes) as an int when it is integral, else
    as a Fraction."""
    if type(q) is int:
        return q
    if type(q) is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _poly_trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """Quotient and remainder of polynomials with Fraction coefficients
    (lists, lowest degree first)."""
    num = list(num)
    q = [Q_ZERO] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] * inv_lead
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, _poly_trim(num)


def _moebius(n: int) -> int:
    """μ(n): 0 when a square divides n, else (-1)^(number of prime factors)."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def cyclotomic_polynomial(m: int) -> list[Fraction]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first:
    the product of (x^d - 1)^μ(m/d) over the divisors d of m, computed on
    ints by multiplying by each factor with exponent +1, then dividing
    exactly by each factor with exponent -1."""
    if m < 1:
        raise ValueError("cyclotomic order must be >= 1")
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _moebius(m // d) == 1:  # poly·x^d - poly
            shifted = [0] * d + poly
            for i, c in enumerate(poly):
                shifted[i] -= c
            poly = shifted
    for d in divisors:
        if _moebius(m // d) == -1:  # q with q·x^d - q = poly
            q = [0] * (len(poly) - d)
            for i in range(len(q)):
                q[i] = (q[i - d] if i >= d else 0) - poly[i]
            poly = q
    return [Fraction(c) for c in poly]


class CyclotomicField:
    """The field Q(zeta_m).  Instances with equal m compare equal."""

    _cache: dict[int, "CyclotomicField"] = {}

    def __new__(cls, m: int):
        if m in cls._cache:
            return cls._cache[m]
        self = super().__new__(cls)
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        cls._cache[m] = self
        return self

    def __repr__(self):
        return f"CyclotomicField({self.m})"

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.m == self.m

    def __hash__(self):
        return hash(("cyc", self.m))

    @property
    def zero(self):
        return self.embed(Q_ZERO)

    @property
    def one(self):
        return self.embed(Q_ONE)

    def embed(self, q) -> "Cyc":
        q = Fraction(q)
        return Cyc(self, (q,) + (Q_ZERO,) * (self.degree - 1) if self.degree else ())

    def canonical(self, x) -> "Cyc":
        """x, a Cyc of this field or a rational, as a Cyc."""
        return x if isinstance(x, Cyc) else self.embed(x)

    def zeta(self) -> "Cyc":
        """A primitive m-th root of unity (the power-basis generator)."""
        if self.degree == 1:
            # phi(1) = phi(2) = 1: zeta reduces to 1 or -1
            return self.embed(1 if self.m == 1 else -1)
        coeffs = [Q_ZERO] * self.degree
        coeffs[1] = Q_ONE
        return Cyc(self, tuple(coeffs))

    def element(self, coeffs) -> "Cyc":
        """Element from an arbitrary-length coefficient list (reduced here)."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            _, coeffs = _poly_divmod(coeffs, self.modulus)
        coeffs += [Q_ZERO] * (self.degree - len(coeffs))
        return Cyc(self, tuple(coeffs[: self.degree]))

    def inv(self, x) -> "Cyc":
        """1/x for x a nonzero Cyc of this field or rational."""
        return self.canonical(x).inverse()


class Cyc:
    """An element of Q(zeta_m) in the power basis, reduced mod the m-th
    cyclotomic polynomial."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _lift(self, other):
        if isinstance(other, Cyc):
            if other.field.m != self.field.m:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.field.m} vs {other.field.m}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyc(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        n = len(self.coeffs)
        prod = [Q_ZERO] * (2 * n - 1) if n else []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    prod[i + j] += a * b
        return self.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if not self:
            raise DivisionError("inversion of zero")
        # extended Euclid in Q[x] against the (irreducible) modulus
        r0, r1 = list(self.field.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [Q_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = _poly_trim(
                [
                    (s0[i] if i < len(s0) else Q_ZERO)
                    - sum(
                        q[j] * s1[i - j]
                        for j in range(max(0, i - len(s1) + 1), min(len(q), i + 1))
                    )
                    for i in range(max(len(s0), len(q) + len(s1) - 1))
                ]
            )
            r0, r1, s0, s1 = r1, r, s1, s
        lead = r0[-1] if r0 else Q_ONE  # gcd is a nonzero constant
        assert len(r0) == 1
        return self.field.element([c / lead for c in s0])

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.embed(other)
        if not isinstance(other, Cyc):
            return NotImplemented
        if other.field.m != self.field.m:
            raise FieldMismatchError(
                f"cyclotomic orders differ: {self.field.m} vs {other.field.m}"
            )
        return self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        # a rational Cyc equals, so must hash as, the int or Fraction it embeds
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash((self.field.m, self.coeffs))

    def __repr__(self):
        return f"cyc{self.field.m}:{','.join(format_scalar(c) for c in self.coeffs)}"


class RationalField:
    """The field Q, operating on canonical rationals (``rational``)."""

    m = None

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def embed(self, q):
        return rational(q)

    canonical = embed  # x as a canonical rational

    def inv(self, x):
        if not x:
            raise DivisionError("inversion of zero")
        return rational(1 / Fraction(x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


def invert_scalar(x):
    """Multiplicative inverse of a nonzero scalar of either variant."""
    if isinstance(x, Cyc):
        return x.inverse()
    return QQ.inv(x)


def format_scalar(x) -> str:
    """Canonical string form: "p/q" (q omitted when 1) or "cyc{m}:c0,c1,...". """
    if isinstance(x, Cyc):
        return repr(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_scalar(text: str, field=QQ):
    """Inverse of format_scalar.  Rational strings parse in any field (they
    embed); "cyc" strings require the matching cyclotomic field."""
    text = text.strip()
    if text.startswith("cyc"):
        head, _, tail = text.partition(":")
        try:
            m = int(head[3:])
        except ValueError as exc:
            raise InputError(f"bad cyclotomic tag {head!r}") from exc
        if not isinstance(field, CyclotomicField) or field.m != m:
            raise FieldMismatchError(
                f"scalar of order {m} cannot live in field {field!r}"
            )
        try:
            return field.element(tail.split(",") if tail else [])
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad scalar {text!r}") from exc
    try:
        return rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad scalar {text!r}") from exc


def parse_field(spec):
    """Field from a document spec (see the module docstring)."""
    if spec in (None, "q", "Q", "rational"):
        return QQ
    m = spec.get("cyclotomic") if isinstance(spec, dict) else None
    if isinstance(spec, str) and re.fullmatch("cyc:[0-9]+", spec):
        m = int(spec[4:])
    if type(m) is not int or m < 1:
        raise InputError(f"unknown field spec {spec!r}", location="field")
    return CyclotomicField(m)


def field_spec(field):
    return "q" if field == QQ else {"cyclotomic": field.m}
