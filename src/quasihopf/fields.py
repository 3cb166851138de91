"""Exact scalar arithmetic: rationals and odd prime fields.

Every computation in this package is exact; equality of scalars is
decidable equality.  Rational values are plain ``fractions.Fraction``
objects, prime-field values are ``FpElement`` wrappers around residues;
code outside the kernels uses ordinary ``+ - *`` operators on them for
both backends.

The kernels (``multiply``, ``apply_linear_map``, ``linalg``) instead
work on plain ints through one hook set that both fields provide:
``common_den`` gives a shared denominator for a batch of values, the lcm
of their denominators over Q and 1 over F_p; ``raw_over`` gives a
value's integer numerator over it (the residue over F_p); and
``from_raw_over`` turns a sum of such numerators back into one field
value.  So a kernel sums plain ints on both fields and forms one field
value per output entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class FieldError(ValueError):
    """Bad field descriptor, bad coefficient literal, or division by zero."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FpElement:
    """Residue modulo an odd prime, with exact field operations."""

    __slots__ = ("r", "p")

    def __init__(self, r: int, p: int):
        self.r = r % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.r + other.r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.r - other.r, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(other.r - self.r, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return FpElement(self.r * other.r, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.r == 0:
            raise FieldError("division by zero in F_%d" % self.p)
        return FpElement(self.r * pow(other.r, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        return FpElement(-self.r, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            return self.r == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.r != 0

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return "FpElement(%d, %d)" % (self.r, self.p)


class Rationals:
    """The field of rationals; values are ``Fraction`` instances."""

    characteristic = 0
    tag = "q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def div_int(self, num: int, den: int) -> Fraction:
        if den == 0:
            raise FieldError("division by zero in coefficient %d/%d" % (num, den))
        return Fraction(num, den)

    def parse(self, text: str) -> Fraction:
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div_int(int(num), int(den))
            return Fraction(int(text))
        except ValueError as exc:
            raise FieldError("bad rational literal %r" % text) from exc

    def common_den(self, values) -> int:
        """The lcm of the denominators of ``values`` (1 if there are none)."""
        return lcm(*{v.denominator for v in values})

    def raw_over(self, value: Fraction, den: int) -> int:
        """The integer numerator of ``value`` over ``den``, a multiple of
        its denominator."""
        return value.numerator * (den // value.denominator)

    def from_raw_over(self, total: int, den: int) -> Fraction:
        """Field value of a sum of ``raw_over`` numerators over ``den``."""
        return Fraction(total, den)

    def fmt(self, value: Fraction) -> str:
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)

    def random(self, rng):
        num = rng.randint(-6, 6)
        den = rng.randint(1, 4)
        return Fraction(num, den)

    def random_nonzero(self, rng):
        while True:
            value = self.random(rng)
            if value:
                return value

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_p for an odd prime p >= 5."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError("%d is not prime" % p)
        if p < 5:
            # the standard two-dimensional fixture divides by 2 and 4
            raise FieldError("characteristic %d too small; need p >= 5" % p)
        self.p = p
        self.characteristic = p
        self.tag = "fp:%d" % p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def from_int(self, n: int) -> FpElement:
        return FpElement(n, self.p)

    def div_int(self, num: int, den: int) -> FpElement:
        return FpElement(num, self.p) / FpElement(den, self.p)

    def parse(self, text: str) -> FpElement:
        try:
            if "/" in text:
                num, den = text.split("/", 1)
                return self.div_int(int(num), int(den))
            return FpElement(int(text), self.p)
        except ValueError as exc:
            raise FieldError("bad F_%d literal %r" % (self.p, text)) from exc

    def common_den(self, values) -> int:
        """Every value is its own residue over 1."""
        return 1

    def raw_over(self, value: FpElement, den: int) -> int:
        """The residue; ``den`` is always 1."""
        return value.r

    def from_raw_over(self, total: int, den: int) -> FpElement:
        """Field value of a sum of residues over 1, reduced mod p once."""
        return FpElement(total, self.p)

    def fmt(self, value: FpElement) -> str:
        return str(value.r)

    def random(self, rng):
        return FpElement(rng.randint(0, self.p - 1), self.p)

    def random_nonzero(self, rng):
        return FpElement(rng.randint(1, self.p - 1), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


def field_from_tag(tag) -> Rationals | PrimeField:
    """Decode a field descriptor: "q", "fp:10007", or {"fp": 10007}."""
    if isinstance(tag, dict):
        if set(tag) == {"fp"}:
            return PrimeField(int(tag["fp"]))
        raise FieldError("bad field descriptor %r" % (tag,))
    if tag == "q":
        return QQ
    if isinstance(tag, str) and tag.startswith("fp:"):
        return PrimeField(int(tag[3:]))
    raise FieldError("bad field descriptor %r" % (tag,))
