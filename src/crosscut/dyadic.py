"""Exact dyadic rational arithmetic.

Every quantity in this package (breakpoints, function values, measures,
residuals) is a dyadic rational n / 2**e.  The swap construction compares
cross sections against margins of exactly 2**-n, so all arithmetic here is
integer arithmetic on numerators; floats never enter the core.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """Rational number with a power-of-two denominator, kept canonical.

    Canonical form: the exponent is minimal, i.e. the numerator is odd
    unless the value is zero (then num == 0 and exp == 0).  Equal values
    therefore always have identical (num, exp) pairs, which makes equality
    and hashing structural.

    Negative numerators are allowed so that differences (residuals,
    witness gaps) stay exact; nonnegativity is enforced where it matters,
    at the step-function and fill-grid level.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if not isinstance(num, int) or not isinstance(exp, int):
            raise TypeError("Dyadic expects an integer numerator and exponent")
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp and not num & 1:
            tz = (num & -num).bit_length() - 1  # trailing zero bits
            if tz > exp:
                tz = exp
            num >>= tz
            exp -= tz
        self.num = num
        self.exp = exp

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "Dyadic":
        """Convert an exact Fraction whose denominator is a power of two."""
        den = fr.denominator
        if den & (den - 1):
            raise ValueError(f"{fr} is not a dyadic rational")
        return cls(fr.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse 'a/b' or a decimal string; the value must be dyadic."""
        return cls.from_fraction(Fraction(text.strip()))

    @classmethod
    def round_fraction(cls, fr: Fraction, exp: int) -> "Dyadic":
        """Nearest multiple of 2**-exp, ties rounded toward zero."""
        scaled = fr * (1 << exp)
        lo = scaled.numerator // scaled.denominator
        rem = scaled - lo
        if rem > Fraction(1, 2):
            lo += 1
        elif rem == Fraction(1, 2) and lo < 0:
            # -x.5 -> -x (toward zero); nonnegative x.5 keeps floor = toward zero
            lo += 1
        return cls(lo, exp)

    # -- conversions -----------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other)
        return None

    def _aligned(self, other: "Dyadic"):
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, e = self._aligned(o)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, e = self._aligned(o)
        return Dyadic(a - b, e)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Dyadic(self.num * o.num, self.exp + o.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    # -- ordering ----------------------------------------------------------

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        a, b, _ = self._aligned(o)
        return (a > b) - (a < b)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.exp == o.exp  # canonical form

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        return hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    # -- presentation -------------------------------------------------------

    def __str__(self):
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"


ZERO = Dyadic(0)
ONE = Dyadic(1)
