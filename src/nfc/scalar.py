"""Exact scalar arithmetic: Gaussian rationals and polynomials in the stage index.

Every number in this package is a ``GaussianRational``: a complex number with
rational real and imaginary parts, stored over a common positive denominator
and always fully reduced.  No floating point appears anywhere.

``KPoly`` is a univariate polynomial in the stage index ``k`` over
``GaussianRational``, used for characteristic polynomials and the symbolic
determinants that feed resonance detection.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

RationalLike = int | Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class GaussianRational:
    """re + im*i with rational re, im; immutable and hashable.

    Internally (nre, nim, den) with den > 0 and gcd(nre, nim, den) = 1,
    which keeps multiplication down to integer work plus one gcd.
    """

    __slots__ = ("nre", "nim", "den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if isinstance(re, int) and isinstance(im, int):
            object.__setattr__(self, "nre", re)
            object.__setattr__(self, "nim", im)
            object.__setattr__(self, "den", 1)
            return
        fre, fim = _as_fraction(re), _as_fraction(im)
        den = math.lcm(fre.denominator, fim.denominator)
        nre = fre.numerator * (den // fre.denominator)
        nim = fim.numerator * (den // fim.denominator)
        object.__setattr__(self, "nre", nre)
        object.__setattr__(self, "nim", nim)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _raw: the slot restore would need __setattr__
        return (GaussianRational._raw, (self.nre, self.nim, self.den))

    @classmethod
    def _raw(cls, nre: int, nim: int, den: int) -> "GaussianRational":
        if den < 0:
            nre, nim, den = -nre, -nim, -den
        g = math.gcd(nre, nim, den)
        if g > 1:
            nre, nim, den = nre // g, nim // g, den // g
        out = object.__new__(cls)
        _set_nre(out, nre)
        _set_nim(out, nim)
        _set_den(out, den)
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.nre, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.nim, self.den)

    def is_zero(self) -> bool:
        return self.nre == 0 and self.nim == 0

    def is_real(self) -> bool:
        return self.nim == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.nre, -self.nim, self.den)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.nre, -self.nim, self.den)

    def __add__(self, other) -> "GaussianRational":
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._raw(
            self.nre * other.den + other.nre * self.den,
            self.nim * other.den + other.nim * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._raw(
            self.nre * other.den - other.nre * self.den,
            self.nim * other.den - other.nim * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other) -> "GaussianRational":
        return as_gaussian(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        return GaussianRational._raw(
            self.nre * other.nre - self.nim * other.nim,
            self.nre * other.nim + self.nim * other.nre,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        try:
            other = as_gaussian(other)
        except TypeError:
            return NotImplemented
        n2 = other.nre * other.nre + other.nim * other.nim
        if n2 == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # 1/(c+di) = (c-di)/(c^2+d^2); denominators regroup exactly
        return GaussianRational._raw(
            (self.nre * other.nre + self.nim * other.nim) * other.den,
            (self.nim * other.nre - self.nre * other.nim) * other.den,
            self.den * n2,
        )

    def __rtruediv__(self, other) -> "GaussianRational":
        return as_gaussian(other).__truediv__(self)

    def __pow__(self, e: int) -> "GaussianRational":
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        return power(ONE / self, -e, ONE) if e < 0 else power(self, e, ONE)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_gaussian(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.nre == other.nre and self.nim == other.nim and self.den == other.den

    def __hash__(self):
        # a real value hashes as the Fraction (or int) it equals
        if self.nim == 0:
            return hash(Fraction(self.nre, self.den))
        return hash((self.nre, self.nim, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.nim == 0:
            return rational_str(self.re)
        if self.nre == 0:
            return rational_str(self.im) + "*i"
        sign = "+" if self.nim > 0 else "-"
        return f"({rational_str(self.re)} {sign} {rational_str(abs(self.im))}*i)"


# the slot setters themselves: _raw is the hottest constructor, and these
# skip the attribute lookup of object.__setattr__
_set_nre = GaussianRational.nre.__set__
_set_nim = GaussianRational.nim.__set__
_set_den = GaussianRational.den.__set__

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def power(x, e: int, one):
    """x^e for an integer e >= 0 and one the unit of x's ring, by repeated squaring.

    At most 2 log2(e) exact products, whose result is the one e products give.
    """
    out = None
    while e:
        if e & 1:
            out = x if out is None else out * x
        e >>= 1
        if e:
            x = x * x
    return one if out is None else out


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as GaussianRational")


def rational_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when q = 1."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" / "p" wire form (optional leading '-')."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {text!r}") from exc


def gaussian_to_obj(x: GaussianRational) -> dict:
    """Wire form of a GaussianRational: {"re": "p/q", "im": "p/q"}."""
    return {"re": rational_str(x.re), "im": rational_str(x.im)}


class KPoly:
    """Polynomial in the stage index k over GaussianRational.

    Coefficients are indexed by the power of k with trailing zeros trimmed;
    the zero polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: Iterable = ()):
        return cls._of([as_gaussian(c) for c in coeffs])

    @classmethod
    def _of(cls, cs: list) -> "KPoly":
        """The polynomial of a list of GaussianRationals, trimmed but not coerced."""
        while cs and cs[-1].is_zero():
            cs.pop()
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(cs))
        return p

    def __setattr__(self, *args):
        raise AttributeError("KPoly is immutable")

    def __reduce__(self):
        return (KPoly, (self.coeffs,))

    @classmethod
    def constant(cls, c) -> "KPoly":
        return cls._of([as_gaussian(c)])

    @classmethod
    def k(cls) -> "KPoly":
        return cls._of([ZERO, ONE])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly._of([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly._of([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return _as_kpoly(other).__sub__(self)

    def __mul__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        if self.is_zero() or other.is_zero():
            return KPoly._of([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return KPoly._of(out)

    __rmul__ = __mul__

    def __neg__(self) -> "KPoly":
        return KPoly._of([-c for c in self.coeffs])

    def coeff(self, i: int) -> GaussianRational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __call__(self, x) -> GaussianRational:
        return kpoly_eval(self, x)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = _as_kpoly(other)
        if not isinstance(other, KPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant hashes as the scalar it equals
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0]) if self.coeffs else hash(0)
        return hash(self.coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c.is_zero():
                continue
            mono = "1" if i == 0 else ("k" if i == 1 else f"k^{i}")
            parts.append(f"({c})*{mono}" if i > 0 else f"({c})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"KPoly({list(self.coeffs)!r})"


def _as_kpoly(x) -> KPoly:
    if isinstance(x, KPoly):
        return x
    return KPoly.constant(x)


def kpoly_eval(p: KPoly, x) -> GaussianRational:
    """Exact Horner evaluation of p at x."""
    x = as_gaussian(x)
    acc = ZERO
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def make_monic(p: KPoly) -> tuple[KPoly, GaussianRational]:
    """Return (p / lc, lc) with lc the leading coefficient.

    Raises on the zero polynomial, which has no leading coefficient.
    """
    if p.is_zero():
        raise ValueError("cannot normalize zero polynomial")
    lc = p.coeffs[-1]
    return KPoly._of([c / lc for c in p.coeffs]), lc


def integer_roots_ge2(p: KPoly) -> list[int]:
    """All integer roots k >= 2 of p, sorted ascending.

    A root of a polynomial with Gaussian coefficients must kill the real and
    imaginary coefficient polynomials simultaneously.  Over the lcm of all
    denominators, the real numerators (or the imaginary ones, when every
    real part is 0), with powers of k stripped, form an integer polynomial
    c.  No root of c exceeds the bound B of ``_root_bound``, so the unit
    cells of ``_root_cells`` on [2, B] hold every real root >= 2.  Each cell
    end where c vanishes is checked by exact evaluation of p itself, so the
    list is complete with no search ceiling.
    """
    if p.is_zero():
        raise ValueError("identically zero polynomial has all integers as roots")
    lcm_den = math.lcm(*(c.den for c in p.coeffs))
    c = [a.nre * (lcm_den // a.den) for a in p.coeffs]
    if not any(c):
        c = [a.nim * (lcm_den // a.den) for a in p.coeffs]
    # the part taken may have lower degree than p, and _root_bound reads its
    # leading coefficient
    while c[-1] == 0:
        c.pop()
    while c[0] == 0:
        c.pop(0)
    hi = _root_bound(c)
    ends = {y for x in _root_cells(c, 2, hi) for y in (x, x + 1) if y <= hi}
    return sorted(
        x for x in ends
        if _int_eval(c, x) == 0 and kpoly_eval(p, GaussianRational(x)).is_zero()
    )


def _root_cells(c: list, lo: int, hi: int) -> list:
    """Integers x in [lo, hi] such that every real root of c in [lo, hi]
    lies in some [x, x + 1]; c is a nonzero integer polynomial.

    Every cell of c' is a cell of c.  Between consecutive cells c' has no
    root, so c is monotone there and has a root in such a gap iff it changes
    sign or vanishes at one of the gap's ends; integer bisection narrows
    that root to one cell.  A multiple root of c is a root of c', so it
    already lies in a cell.
    """
    if len(c) < 2:
        return []
    cells = _root_cells([i * a for i, a in enumerate(c)][1:], lo, hi)
    out = set(cells)
    for a, b in zip([lo] + [x + 1 for x in cells], cells + [hi]):
        if a > b:
            continue
        ca = _int_eval(c, a)
        if ca and ca * _int_eval(c, b) > 0:
            continue
        # the one root r of the gap lies in (a, b], or r = a
        while ca and b - a > 1:
            m = (a + b) // 2
            if _int_eval(c, m) * ca > 0:
                a = m
            else:
                b = m
        out.add(a)
    return sorted(out)


def _int_eval(c: list, x: int) -> int:
    """Horner evaluation of the integer polynomial sum c[i] x^i."""
    acc = 0
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _root_bound(c: list) -> int:
    """A power of two bounding the modulus of every complex root of c.

    Fujiwara: |x| <= 2 max_i |c[n-i] / c[n]|^(1/i).  Each ratio is below
    2^(bits(c[n-i]) - bits(c[n]) + 1), so t = 2^e with e*i at least that
    exponent for every i gives |x| <= 2t.
    """
    n = len(c) - 1
    lead_bits = abs(c[n]).bit_length()
    e = 0
    for i in range(1, n + 1):
        if c[n - i]:
            e = max(e, -(-(abs(c[n - i]).bit_length() - lead_bits + 1) // i))
    return 2 ** (e + 1)
