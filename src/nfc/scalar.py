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
from fractions import Fraction
from typing import Iterable, Union

#: Exact rational scalar; always reduced, denominator positive.
Rational = Fraction

RationalLike = Union[int, Fraction]


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
        other = as_gaussian(other)
        return GaussianRational._raw(
            self.nre * other.den + other.nre * self.den,
            self.nim * other.den + other.nim * self.den,
            self.den * other.den,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational._raw(
            self.nre * other.den - other.nre * self.den,
            self.nim * other.den - other.nim * self.den,
            self.den * other.den,
        )

    def __rsub__(self, other) -> "GaussianRational":
        return as_gaussian(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
        return GaussianRational._raw(
            self.nre * other.nre - self.nim * other.nim,
            self.nre * other.nim + self.nim * other.nre,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        other = as_gaussian(other)
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
        if e < 0:
            return (ONE / self) ** (-e)
        out = ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_gaussian(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.nre == other.nre and self.nim == other.nim and self.den == other.den

    def __hash__(self):
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


def gaussian_from_obj(obj) -> GaussianRational:
    if not isinstance(obj, dict) or set(obj) - {"re", "im"}:
        raise ValueError(f"not a GaussianRational object: {obj!r}")
    re = parse_rational(obj.get("re", "0"))
    im = parse_rational(obj.get("im", "0"))
    return GaussianRational(re, im)


class KPoly:
    """Polynomial in the stage index k over GaussianRational.

    Coefficients are indexed by the power of k with trailing zeros trimmed;
    the zero polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_gaussian(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("KPoly is immutable")

    @classmethod
    def constant(cls, c) -> "KPoly":
        return cls([as_gaussian(c)])

    @classmethod
    def k(cls) -> "KPoly":
        return cls([ZERO, ONE])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return KPoly([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __rsub__(self, other):
        return _as_kpoly(other).__sub__(self)

    def __mul__(self, other) -> "KPoly":
        other = _as_kpoly(other)
        if self.is_zero() or other.is_zero():
            return KPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return KPoly(out)

    __rmul__ = __mul__

    def __neg__(self) -> "KPoly":
        return KPoly([-c for c in self.coeffs])

    def coeff(self, i: int) -> GaussianRational:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __call__(self, x) -> GaussianRational:
        return kpoly_eval(self, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def real_imag_parts(self) -> tuple["KPoly", "KPoly"]:
        """Split into polynomials of the real / imaginary coefficient parts."""
        re = KPoly([GaussianRational(c.re) for c in self.coeffs])
        im = KPoly([GaussianRational(c.im) for c in self.coeffs])
        return re, im

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
    return KPoly.constant(as_gaussian(x))


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
    return KPoly([c / lc for c in p.coeffs]), lc


def integer_roots_ge2(p: KPoly) -> list[int]:
    """All integer roots k >= 2 of p, sorted ascending.

    A root of a polynomial with Gaussian coefficients must kill the real and
    imaginary coefficient polynomials simultaneously.  One nonzero part,
    with powers of k factored out and denominators cleared, is reduced to
    its square-free part q.  Every root of q lies in (1, B] for the bound B
    of ``_root_bound``; Sturm counts split that interval until each piece
    holds one root, which sign bisection of q narrows to one integer.  Each
    integer found is checked by exact evaluation of p itself, so the list is
    complete with no search ceiling.
    """
    if p.is_zero():
        raise ValueError("identically zero polynomial has all integers as roots")
    re_p, im_p = p.real_imag_parts()
    part = im_p if re_p.is_zero() else re_p
    coeffs = list(part.coeffs)
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
    lcm_den = math.lcm(*(c.den for c in coeffs))
    ints = [c.nre * (lcm_den // c.den) for c in coeffs]
    if len(ints) == 1:
        return []
    seq = _sturm_sequence(ints)
    if len(seq[-1]) > 1:
        # repeated roots: the last remainder is gcd(part, part'); divide it out
        seq = _sturm_sequence(_exact_quotient(ints, seq[-1]))
    q = seq[0]

    def variations(x: int) -> int:
        signs = [v for v in (_int_eval(s, x) for s in seq) if v]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a < 0) != (b < 0))

    roots = []
    hi = _root_bound(q)
    todo = [(1, variations(1), hi, variations(hi))]
    while todo:
        # q has vlo - vhi distinct roots in (lo, hi]
        lo, vlo, hi, vhi = todo.pop()
        count = vlo - vhi
        if count == 0:
            continue
        if count > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            vmid = variations(mid)
            todo += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
            continue
        x = hi
        q_hi = _int_eval(q, hi)
        if count == 1 and q_hi:
            # one simple root r in (lo, hi): q has the sign of q(hi) exactly on [r, hi]
            a = lo
            while x - a > 1:
                m = (a + x) // 2
                if _int_eval(q, m) * q_hi >= 0:
                    x = m
                else:
                    a = m
        if _int_eval(q, x) == 0 and kpoly_eval(p, GaussianRational(x)).is_zero():
            roots.append(x)
    return sorted(roots)


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


def _sturm_sequence(c: list) -> list:
    """Sturm sequence c, c', -rem, ... over the integers, each term primitive.

    Remainders are taken after scaling by a positive power of the divisor's
    leading coefficient, so every term keeps its sign; the last term is
    gcd(c, c') up to a positive constant.
    """
    seq = [_primitive(c), _primitive([i * a for i, a in enumerate(c)][1:])]
    while len(seq[-1]) > 1:
        r, b = list(seq[-2]), seq[-1]
        lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(r) >= len(b):
            f, shift = sign * r[-1], len(r) - len(b)
            r = [a * lead for a in r]
            for i, bi in enumerate(b):
                r[i + shift] -= f * bi
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        seq.append(_primitive([-a for a in r]))
    return seq


def _primitive(c: list) -> list:
    """c divided by the positive gcd of its coefficients."""
    g = math.gcd(*c)
    return [a // g for a in c]


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials where b is primitive and divides a."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        out[i] = a[i + len(b) - 1] // b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= out[i] * bj
    return out
