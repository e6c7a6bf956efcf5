"""Sparse truncated formal power series.

Three carriers:

* ``Series3`` -- series in (z, zb, u), graded by total degree with a single
  cutoff N; used for graphing functions and everything derived from them.
* ``HoloSeries2`` -- holomorphic series in (z, w); used for map components
  and vector fields.
* ``UniSeries`` -- dense univariate series; used for the transcendental
  generator math (arcsin, tan, exp, rational powers, the q_T ODE).

All coefficients are GaussianRational and all operations are exact: a
product simply drops monomials beyond the truncation order, and compositions
require vanishing constant terms so the truncated result is well defined.

``Series3`` and ``HoloSeries2`` share one product kernel.  Each operand is
put once, and cached, over the lcm D of its coefficient denominators, with
monomials packed into single integers so that adding keys adds exponents.
The kernel sums Gaussian-integer numerator products per output monomial and
reduces each nonzero sum once, over Dl * Dr: one gcd per output coefficient
instead of two per term pair.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I, as_gaussian


def _integer_form_of(items) -> tuple:
    """(D, rows) for (degree, packed key, coefficient) items.

    D is the lcm of the coefficient denominators and rows holds
    (degree, packed key, re, im) with re + im*i = D * coefficient, sorted by
    degree and then key so that a product loop can stop early.
    """
    items = list(items)
    D = math.lcm(*(v.den for _, _, v in items))
    rows = []
    for deg, key, v in items:
        q = D // v.den
        rows.append((deg, key, v.nre * q, v.nim * q))
    rows.sort()
    return D, rows


def _wrap(cls, n: int, terms: dict):
    """A Series3 or HoloSeries2 around terms that are already in range,
    nonzero and keyed by tuples, skipping the constructor's per-key checks."""
    out = object.__new__(cls)
    object.__setattr__(out, "n", n)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "_form", None)
    return out


def _mul_kernel(left: tuple, right: tuple, n: int) -> list:
    """Product of two integer forms truncated at total degree n.

    Returns (packed key, coefficient) for every nonzero output monomial.  The
    Gaussian-integer products are summed per key, and each sum is reduced
    once over Dl * Dr.
    """
    Dl, lrows = left
    Dr, rrows = right
    acc: dict = {}
    get = acc.get
    for dl, k1, r1, i1 in lrows:
        lim = n - dl
        for dr, k2, r2, i2 in rrows:
            if dr > lim:
                break
            key = k1 + k2
            s = get(key)
            if s is None:
                acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                s[0] += r1 * r2 - i1 * i2
                s[1] += r1 * i2 + i1 * r2
    raw = GaussianRational._raw
    D = Dl * Dr
    return [(key, raw(sr, si, D)) for key, (sr, si) in acc.items() if sr or si]


class Series3:
    """Sparse series in (z, zb, u): finite map (a, b, c) -> nonzero coefficient."""

    __slots__ = ("n", "terms", "_form")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("truncation order must be non-negative")
        tt = {}
        if terms:
            for key, val in (terms.items() if isinstance(terms, dict) else terms):
                a, b, c = key
                if a < 0 or b < 0 or c < 0:
                    raise ValueError(f"negative exponent in {key}")
                if a + b + c > n:
                    continue
                val = as_gaussian(val)
                if key in tt:
                    val = tt[key] + val
                if val.is_zero():
                    tt.pop(key, None)
                else:
                    tt[key] = val
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tt)
        object.__setattr__(self, "_form", None)

    _make = classmethod(_wrap)

    def __setattr__(self, *args):
        raise AttributeError("Series3 is immutable")

    def _integer_form(self) -> tuple:
        """The kernel operand of this series, keys packed as (a*B + b)*B + c, B = n + 1."""
        form = self._form
        if form is None:
            B = self.n + 1
            form = _integer_form_of((a + b + c, (a * B + b) * B + c, v)
                                    for (a, b, c), v in self.terms.items())
            object.__setattr__(self, "_form", form)
        return form

    @classmethod
    def zero(cls, n: int) -> "Series3":
        return cls(n)

    @classmethod
    def var(cls, which: str, n: int) -> "Series3":
        key = {"z": (1, 0, 0), "zb": (0, 1, 0), "u": (0, 0, 1)}[which]
        return cls(n, {key: ONE})

    def coeff(self, a: int, b: int, c: int) -> GaussianRational:
        return self.terms.get((a, b, c), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        """Lowest total degree with a nonzero term; n + 1 when zero."""
        if not self.terms:
            return self.n + 1
        return min(a + b + c for (a, b, c) in self.terms)

    def has_constant_term(self) -> bool:
        return (0, 0, 0) in self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, Series3):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __add__(self, other) -> "Series3":
        other = self._coerce(other)
        self._check_order(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key)
            s = val if s is None else s + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return Series3._make(self.n, out)

    def __sub__(self, other) -> "Series3":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Series3":
        return Series3._make(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "Series3":
        """Scalar multiple, or the product truncated at total degree N.

        A series product runs ``_mul_kernel`` on the cached integer forms of
        both operands: numerators over one common denominator per series and
        monomials packed as (a*B + b)*B + c with B = N + 1.  Exponents of a
        kept product add without carry, because a1 + a2 <= N.  Each output
        coefficient is reduced once, and is the same reduced GaussianRational
        that summing the term products one by one would give.
        """
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = as_gaussian(other)
            if c.is_zero():
                return Series3(self.n)
            return Series3._make(self.n, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        self._check_order(other)
        n = self.n
        B = n + 1
        out = {}
        for key, v in _mul_kernel(self._integer_form(), other._integer_form(), n):
            ab, c = divmod(key, B)
            a, b = divmod(ab, B)
            out[(a, b, c)] = v
        return Series3._make(n, out)

    __rmul__ = __mul__

    def _coerce(self, other) -> "Series3":
        if isinstance(other, Series3):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = as_gaussian(other)
            return Series3(self.n, {(0, 0, 0): c} if not c.is_zero() else {})
        raise TypeError(f"cannot combine Series3 with {type(other).__name__}")

    def _check_order(self, other: "Series3"):
        if self.n != other.n:
            raise ValueError(f"mismatched truncation orders {self.n} != {other.n}")

    def diff(self, which: str) -> "Series3":
        """Formal partial derivative; the cutoff N is kept unchanged."""
        idx = {"z": 0, "zb": 1, "u": 2}[which]
        out = {}
        for key, val in self.terms.items():
            e = key[idx]
            if e == 0:
                continue
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = val * e
        return Series3._make(self.n, out)

    def truncate(self, n: int) -> "Series3":
        if n == self.n:
            return self
        return Series3(n, {k: v for k, v in self.terms.items() if sum(k) <= n})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b, c), v in self.sorted_terms():
            factors = [name + (f"^{e}" if e > 1 else "")
                       for name, e in (("z", a), ("zb", b), ("u", c)) if e]
            mono = "*".join(factors)
            bits.append(f"({v})*{mono}" if mono else f"({v})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Series3(n={self.n}, {len(self.terms)} terms)"


def hermitian_conjugate(s: Series3) -> Series3:
    """Swap exponents (a,b,c) -> (b,a,c) and conjugate each coefficient."""
    return Series3._make(s.n, {(b, a, c): v.conjugate() for (a, b, c), v in s.terms.items()})


def is_hermitian(s: Series3) -> bool:
    return hermitian_conjugate(s) == s


def split_real_imag(s: Series3) -> tuple[Series3, Series3]:
    """s = h1 + i*h2 with h1, h2 Hermitian."""
    conj = hermitian_conjugate(s)
    half = GaussianRational(Fraction(1, 2))
    h1 = (s + conj) * half
    h2 = (s - conj) * (half / I)
    return h1, h2


class _PowCache:
    """Lazily extended powers of a fixed series (Series3 or dense list)."""

    __slots__ = ("base", "pows")

    def __init__(self, base):
        self.base = base
        self.pows = [None, base]

    def __call__(self, e: int):
        if e == 0:
            raise ValueError("power 0 handled by caller")
        while len(self.pows) <= e:
            self.pows.append(self.pows[-1] * self.base)
        return self.pows[e]


def substitute(s: Series3, z_repl: Series3, zb_repl: Series3, u_repl: Series3) -> Series3:
    """Exact composition s(z_repl, zb_repl, u_repl) truncated at N.

    Replacements must have vanishing constant term so that only finitely
    many terms of s contribute at each degree.
    """
    n = s.n
    for r in (z_repl, zb_repl, u_repl):
        if r.n != n:
            raise ValueError(f"mismatched truncation orders {r.n} != {n}")
        if r.has_constant_term():
            raise ValueError("composition requires vanishing constant term")
    pz, pzb, pu = _PowCache(z_repl), _PowCache(zb_repl), _PowCache(u_repl)
    # group by (a, b): the u-side polynomial is assembled by cheap adds
    by_ab: dict = {}
    for (a, b, c), v in s.terms.items():
        by_ab.setdefault((a, b), []).append((c, v))
    out = Series3(n)
    for (a, b) in sorted(by_ab):
        upoly = Series3(n)
        cst = ZERO
        for c, v in by_ab[(a, b)]:
            if c == 0:
                cst = cst + v
            else:
                upoly = upoly + pu(c) * v
        if not cst.is_zero():
            upoly = upoly + Series3(n, {(0, 0, 0): cst})
        if upoly.is_zero():
            continue
        piece = upoly
        if a:
            piece = pz(a) * piece
        if b:
            piece = pzb(b) * piece
        out = out + piece
    return out


def _reversion_pass(F: Series3, G: Series3, Z: Series3, U: Series3) -> tuple[Series3, Series3]:
    """One Gauss-Seidel pass of (Z, U) <- (z - F(Z, Zc, U), u - G(Z, Zc, U)).

    U is updated first and the new U feeds the Z update, so that F's linear
    term a*u sees the current degree of U.
    """
    n = F.n
    Zc = hermitian_conjugate(Z)
    U = Series3.var("u", n) - (G if G.is_zero() else substitute(G, Z, Zc, U))
    Z = Series3.var("z", n) - (F if F.is_zero() else substitute(F, Z, Zc, U))
    return Z, U


def invert_real_triple(z1: Series3, u1: Series3) -> tuple[Series3, Series3]:
    """Invert the graph parametrization (z, zb, u) -> (z1, conj z1, u1).

    Returns (Z, U) in the image variables with Z(z1, conj z1, u1) = z and
    U(z1, conj z1, u1) = u to order N.  z1 must be z plus terms that are at
    least linear with the only admissible linear term a multiple of u (this
    is what stage maps produce through w = u + i*phi); u1 must be Hermitian
    and equal u plus terms of degree >= 2.

    With F = z1 - z and G = u1 - u, (Z, U) is the fixed point of
    Z = z - F(Z, conj Z, U), U = u - G(Z, conj Z, U).  It is reached by a
    precision ramp: for d = 1, ..., N one Gauss-Seidel pass at order d,
    started from the order-(d-1) result, updates U first and then Z with
    the new U.  G has no linear term and F's only linear term is a multiple
    of u, so each pass fixes degree d of both components, and the order-d
    result is the order-d part of the inverse.  A final pass at order N
    must give (Z, U) back unchanged; otherwise the triple is rejected.
    """
    n = z1.n
    if u1.n != n:
        raise ValueError(f"mismatched truncation orders {u1.n} != {n}")
    zv = Series3.var("z", n)
    uv = Series3.var("u", n)
    F = z1 - zv
    G = u1 - uv
    for key in F.terms:
        if sum(key) <= 1 and key != (0, 0, 1):
            raise ValueError("reversion requires identity linear part")
    for key in G.terms:
        if sum(key) <= 1:
            raise ValueError("reversion requires identity linear part")
    if not is_hermitian(u1):
        raise ValueError("u-component of the triple must be Hermitian")
    Z, U = zv, uv
    for d in range(1, n + 1):
        Z, U = _reversion_pass(F.truncate(d), G.truncate(d), Z.truncate(d), U.truncate(d))
    if _reversion_pass(F, G, Z, U) != (Z, U):
        raise ValueError("reversion did not converge (non-invertible triple?)")
    return Z, U


class HoloSeries2:
    """Sparse holomorphic series sum h_{lk} z^l w^k, truncated by l + k <= N."""

    __slots__ = ("n", "terms", "_form")

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("truncation order must be non-negative")
        tt = {}
        if terms:
            for key, val in (terms.items() if isinstance(terms, dict) else terms):
                l, k = key
                if l < 0 or k < 0:
                    raise ValueError(f"negative exponent in {key}")
                if l + k > n:
                    continue
                val = as_gaussian(val)
                if key in tt:
                    val = tt[key] + val
                if val.is_zero():
                    tt.pop(key, None)
                else:
                    tt[key] = val
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", tt)
        object.__setattr__(self, "_form", None)

    _make = classmethod(_wrap)

    def __setattr__(self, *args):
        raise AttributeError("HoloSeries2 is immutable")

    def _integer_form(self) -> tuple:
        """The kernel operand of this series, keys packed as l*B + k, B = n + 1."""
        form = self._form
        if form is None:
            B = self.n + 1
            form = _integer_form_of((l + k, l * B + k, v) for (l, k), v in self.terms.items())
            object.__setattr__(self, "_form", form)
        return form

    def coeff(self, l: int, k: int) -> GaussianRational:
        return self.terms.get((l, k), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, HoloSeries2):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __add__(self, other) -> "HoloSeries2":
        if not isinstance(other, HoloSeries2):
            raise TypeError(f"cannot combine HoloSeries2 with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"mismatched truncation orders {self.n} != {other.n}")
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key)
            s = val if s is None else s + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return HoloSeries2._make(self.n, out)

    def __sub__(self, other) -> "HoloSeries2":
        return self + (-other)

    def __neg__(self) -> "HoloSeries2":
        return HoloSeries2._make(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other) -> "HoloSeries2":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = as_gaussian(other)
            if c.is_zero():
                return HoloSeries2(self.n)
            return HoloSeries2._make(self.n, {k: v * c for k, v in self.terms.items()})
        if not isinstance(other, HoloSeries2):
            raise TypeError(f"cannot combine HoloSeries2 with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"mismatched truncation orders {self.n} != {other.n}")
        n = self.n
        B = n + 1
        out = {divmod(key, B): v
               for key, v in _mul_kernel(self._integer_form(), other._integer_form(), n)}
        return HoloSeries2._make(n, out)

    __rmul__ = __mul__

    def eval_series3(self, z_repl: Series3, w_repl: Series3) -> Series3:
        """Evaluate at Series3 arguments (zero constant term required)."""
        n = z_repl.n
        if w_repl.n != n:
            raise ValueError(f"mismatched truncation orders {w_repl.n} != {n}")
        if z_repl.has_constant_term() or w_repl.has_constant_term():
            raise ValueError("composition requires vanishing constant term")
        pz, pw = _PowCache(z_repl), _PowCache(w_repl)
        by_l: dict = {}
        for (l, k), v in self.terms.items():
            by_l.setdefault(l, []).append((k, v))
        out = Series3(n)
        for l in sorted(by_l):
            wpoly = Series3(n)
            cst = ZERO
            for k, v in by_l[l]:
                if k == 0:
                    cst = cst + v
                else:
                    wpoly = wpoly + pw(k) * v
            if not cst.is_zero():
                wpoly = wpoly + Series3(n, {(0, 0, 0): cst})
            if wpoly.is_zero():
                continue
            out = out + (pz(l) * wpoly if l else wpoly)
        return out

    def compose2(self, z_repl: "HoloSeries2", w_repl: "HoloSeries2") -> "HoloSeries2":
        """Holomorphic composition h(z_repl, w_repl), zero constant terms required."""
        n = self.n
        if z_repl.n != n or w_repl.n != n:
            raise ValueError("mismatched truncation orders")
        if (0, 0) in z_repl.terms or (0, 0) in w_repl.terms:
            raise ValueError("composition requires vanishing constant term")
        pz, pw = _PowCache(z_repl), _PowCache(w_repl)
        out = HoloSeries2(n)
        for (l, k), v in sorted(self.terms.items()):
            piece = None
            if l:
                piece = pz(l)
            if k:
                piece = pw(k) if piece is None else piece * pw(k)
            if piece is None:
                piece = HoloSeries2(n, {(0, 0): ONE})
            out = out + piece * v
        return out

    def __repr__(self) -> str:
        return f"HoloSeries2(n={self.n}, {len(self.terms)} terms)"


class FormalMap:
    """The map (z, w) -> (z + f(z,w), w + g(z,w)).

    f has no constant term and no term linear in z alone (f00 = f10 = 0);
    g has no constant term and no term linear in w alone (g00 = g01 = 0).
    """

    __slots__ = ("f", "g")

    def __init__(self, f: HoloSeries2, g: HoloSeries2):
        if f.n != g.n:
            raise ValueError("mismatched truncation orders between f and g")
        for bad in ((0, 0), (1, 0)):
            if bad in f.terms:
                raise ValueError(f"map increment f must have f{bad[0]}{bad[1]} = 0")
        for bad in ((0, 0), (0, 1)):
            if bad in g.terms:
                raise ValueError(f"map increment g must have g{bad[0]}{bad[1]} = 0")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def __setattr__(self, *args):
        raise AttributeError("FormalMap is immutable")

    @property
    def n(self) -> int:
        return self.f.n

    @classmethod
    def identity(cls, n: int) -> "FormalMap":
        return cls(HoloSeries2(n), HoloSeries2(n))

    def is_identity(self) -> bool:
        return self.f.is_zero() and self.g.is_zero()

    def __eq__(self, other):
        if not isinstance(other, FormalMap):
            return NotImplemented
        return self.f == other.f and self.g == other.g

    def __repr__(self) -> str:
        return f"FormalMap(n={self.n}, |f|={len(self.f.terms)}, |g|={len(self.g.terms)})"


def compose_maps(outer: FormalMap, inner: FormalMap) -> FormalMap:
    """FormalMap of (z, w) -> outer(inner(z, w)), truncated."""
    n = outer.n
    if inner.n != n:
        raise ValueError(f"mismatched truncation orders {inner.n} != {n}")
    zv = HoloSeries2(n, {(1, 0): ONE})
    wv = HoloSeries2(n, {(0, 1): ONE})
    z1 = zv + inner.f
    w1 = wv + inner.g
    # outer components evaluated on the inner image
    f_new = inner.f + outer.f.compose2(z1, w1)
    g_new = inner.g + outer.g.compose2(z1, w1)
    return FormalMap(f_new, g_new)


def invert_map(m: FormalMap, max_passes: int | None = None) -> FormalMap:
    """Inverse map: compose_maps(m, invert_map(m)) is the identity to order N.

    The fixed-point iteration converges whenever the 1-jet of the map is
    unipotent, in particular whenever f01 * g10 = 0; every map produced by
    the normalization pipeline has g(z, 0) = 0 and qualifies.  A map whose
    1-jet is singular has no inverse and the iteration reports failure.
    """
    n = m.n
    zv = HoloSeries2(n, {(1, 0): ONE})
    wv = HoloSeries2(n, {(0, 1): ONE})
    fi, gi = HoloSeries2(n), HoloSeries2(n)
    limit = max_passes if max_passes is not None else 3 * (n + 2)
    for _ in range(limit):
        z1 = zv + fi
        w1 = wv + gi
        fn = -(m.f.compose2(z1, w1))
        gn = -(m.g.compose2(z1, w1))
        if fn == fi and gn == gi:
            return FormalMap(fi, gi)
        fi, gi = fn, gn
    raise ValueError("map inversion did not converge")


class UniSeries:
    """Dense univariate truncated series over GaussianRational."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("order must be non-negative")
        cs = [as_gaussian(c) for c in coeffs][: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("UniSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "UniSeries":
        return cls(order)

    @classmethod
    def x(cls, order: int) -> "UniSeries":
        return cls(order, [ZERO, ONE])

    def coeff(self, j: int) -> GaussianRational:
        return self.coeffs[j] if 0 <= j <= self.order else ZERO

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __add__(self, other) -> "UniSeries":
        other = self._coerce(other)
        return UniSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other) -> "UniSeries":
        return self + (-self._coerce(other))

    def __neg__(self) -> "UniSeries":
        return UniSeries(self.order, [-c for c in self.coeffs])

    def __mul__(self, other) -> "UniSeries":
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = as_gaussian(other)
            return UniSeries(self.order, [v * c for v in self.coeffs])
        other = self._coerce(other)
        out = [ZERO] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > self.order:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return UniSeries(self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UniSeries":
        """Series division; the divisor needs an invertible constant term."""
        other = self._coerce(other)
        c0 = other.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("series division needs a nonzero constant term")
        inv0 = ONE / c0
        out = [ZERO] * (self.order + 1)
        for j in range(self.order + 1):
            acc = self.coeffs[j]
            for i in range(j):
                acc = acc - out[i] * other.coeffs[j - i]
            out[j] = acc * inv0
        return UniSeries(self.order, out)

    def _coerce(self, other) -> "UniSeries":
        if isinstance(other, UniSeries):
            if other.order != self.order:
                raise ValueError(f"mismatched truncation orders {other.order} != {self.order}")
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return UniSeries(self.order, [as_gaussian(other)])
        raise TypeError(f"cannot combine UniSeries with {type(other).__name__}")

    def derivative(self) -> "UniSeries":
        return UniSeries(self.order, [self.coeffs[j] * j for j in range(1, self.order + 1)])

    def shift_mul_x(self) -> "UniSeries":
        """Multiply by the variable (drops the top coefficient)."""
        return UniSeries(self.order, [ZERO] + list(self.coeffs[:-1]))

    def truncate(self, order: int) -> "UniSeries":
        return UniSeries(order, self.coeffs[: order + 1])

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def eval_series3(self, x_repl: Series3) -> Series3:
        """Substitute a zero-constant-term Series3 for the variable."""
        if x_repl.has_constant_term():
            raise ValueError("composition requires vanishing constant term")
        n = x_repl.n
        px = _PowCache(x_repl)
        out = Series3(n)
        if not self.coeffs[0].is_zero():
            out = out + Series3(n, {(0, 0, 0): self.coeffs[0]})
        mindeg = x_repl.min_degree()
        for j in range(1, self.order + 1):
            if mindeg * j > n:
                break
            c = self.coeffs[j]
            if not c.is_zero():
                out = out + px(j) * c
        return out

    def __repr__(self) -> str:
        return f"UniSeries(order={self.order}, {[str(c) for c in self.coeffs]})"


def uni_compose(outer: UniSeries, inner: UniSeries) -> UniSeries:
    """outer(inner(x)) truncated; inner must have zero constant term."""
    if outer.order != inner.order:
        raise ValueError(f"mismatched truncation orders {outer.order} != {inner.order}")
    if not inner.coeffs[0].is_zero():
        raise ValueError("composition requires vanishing constant term")
    order = outer.order
    out = UniSeries(order, [outer.coeffs[0]])
    px = _PowCache(inner)
    for j in range(1, order + 1):
        c = outer.coeffs[j]
        if not c.is_zero():
            out = out + px(j) * c
    return out


def uni_function(kind: str, order: int, exponent: Fraction | None = None) -> UniSeries:
    """Maclaurin series of a named function to the requested order.

    kinds: arcsin, tan, exp, log1p, pow_rational (series of (1+x)**exponent).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    cs = [ZERO] * (order + 1)
    if kind == "arcsin":
        # x + x^3/6 + 3x^5/40 + ...: c_{2n+1} = C(2n, n) / (4^n (2n+1))
        for m in range(0, (order - 1) // 2 + 1 if order >= 1 else 0):
            j = 2 * m + 1
            cs[j] = GaussianRational(Fraction(math.comb(2 * m, m), 4**m * (2 * m + 1)))
        return UniSeries(order, cs)
    if kind == "tan":
        # t' = 1 + t^2 solved order by order
        t = [Fraction(0)] * (order + 1)
        if order >= 1:
            t[1] = Fraction(1)
        for j in range(2, order + 1):
            sq = sum(t[i] * t[j - 1 - i] for i in range(j))
            t[j] = sq / j
        return UniSeries(order, [GaussianRational(v) for v in t])
    if kind == "exp":
        f = Fraction(1)
        for j in range(order + 1):
            cs[j] = GaussianRational(f)
            f /= j + 1
        return UniSeries(order, cs)
    if kind == "log1p":
        for j in range(1, order + 1):
            cs[j] = GaussianRational(Fraction((-1) ** (j + 1), j))
        return UniSeries(order, cs)
    if kind == "pow_rational":
        if exponent is None:
            raise ValueError("pow_rational needs an exponent")
        alpha = Fraction(exponent)
        binom = Fraction(1)
        for j in range(order + 1):
            cs[j] = GaussianRational(binom)
            binom = binom * (alpha - j) / (j + 1)
        return UniSeries(order, cs)
    raise ValueError(f"unknown function kind {kind!r}")
