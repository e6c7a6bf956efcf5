"""Sparse truncated formal power series.

One sparse core, ``_SparseSeries``, holds a finite map from exponent tuples
to nonzero coefficients, truncated at total degree N.  It carries the
checked constructor, immutability, equality, sums and the product kernel;
a subclass names its variables in ``VARS`` and decodes packed keys:

* ``Series3`` -- series in (z, zb, u); used for graphing functions and
  everything derived from them.
* ``HoloSeries2`` -- holomorphic series in (z, w); used for map components
  and vector fields.

``substitute`` composes a series of either kind with replacements of either
kind.  ``UniSeries`` is apart: a dense univariate series used for the
transcendental generator math (arcsin, tan, exp, rational powers, the q_T
ODE).

All coefficients are GaussianRational and all operations are exact: a
product simply drops monomials beyond the truncation order, and compositions
require vanishing constant terms so the truncated result is well defined.

Products run one kernel.  Each operand is put once, and cached, over the
lcm D of its coefficient denominators, with monomials packed into single
integers (base N + 1) so that adding keys adds exponents.  The kernel sums
Gaussian-integer numerator products per output monomial and reduces each
nonzero sum once, over Dl * Dr: one gcd per output coefficient instead of
two per term pair.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I, as_gaussian

_SCALARS = (int, Fraction, GaussianRational)


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


class _SparseSeries:
    """Sparse series in the variables ``VARS``: exponent tuple -> nonzero coefficient."""

    __slots__ = ("n", "terms", "_form")

    #: variable names, one per exponent of a key
    VARS: tuple = ()

    def __init__(self, n: int, terms=None):
        if n < 0:
            raise ValueError("truncation order must be non-negative")
        arity = len(self.VARS)
        tt = {}
        if terms:
            for key, val in (terms.items() if isinstance(terms, dict) else terms):
                if len(key) != arity:
                    raise ValueError(f"{type(self).__name__} key {key} needs {arity} exponents")
                if min(key) < 0:
                    raise ValueError(f"negative exponent in {key}")
                if sum(key) > n:
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

    @classmethod
    def _make(cls, n: int, terms: dict):
        """A series around terms that are already in range, nonzero and keyed
        by tuples, skipping the constructor's per-key checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "_form", None)
        return out

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _integer_form(self) -> tuple:
        """The kernel operand (D, rows), cached on first use.

        D is the lcm of the coefficient denominators and rows holds
        (degree, packed key, re, im) with re + im*i = D * coefficient, sorted
        by degree and then key so that a product loop can stop early.  A key
        (e1, ..., em) is packed in base B = n + 1 as (...(e1*B + e2)*B ...)*B + em.
        """
        form = self._form
        if form is None:
            B = self.n + 1
            terms = self.terms
            D = math.lcm(*(v.den for v in terms.values()))
            rows = []
            for key, v in terms.items():
                packed = 0
                for e in key:
                    packed = packed * B + e
                q = D // v.den
                rows.append((sum(key), packed, v.nre * q, v.nim * q))
            rows.sort()
            form = (D, rows)
            object.__setattr__(self, "_form", form)
        return form

    @staticmethod
    def _unpack(pairs, B: int) -> dict:
        """Terms keyed by exponent tuples from kernel output keyed in base B."""
        raise NotImplementedError

    @classmethod
    def zero(cls, n: int):
        return cls(n)

    @classmethod
    def var(cls, which: str, n: int):
        if which not in cls.VARS:
            raise ValueError(f"{cls.__name__} has no variable {which!r}")
        return cls(n, {tuple(int(v == which) for v in cls.VARS): ONE})

    def coeff(self, *key) -> GaussianRational:
        return self.terms.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        """Lowest total degree with a nonzero term; n + 1 when zero."""
        if not self.terms:
            return self.n + 1
        return min(map(sum, self.terms))

    def has_constant_term(self) -> bool:
        return (0,) * len(self.VARS) in self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __add__(self, other):
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
        return self._make(self.n, out)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        return self._make(self.n, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        """Scalar multiple, or the product truncated at total degree N.

        A series product runs ``_mul_kernel`` on the cached integer forms of
        both operands: numerators over one common denominator per series and
        monomials packed in base B = N + 1.  Exponents of a kept product add
        without carry, because each is at most N.  Each output coefficient is
        reduced once, and is the same reduced GaussianRational that summing
        the term products one by one would give.
        """
        if isinstance(other, _SCALARS):
            c = as_gaussian(other)
            if c.is_zero():
                return type(self)(self.n)
            return self._make(self.n, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        self._check_order(other)
        n = self.n
        pairs = _mul_kernel(self._integer_form(), other._integer_form(), n)
        return self._make(n, self._unpack(pairs, n + 1))

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, _SCALARS):
            c = as_gaussian(other)
            return self._make(self.n, {(0,) * len(self.VARS): c} if not c.is_zero() else {})
        raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")

    def _check_order(self, other):
        if self.n != other.n:
            raise ValueError(f"mismatched truncation orders {self.n} != {other.n}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {len(self.terms)} terms)"


class Series3(_SparseSeries):
    """Sparse series in (z, zb, u): finite map (a, b, c) -> nonzero coefficient."""

    __slots__ = ()
    VARS = ("z", "zb", "u")

    @staticmethod
    def _unpack(pairs, B: int) -> dict:
        out = {}
        for key, v in pairs:
            ab, c = divmod(key, B)
            a, b = divmod(ab, B)
            out[(a, b, c)] = v
        return out

    # In the class dict so that tracers can wrap the product of this class alone.
    __mul__ = __rmul__ = _SparseSeries.__mul__

    def diff(self, which: str) -> "Series3":
        """Formal partial derivative; the cutoff N is kept unchanged."""
        idx = self.VARS.index(which)
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
                       for name, e in zip(self.VARS, (a, b, c)) if e]
            mono = "*".join(factors)
            bits.append(f"({v})*{mono}" if mono else f"({v})")
        return " + ".join(bits)


class HoloSeries2(_SparseSeries):
    """Sparse holomorphic series sum h_{lk} z^l w^k, truncated by l + k <= N."""

    __slots__ = ()
    VARS = ("z", "w")

    @staticmethod
    def _unpack(pairs, B: int) -> dict:
        return {divmod(key, B): v for key, v in pairs}


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
    """Lazily extended powers of a fixed series (sparse or ``UniSeries``)."""

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


def substitute(s: _SparseSeries, *repls: _SparseSeries) -> _SparseSeries:
    """Exact composition s(*repls) truncated at N, of the replacements' type.

    s is a Series3 or HoloSeries2, and takes one replacement per variable;
    the replacements share one type, which may differ from s's.  They must
    have vanishing constant term so that only finitely many terms of s
    contribute at each degree.  Terms are grouped by every exponent but the
    last: the polynomial in the last replacement is assembled by cheap
    scalar multiples and adds, and then multiplied by the powers of the
    others.
    """
    n = s.n
    if len(repls) != len(s.VARS):
        raise ValueError(f"{type(s).__name__} takes {len(s.VARS)} replacements, "
                         f"got {len(repls)}")
    kind = type(repls[0])
    if not issubclass(kind, _SparseSeries) or any(type(r) is not kind for r in repls):
        raise TypeError("replacements must be sparse series of one type")
    for r in repls:
        if r.n != n:
            raise ValueError(f"mismatched truncation orders {r.n} != {n}")
        if r.has_constant_term():
            raise ValueError("composition requires vanishing constant term")
    *heads, plast = [_PowCache(r) for r in repls]
    groups: dict = {}
    for key, v in s.terms.items():
        groups.setdefault(key[:-1], []).append((key[-1], v))
    one = (0,) * len(kind.VARS)
    out = kind(n)
    for prefix in sorted(groups):
        poly = kind(n)
        cst = ZERO
        for e, v in groups[prefix]:
            if e == 0:
                cst = cst + v
            else:
                poly = poly + plast(e) * v
        if not cst.is_zero():
            poly = poly + kind(n, {one: cst})
        if poly.is_zero():
            continue
        for pw, e in zip(heads, prefix):
            if e:
                poly = pw(e) * poly
        out = out + poly
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
    z1 = HoloSeries2.var("z", n) + inner.f
    w1 = HoloSeries2.var("w", n) + inner.g
    # outer components evaluated on the inner image
    f_new = inner.f + substitute(outer.f, z1, w1)
    g_new = inner.g + substitute(outer.g, z1, w1)
    return FormalMap(f_new, g_new)


def invert_map(m: FormalMap) -> FormalMap:
    """Inverse map: compose_maps(m, invert_map(m)) is the identity to order N.

    The fixed-point iteration converges whenever the 1-jet of the map is
    unipotent, in particular whenever f01 * g10 = 0; every map produced by
    the normalization pipeline has g(z, 0) = 0 and qualifies.  A map whose
    1-jet is singular has no inverse and the iteration reports failure
    after 3 * (N + 2) passes.
    """
    n = m.n
    zv = HoloSeries2.var("z", n)
    wv = HoloSeries2.var("w", n)
    fi, gi = HoloSeries2(n), HoloSeries2(n)
    for _ in range(3 * (n + 2)):
        z1 = zv + fi
        w1 = wv + gi
        fn = -substitute(m.f, z1, w1)
        gn = -substitute(m.g, z1, w1)
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
