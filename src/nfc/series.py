"""Sparse truncated formal power series.

One sparse core, ``_SparseSeries``, holds a finite map from exponent tuples
to nonzero coefficients, truncated at total degree N.  It carries the
checked constructor, immutability, equality, sums and the product kernel;
a subclass names its variables in ``VARS`` and decodes packed keys:

* ``Series3`` -- series in (z, zb, u); used for graphing functions and
  everything derived from them.
* ``HoloSeries2`` -- holomorphic series in (z, w); used for map components
  and vector fields.
* ``Series1`` -- series in one variable x; used for the transcendental
  generator math (arcsin, tan, exp, rational powers, the q_T ODE).

``substitute`` composes a series of any kind with replacements of any kind,
so the family generators run on the same core and kernel as the
normalization.

All coefficients are GaussianRational and all operations are exact: a
product simply drops monomials beyond the truncation order, and compositions
require vanishing constant terms so the truncated result is well defined.

Products and compositions run on one integer engine.  Each operand is put
once, and cached, over the lcm D of its coefficient denominators, with
monomials packed into single integers (base N + 1) so that adding keys adds
exponents.  One multiply-accumulate loop, ``_accumulate``, sums
Gaussian-integer numerator products per output monomial without reducing
them.  A product reduces each nonzero sum once, over Dl * Dr: one gcd per
output coefficient instead of two per term pair.

A composition is evaluated at a ``_Point``, which holds the power tables of
its replacements as integer forms and can be shared.  Each group of terms is
assembled as one integer form, carried through the head products unreduced,
and summed with the other groups over one common denominator, so each output
coefficient is reduced once.  At a real point (Z, conj Z, U) with U
Hermitian, a Hermitian series is composed from half of its groups and the
Hermitian conjugate of their sum, and the powers of conj Z are the
conjugates of the powers of Z.  A replacement may be given as a series or
directly as its integer form, and whether the point is real is read off the
forms.  So a caller that holds unreduced sums, such as the image point of
``surface.transform``, never reduces them to a series first.

Every series inversion is one ``_Point.solve``: the series s with
s(point) = rhs, found degree by degree at the one point, so the tables are
built once.  Its residual stays an unreduced integer table over one
denominator, and only the coefficients it outputs are reduced; rhs may be
an integer form too.  ``transform`` solves for the image surface,
``invert_map`` for the increments of the inverse map, and the families' q_T
is the reversion of a ``Series1``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I, as_gaussian

_SCALARS = (int, Fraction, GaussianRational)


def _accumulate(acc: dict, lrows, rrows, n: int) -> None:
    """Add the product of two row lists, truncated at total degree n, into acc.

    Rows are (degree, packed key, re, im) of Gaussian-integer numerators;
    rrows must be sorted by degree so that the inner loop can stop early, and
    lrows may come in any order.  acc maps a packed key to the unreduced sum
    [re, im, degree]; nothing is reduced here.  This is the one
    multiply-accumulate loop of the module: series products and
    compositions both run on it.
    """
    get = acc.get
    for dl, k1, r1, i1 in lrows:
        lim = n - dl
        for dr, k2, r2, i2 in rrows:
            if dr > lim:
                break
            key = k1 + k2
            s = get(key)
            if s is None:
                acc[key] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2, dl + dr]
            else:
                s[0] += r1 * r2 - i1 * i2
                s[1] += r1 * i2 + i1 * r2


def _reduced(acc: dict, D: int) -> list:
    """(packed key, coefficient) for each nonzero sum of acc, reduced once over D."""
    raw = GaussianRational._raw
    return [(key, raw(sr, si, D)) for key, (sr, si, _) in acc.items() if sr or si]


def _rows(acc: dict) -> list:
    """The nonzero unreduced sums of acc as kernel rows, in no particular order."""
    return [(d, key, sr, si) for key, (sr, si, d) in acc.items() if sr or si]


def _mul_kernel(left: tuple, right: tuple, n: int) -> list:
    """Product of two integer forms truncated at total degree n.

    Returns (packed key, coefficient) for every nonzero output monomial.  The
    Gaussian-integer products are summed per key, and each sum is reduced
    once over Dl * Dr.
    """
    acc: dict = {}
    _accumulate(acc, left[1], right[1], n)
    return _reduced(acc, left[0] * right[0])


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

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

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

    def diff(self, which: str):
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
        return self._make(self.n, out)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {len(self.terms)} terms)"


class Series1(_SparseSeries):
    """Sparse series in one variable x: finite map (j,) -> nonzero coefficient."""

    __slots__ = ()
    VARS = ("x",)

    @staticmethod
    def _unpack(pairs, B: int) -> dict:
        return {(key,): v for key, v in pairs}


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


def _conjugates(x: Series3, y: Series3) -> bool:
    """Whether y == hermitian_conjugate(x), decided without building the conjugate."""
    if x.n != y.n or len(x.terms) != len(y.terms):
        return False
    yt = y.terms
    for (a, b, c), v in x.terms.items():
        w = yt.get((b, a, c))
        if w is None or w.nre != v.nre or w.nim != -v.nim or w.den != v.den:
            return False
    return True


def is_hermitian(s: Series3) -> bool:
    return _conjugates(s, s)


def split_real_imag(s: Series3) -> tuple[Series3, Series3]:
    """s = h1 + i*h2 with h1, h2 Hermitian."""
    conj = hermitian_conjugate(s)
    half = GaussianRational(Fraction(1, 2))
    h1 = (s + conj) * half
    h2 = (s - conj) * (half / I)
    return h1, h2


def _swap(key: int, B: int) -> int:
    """The packed key of (b, a, c) for the packed key of (a, b, c), in base B."""
    ab, c = divmod(key, B)
    a, b = divmod(ab, B)
    return (b * B + a) * B + c


def _conjugate_rows(rows, B: int) -> list:
    """Sorted kernel rows of the Hermitian conjugate: (a, b, c) -> (b, a, c), im negated."""
    return sorted((d, _swap(key, B), sr, -si) for d, key, sr, si in rows)


def _form(acc: dict, D: int) -> tuple:
    """The integer form (D', rows) of the unreduced sums of acc over D.

    D and every numerator are divided by their gcd, which leaves D' the lcm
    of the reduced coefficient denominators; the nonzero rows are sorted.  So
    the form is the one ``_integer_form`` caches for the same series.
    """
    g = math.gcd(D, *(x for sr, si, _ in acc.values() for x in (sr, si)))
    return D // g, sorted((d, key, sr // g, si // g) for d, key, sr, si in _rows(acc))


def _product(left: tuple, right: tuple, n: int) -> tuple:
    """Integer form of left * right truncated at total degree n; right's rows sorted by degree."""
    acc: dict = {}
    _accumulate(acc, left[1], right[1], n)
    return _form(acc, left[0] * right[0])


#: The integer form of the constant 1, the zeroth power of every replacement.
_ONE_FORM = (1, [(0, 0, 1, 0)])


class _Point:
    """Replacements (r1, ..., rm) at which sparse series are evaluated.

    Each replacement is given as a series or as its integer form (D, rows),
    in the canonical layout of ``_integer_form`` (see ``_form``), so that a
    caller holding unreduced sums never builds the series.  n and kind, the
    truncation order and the series type of the results, default to those
    of the first replacement.  The point holds one power table per
    replacement: the integer forms of r^0, r^1, ..., each built on first use
    from the one before and reduced to the lcm of its denominators, which
    makes it the cached integer form of the reduced power.  At a point
    (Z, conj Z, U) the powers of conj Z are read off those of Z by swapping
    z and zb and conjugating.  Every series composed or solved for at the
    same point reuses the tables.
    """

    __slots__ = ("n", "kind", "tables", "conjugate_heads", "real")

    def __init__(self, repls: tuple, n: int | None = None, kind: type | None = None):
        self.n = repls[0].n if n is None else n
        self.kind = type(repls[0]) if kind is None else kind
        forms = [r if isinstance(r, tuple) else r._integer_form() for r in repls]
        self.tables = [[_ONE_FORM, form] for form in forms]
        B = self.n + 1
        #: (Z, conj Z, ...): the powers of conj Z are the conjugates of Z's
        self.conjugate_heads = (self.kind is Series3 and len(forms) == 3
                                and forms[1] == (forms[0][0], _conjugate_rows(forms[0][1], B)))
        #: (Z, conj Z, U) with U Hermitian: a series that is Hermitian in
        #: (z, zb, u) then composes to a Hermitian series
        self.real = (self.conjugate_heads
                     and forms[2] == (forms[2][0], _conjugate_rows(forms[2][1], B)))

    def power(self, i: int, e: int) -> tuple:
        """Integer form (D, rows) of the e-th power of replacement i."""
        table = self.tables[i]
        while len(table) <= e:
            if i == 1 and self.conjugate_heads:
                D, rows = self.power(0, len(table))
                table.append((D, _conjugate_rows(rows, self.n + 1)))
                continue
            table.append(_product(table[-1], table[1], self.n))
        return table[e]

    def compose(self, s: _SparseSeries) -> _SparseSeries:
        """s at this point, truncated at N; s has one variable per replacement.

        Each output coefficient is reduced once, over the denominator of
        ``_compose_acc``.
        """
        D, acc = self._compose_acc(s)
        n, kind = self.n, self.kind
        return kind._make(n, kind._unpack(_reduced(acc, D), n + 1))

    def _compose_acc(self, s: _SparseSeries) -> tuple:
        """(D, acc): s at this point as unreduced sums over one denominator D.

        acc maps a packed key to [re, im, degree], the Gaussian-integer
        numerator of the coefficient times D, as ``_accumulate`` leaves it.

        The terms of s are grouped by every exponent but the last.  A group's
        polynomial in the last replacement is assembled as one integer form
        over the lcm L of its terms' denominators, and is then multiplied by
        the integer forms of the head powers.  The groups are brought to the
        lcm D of their denominators L * D(r1^e1) * ... before these products,
        so that all of them accumulate unreduced into one table over D.

        At a real point a Hermitian s in (z, zb, u) composes to a Hermitian
        series, and the conjugate of the group (a, b) is the group (b, a).
        So only the groups with a <= b are computed, and the part with
        a < b is added to the result together with its Hermitian conjugate.
        """
        n, last = self.n, len(self.tables) - 1
        mirror = self.real and type(s) is Series3 and is_hermitian(s)
        groups: dict = {}
        for key, v in s.terms.items():
            if mirror and key[0] > key[1]:
                continue
            groups.setdefault(key[:-1], []).append((key[-1], v))
        built = []
        for prefix, items in groups.items():
            pows = [(v, self.power(last, e)) for e, v in items]
            L = math.lcm(*(v.den * P[0] for v, P in pows))
            acc: dict = {}
            for v, (De, rows) in pows:
                q = L // (v.den * De)
                _accumulate(acc, [(0, 0, v.nre * q, v.nim * q)], rows, n)
            rows = _rows(acc)
            if rows:
                heads = [self.power(i, e) for i, e in enumerate(prefix) if e]
                built.append((mirror and prefix[0] < prefix[1], rows,
                              math.prod((Dh for Dh, _ in heads), start=L), heads))
        D = math.lcm(*(Dg for _, _, Dg, _ in built))
        out: dict = {}
        half: dict = {}     # the groups a < b of a mirrored composition
        for lower, rows, Dg, heads in built:
            m = D // Dg
            if m != 1:
                rows = [(d, key, sr * m, si * m) for d, key, sr, si in rows]
            for _, hrows in heads[:-1]:
                acc = {}
                _accumulate(acc, rows, hrows, n)
                rows = _rows(acc)
            _accumulate(half if lower else out, rows, heads[-1][1] if heads else _ONE_FORM[1], n)
        for key, (sr, si, d) in half.items():
            for k, im in ((key, si), (_swap(key, n + 1), -si)):
                t = out.get(k)
                if t is None:
                    out[k] = [sr, im, d]
                else:
                    t[0] += sr
                    t[1] += im
        return D, out

    def solve(self, rhs) -> _SparseSeries:
        """The series s with s at this point equal to rhs, to order N.

        rhs is a series or an integer form (D, rows) over any D, with
        nonzero rows; the linear part of the point is read off its forms.

        The point has one replacement per variable of rhs, and its linear
        part is L = 1 + E with E^2 = 0, so L^-1 = 2 - L; any other point
        raises ValueError.  Let Y be the sum of the homogeneous pieces s_e,
        e < d, each composed at this point; a composition is linear in the
        series.  The degree-d part of s(point) = rhs reads s_d(L) = [rhs - Y]_d,
        so s_d is that residual composed with the degree-preserving L^-1, and
        adding s_d(point) to Y clears degree d of rhs - Y.  Each piece is
        composed once, and the power tables of the point are built once
        (Brent & Kung, J. ACM 25, 1978).

        The residual rhs - Y stays in the integers: one table of unreduced
        Gaussian-integer sums per degree, over one denominator D.  Each
        s_d(point) comes from ``_compose_acc`` over its own Dc, and both
        sides are brought to lcm(D, Dc) before it is subtracted.  Only the
        degree-d residual is reduced, because s_d is part of the output.
        """
        n, kind = self.n, self.kind
        if len(self.tables) != len(kind.VARS):
            raise ValueError(f"solve needs one replacement per variable of {kind.__name__}")
        xs = tuple(kind.var(x, n) for x in kind.VARS)
        raw = GaussianRational._raw
        lin = [kind._make(n, kind._unpack([(key, raw(sr, si, D)) for e, key, sr, si in rows
                                           if e == 1], n + 1))
               for D, rows in (table[1] for table in self.tables)]
        # 2x - l, summed key by key in the constructor
        inv = tuple(kind(n, [(key, 2) for key in x.terms]
                         + [(key, -v) for key, v in l.terms.items()])
                    for x, l in zip(xs, lin))
        back = _Point(inv)
        if any(back.compose(l) != x for l, x in zip(lin, xs)):
            raise ValueError("solve needs a linear part L = 1 + E with E^2 = 0")
        if inv == xs:
            back = None
        # rhs - Y as unreduced sums over one denominator D, one table per degree
        D, rows = rhs if isinstance(rhs, tuple) else rhs._integer_form()
        rest = [{} for _ in range(n + 1)]
        for e, key, sr, si in rows:
            rest[e][key] = [sr, si, e]
        out: dict = {}
        for d in range(min((e for e, *_ in rows), default=n + 1), n + 1):
            piece = kind._make(n, kind._unpack(_reduced(rest[d], D), n + 1))
            if back is not None:
                piece = back.compose(piece)
            out.update(piece.terms)
            if d == n or not piece.terms:
                continue
            # subtract s_d(point) over lcm(D, Dc); its degree-d part clears rest[d]
            Dc, acc = self._compose_acc(piece)
            L = math.lcm(D, Dc)
            if L != D:
                m = L // D
                for table in rest[d + 1:]:
                    for s in table.values():
                        s[0] *= m
                        s[1] *= m
                D = L
            m = L // Dc
            for key, (cr, ci, e) in acc.items():
                if e > d:
                    table = rest[e]
                    s = table.get(key)
                    if s is None:
                        table[key] = [-cr * m, -ci * m, e]
                    else:
                        s[0] -= cr * m
                        s[1] -= ci * m
        return kind._make(n, out)


def substitute(s: _SparseSeries, *repls: _SparseSeries) -> _SparseSeries:
    """Exact composition s(*repls) truncated at N, of the replacements' type.

    s is a sparse series of any kind, and takes one replacement per
    variable; the replacements share one type, which may differ from s's.
    They must have vanishing constant term so that only finitely many terms
    of s contribute at each degree.

    The composition runs on Gaussian integers from start to end (see
    ``_Point.compose``): each group of terms that differ only in the last
    exponent is assembled as one integer form, multiplied by the cached
    integer forms of the other replacements' powers, and accumulated
    unreduced over one common denominator; each output coefficient is
    reduced once.  When s is a Hermitian Series3 and the point is real --
    the second replacement is the Hermitian conjugate of the first and the
    third is Hermitian -- only half of the groups are computed, and the
    other half is their Hermitian conjugate.
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
    return _Point(repls).compose(s)


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
    # outer components evaluated on the inner image, at one point
    point = _Point((HoloSeries2.var("z", n) + inner.f, HoloSeries2.var("w", n) + inner.g))
    return FormalMap(inner.f + point.compose(outer.f), inner.g + point.compose(outer.g))


def invert_map(m: FormalMap) -> FormalMap:
    """Inverse map: compose_maps(m, invert_map(m)) is the identity to order N.

    The inverse (z + fi, w + gi) undoes m from the left: fi and gi are
    solved from fi(P) = -f and gi(P) = -g at the one point P = (z + f, w + g)
    (see ``_Point.solve``).  The linear part of P is 1 + E with
    E = [[0, f01], [g10, 0]], so that needs f01 * g10 = 0, which every
    pipeline map has (g(z, 0) = 0).  Any other map raises ValueError, even
    an invertible one such as f = w/2, g = z/2: the diagonal of its
    inverse's 1-jet is 1/(1 - f01 * g10) != 1, so that inverse is no
    FormalMap.
    """
    f01, g10 = m.f.coeff(0, 1), m.g.coeff(1, 0)
    if not (f01.is_zero() or g10.is_zero()):
        raise ValueError(f"map inversion needs f01 * g10 = 0; got f01 = {f01}, g10 = {g10}")
    n = m.n
    point = _Point((HoloSeries2.var("z", n) + m.f, HoloSeries2.var("w", n) + m.g))
    return FormalMap(point.solve(-m.f), point.solve(-m.g))


def uni_function(kind: str, order: int, exponent: Fraction | None = None) -> Series1:
    """Maclaurin series of a named function to the requested order.

    kinds: arcsin, tan, exp, log1p, pow_rational (series of (1+x)**exponent).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    cs = [Fraction(0)] * (order + 1)
    if kind == "arcsin":
        # x + x^3/6 + 3x^5/40 + ...: c_{2n+1} = C(2n, n) / (4^n (2n+1))
        for m in range(0, (order - 1) // 2 + 1 if order >= 1 else 0):
            cs[2 * m + 1] = Fraction(math.comb(2 * m, m), 4**m * (2 * m + 1))
    elif kind == "tan":
        # t' = 1 + t^2 solved order by order
        if order >= 1:
            cs[1] = Fraction(1)
        for j in range(2, order + 1):
            cs[j] = sum(cs[i] * cs[j - 1 - i] for i in range(j)) / j
    elif kind == "exp":
        f = Fraction(1)
        for j in range(order + 1):
            cs[j] = f
            f /= j + 1
    elif kind == "log1p":
        for j in range(1, order + 1):
            cs[j] = Fraction((-1) ** (j + 1), j)
    elif kind == "pow_rational":
        if exponent is None:
            raise ValueError("pow_rational needs an exponent")
        alpha = Fraction(exponent)
        binom = Fraction(1)
        for j in range(order + 1):
            cs[j] = binom
            binom = binom * (alpha - j) / (j + 1)
    else:
        raise ValueError(f"unknown function kind {kind!r}")
    return Series1(order, {(j,): c for j, c in enumerate(cs)})
