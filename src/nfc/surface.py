"""Hypersurface graphs Im w = phi(z, zb, Re w) and their transforms.

A surface is held by its graphing series phi, which is Hermitian with
phi(0) = 0 and d phi(0) = 0.  Which coefficients phi_abc the class and the
normal form constrain is declared once, by ``condition_row``; the class
checks, ``check_normal_form`` and the stage labels of ``normalizer`` all
read it.  phi_11 != 0 is normalized to phi_11 = 1 by a z-scaling when the
value is a rational square.

A transform maps the graph point (z, u + i phi) to an image point and
solves for the image surface there.  The image point is built from the
unreduced integer sums of the map composed along the graph, and handed to
the solve as integer forms, so no coefficient is reduced between the map
and the solve's output.

All statements are certified to the truncation order N only.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I, as_gaussian
from .series import (
    FormalMap,
    HoloSeries2,
    Series3,
    _conjugate_rows,
    _form,
    _Point,
    _put,
    _swap,
    hermitian_conjugate,
    is_hermitian,
)


class GraphSurface:
    """Im w = phi(z, zb, Re w) with Hermitian phi, phi(0) = 0, d phi(0) = 0."""

    __slots__ = ("phi",)

    def __init__(self, phi: Series3):
        if not is_hermitian(phi):
            raise ValueError("graphing series must be Hermitian")
        for key in phi.terms:
            if sum(key) <= 1:
                raise ValueError("graphing series must vanish to second order at 0")
        object.__setattr__(self, "phi", phi)

    def __setattr__(self, *args):
        raise AttributeError("GraphSurface is immutable")

    def __reduce__(self):
        return (GraphSurface, (self.phi,))

    @property
    def n(self) -> int:
        return self.phi.n

    def __eq__(self, other):
        if not isinstance(other, GraphSurface):
            return NotImplemented
        return self.phi == other.phi

    def __repr__(self) -> str:
        return f"GraphSurface(n={self.n}, {len(self.phi.terms)} terms)"


#: Outcome of validate_class; diagnostics lists (reason, key) pairs.
ClassReport = namedtuple("ClassReport", "is_infinite_type is_normal_coordinates phi11 "
                         "in_class diagnostics rescaled", defaults=(None,))


class Jet7(namedtuple("Jet7", "phi22 phi32 phi33 phi42 phi43")):
    """The u-linear 7-jet entries that the characteristic polynomial needs.

    phi22 and phi33 are real by Hermitian symmetry; the conjugate entries
    phi23, phi24, phi34 are derived, not stored.
    """

    __slots__ = ()

    def __new__(cls, phi22, phi32, phi33, phi42, phi43):
        if not phi22.is_real() or not phi33.is_real():
            raise ValueError("phi22 and phi33 must be real")
        return super().__new__(cls, phi22, phi32, phi33, phi42, phi43)

    @classmethod
    def zero(cls) -> "Jet7":
        return cls(ZERO, ZERO, ZERO, ZERO, ZERO)


#: the rows (a, b), a >= b, whose u-derivative the normal form flattens
FLAT_ROWS = ((2, 2), (3, 2), (3, 3))


def condition_row(a: int, b: int, c: int) -> str | None:
    """The condition that governs phi_abc, or None when the coefficient is free.

    "u-free" (c = 0): infinite type, phi(z, zb, 0) = 0.  "row 0"
    (min(a, b) = 0): normal coordinates at c = 1, N_a0 = 0 above.  "row 1"
    (min(a, b) = 1, apart from the explicit phi_111): level-1
    prenormalization at c = 1, N_a1 = 0 above.  "flat" ((a, b) or (b, a)
    in ``FLAT_ROWS``, c >= 2): dN_ab/du = 0.  The first that applies wins.
    """
    if c == 0:
        return "u-free"
    low, high = sorted((a, b))
    if low == 0:
        return "row 0"
    if low == 1 and (high, c) != (1, 1):
        return "row 1"
    if c >= 2 and (high, low) in FLAT_ROWS:
        return "flat"
    return None


def _is_rational_square(x: Fraction) -> Fraction | None:
    """Positive rational square root, or None."""
    if x <= 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _conditions(phi: Series3) -> list:
    """(row, key) for each term of phi that ``condition_row`` governs, in key order."""
    return [(row, key) for key in sorted(phi.terms) if (row := condition_row(*key)) is not None]


def validate_class(M: GraphSurface) -> ClassReport:
    """Check the structural class conditions to order N; never raises.

    in_class requires phi11 to be a positive rational square and no "u-free"
    or "row 0" term (see ``condition_row``) at any u-level, not only at
    c = 1.  So a normal form with row-0 residue above the normalized order
    is not in the class, although ``normalize`` accepts it as input.  When
    phi11 is the square of a nonzero rational r, the report carries the
    rescaled surface with phi11 = 1, the image under (z, w) -> (r z, w).
    """
    phi = M.phi
    tags = {"u-free": "infinite_type", "row 0": "normal_coordinates"}
    diagnostics = [(tags[row], key) for row, key in _conditions(phi) if row in tags]
    found = {tag for tag, _ in diagnostics}
    inf_type, normal = "infinite_type" not in found, "normal_coordinates" not in found
    phi11 = phi.coeff(1, 1, 1)
    in_class = inf_type and normal
    rescaled = None
    if phi11.is_zero():
        in_class = False
        diagnostics.append(("phi11_zero", (1, 1, 1)))
    elif phi11.re < 0:
        in_class = False
        diagnostics.append(("phi11_negative", (1, 1, 1)))
    else:
        root = _is_rational_square(phi11.re)
        if root is None:
            in_class = False
            diagnostics.append(("phi11_not_rational_square", (1, 1, 1)))
        elif in_class:
            rescaled = M if root == 1 else scale_surface(M, root, 1)
    return ClassReport(
        is_infinite_type=inf_type,
        is_normal_coordinates=normal,
        phi11=phi11,
        in_class=in_class,
        diagnostics=diagnostics,
        rescaled=rescaled,
    )


def is_prenormalized_level1(M: GraphSurface) -> bool:
    """phi_{l1} = 0 for l >= 2 (and conjugates), to order N."""
    return not any(row == "row 1" and key[2] == 1 for row, key in _conditions(M.phi))


def check_u_linear_class(M: GraphSurface, what: str, prenormalized: bool = True):
    """Require the u-linear structure the stage machinery rests on.

    The surface must have no "u-free" term, no "row 0" term at c = 1,
    phi11 = 1 and, when ``prenormalized``, no "row 1" term at c = 1 (see
    ``condition_row``), checked in that order.  Higher u-levels are free: a
    partially normalized surface carries harmless residue there.  The error
    names the lowest offending monomial, whatever the order of phi's terms.
    """
    phi = M.phi
    conditions = _conditions(phi)
    for row, key in conditions:
        if row == "u-free":
            raise ValueError(f"{what} requires an infinite-type surface "
                             f"(found u-free monomial {key})")
        if row == "row 0" and key[2] == 1:
            raise ValueError(f"{what} requires normal coordinates at the u-linear "
                             f"level (found {key})")
    if phi.coeff(1, 1, 1) != ONE:
        raise ValueError(f"{what} requires phi11 = 1; use validate_class().rescaled first")
    offenders = [key for row, key in conditions if row == "row 1" and key[2] == 1]
    if prenormalized and offenders:
        raise ValueError(f"{what} requires phi_{{l1}} = 0 for l >= 2: surface not "
                         f"prenormalized (found {offenders[0]})")


def jet7(M: GraphSurface) -> Jet7:
    """Extract the five stored jet entries from the u-linear coefficients."""
    if M.n < 8:
        raise ValueError("truncation order too small for the 7-jet (need N >= 8)")
    check_u_linear_class(M, "jet extraction")
    return Jet7(
        phi22=M.phi.coeff(2, 2, 1),
        phi32=M.phi.coeff(3, 2, 1),
        phi33=M.phi.coeff(3, 3, 1),
        phi42=M.phi.coeff(4, 2, 1),
        phi43=M.phi.coeff(4, 3, 1),
    )


class NormalFormReport(namedtuple("NormalFormReport", "ok violations_zero_rows violations_flat")):
    """check_normal_form outcome: every violated condition with its monomial.

    violations_zero_rows are the (1.8)-type ones, N_a0 = N_a1 = 0, and
    violations_flat the (1.9)-type ones, dN_22/du = dN_32/du = dN_33/du = 0.
    """

    __slots__ = ()

    def violations(self):
        return self.violations_zero_rows + self.violations_flat


def check_normal_form(M: GraphSurface) -> NormalFormReport:
    """Report every violated normal-form condition, to order N.

    Every term that ``condition_row`` assigns to a condition violates it;
    the flat ones are listed apart from the rest.  Normal-coordinate residue
    at high u-levels shows up as zero-row violations rather than an error,
    so the checker applies to partially normalized surfaces too.
    """
    if M.phi.coeff(1, 1, 1) != ONE:
        raise ValueError("normal-form check requires phi11 = 1")
    conditions = _conditions(M.phi)
    zero_rows = [key for row, key in conditions if row != "flat"]
    flat = [key for row, key in conditions if row == "flat"]
    return NormalFormReport(
        ok=not zero_rows and not flat,
        violations_zero_rows=zero_rows,
        violations_flat=flat,
    )


def _graph_point(phi: Series3) -> _Point:
    """The point (z, w) with w = u + i phi, the graph of phi.

    w is read off phi's integer form: multiplying by i swaps the real and
    imaginary numerators (re + i im -> -im + i re), and u joins as the only
    row of degree 1, so the form stays canonical.
    """
    n = phi.n
    D, rows = phi._integer_form()
    w = (D, [(1, 1, D, 0)] + [(d, key, -si, sr) for d, key, sr, si in rows])
    return _Point((Series3.var("z", n), w))


def _along_graph(phi: Series3, *holo: HoloSeries2) -> list:
    """Holomorphic series in (z, w) along w = u + i phi, all composed at one point."""
    point = _graph_point(phi)
    return [point.compose(h) for h in holo]


def _rho_gradient(phi: Series3) -> tuple:
    """(rho_z, rho_w) = (-phi_z, 1/(2i) - phi_u/2), rho = (w - wb)/2i - phi(z, zb, Re w)."""
    half = GaussianRational(Fraction(1, 2))
    return -phi.diff("z"), Series3(phi.n, {(0, 0, 0): half / I}) - phi.diff("u") * half


def _image_point(M: GraphSurface, m: FormalMap) -> tuple:
    """The image of M's graph point: (T, v1) with T = (z1, conj z1, u1).

    Along w = u + i phi the map sends (z, w) to (z1, u1 + i v1), so a surface
    phi' holds the image iff phi'(T) = v1.  T is a real point, at which the
    Hermitian phi' composes from half of its groups.

    f and g are composed at the graph point as unreduced sums over Df and
    Dg, and T and v1 are built from them as integer forms:
    z1 = z + f, u1 = u + (g + conj g)/2 and v1 = phi + (g - conj g)/(2i),
    where conj g is the Hermitian conjugate.  A term x + iy of g at (a, b, c)
    gives x + iy at (a, b, c) and x - iy at (b, a, c) to g + conj g, and
    y - ix and y + ix to (g - conj g)/i.  No coefficient is reduced here.
    """
    n = M.n
    if m.n != n:
        raise ValueError(f"mismatched truncation orders {m.n} != {n}")
    B = n + 1
    point = _graph_point(M.phi)
    Df, z1 = point._compose_acc(m.f)
    Dg, g = point._compose_acc(m.g)
    _put(z1, B * B, Df, 0, 1)
    # u1 over 2 Dg, v1 over the lcm Dv of 2 Dg and phi's denominator
    Dp, rows = M.phi._integer_form()
    Dv = math.lcm(2 * Dg, Dp)
    q = Dv // (2 * Dg)
    re_part: dict = {}
    im_part: dict = {}
    for key, (sr, si, d) in g.items():
        if sr or si:
            for k, s in ((key, 1), (_swap(key, B), -1)):
                _put(re_part, k, sr, s * si, d)
                _put(im_part, k, q * si, -s * q * sr, d)
    _put(re_part, 1, 2 * Dg, 0, 1)
    q = Dv // Dp
    for d, key, sr, si in rows:
        _put(im_part, key, sr * q, si * q, d)
    z1 = _form(z1, Df)
    T = _Point((z1, (z1[0], _conjugate_rows(z1[1], B)), _form(re_part, 2 * Dg)), n, Series3)
    return T, _form(im_part, Dv)


def transform(M: GraphSurface, m: FormalMap) -> GraphSurface:
    """The image surface under (z, w) -> (z + f, w + g), to order N.

    The image phi' is the unique solution of phi'(T) = v1 (see
    ``_image_point``), solved at the one point T by ``_Point.solve``, which
    takes T and v1 as integer forms.  With g10 = 0 the linear part of T is
    z -> z + c u with c = f01, which ``solve`` inverts.  A g10 term would
    give T and v1 a part linear in z and zb, so such a map is rejected.  The
    identity map of order N returns M itself.
    """
    if m.n == M.n and m.is_identity():
        return M
    g10 = m.g.coeff(1, 0)
    if not g10.is_zero():
        raise ValueError(f"transform needs a map whose g has no z-linear term; got g10 = {g10}")
    T, v1 = _image_point(M, m)
    return GraphSurface(T.solve(v1))


def map_defect(M: GraphSurface, m: FormalMap, Mtarget: GraphSurface) -> Series3:
    """Residual of the graph equation: Im G - phi'(F, conj F, Re G) on M.

    Zero iff m maps M into Mtarget to order N.  v1 and phi'(T) are
    subtracted as unreduced sums over one denominator, and each coefficient
    is reduced once.
    """
    n = M.n
    if Mtarget.n != n:
        raise ValueError(f"mismatched truncation orders {Mtarget.n} != {n}")
    T, (Dv, rows) = _image_point(M, m)
    Dc, acc = T._compose_acc(Mtarget.phi)
    L = math.lcm(Dv, Dc)
    q = L // Dc
    for s in acc.values():
        s[0] *= -q
        s[1] *= -q
    q = L // Dv
    for d, key, sr, si in rows:
        _put(acc, key, sr * q, si * q, d)
    return Series3._of(n, acc, L)


def infinitesimal_defect(M: GraphSurface, X_z: HoloSeries2, X_w: HoloSeries2) -> Series3:
    """Tangency defect 2 Re(X rho) on M for X = X_z d/dz + X_w d/dw, along w = u + i phi.

    The defect vanishes iff the real field X + conj X is tangent to M to order N.
    """
    n = M.n
    if X_z.n != n or X_w.n != n:
        raise ValueError("mismatched truncation orders")
    xz, xw = _along_graph(M.phi, X_z, X_w)
    rho_z, rho_w = _rho_gradient(M.phi)
    holo = xz * rho_z + xw * rho_w
    return holo + hermitian_conjugate(holo)


def scale_surface(M: GraphSurface, lam: GaussianRational, s: Fraction) -> GraphSurface:
    """Image under the linear map (z, w) -> (lam z, s w), lam in Q(i)*, s in Q*.

    Exact coefficient action: phi'_{abc} = s^(1-c) lam^(-a) conj(lam)^(-b)
    phi_{abc}, so phi'_111 = phi_111 / |lam|^2.  For |lam| = 1 this is
    s^(1-c) lam^(b-a) phi_{abc}, the action of (lam, s) in S^1 x R*, which
    maps a normal form to a normal form.
    """
    lam = as_gaussian(lam)
    if lam.is_zero():
        raise ValueError("z-scaling must be a nonzero Gaussian rational")
    s = Fraction(s)
    if s == 0:
        raise ValueError("w-scaling must be a nonzero real rational")
    inv, inv_bar = ONE / lam, ONE / lam.conjugate()
    out = {}
    for (a, b, c), v in M.phi.terms.items():
        out[(a, b, c)] = v * inv ** a * inv_bar ** b * GaussianRational(s ** (1 - c))
    return GraphSurface(Series3(M.n, out))
