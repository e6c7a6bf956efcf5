"""Hypersurface graphs Im w = phi(z, zb, Re w) and their transforms.

A surface is held by its graphing series phi, which is Hermitian with
phi(0) = 0 and d phi(0) = 0.  The class of interest is infinite type
(phi(z, zb, 0) = 0), in normal coordinates (phi(z, 0, u) = 0), with
phi_11 != 0, normalized to phi_11 = 1 by a z-scaling when the value is a
rational square.

All statements are certified to the truncation order N only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I, as_gaussian
from .series import (
    FormalMap,
    HoloSeries2,
    Series1,
    Series3,
    _Point,
    hermitian_conjugate,
    invert_real_triple,
    is_hermitian,
    split_real_imag,
    substitute,
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

    @property
    def n(self) -> int:
        return self.phi.n

    def __eq__(self, other):
        if not isinstance(other, GraphSurface):
            return NotImplemented
        return self.phi == other.phi

    def __repr__(self) -> str:
        return f"GraphSurface(n={self.n}, {len(self.phi.terms)} terms)"


@dataclass
class ClassReport:
    """Outcome of validate_class; report-style, never raises."""

    is_infinite_type: bool
    is_normal_coordinates: bool
    phi11: GaussianRational
    in_class: bool
    diagnostics: list = field(default_factory=list)
    rescaled: "GraphSurface | None" = None
    order: int = 0


@dataclass(frozen=True)
class Jet7:
    """The u-linear 7-jet entries that the characteristic polynomial needs.

    phi22 and phi33 are real by Hermitian symmetry; the conjugate entries
    phi23, phi24, phi34 are derived, not stored.
    """

    phi22: GaussianRational
    phi32: GaussianRational
    phi33: GaussianRational
    phi42: GaussianRational
    phi43: GaussianRational

    def __post_init__(self):
        if not self.phi22.is_real() or not self.phi33.is_real():
            raise ValueError("phi22 and phi33 must be real")

    @classmethod
    def zero(cls) -> "Jet7":
        return cls(ZERO, ZERO, ZERO, ZERO, ZERO)


@dataclass
class NabForm:
    """phi = u(|z|^2 + sum N_ab(u) z^a zb^b); entries keyed by (a, b).

    N_ab is known to order N - a - b - 1, the highest u-power phi carries there.
    """

    entries: dict
    order: int


def _is_rational_square(x: Fraction) -> Fraction | None:
    """Positive rational square root, or None."""
    if x <= 0:
        return None
    pn, pd = x.numerator, x.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def validate_class(M: GraphSurface) -> ClassReport:
    """Check the structural class conditions to order N; never raises.

    When phi11 is the square of a nonzero rational r, the report carries the
    rescaled surface with phi11 = 1 (z -> z/r).
    """
    phi = M.phi
    diagnostics = []
    inf_type = True
    normal = True
    for key in sorted(phi.terms):
        a, b, c = key
        if c == 0:
            inf_type = False
            diagnostics.append(("infinite_type", key))
        if (a == 0 or b == 0) and c >= 1:
            normal = False
            diagnostics.append(("normal_coordinates", key))
    phi11 = phi.coeff(1, 1, 1)
    in_class = inf_type and normal
    rescaled = None
    if not phi11.is_real():
        # Hermitian symmetry makes phi11 real; defensive only
        in_class = False
        diagnostics.append(("phi11_not_real", (1, 1, 1)))
    elif phi11.is_zero():
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
            if root == 1:
                rescaled = M
            else:
                inv = GaussianRational(1 / root)
                scaled = {(a, b, c): v * (inv ** (a + b))
                          for (a, b, c), v in phi.terms.items()}
                rescaled = GraphSurface(Series3(phi.n, scaled))
    return ClassReport(
        is_infinite_type=inf_type,
        is_normal_coordinates=normal,
        phi11=phi11,
        in_class=in_class,
        diagnostics=diagnostics,
        rescaled=rescaled,
        order=phi.n,
    )


def coefficient(M: GraphSurface, a: int, b: int, c: int) -> GaussianRational:
    """phi_{abc}; c = 1 carries the u-linear entries phi_{ab}."""
    if min(a, b, c) < 0:
        raise ValueError(f"negative exponent in ({a}, {b}, {c})")
    if a + b + c > M.n:
        raise ValueError("beyond truncation order")
    return M.phi.coeff(a, b, c)


def is_prenormalized_level1(M: GraphSurface) -> bool:
    """phi_{l1} = 0 for l >= 2 (and conjugates), to order N."""
    phi = M.phi
    for (a, b, c) in phi.terms:
        if c == 1 and ((b == 1 and a >= 2) or (a == 1 and b >= 2)):
            return False
    return True


def check_u_linear_class(M: GraphSurface, what: str, prenormalized: bool = True):
    """Require the u-linear structure the stage machinery rests on.

    The surface must have no c = 0 terms, clean u-linear rows (phi_{a0} = 0),
    phi11 = 1 and, when ``prenormalized``, phi_{l1} = 0 for l >= 2.  Higher
    u-levels are free: a partially normalized surface carries harmless
    residue there.  The error names the lowest offending monomial, whatever
    the order of phi's terms.
    """
    phi = M.phi
    for (a, b, c) in sorted(phi.terms):
        if c == 0:
            raise ValueError(f"{what} requires an infinite-type surface "
                             f"(found u-free monomial {(a, b, c)})")
        if c == 1 and (a == 0 or b == 0):
            raise ValueError(f"{what} requires normal coordinates at the u-linear "
                             f"level (found {(a, b, c)})")
    if phi.coeff(1, 1, 1) != ONE:
        raise ValueError(f"{what} requires phi11 = 1; use validate_class().rescaled first")
    if prenormalized and not is_prenormalized_level1(M):
        raise ValueError("surface not prenormalized (phi_{l1} != 0 for some l >= 2)")


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


def to_nab(M: GraphSurface) -> NabForm:
    """Re-present phi as u(|z|^2 + sum N_ab(u) z^a zb^b)."""
    if M.phi.coeff(1, 1, 1) != ONE:
        raise ValueError("N_ab presentation requires phi11 = 1")
    for key in M.phi.terms:
        if key[2] == 0:
            raise ValueError("N_ab presentation requires an infinite-type surface")
    entries: dict = {}
    for (a, b, c), v in M.phi.terms.items():
        if (a, b, c) != (1, 1, 1):  # the explicit |z|^2
            entries.setdefault((a, b), {})[(c - 1,)] = v
    return NabForm(
        entries={(a, b): Series1(M.n - a - b - 1, ts) for (a, b), ts in sorted(entries.items())},
        order=M.n,
    )


@dataclass
class NormalFormReport:
    """check_normal_form outcome: every violated condition with its monomial."""

    ok: bool
    violations_zero_rows: list   # (1.8)-type: N_a0 = N_a1 = 0
    violations_flat: list        # (1.9)-type: dN_22/du = dN_32/du = dN_33/du = 0
    order: int

    def violations(self):
        return self.violations_zero_rows + self.violations_flat


def check_normal_form(M: GraphSurface) -> NormalFormReport:
    """Report every violated normal-form condition, to order N.

    Zero-row conditions: phi_{a0c} = 0 and phi_{a1c} = 0 for all a, c apart
    from the explicit phi_{111} = 1.  Flatness conditions: phi_{22c} =
    phi_{32c} = phi_{33c} = 0 for c >= 2.  Normal-coordinate residue at high
    u-levels shows up as zero-row violations rather than an error, so the
    checker applies to partially normalized surfaces too.
    """
    if M.phi.coeff(1, 1, 1) != ONE:
        raise ValueError("normal-form check requires phi11 = 1")
    zero_rows = []
    flat = []
    for (a, b, c) in sorted(M.phi.terms):
        if (a, b, c) == (1, 1, 1):
            continue
        if b in (0, 1) or a in (0, 1) or c == 0:
            zero_rows.append((a, b, c))
        elif c >= 2 and (a, b) in ((2, 2), (3, 2), (2, 3), (3, 3)):
            flat.append((a, b, c))
    return NormalFormReport(
        ok=not zero_rows and not flat,
        violations_zero_rows=zero_rows,
        violations_flat=flat,
        order=M.n,
    )


def _along_graph(phi: Series3, *holo: HoloSeries2) -> list:
    """Holomorphic series in (z, w) along w = u + i phi, all composed at one point."""
    n = phi.n
    point = _Point((Series3.var("z", n), Series3.var("u", n) + phi * I))
    return [point.compose(h) for h in holo]


def _rho_gradient(phi: Series3) -> tuple:
    """(rho_z, rho_w) = (-phi_z, 1/(2i) - phi_u/2), rho = (w - wb)/2i - phi(z, zb, Re w)."""
    half = GaussianRational(Fraction(1, 2))
    return -phi.diff("z"), Series3(phi.n, {(0, 0, 0): half / I}) - phi.diff("u") * half


def _image_side(M: GraphSurface, m: FormalMap):
    """Common forward data: z1, u1, v1 along w = u + i phi."""
    n = M.n
    if m.n != n:
        raise ValueError(f"mismatched truncation orders {m.n} != {n}")
    f_here, g_here = _along_graph(M.phi, m.f, m.g)
    re_part, im_part = split_real_imag(g_here)
    return Series3.var("z", n) + f_here, Series3.var("u", n) + re_part, M.phi + im_part


def transform(M: GraphSurface, m: FormalMap) -> GraphSurface:
    """The image surface under (z, w) -> (z + f, w + g), to order N.

    Parametrize M by (z, zb, u) with w = u + i phi, push forward, invert the
    base triple (z1, conj z1, u1), and read the graphing function off the
    imaginary part v1 in image coordinates.  The reversion pulls v1 back
    itself, at the point of its last pass, so the powers built there serve
    v1 too.  v1 has no term linear in z or zb: phi has none, and a g10 term
    would give u1 a linear part, which the reversion rejects.  v1 is
    Hermitian, so half of its groups are computed and the rest mirrored.
    """
    z1, u1, v1 = _image_side(M, m)
    _, _, phi_new = invert_real_triple(z1, u1, v1)
    return GraphSurface(phi_new)


def map_defect(M: GraphSurface, m: FormalMap, Mtarget: GraphSurface) -> Series3:
    """Residual of the graph equation: Im G - phi'(F, conj F, Re G) on M.

    Zero iff m maps M into Mtarget to order N.
    """
    z1, u1, v1 = _image_side(M, m)
    n = M.n
    if Mtarget.n != n:
        raise ValueError(f"mismatched truncation orders {Mtarget.n} != {n}")
    rhs = substitute(Mtarget.phi, z1, hermitian_conjugate(z1), u1)
    return v1 - rhs


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


def scale_surface(M: GraphSurface, alpha: GaussianRational, s: Fraction) -> GraphSurface:
    """Image under the linear map (z, w) -> (alpha z, s w), |alpha| = 1, s real.

    Exact coefficient action: phi'_{abc} = s^(1-c) alpha^(b-a) phi_{abc}.
    """
    alpha = as_gaussian(alpha)
    if alpha * alpha.conjugate() != ONE:
        raise ValueError("rotation must satisfy |alpha|^2 = 1 exactly")
    s = Fraction(s)
    if s == 0:
        raise ValueError("scaling must be a nonzero real rational")
    out = {}
    for (a, b, c), v in M.phi.terms.items():
        e = b - a
        rot = (alpha if e >= 0 else alpha.conjugate())
        factor = ONE
        for _ in range(abs(e)):
            factor = factor * rot
        out[(a, b, c)] = v * factor * GaussianRational(s ** (1 - c))
    return GraphSurface(Series3(M.n, out))
