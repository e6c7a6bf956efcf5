"""Exact generators for the example surfaces, maps and vector fields.

Each generator returns a fully validated class surface with phi11 = 1.  The
two transcendental families assert on construction that the internally
complex intermediate series produce a real graphing function; a failure
would mean the generator itself is wrong, so it raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalar import GaussianRational, ZERO, ONE, I
from .series import FormalMap, HoloSeries2, Series3, UniSeries, uni_compose, uni_function
from .surface import GraphSurface, validate_class


@dataclass
class FamilySpec:
    """Parsed form of a family request: name plus rational parameters."""

    name: str                      # quadric | cd | mm | mmt
    params: dict = field(default_factory=dict)
    order: int = 13


#: the families ``generate`` knows and the parameters each requires; cd
#: defaults C and D to 0
FAMILY_PARAMS = {"quadric": (), "cd": (), "mm": ("m",), "mmt": ("m", "T")}


def generate(spec: FamilySpec) -> GraphSurface:
    """Dispatch a FamilySpec to its generator."""
    n = spec.order
    p = spec.params
    if spec.name == "quadric":
        return gen_quadric(n)
    if spec.name == "cd":
        return gen_cd(p.get("C", Fraction(0)), p.get("D", Fraction(0)), n)
    if spec.name == "mm":
        return gen_mm(int(p["m"]), n)
    if spec.name == "mmt":
        return gen_mmt(int(p["m"]), Fraction(p["T"]), n)
    raise ValueError(f"unknown family {spec.name!r}")


def _checked(surface: GraphSurface) -> GraphSurface:
    report = validate_class(surface)
    if not report.in_class or report.phi11 != ONE:
        raise AssertionError("generator sanity violation: surface left the class")
    return surface


def gen_quadric(N: int) -> GraphSurface:
    """phi = z zb u exactly."""
    if N < 3:
        raise ValueError("need N >= 3 for the quadric")
    return _checked(GraphSurface(Series3(N, {(1, 1, 1): ONE})))


def gen_cd(C, D, N: int) -> GraphSurface:
    """phi = u(|z|^2 + (C/4)|z|^4 + (D/36)|z|^6), tails set to zero."""
    if N < 7:
        raise ValueError("need N >= 7 for the C/D family")
    C, D = Fraction(C), Fraction(D)
    terms = {(1, 1, 1): ONE}
    if C:
        terms[(2, 2, 1)] = GaussianRational(C / 4)
    if D:
        terms[(3, 3, 1)] = GaussianRational(D / 36)
    return _checked(GraphSurface(Series3(N, terms)))


def _diagonal_surface(h: UniSeries, scale: int, N: int) -> GraphSurface:
    """phi = u * h(scale * z zb) for a real series h with h(0) = 0, h'(0)*scale = 1."""
    if not h.is_real():
        raise AssertionError("generator sanity violation: graphing series not real")
    terms = {}
    x = Fraction(scale)
    for j in range(1, h.order + 1):
        c = h.coeff(j)
        if c.is_zero():
            continue
        if 2 * j + 1 > N:
            break
        terms[(j, j, 1)] = c * GaussianRational(x**j)
    return _checked(GraphSurface(Series3(N, terms)))


def gen_mm(m: int, N: int) -> GraphSurface:
    """Im w = i Re w (1 - q)/(1 + q) with q = exp((i/m) arcsin(2m|z|^2)).

    The right side collapses to Re w * tan(arcsin(x)/(2m)) at x = 2m|z|^2,
    which is real; the construction goes through the complex exponential and
    asserts the imaginary parts cancel exactly.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if N < 7:
        raise ValueError("need N >= 7 for the M_m family")
    h_order = (N - 1) // 2
    arc = uni_function("arcsin", h_order)
    scaled = arc * (I / GaussianRational(m))
    q = uni_compose(uni_function("exp", h_order), scaled)
    one = UniSeries(h_order, [ONE])
    h = ((one - q) * I) / (one + q)
    return _diagonal_surface(h, 2 * m, N)


def solve_qT(T, order: int) -> UniSeries:
    """Unique series solution of u q' = tan(q) / (1 + T tan(q)), q = u + O(u^2).

    Matching the u^n coefficient gives (n-1) q_n = (known lower data), so
    each step is a single division by the nonzero factor n - 1.
    """
    if order < 2:
        raise ValueError("need order >= 2 for the defining ODE")
    T = Fraction(T)
    tan = uni_function("tan", order)
    q = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(2, order + 1):
        qs = UniSeries(order, [GaussianRational(v) for v in q])
        tq = uni_compose(tan, qs)
        rhs = tq / (UniSeries(order, [ONE]) + tq * GaussianRational(T))
        rn = rhs.coeff(n)
        if not rn.is_real():
            raise ValueError("coefficient matching degeneracy in the q_T solve")
        q[n] = rn.re / (n - 1)
    qs = UniSeries(order, [GaussianRational(v) for v in q])
    # defensive residual check of the defining property
    tq = uni_compose(tan, qs)
    rhs = tq / (UniSeries(order, [ONE]) + tq * GaussianRational(T))
    lhs = qs.derivative().shift_mul_x()
    if lhs != rhs:
        raise ValueError("coefficient matching degeneracy in the q_T solve")
    return qs


def gen_mmt(m: int, T, N: int) -> GraphSurface:
    """Im w = Re w tan(q_T(m|z|^2)/m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if N < 7:
        raise ValueError("need N >= 7 for the M_{m,T} family")
    T = Fraction(T)
    h_order = max(2, (N - 1) // 2)
    q = solve_qT(T, h_order)
    h = uni_compose(uni_function("tan", h_order), q * GaussianRational(Fraction(1, m)))
    return _diagonal_surface(h, m, N)


def gen_Ht(m: int, t, N: int) -> FormalMap:
    """H_t(z, w) = (z (1 - t w^{2m})^{-1/2}, w (1 - t w^{2m})^{-1/2m})."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if N < 2 * m + 1:
        raise ValueError("need N >= 2m + 1 to carry the lowest H_t coefficients")
    t = Fraction(t)
    inner_coeffs = [ZERO] * (N + 1)
    inner_coeffs[2 * m] = GaussianRational(-t)
    inner = UniSeries(N, inner_coeffs)
    ser_f = uni_compose(uni_function("pow_rational", N, exponent=Fraction(-1, 2)), inner)
    ser_g = uni_compose(uni_function("pow_rational", N, exponent=Fraction(-1, 2 * m)), inner)
    # f = z (ser_f - 1), g = w (ser_g - 1); the constructor trims beyond N
    f_terms = {(1, j): ser_f.coeff(j) for j in range(1, N + 1) if not ser_f.coeff(j).is_zero()}
    g_terms = {(0, j + 1): ser_g.coeff(j) for j in range(1, N + 1) if not ser_g.coeff(j).is_zero()}
    return FormalMap(HoloSeries2(N, f_terms), HoloSeries2(N, g_terms))


def gen_X(m: int, T, N: int) -> tuple[HoloSeries2, HoloSeries2]:
    """Infinitesimal automorphism of M_{m,T}: (m/2)(1 - iT) z w^m d/dz + w^{m+1} d/dw.

    The z-coefficient is the unique ray (up to positive real scale, jointly
    with w^{m+1} d/dw) that is tangent to gen_mmt(m, T); tangency is
    asserted by the test suite against two independent expansions.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    T = Fraction(T)
    cz = GaussianRational(Fraction(m, 2), -Fraction(m, 2) * T)
    X_z = HoloSeries2(N, {(1, m): cz})
    X_w = HoloSeries2(N, {(0, m + 1): ONE})
    return X_z, X_w
