"""Exact generators for the example surfaces, maps and vector fields.

Each surface generator returns a fully validated class surface with
phi11 = 1.  The two transcendental families are built from real series only:
M_m from tan(arcsin(x)/(2m)), M_{m,T} from tan(q_T/m), with q_T the
compositional inverse of sin(x) e^{Tx}.  Their docstrings give the
derivations.  BUILTINS, at the end, declares each built-in input once (the
families, the map H_t and the field X) with its generator and parameters.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalar import GaussianRational, ONE
from .series import FormalMap, HoloSeries2, Series1, Series3, _Point, substitute, uni_function
from .surface import GraphSurface, validate_class

#: the truncation order N of a family surface when none is given
DEFAULT_ORDER = 13


#: Parsed form of a family request: name, a key of BUILTINS["surface"],
#: plus rational parameters.
FamilySpec = namedtuple("FamilySpec", "name params order", defaults=(DEFAULT_ORDER,))


class Builtin(namedtuple("Builtin", "build params")):
    """build(*values, N) and its parameters in order, each to its default or None if required."""

    __slots__ = ()

    def values(self, given: dict, what: str) -> list:
        """The value of each parameter, in order: the given one, else its default."""
        for key, default in self.params.items():
            if default is None and key not in given:
                raise ValueError(f"{what} needs the parameter {key}")
        return [given.get(key, default) for key, default in self.params.items()]


def generate(spec: FamilySpec) -> GraphSurface:
    """Build the surface of a FamilySpec from its entry in BUILTINS."""
    family = BUILTINS["surface"].get(spec.name)
    if family is None:
        raise ValueError(f"unknown family {spec.name!r}")
    return family.build(*family.values(spec.params, f"family {spec.name!r}"), spec.order)


def _checked(surface: GraphSurface) -> GraphSurface:
    report = validate_class(surface)
    if not report.in_class or report.phi11 != ONE:
        raise ValueError("generator sanity violation: surface left the class")
    return surface


def _check_m(m) -> None:
    if type(m) is not int or m < 1:
        raise ValueError("m must be a positive integer")


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


def _diagonal_surface(h: Series1, scale: int, N: int) -> GraphSurface:
    """phi = u * h(scale * z zb) for a real series h with h(0) = 0, h'(0)*scale = 1."""
    x = Fraction(scale)
    # the constructor drops the terms of degree 2j + 1 > N
    terms = {(j, j, 1): c * GaussianRational(x**j) for (j,), c in h.terms.items()}
    return _checked(GraphSurface(Series3(N, terms)))


def gen_mm(m: int, N: int) -> GraphSurface:
    """Im w = i Re w (1 - q)/(1 + q) with q = exp((i/m) arcsin(2m|z|^2)).

    Since i(1 - e^{it})/(1 + e^{it}) = tan(t/2), the right side is
    Re w * tan(arcsin(x)/(2m)) at x = 2m|z|^2, which is built directly.
    """
    _check_m(m)
    if N < 7:
        raise ValueError("need N >= 7 for the M_m family")
    h_order = (N - 1) // 2
    arc = uni_function("arcsin", h_order) * Fraction(1, 2 * m)
    return _diagonal_surface(substitute(uni_function("tan", h_order), arc), 2 * m, N)


def solve_qT(T, order: int) -> Series1:
    """Unique series solution of u q' = tan(q) / (1 + T tan(q)), q = u + O(u^2).

    Separating variables, (cot q + T) dq = du/u integrates to
    sin(q) e^{Tq} = u, so q_T is the compositional inverse of
    s(x) = sin(x) e^{Tx} = Im exp((T + i) x), and q_T(s) = x is solved at
    the one point s.
    """
    if order < 2:
        raise ValueError("need order >= 2 for the defining ODE")
    T = Fraction(T)
    x = Series1.var("x", order)
    e = substitute(uni_function("exp", order), x * GaussianRational(T, 1))
    s = Series1(order, {key: c.im for key, c in e.terms.items()})
    q = _Point((s,)).solve(x)
    # defensive residual check of the defining ODE, as u q' (1 + T tan q) = tan q
    tq = substitute(uni_function("tan", order), q)
    if q.diff("x") * x * (1 + tq * T) != tq:
        raise ValueError("coefficient matching degeneracy in the q_T solve")
    return q


def gen_mmt(m: int, T, N: int) -> GraphSurface:
    """Im w = Re w tan(q_T(m|z|^2)/m)."""
    _check_m(m)
    if N < 7:
        raise ValueError("need N >= 7 for the M_{m,T} family")
    T = Fraction(T)
    h_order = max(2, (N - 1) // 2)
    h = substitute(uni_function("tan", h_order), solve_qT(T, h_order) * Fraction(1, m))
    return _diagonal_surface(h, m, N)


def gen_Ht(m: int, t, N: int) -> FormalMap:
    """H_t(z, w) = (z (1 - t w^{2m})^{-1/2}, w (1 - t w^{2m})^{-1/2m})."""
    _check_m(m)
    if N < 2 * m + 1:
        raise ValueError("need N >= 2m + 1 to carry the lowest H_t coefficients")
    inner = Series1(N, {(2 * m,): -Fraction(t)})
    ser_f = substitute(uni_function("pow_rational", N, exponent=Fraction(-1, 2)), inner)
    ser_g = substitute(uni_function("pow_rational", N, exponent=Fraction(-1, 2 * m)), inner)
    # f = z (ser_f - 1), g = w (ser_g - 1); the constructor trims beyond N
    f_terms = {(1, j): v for (j,), v in ser_f.terms.items() if j}
    g_terms = {(0, j + 1): v for (j,), v in ser_g.terms.items() if j}
    return FormalMap(HoloSeries2(N, f_terms), HoloSeries2(N, g_terms))


def gen_X(m: int, T, N: int) -> tuple[HoloSeries2, HoloSeries2]:
    """Infinitesimal automorphism of M_{m,T}: (m/2)(1 - iT) z w^m d/dz + w^{m+1} d/dw.

    The z-coefficient is the unique ray (up to positive real scale, jointly
    with w^{m+1} d/dw) that is tangent to gen_mmt(m, T); tangency is
    asserted by the test suite against two independent expansions.
    """
    _check_m(m)
    T = Fraction(T)
    cz = GaussianRational(Fraction(m, 2), -Fraction(m, 2) * T)
    X_z = HoloSeries2(N, {(1, m): cz})
    X_w = HoloSeries2(N, {(0, m + 1): ONE})
    return X_z, X_w


#: every built-in input by kind and name; each default is a spec literal
BUILTINS = {
    "surface": {
        "quadric": Builtin(gen_quadric, {}),
        "cd": Builtin(gen_cd, {"C": "0", "D": "0"}),
        "mm": Builtin(gen_mm, {"m": None}),
        "mmt": Builtin(gen_mmt, {"m": None, "T": None}),
    },
    "map": {"ht": Builtin(gen_Ht, {"m": 1, "t": "1"})},
    "field": {"mmt": Builtin(gen_X, {"m": 1, "T": "1"})},
}
