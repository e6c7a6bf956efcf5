"""Example family generators, ODE solver, stability maps and fields."""

import hashlib
import math
from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import HoloSeries2, Series1, Series3, substitute, uni_function
from nfc.surface import infinitesimal_defect, is_hermitian, jet7, map_defect, validate_class
from nfc.resonance import char_poly
from nfc.normalizer import solve_stage, stage_system
from nfc.families import (
    FamilySpec,
    gen_Ht,
    gen_X,
    gen_cd,
    gen_mm,
    gen_mmt,
    gen_quadric,
    generate,
    solve_qT,
)


def _inv1p(t: Series1) -> Series1:
    """(1 + t)^-1 for a series t with vanishing constant term."""
    return substitute(uni_function("pow_rational", t.n, exponent=Fraction(-1)), t)


def _qT_rhs(tan: Series1, q: Series1, T: Fraction) -> Series1:
    """tan(q) / (1 + T tan(q))."""
    tq = substitute(tan, q)
    return tq * _inv1p(tq * T)


def solve_qT_reference(T, order: int) -> Series1:
    """q_T by coefficient matching in u q' = tan(q) / (1 + T tan(q)).

    The u^n coefficient gives (n - 1) q_n = (known lower data), so each
    step is one division; the right side is evaluated at order n, the
    highest that step reads.
    """
    T = Fraction(T)
    tan = uni_function("tan", order)
    terms = {(1,): ONE}
    for n in range(2, order + 1):
        rn = _qT_rhs(Series1(n, tan.terms), Series1(n, terms), T).coeff(n)
        assert rn.is_real()
        terms[(n,)] = rn.re / (n - 1)
    return Series1(order, terms)


def sin_exp(T, order: int) -> Series1:
    """sin(x) e^{Tx} as the product of the two Maclaurin series."""
    sin = Series1(order, {(j,): Fraction((-1) ** (j // 2), math.factorial(j))
                          for j in range(1, order + 1, 2)})
    exp = Series1(order, {(j,): Fraction(T) ** j / math.factorial(j) for j in range(order + 1)})
    return sin * exp


class TestQuadric:
    def test_single_term(self):
        q = gen_quadric(6)
        assert q.phi.terms == {(1, 1, 1): ONE}

    def test_zero_jet_no_resonances(self):
        rep = char_poly(jet7(gen_quadric(9)))
        assert rep.resonances == []


class TestCD:
    def test_coefficients(self):
        M = gen_cd(Fraction(3), Fraction(-5), 9)
        assert M.phi.coeff(2, 2, 1) == GaussianRational(Fraction(3, 4))
        assert M.phi.coeff(3, 3, 1) == GaussianRational(Fraction(-5, 36))

    def test_degenerate_is_quadric(self):
        assert gen_cd(0, 0, 8) == gen_quadric(8)


class TestMm:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_displayed_coefficients(self, m):
        M = gen_mm(m, 9)
        assert M.phi.coeff(1, 1, 1) == ONE
        assert M.phi.coeff(2, 2, 1) == ZERO
        assert M.phi.coeff(3, 3, 1) == GaussianRational(Fraction(2 * m * m + 1, 3))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_cd_slice(self, m):
        # the same 7-jet as C = 0, D = 24 m^2 + 12, hence the same resonances
        D = 24 * m * m + 12
        assert jet7(gen_mm(m, 9)) == jet7(gen_cd(0, D, 9))
        assert char_poly(jet7(gen_mm(m, 9))).resonances == \
            char_poly(jet7(gen_cd(0, D, 9))).resonances == [m + 1, 2 * m + 1]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_complex_exponential_form(self, m):
        # i (1 - q)/(1 + q) with q = exp((i/m) arcsin(x)) is tan(arcsin(x)/(2m))
        N = 15
        order = (N - 1) // 2
        q = substitute(uni_function("exp", order), uni_function("arcsin", order) * (I / m))
        h = (1 - q) * _inv1p((q - 1) * Fraction(1, 2)) * (I / 2)
        x = Fraction(2 * m)
        assert gen_mm(m, N).phi == Series3(N, {(j, j, 1): c * GaussianRational(x**j)
                                               for (j,), c in h.terms.items()})

    def test_diagonal_and_real(self):
        M = gen_mm(2, 11)
        for (a, b, c), v in M.phi.terms.items():
            assert a == b and c == 1
            assert v.is_real()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_mmt_at_T_zero(self, m):
        # q_0 = arcsin, so M_m = M_{2m,0}; gen_mm expands arcsin directly and
        # gen_mmt inverts sin(x) e^{Tx}, so each construction checks the other
        for N in (9, 12):
            assert gen_mm(m, N) == gen_mmt(2 * m, 0, N)


class TestQTSolve:
    def test_low_coefficients(self):
        for T in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            q = solve_qT(T, 6)
            assert q.coeff(0) == ZERO
            assert q.coeff(1) == ONE
            assert q.coeff(2) == GaussianRational(-T)
            assert q.coeff(3) == GaussianRational(Fraction(9 * T * T + 1, 6))

    def test_defining_residual_vanishes(self):
        T = Fraction(2, 3)
        order = 8
        q = solve_qT(T, order)
        tq = substitute(uni_function("tan", order), q)
        # rhs = tq / (1 + T tq), checked as rhs * (1 + T tq) == tq
        lhs = q.diff("x") * Series1.var("x", order)
        assert lhs * (1 + tq * T) == tq

    @pytest.mark.parametrize("T", [1, -2, Fraction(3, 7), Fraction(-2, 5), 0, 5])
    def test_matches_the_ode_stepper(self, T):
        for order in (2, 3, 6, 9, 13, 18):
            assert solve_qT(T, order) == solve_qT_reference(T, order), order

    @pytest.mark.parametrize("T", [1, -2, Fraction(3, 7), 0])
    def test_inverts_sin_exp(self, T):
        # sin(q) e^{Tq} = u integrates the ODE, so q_T reverts sin(x) e^{Tx}
        order = 12
        assert substitute(sin_exp(T, order), solve_qT(T, order)) == Series1.var("x", order)

    def test_order_below_2_rejected(self):
        with pytest.raises(ValueError):
            solve_qT(1, 1)

    def test_T_zero_is_arcsin(self):
        # u q' = tan(q) with q'(0) = 1 is solved by q = arcsin(u)
        assert solve_qT(0, 9) == uni_function("arcsin", 9)


class TestMmt:
    @pytest.mark.parametrize("m,T", [(1, Fraction(1)), (2, Fraction(1)), (3, Fraction(2))])
    def test_displayed_coefficients(self, m, T):
        M = gen_mmt(m, T, 9)
        assert M.phi.coeff(1, 1, 1) == ONE
        assert M.phi.coeff(2, 2, 1) == GaussianRational(-m * T)
        expected = Fraction(2 + m * m * (9 * T * T + 1), 6)
        assert M.phi.coeff(3, 3, 1) == GaussianRational(expected)

    def test_jet_matches_cd_slice(self):
        # C = -4mT, D = 12 + 6 m^2 (9T^2 + 1); the non-modulus factor of the
        # closed-form characteristic polynomial becomes 48((k-1)^2 - m^2)
        from nfc.scalar import KPoly

        for (m, T) in ((1, Fraction(1)), (2, Fraction(1)), (3, Fraction(2))):
            M = gen_mmt(m, T, 9)
            j = jet7(M)
            C, D = -4 * m * T, 12 + 6 * m * m * (9 * T * T + 1)
            assert j.phi22 == GaussianRational(C / 4)
            assert j.phi33 == GaussianRational(Fraction(D, 36))
            K = KPoly.k()
            km1 = K - 1
            factor = 48 * km1 * km1 + KPoly.constant(27 * C * C - 8 * D + 96)
            assert factor == 48 * (km1 * km1 - KPoly.constant(m * m))

    @pytest.mark.parametrize("m,T", [(1, Fraction(1)), (2, Fraction(1))])
    def test_resonances(self, m, T):
        assert char_poly(jet7(gen_mmt(m, T, 9))).resonances == [m + 1]


class TestHt:
    def test_t_zero_identity(self):
        assert gen_Ht(1, 0, 9).is_identity()

    def test_lowest_term(self):
        for m, t in ((1, Fraction(1)), (2, Fraction(-2))):
            H = gen_Ht(m, t, 2 * m + 9)
            assert H.f.coeff(1, 2 * m) == GaussianRational(t / 2)

    def test_jets_agree_to_order_2m(self):
        for m in (1, 2):
            n = 2 * m + 9
            h1 = gen_Ht(m, 1, n)
            h2 = gen_Ht(m, 2, n)
            for (l, k), v in h1.f.terms.items():
                if l + k <= 2 * m:
                    assert h2.f.coeff(l, k) == v
            for (l, k), v in h1.g.terms.items():
                if l + k <= 2 * m:
                    assert h2.g.coeff(l, k) == v
            assert {key for key in h1.f.terms if sum(key) <= 2 * m} == set()
            assert {key for key in h1.g.terms if sum(key) <= 2 * m} == set()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jets_agree_up_to_the_resonant_stage(self, m):
        # stage k holds f_{l,k-1} and g_{l,k}: H_1 - H_{2/3} first differs at
        # the resonance 2m + 1, and there it spans the stage kernel
        n, k = 2 * m + 8, 2 * m + 1
        h1, h2 = gen_Ht(m, 1, n), gen_Ht(m, Fraction(2, 3), n)
        diff = {}
        for kind, a, b, shift in (("f", h1.f, h2.f, 1), ("g", h1.g, h2.g, 0)):
            for (l, j), v in (a - b).terms.items():
                diff[(j + shift, kind, l)] = v
        assert min(stage for stage, _, _ in diff) == k
        at_k = {(kind, l): v for (stage, kind, l), v in diff.items() if stage == k}
        assert at_k == {("f", 1): GaussianRational(Fraction(1, 6)),
                        ("g", 0): GaussianRational(Fraction(1, 6 * m))}
        system = stage_system(gen_mm(m, n), k)
        vec = [getattr(at_k.get((kind, l), ZERO), part) for kind, l, part in system.unknowns]
        assert all(sum(x * vec[j] for j, x in row.items()) == 0 for row in system.rows)
        sol = solve_stage(system)
        assert sol.status == "resonant" and sol.free == [("f", 1, "re")]

    def test_membership(self):
        m1 = gen_mm(1, 11)
        assert map_defect(m1, gen_Ht(1, Fraction(1), 11), m1).is_zero()


class TestX:
    def test_t_zero_specialization(self):
        Xz, Xw = gen_X(1, 0, 9)
        assert Xz == HoloSeries2(9, {(1, 1): GaussianRational(Fraction(1, 2))})
        assert Xw == HoloSeries2(9, {(0, 2): ONE})

    def test_components(self):
        Xz, Xw = gen_X(2, 1, 9)
        assert Xz == HoloSeries2(9, {(1, 2): GaussianRational(1, -1)})
        assert Xw == HoloSeries2(9, {(0, 3): ONE})

    def test_tangency(self):
        for (m, T) in ((1, Fraction(1)), (2, Fraction(1))):
            M = gen_mmt(m, T, 11)
            assert infinitesimal_defect(M, *gen_X(m, T, 11)).is_zero()

    def test_naive_normalization_not_tangent(self):
        # the (1/m)(1/2 + iT) z w^m normalization fails tangency for T != 0;
        # only the (m/2)(1 - iT) ray (up to positive real scale) is tangent
        m, T = 1, Fraction(1)
        M = gen_mmt(m, T, 9)
        Xz = HoloSeries2(9, {(1, m): GaussianRational(Fraction(1, 2 * m), Fraction(T, m))})
        Xw = HoloSeries2(9, {(0, m + 1): ONE})
        assert not infinitesimal_defect(M, Xz, Xw).is_zero()


class TestGenerate:
    def test_dispatch(self):
        assert generate(FamilySpec("quadric", {}, 8)) == gen_quadric(8)
        assert generate(FamilySpec("cd", {"C": Fraction(1), "D": Fraction(2)}, 8)) == gen_cd(1, 2, 8)
        assert generate(FamilySpec("mm", {"m": 2}, 9)) == gen_mm(2, 9)
        assert generate(FamilySpec("mmt", {"m": 1, "T": Fraction(1)}, 9)) == gen_mmt(1, 1, 9)
        with pytest.raises(ValueError, match="unknown family"):
            generate(FamilySpec("sphere", {}, 8))

    def test_defaults_and_missing_parameters(self):
        assert generate(FamilySpec("cd", {}, 8)) == gen_cd(0, 0, 8)
        assert generate(FamilySpec("cd", {"D": Fraction(-24)}, 8)) == gen_cd(0, -24, 8)
        with pytest.raises(ValueError, match="family 'mm' needs the parameter m"):
            generate(FamilySpec("mm", {}, 9))
        with pytest.raises(ValueError, match="family 'mmt' needs the parameter T"):
            generate(FamilySpec("mmt", {"m": 1}, 9))

    @pytest.mark.parametrize("m", [Fraction(3, 2), 2.9, Fraction(2), 2.0, True],
                             ids=["3/2", "2.9", "Fraction(2)", "2.0", "True"])
    def test_m_must_be_an_int(self, m):
        # generate passes m through unconverted, so no value is rounded or cut
        for spec in (FamilySpec("mm", {"m": m}, 9), FamilySpec("mmt", {"m": m, "T": Fraction(1)}, 9)):
            with pytest.raises(ValueError, match="m must be a positive integer"):
                generate(spec)
        for build in (lambda: gen_mm(m, 9), lambda: gen_mmt(m, 1, 9),
                      lambda: gen_Ht(m, Fraction(1), 9), lambda: gen_X(m, 1, 9)):
            with pytest.raises(ValueError, match="m must be a positive integer"):
                build()

    @pytest.mark.parametrize("build, message", [
        (lambda: gen_quadric(2), "need N >= 3 for the quadric"),
        (lambda: gen_cd(0, 0, 6), "need N >= 7 for the C/D family"),
        (lambda: gen_mm(1, 6), "need N >= 7 for the M_m family"),
        (lambda: gen_mmt(1, 1, 6), "need N >= 7 for the M_{m,T} family"),
        (lambda: gen_Ht(2, 1, 4), "need N >= 2m + 1 to carry the lowest H_t coefficients"),
    ], ids=["quadric", "cd", "mm", "mmt", "Ht"])
    def test_order_too_low_rejected(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_all_generators_in_class(self):
        for M in (gen_quadric(8), gen_cd(2, -3, 8), gen_mm(2, 9), gen_mmt(2, Fraction(1, 2), 9)):
            rep = validate_class(M)
            assert rep.in_class and rep.phi11 == ONE
            assert is_hermitian(M.phi)


def _terms_text(s) -> list:
    return [(key, v.nre, v.nim, v.den) for key, v in s.sorted_terms()]


_TS = (Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(0))


class TestGeneratorDigest:
    """The exact output of the transcendental generators is pinned by digest.

    Each digest is the sha256 of the sorted terms over a grid of parameters
    that reaches N = 18 and a T outside the integers; they were recorded
    with the generators' former dense univariate series engine.
    """

    PINNED = {
        "gen_mm": (lambda: [_terms_text(gen_mm(m, N).phi) for m in (1, 2, 3) for N in (7, 12, 18)],
                   "90fe41e2a2b8b0aa1070f55bdc8e07c138482fa7ebff5cd00828c8ef00e7aa14"),
        "gen_mmt": (lambda: [_terms_text(gen_mmt(m, T, N).phi)
                             for m in (1, 2, 3) for T in _TS for N in (9, 18)],
                    "5770f42586501b80c86b8e08093c5071cf4531caf0cfe0b0374a6f81c8f87eb2"),
        "gen_Ht": (lambda: [(_terms_text(H.f), _terms_text(H.g))
                            for H in (gen_Ht(m, t, N) for m in (1, 2, 3)
                                      for t in (Fraction(1), Fraction(2, 3)) for N in (9, 18))],
                   "8fec777dd200178fe4be25005bccd8ba647c775120a4a835c3939a63a17ca4b9"),
        "solve_qT": (lambda: [_terms_text(solve_qT(T, order)) for T in _TS for order in (2, 6, 9)],
                     "a8afd9a67a9f3b67bf6d06894efc0f5c004d669399d388d6b60380029ec1c387"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_generator_digest(self, name):
        build, expected = self.PINNED[name]
        assert hashlib.sha256(repr(build()).encode()).hexdigest() == expected
