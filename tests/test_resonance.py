"""Stage matrices, determinants, characteristic polynomial, resonances."""

from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, KPoly, ONE, ZERO, kpoly_eval, make_monic
from nfc.resonance import char_poly, det, matrix_A, matrix_B
from nfc.surface import Jet7, jet7
from nfc.families import gen_cd, gen_mm, gen_mmt, gen_quadric
from nfc.normalizer import stage_system


def kp(*coeffs):
    return KPoly(coeffs)


K = KPoly.k()
KM1 = K - 1


def proportional(p: KPoly, q: KPoly) -> bool:
    """p = c q for some nonzero k-independent constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p * q.coeffs[-1] == q * p.coeffs[-1]


def ge_poly(C, D) -> KPoly:
    """Closed-form characteristic polynomial of the u-linear family
    u(|z|^2 + (C/4)|z|^4 + (D/36)|z|^6), with the squared modulus expanded
    as the product of the two coefficient-conjugate factors:
    -8i(k-1) |24(k-1)^2 + 6iC(k-1) + 3C^2 - D + 12|^2 (48(k-1)^2 + 27C^2 - 8D + 96).
    """
    C, D = Fraction(C), Fraction(D)
    base = 24 * KM1 * KM1 + KPoly.constant(3 * C * C - D + 12)
    fac1 = base + 6 * KM1 * GaussianRational(Fraction(0), C)
    fac2 = base - 6 * KM1 * GaussianRational(Fraction(0), C)
    fac3 = 48 * KM1 * KM1 + KPoly.constant(27 * C * C - 8 * D + 96)
    return KPoly.constant(GaussianRational(0, -8)) * KM1 * fac1 * fac2 * fac3


def ge_poly_c0(D) -> KPoly:
    """The C = 0 specialization 64i(k-1)(D - 24k^2 + 48k - 36)^2 (D - 6(k^2 - 2k + 3))."""
    D = Fraction(D)
    f1 = KPoly.constant(D) - 24 * K * K + 48 * K - KPoly.constant(36)
    f2 = KPoly.constant(D) - 6 * (K * K - 2 * K + KPoly.constant(3))
    return KPoly.constant(GaussianRational(0, 64)) * KM1 * f1 * f1 * f2


def mm_poly(m: int) -> KPoly:
    """-221184 i (k-1) ((k-1)^2 - 4m^2) ((k-1)^2 - m^2)^2."""
    sq = KM1 * KM1
    f1 = sq - KPoly.constant(4 * m * m)
    f2 = sq - KPoly.constant(m * m)
    return KPoly.constant(GaussianRational(0, -221184)) * KM1 * f1 * f2 * f2


class TestMatrixEntries:
    def test_first_row_universal(self, make):
        for _ in range(5):
            A = matrix_A(make.jet())
            assert A[0][1] == kp(Fraction(1, 2))
            assert A[0][2] == kp(-1)
            assert A[2][4] == KM1
            assert A[2][5] == kp(-2)

    def test_b_corner_universal(self, make):
        for _ in range(5):
            B = matrix_B(make.jet())
            assert B[0][3] == 2 * KM1

    def test_b_first_row(self):
        j = Jet7(GaussianRational(2), GaussianRational(3, 5), GaussianRational(7),
                 ZERO, ZERO)
        B = matrix_B(j)
        assert B[0][0] == kp(-18)   # -6 Re phi32
        assert B[0][1] == kp(30)    # +6 Im phi32
        assert B[0][2] == kp(-4)    # -2 phi22


class TestDet:
    def test_identity(self):
        m = [[ONE if i == j else ZERO for j in range(4)] for i in range(4)]
        assert det(m) == kp(1)

    def test_diagonal(self):
        m = [
            [K, KPoly(), KPoly(), KPoly()],
            [KPoly(), KM1, KPoly(), KPoly()],
            [KPoly(), KPoly(), kp(1), KPoly()],
            [KPoly(), KPoly(), KPoly(), kp(1)],
        ]
        assert det(m) == K * KM1

    def test_antisymmetry(self):
        rows = [[kp(1), kp(2)], [kp(3), kp(4)]]
        assert det(rows) == kp(-2)
        assert det([rows[1], rows[0]]) == kp(2)

    def test_against_numeric_evaluation(self, make):
        # polynomial det evaluated at a point equals det of the evaluated matrix
        j = make.jet()
        B = matrix_B(j)
        p = det(B)
        for k0 in (2, 3, 7):
            numeric = [[KPoly.constant(e(GaussianRational(k0))) for e in row] for row in B]
            assert kpoly_eval(p, GaussianRational(k0)) == det(numeric).coeff(0)

    def test_any_exact_ring(self):
        # one stage block as Fraction, GaussianRational and constant KPoly
        # rows, singular (M_1 at k = 2) and not
        dets = []
        for M, k in ((gen_mm(1, 11), 2), (gen_mm(1, 11), 4), (gen_cd(3, -7, 12), 3)):
            block = stage_system(M, k).tagged_block()
            d = det(block)
            assert isinstance(d, Fraction)
            assert det([[GaussianRational(x) for x in row] for row in block]) == d
            assert det([[KPoly.constant(x) for x in row] for row in block]) == KPoly.constant(d)
            dets.append(d)
        assert dets[0] == 0 and dets[1] != 0 and dets[2] != 0
        assert det([[2, 1], [7, 4]]) == 1 and det([[0, 1], [1, 0]]) == -1

    def test_rejects_non_square(self):
        for rows in ([[1, 2]], [[1, 2], [3]], [[K], [KM1]]):
            with pytest.raises(ValueError, match="square"):
                det(rows)

    def test_empty_matrix_is_one(self):
        assert det([]) == 1 and det(()) == KPoly.constant(1)


class TestDetIdentity:
    def test_quarter_km1_relation(self, make):
        for _ in range(20):
            j = make.jet()
            dA = det(matrix_A(j))
            dB = det(matrix_B(j))
            assert dA == KPoly.constant(Fraction(1, 4)) * KM1 * dB

    def test_degree_and_leading_coefficient(self, make):
        for _ in range(10):
            dB = det(matrix_B(make.jet()))
            assert dB.degree == 7
            assert dB.coeffs[-1] == GaussianRational(Fraction(16, 3))


class TestCharPoly:
    def test_quadric(self):
        rep = char_poly(jet7(gen_quadric(9)))
        assert rep.monic_constant == GaussianRational(Fraction(3, 16))
        assert rep.resonances == []
        # frozen closed form: (1/4)(k-1)(k^2-2k+3)(2k^2-4k+3)^2, via schoolbook product
        q = kp(3, -4, 2)
        expected = KPoly.constant(Fraction(1, 4)) * KM1 * kp(3, -2, 1) * q * q
        assert rep.char_poly == expected

    def test_cd_matches_closed_form(self):
        from nfc.scalar import integer_roots_ge2

        for (C, D) in ((1, 0), (2, 5), (0, 12), (0, -24)):
            rep = char_poly(jet7(gen_cd(C, D, 9)))
            target = ge_poly(C, D)
            assert proportional(rep.char_poly, target)
            assert rep.resonances == integer_roots_ge2(target)
            monic_target, _ = make_monic(target)
            assert rep.char_poly == monic_target

    def test_cd_c0_display(self):
        for D in (12, -24):
            rep = char_poly(jet7(gen_cd(0, D, 9)))
            assert proportional(rep.char_poly, ge_poly_c0(D))
            assert proportional(ge_poly(0, D), ge_poly_c0(D))

    def test_cd_no_resonances_below_minus_12(self):
        for D in (-13, -24, -100):
            rep = char_poly(jet7(gen_cd(0, D, 9)))
            assert rep.resonances == []

    def test_cd_resonances_beyond_any_scan_ceiling(self):
        # D = 12(2R^2 - 4R + 3) puts the roots R and 2R - 1 on P; a divisor
        # scan capped at 10000 used to report none of them for R = 20000
        for R in (20000, 999999):
            rep = char_poly(jet7(gen_cd(0, 12 * (2 * R * R - 4 * R + 3), 9)))
            assert rep.resonances == [R, 2 * R - 1]

    def test_mm_family(self):
        for m in (1, 2, 3):
            rep = char_poly(jet7(gen_mm(m, 9)))
            assert proportional(rep.char_poly, mm_poly(m))
            assert rep.resonances == sorted({m + 1, 2 * m + 1})

    def test_mmt_family(self):
        assert char_poly(jet7(gen_mmt(2, 1, 9))).resonances == [3]
        assert char_poly(jet7(gen_mmt(1, Fraction(1, 2), 9))).resonances == [2]

    def test_never_degenerate(self, make):
        # the k^7 coefficient 16/3 is jet-independent, so the degenerate
        # error branch is unreachable for genuine jets
        for _ in range(10):
            rep = char_poly(make.jet())
            assert rep.char_poly.degree == 7
