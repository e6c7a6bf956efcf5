"""Exact scalar layer: Gaussian rationals, KPoly, integer roots."""

from fractions import Fraction

import pytest

from nfc.scalar import (
    GaussianRational,
    I,
    KPoly,
    ONE,
    ZERO,
    gaussian_to_obj,
    integer_roots_ge2,
    kpoly_eval,
    make_monic,
    parse_rational,
    power,
    rational_str,
)
from nfc.families import gen_mm
from nfc.normalizer import stage_system
from nfc.resonance import det


def kp(*coeffs):
    return KPoly(coeffs)


def schoolbook_mul(p: KPoly, q: KPoly) -> KPoly:
    """Independent reference product used as the multiplication oracle."""
    out = [ZERO] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return KPoly(out)


class TestGaussianRational:
    def test_field_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
        b = GaussianRational(Fraction(2, 5), Fraction(7))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (ONE / a) == ONE
        assert -(-a) == a
        assert a.conjugate().conjugate() == a
        assert (a * a.conjugate()).is_real()

    def test_exactness_no_rounding(self):
        x = GaussianRational(Fraction(1, 3))
        total = ZERO
        for _ in range(3):
            total = total + x
        assert total == ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_i_squared(self):
        assert I * I == GaussianRational(-1)

    def test_unknown_operand_defers_to_the_other_side(self):
        for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
            assert getattr(I, op)("x") is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            I + "x"

    def test_power_matches_repeated_products(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
        out = ONE
        for e in range(20):
            assert a ** e == power(a, e, ONE) == out
            assert a ** -e == ONE / out
            out = out * a
        assert power(3, 0, 1) == 1 and power(3, 13, 1) == 3 ** 13
        with pytest.raises(ZeroDivisionError):
            ZERO ** -1

    def test_serialization_round_trip(self):
        assert gaussian_to_obj(ZERO) == {"re": "0", "im": "0"}
        assert gaussian_to_obj(ONE) == {"re": "1", "im": "0"}
        assert gaussian_to_obj(I) == {"re": "0", "im": "1"}
        val = GaussianRational(Fraction(-3, 7), Fraction(22, 5))
        assert gaussian_to_obj(val) == {"re": "-3/7", "im": "22/5"}
        assert GaussianRational(*map(parse_rational, gaussian_to_obj(val).values())) == val
        assert rational_str(Fraction(-3, 7)) == "-3/7"
        assert rational_str(Fraction(5)) == "5"
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("12") == 12
        with pytest.raises(ValueError):
            parse_rational("1.5")


class TestKPolyArith:
    def test_difference_of_squares(self):
        km1 = kp(-1, 1)
        kp1 = kp(1, 1)
        assert km1 * kp1 == kp(-1, 0, 1)

    def test_absorbing_zero(self):
        p = kp(2, -3, 2)
        assert p * KPoly() == KPoly()
        assert p * KPoly() == KPoly([0, 0])

    def test_square_against_schoolbook_oracle(self):
        p = kp(2, -3, 2)  # 2k^2 - 3k + 2 read upward
        expected = schoolbook_mul(p, p)
        assert p * p == expected
        assert p * p == kp(4, -12, 17, -12, 4)

    def test_degree_additivity(self, make):
        for _ in range(25):
            p = KPoly([make.gaussian() for _ in range(make.rng.randint(1, 5))] + [ONE])
            q = KPoly([make.gaussian() for _ in range(make.rng.randint(1, 5))] + [ONE])
            assert (p * q).degree == p.degree + q.degree
            assert p * q == schoolbook_mul(p, q)


    def test_compares_with_scalars(self):
        assert KPoly() == 0 and 0 == KPoly()
        assert KPoly.constant(3) == 3 and 3 == KPoly.constant(3)
        assert KPoly.constant(Fraction(1, 2)) == Fraction(1, 2)
        assert KPoly.constant(I) == I and KPoly.constant(I) != 1
        assert kp(0, 1) != 0 and kp(3, 1) != 3
        # truth is nonzero, as for the scalars, so that det reads every ring alike
        assert not KPoly() and not kp(0, 0) and kp(0, 1) and KPoly.constant(I)
        # a resonant stage block has determinant 0, read with == as well
        block = stage_system(gen_mm(1, 11), 2).tagged_block()
        assert det(block) == 0
        assert det(stage_system(gen_mm(1, 11), 4).tagged_block()) != 0

    def test_hash_agrees_with_eq(self):
        # values that compare equal must collapse in a set
        assert len({GaussianRational(3), 3}) == 1
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert len({GaussianRational(Fraction(-7, 3)), Fraction(-7, 3)}) == 1
        assert len({KPoly.constant(3), 3}) == 1
        assert len({KPoly(), 0, ZERO}) == 1
        assert len({KPoly.constant(Fraction(1, 2)), GaussianRational(Fraction(1, 2))}) == 1
        assert len({GaussianRational(1, 2), GaussianRational(1, -2), kp(1, 1)}) == 3


class TestKPolyEval:
    def test_simple(self):
        assert kpoly_eval(kp(-1, 0, 1), GaussianRational(3)) == GaussianRational(8)
        assert kpoly_eval(KPoly(), make_any := GaussianRational(Fraction(9, 7))) == ZERO
        del make_any

    def test_closed_form_product_at_two(self):
        # (2/3) k (2k+3) (k-1) (2k^2-3k+2)^2 evaluated at k = 2 is 448/3
        q = kp(2, -3, 2)
        p = kp(0, Fraction(2, 3)) * kp(3, 2) * kp(-1, 1) * q * q
        assert kpoly_eval(p, GaussianRational(2)) == GaussianRational(Fraction(448, 3))


class TestMakeMonic:
    def test_simple(self):
        monic, lc = make_monic(kp(6, 0, 3))
        assert monic == kp(2, 0, 1)
        assert lc == GaussianRational(3)

    def test_monic_input(self):
        p = kp(5, -2, 1)
        monic, lc = make_monic(p)
        assert monic == p and lc == ONE

    def test_close_and_large_roots(self):
        # 7/2 and 4 share the unit interval (3, 4]; 2^40 and 2^40 + 1 are
        # adjacent; 3^30 is far beyond any divisor scan; (k - 9)^2 is repeated
        p = kp(-7, 2) * kp(-4, 1) * kp(-(2**40), 1) * kp(-(2**40) - 1, 1)
        p = p * kp(-(3**30), 1) * kp(-9, 1) * kp(-9, 1) * kp(5, 0, 1)
        assert integer_roots_ge2(p) == [4, 9, 2**40, 2**40 + 1, 3**30]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize zero polynomial"):
            make_monic(KPoly())

    def test_projective_well_defined(self, make):
        p = kp(Fraction(7, 3), -2, 0, 1)
        for _ in range(20):
            a = make.rational()
            if a == 0:
                continue
            scaled, _ = make_monic(p * GaussianRational(a))
            assert scaled == make_monic(p)[0]


class TestIntegerRoots:
    def test_two_roots(self):
        p = kp(-2, 1) * kp(-5, 1) * kp(1, 0, 1)
        assert integer_roots_ge2(p) == [2, 5]

    def test_no_real_roots(self):
        assert integer_roots_ge2(kp(1, 0, 1)) == []

    def test_mm_style_poly(self):
        # -221184 (k-1) ((k-1)^2 - 16) ((k-1)^2 - 4)^2 has integer roots 3, 5 (m = 2)
        km1 = kp(-1, 1)
        sq = km1 * km1
        p = KPoly.constant(-221184) * km1 * (sq - kp(16)) * (sq - kp(4)) * (sq - kp(4))
        assert integer_roots_ge2(p) == [3, 5]

    def test_root_needs_cleared_denominators(self):
        # (1/6)k - 1 has the integer root 6, invisible in the raw numerator
        assert integer_roots_ge2(kp(-1, Fraction(1, 6))) == [6]

    def test_gaussian_coefficients_need_both_parts(self):
        # (k - 2) + i(k - 3) has no common integer root; i(k-3)(k-2) has both
        assert integer_roots_ge2(kp(-2, 1) + kp(-3, 1) * I) == []
        assert integer_roots_ge2(kp(-2, 1) * kp(-3, 1) * I) == [2, 3]

    def test_zero_poly_rejected(self):
        with pytest.raises(ValueError, match="all integers as roots"):
            integer_roots_ge2(KPoly())

    def test_union_under_products(self, make):
        for _ in range(15):
            r1 = make.rng.randint(2, 9)
            r2 = make.rng.randint(2, 9)
            p = kp(-r1, 1) * kp(make.rng.randint(1, 5), 0, 1)
            q = kp(-r2, 1)
            assert integer_roots_ge2(p * q) == sorted({r1, r2})

    def test_named_root_layouts(self):
        def roots_at(*rs):
            p = KPoly([ONE])
            for r in rs:
                p = p * kp(-Fraction(r), 1)
            return p

        # two real roots in the unit cell (3, 4) beside the integer root 4
        assert integer_roots_ge2(roots_at(Fraction(7, 2), Fraction(11, 3), 4)) == [4]
        big = 2**40
        assert integer_roots_ge2(roots_at(big, big, big, 5, 2)) == [2, 5, big]
        assert integer_roots_ge2(roots_at(1, 0, -5, Fraction(3, 2))) == []
        assert integer_roots_ge2(roots_at(2, 2, Fraction(9, 4), Fraction(5, 2))) == [2]
        assert integer_roots_ge2(roots_at(3, 7) * I) == [3, 7]
        # the real part has lower degree than p
        assert integer_roots_ge2(roots_at(100, 9) + roots_at(100, 6, 1) * I) == [100]

    def test_matches_brute_force_scan(self, make):
        # an integer polynomial has no root beyond the Cauchy bound
        # 1 + max |c_i / c_n|, so a scan of every integer in [2, bound] is a
        # complete oracle when the bound is small
        rng = make.rng
        checked = 0
        while checked < 150:
            p = KPoly([GaussianRational(rng.choice([1, -2, 3]))])
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    p = p * kp(-rng.randint(-8, 60), 1)
                else:
                    p = p * kp(*(rng.randint(-30, 30) for _ in range(rng.randint(2, 4))))
            if p.is_zero():
                continue
            if rng.random() < 0.2:
                p = p * I
            c = [a.nre or a.nim for a in p.coeffs]
            bound = 1 + max(abs(a) for a in c[:-1]) // abs(c[-1]) + 1 if len(c) > 1 else 1
            if bound > 2**12:
                continue
            expect = []
            for x in range(2, bound + 1):
                acc = 0
                for a in reversed(c):
                    acc = acc * x + a
                if acc == 0:
                    expect.append(x)
            assert integer_roots_ge2(p) == expect, p
            checked += 1

    def test_returned_roots_evaluate_to_zero(self, make):
        for _ in range(15):
            roots = sorted({make.rng.randint(2, 12) for _ in range(3)})
            p = KPoly([ONE])
            for r in roots:
                p = p * kp(-r, 1)
            found = integer_roots_ge2(p)
            assert found == roots
            for r in found:
                assert kpoly_eval(p, GaussianRational(r)).is_zero()
