"""Surface data model, class validation, jets, transforms, tangency oracles."""

from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import FormalMap, HoloSeries2, Series3, hermitian_conjugate, is_hermitian
from nfc.surface import (
    GraphSurface,
    check_normal_form,
    check_u_linear_class,
    coefficient,
    infinitesimal_defect,
    jet7,
    map_defect,
    scale_surface,
    to_nab,
    transform,
    validate_class,
)
from nfc.families import gen_Ht, gen_X, gen_cd, gen_mm, gen_mmt, gen_quadric


def S(n, terms):
    return Series3(n, terms)


def surf(n, terms):
    return GraphSurface(S(n, terms))


QUADRIC_TERMS = {(1, 1, 1): 1}


class TestGraphSurface:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            surf(5, {(2, 1, 1): 1})

    def test_rejects_low_order_terms(self):
        with pytest.raises(ValueError, match="second order"):
            surf(5, {(0, 0, 1): 1})


class TestValidateClass:
    def test_quadric_in_class(self):
        rep = validate_class(surf(6, QUADRIC_TERMS))
        assert rep.in_class and rep.is_infinite_type and rep.is_normal_coordinates
        assert rep.phi11 == ONE
        assert rep.rescaled is not None and rep.rescaled.phi == S(6, QUADRIC_TERMS)

    def test_phi11_zero_fails(self):
        rep = validate_class(surf(6, {(1, 1, 2): 1}))
        assert not rep.in_class
        assert ("phi11_zero", (1, 1, 1)) in rep.diagnostics

    def test_finite_type_model_fails(self):
        rep = validate_class(surf(6, {(1, 1, 0): 1}))
        assert not rep.in_class and not rep.is_infinite_type
        assert rep.diagnostics[0][0] == "infinite_type"

    def test_normal_coordinate_violation_detected(self):
        rep = validate_class(surf(6, {(1, 1, 1): 1, (2, 0, 1): 1, (0, 2, 1): 1}))
        assert not rep.is_normal_coordinates
        assert any(tag == "normal_coordinates" for tag, _ in rep.diagnostics)

    def test_square_phi11_rescaled(self):
        rep = validate_class(surf(6, {(1, 1, 1): 4, (2, 2, 1): 1}))
        assert rep.in_class and rep.phi11 == GaussianRational(4)
        res = rep.rescaled
        assert res.phi.coeff(1, 1, 1) == ONE
        assert res.phi.coeff(2, 2, 1) == GaussianRational(Fraction(1, 16))

    def test_non_square_phi11_diagnosed(self):
        rep = validate_class(surf(6, {(1, 1, 1): 2}))
        assert not rep.in_class
        assert ("phi11_not_rational_square", (1, 1, 1)) in rep.diagnostics

    def test_negative_phi11_diagnosed(self):
        rep = validate_class(surf(6, {(1, 1, 1): -1}))
        assert not rep.in_class
        assert ("phi11_negative", (1, 1, 1)) in rep.diagnostics


class TestCoefficient:
    def test_quadric_entries(self):
        q = gen_quadric(6)
        assert coefficient(q, 1, 1, 1) == ONE
        assert coefficient(q, 2, 2, 1) == ZERO

    def test_mmt_quartic_entry(self):
        mt = gen_mmt(1, 1, 8)
        assert coefficient(mt, 2, 2, 1) == GaussianRational(-1)

    def test_beyond_truncation_rejected(self):
        q = gen_quadric(6)
        with pytest.raises(ValueError, match="beyond truncation order"):
            coefficient(q, 4, 3, 1)

    def test_negative_exponent_rejected(self):
        q = gen_quadric(6)
        for key in ((-1, 2, 1), (2, -1, 1), (1, 1, -1)):
            with pytest.raises(ValueError, match="negative exponent"):
                coefficient(q, *key)


class TestJet7:
    def test_quadric_zero_jet(self):
        j = jet7(gen_quadric(9))
        assert (j.phi22, j.phi32, j.phi33, j.phi42, j.phi43) == (ZERO,) * 5

    def test_cd_jet(self):
        j = jet7(gen_cd(Fraction(2), Fraction(5), 9))
        assert j.phi22 == GaussianRational(Fraction(1, 2))   # C/4
        assert j.phi33 == GaussianRational(Fraction(5, 36))  # D/36
        assert j.phi32 == ZERO and j.phi42 == ZERO and j.phi43 == ZERO

    def test_mm_jet(self):
        j = jet7(gen_mm(1, 9))
        assert j.phi22 == ZERO
        assert j.phi33 == ONE      # (2 m^2 + 1)/3 at m = 1

    def test_prenormalization_required(self):
        bad = surf(9, {(1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): 1})
        with pytest.raises(ValueError, match="not prenormalized"):
            jet7(bad)

    def test_needs_enough_order(self):
        with pytest.raises(ValueError, match="N >= 8"):
            jet7(gen_quadric(7))


class TestCheckULinearClass:
    def test_names_lowest_offending_monomial(self):
        # terms are inserted highest first; the message must not follow dict order
        u_free = surf(9, {(1, 1, 1): 1, (3, 1, 0): 1, (2, 2, 0): 1, (1, 3, 0): 1})
        with pytest.raises(ValueError, match=r"u-free monomial \(1, 3, 0\)"):
            check_u_linear_class(u_free, "test")
        mixed = surf(9, {(1, 1, 1): 1, (3, 0, 1): 1, (2, 2, 0): 1, (0, 3, 1): 1,
                         (2, 0, 1): I, (0, 2, 1): -I})
        with pytest.raises(ValueError, match=r"u-linear level \(found \(0, 2, 1\)\)"):
            check_u_linear_class(mixed, "test")


class TestNabForm:
    def test_quadric_all_zero(self):
        nab = to_nab(gen_quadric(8))
        assert nab.entries == {}
        assert check_normal_form(gen_quadric(8)).ok

    def test_flatness_violation(self):
        M = surf(8, {(1, 1, 1): 1, (2, 2, 2): 1})
        nab = to_nab(M)
        assert [str(nab.entries[(2, 2)].coeff(j)) for j in range(2)] == ["0", "1"]  # N22(u) = u
        rep = check_normal_form(M)
        assert not rep.ok and rep.violations_flat == [(2, 2, 2)]

    def test_cd_normal(self):
        M = gen_cd(1, 2, 9)
        nab = to_nab(M)
        assert nab.entries[(2, 2)].coeff(0) == GaussianRational(Fraction(1, 4))
        assert nab.entries[(3, 3)].coeff(0) == GaussianRational(Fraction(2, 36))
        assert check_normal_form(M).ok

    def test_zero_row_violation(self):
        M = surf(8, {(1, 1, 1): 1, (2, 1, 2): 1, (1, 2, 2): 1})
        rep = check_normal_form(M)
        assert not rep.ok
        assert (2, 1, 2) in rep.violations_zero_rows

    def test_requires_unit_phi11(self):
        with pytest.raises(ValueError, match="phi11 = 1"):
            to_nab(surf(8, {(1, 1, 1): 4}))

    def test_each_entry_keeps_its_own_order(self):
        # phi_abc with a + b + c <= N gives u^(c-1) in N_ab, so N_ab is
        # known exactly to order N - a - b - 1
        M = surf(8, {(1, 1, 1): 1, (0, 0, 8): 1, (2, 0, 6): 1, (0, 2, 6): 1, (2, 2, 2): 1})
        nab = to_nab(M)
        assert {ab: (s.n, s.terms) for ab, s in nab.entries.items()} == {
            (0, 0): (7, {(7,): ONE}),
            (2, 0): (5, {(5,): ONE}),
            (0, 2): (5, {(5,): ONE}),
            (2, 2): (3, {(1,): ONE}),
        }


class TestTransform:
    def test_identity(self):
        M = gen_cd(1, -3, 9)
        assert transform(M, FormalMap.identity(9)) == M

    def test_quadric_rotation_scaling_invariance(self):
        # (z, w) -> (alpha z, s w) with |alpha| = 1 fixes u |z|^2
        q = gen_quadric(7)
        alpha = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        assert scale_surface(q, alpha, Fraction(2)) == q

    def test_mm_stability_map(self):
        m1 = gen_mm(1, 11)
        assert transform(m1, gen_Ht(1, 1, 11)) == m1

    def test_functoriality(self, make):
        n = 7
        M = make.class_surface(n)
        for _ in range(8):
            m1 = make.formal_map(n, 3)
            m2 = make.formal_map(n, 3)
            from nfc.series import compose_maps
            lhs = transform(M, compose_maps(m2, m1))
            rhs = transform(transform(M, m1), m2)
            assert lhs == rhs

    def test_round_trip(self, make):
        n = 7
        from nfc.series import invert_map
        M = make.class_surface(n)
        for _ in range(8):
            m = make.formal_map(n, 3)
            assert transform(transform(M, m), invert_map(m)) == M

    def test_preserves_surface_shape(self, make):
        n = 7
        M = make.class_surface(n)
        for _ in range(8):
            out = transform(M, make.formal_map(n, 3))
            assert is_hermitian(out.phi)
            assert all(sum(key) >= 2 for key in out.phi.terms)

    def test_u_linear_invariants_conserved(self, make):
        # maps with f(z,0) = 0 = g(z,0) preserving the level-1 prenormalization
        # leave every u-linear phi_ab with a, b >= 2 unchanged
        n = 8
        M = make.class_surface(n)
        for _ in range(6):
            f = make.holo2(n, 3, exclude=tuple((l, 0) for l in range(n + 1)))
            g = make.holo2(n, 3, exclude=tuple((l, 0) for l in range(n + 1)) + ((0, 1),))
            out = transform(M, FormalMap(f, g))
            for (a, b, c), v in M.phi.terms.items():
                if c == 1 and a >= 2 and b >= 2:
                    assert out.phi.coeff(a, b, 1) == v


class TestMapDefect:
    def test_identity_defect_zero(self):
        M = gen_cd(2, 3, 9)
        assert map_defect(M, FormalMap.identity(9), M).is_zero()

    def test_defect_matches_transform(self, make):
        n = 7
        M = make.class_surface(n)
        for _ in range(6):
            m = make.formal_map(n, 3)
            out = transform(M, m)
            assert map_defect(M, m, out).is_zero()

    def test_nonmember_map_has_nonzero_defect(self):
        M = gen_quadric(9)
        m = FormalMap(HoloSeries2(9, {(2, 1): 1}), HoloSeries2(9))
        assert not map_defect(M, m, M).is_zero()

    def test_ht_membership(self):
        m1 = gen_mm(1, 11)
        assert map_defect(m1, gen_Ht(1, Fraction(-2), 11), m1).is_zero()


class TestInfinitesimalDefect:
    def test_zero_field(self):
        M = gen_quadric(8)
        assert infinitesimal_defect(M, HoloSeries2(8), HoloSeries2(8)).is_zero()

    def test_quadric_against_low_order_field(self):
        # (1/2) z w d/dz + w^2 d/dw is tangent to the quadric only to order 7:
        # direct expansion leaves exactly z^3 zb^3 u^2
        q = gen_quadric(10)
        Xz = HoloSeries2(10, {(1, 1): GaussianRational(Fraction(1, 2))})
        Xw = HoloSeries2(10, {(0, 2): ONE})
        d = infinitesimal_defect(q, Xz, Xw)
        assert d == S(10, {(3, 3, 2): 1})

    def test_mmt_automorphism(self):
        mt = gen_mmt(1, 1, 11)
        assert infinitesimal_defect(mt, *gen_X(1, 1, 11)).is_zero()

    def test_scaled_field_still_tangent(self):
        mt = gen_mmt(2, 1, 9)
        Xz, Xw = gen_X(2, 1, 9)
        assert infinitesimal_defect(mt, Xz * GaussianRational(3), Xw * GaussianRational(3)).is_zero()
