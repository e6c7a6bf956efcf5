"""Surface data model, class validation, jets, transforms, tangency oracles."""

from fractions import Fraction

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import (FormalMap, HoloSeries2, Series3, _Point, hermitian_conjugate,
                        is_hermitian, split_real_imag, substitute)
from nfc.surface import (
    GraphSurface,
    Jet7,
    _image_point,
    check_normal_form,
    check_u_linear_class,
    condition_row,
    infinitesimal_defect,
    jet7,
    map_defect,
    scale_surface,
    transform,
    validate_class,
)
from nfc.families import gen_Ht, gen_X, gen_cd, gen_mm, gen_mmt, gen_quadric
from nfc.normalizer import _labels, normalize
import nfc.normalizer

from conftest import Maker
from test_normalizer import _messy_surface
from test_series import invert_real_triple


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


class TestScaleSurface:
    def test_any_nonzero_lambda_and_s(self, make):
        # (z, w) -> (lam z, s w) gives phi'_abc = s^(1-c) lam^(-a) conj(lam)^(-b) phi_abc
        M = make.class_surface(9, nterms=6)
        lam, s = GaussianRational(1, 2), Fraction(-3)
        out = scale_surface(M, lam, s)
        assert out.phi.terms.keys() == M.phi.terms.keys()
        for (a, b, c), v in M.phi.terms.items():
            expected = v * GaussianRational(s ** (1 - c)) / (lam ** a * lam.conjugate() ** b)
            assert out.phi.coeff(a, b, c) == expected, (a, b, c)
        assert out.phi.coeff(1, 1, 1) == M.phi.coeff(1, 1, 1) / 5
        with pytest.raises(ValueError, match="z-scaling must be a nonzero"):
            scale_surface(M, ZERO, s)
        with pytest.raises(ValueError, match="w-scaling must be a nonzero"):
            scale_surface(M, lam, Fraction(0))


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

    def test_diagonal_entries_real_and_immutable(self):
        with pytest.raises(ValueError, match="phi22 and phi33 must be real"):
            Jet7(I, ZERO, ZERO, ZERO, ZERO)
        with pytest.raises(ValueError, match="phi22 and phi33 must be real"):
            Jet7(phi22=ONE, phi32=I, phi33=ONE + I, phi42=ZERO, phi43=ZERO)
        j = Jet7(ONE, I, ONE, ZERO, ZERO)
        with pytest.raises(AttributeError):
            j.phi22 = ZERO
        with pytest.raises(AttributeError):
            j.phi44 = ZERO
        assert j == Jet7(ONE, I, ONE, ZERO, ZERO) and j.phi22 == ONE


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
        level1 = surf(9, {(1, 1, 1): 1, (3, 1, 1): 1, (2, 1, 1): I, (1, 3, 1): 1, (1, 2, 1): -I})
        with pytest.raises(ValueError, match=r"^test requires .* not prenormalized "
                                             r"\(found \(1, 2, 1\)\)$"):
            check_u_linear_class(level1, "test")
        check_u_linear_class(level1, "test", prenormalized=False)

    def test_level1_checked_last(self):
        # the u-free and normal-coordinate errors come first, then phi11 = 1
        both = surf(9, {(1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): 1, (3, 0, 1): 1, (0, 3, 1): 1})
        with pytest.raises(ValueError, match=r"u-linear level \(found \(0, 3, 1\)\)"):
            check_u_linear_class(both, "test")
        scaled = surf(9, {(1, 1, 1): 4, (2, 1, 1): 1, (1, 2, 1): 1})
        with pytest.raises(ValueError, match=r"requires phi11 = 1; use validate_class"):
            check_u_linear_class(scaled, "test")


class TestCheckNormalForm:
    def test_condition_row(self):
        expected = {(1, 1, 0): "u-free", (3, 0, 2): "row 0", (0, 2, 1): "row 0",
                    (1, 1, 1): None, (1, 1, 2): "row 1", (1, 4, 1): "row 1",
                    (2, 3, 2): "flat", (3, 3, 5): "flat", (2, 2, 1): None, (4, 2, 3): None}
        assert {key: condition_row(*key) for key in expected} == expected

    def test_quadric_all_zero(self):
        assert check_normal_form(gen_quadric(8)).ok

    def test_flatness_violation(self):
        M = surf(8, {(1, 1, 1): 1, (2, 2, 2): 1})
        rep = check_normal_form(M)
        assert not rep.ok and rep.violations_flat == [(2, 2, 2)]

    def test_cd_normal(self):
        assert check_normal_form(gen_cd(1, 2, 9)).ok

    def test_zero_row_violation(self):
        M = surf(8, {(1, 1, 1): 1, (2, 1, 2): 1, (1, 2, 2): 1, (2, 2, 0): 1})
        rep = check_normal_form(M)
        assert not rep.ok
        assert (2, 1, 2) in rep.violations_zero_rows
        assert (2, 2, 0) in rep.violations_zero_rows

    def test_flags_the_stage_condition_slots(self):
        # with every level-k monomial present, the flagged slots at level k
        # are exactly the stage-k conditions and their conjugates
        for n in range(8, 21):
            for k in range(2, n - 5):
                terms = {(a, b, k): 1 for a in range(n - k + 1) for b in range(n - k - a + 1)}
                M = surf(n, {**terms, (1, 1, 1): 1})
                flagged = {(a, b) for a, b, c in check_normal_form(M).violations() if c == k}
                slots = {(a, b) for a, b, _ in _labels(n - 1 - k, n - k)[0]}
                assert flagged == slots | {(b, a) for a, b in slots}, (n, k)


class TestTransform:
    def test_identity(self):
        M = gen_cd(1, -3, 9)
        assert transform(M, FormalMap.identity(9)) is M
        with pytest.raises(ValueError, match="mismatched truncation orders"):
            transform(M, FormalMap.identity(8))

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


def transform_reference(M: GraphSurface, m: FormalMap) -> GraphSurface:
    """The image surface by reversion: push M's graph point (z, u + i phi)
    forward to (z1, u1 + i v1), invert (z1, conj z1, u1) and pull v1 back."""
    n = M.n
    z = Series3.var("z", n)
    w = Series3.var("u", n) + M.phi * I
    re_part, im_part = split_real_imag(substitute(m.g, z, w))
    z1 = z + substitute(m.f, z, w)
    return GraphSurface(invert_real_triple(z1, Series3.var("u", n) + re_part, M.phi + im_part)[2])


def image_point_reference(M: GraphSurface, m: FormalMap) -> tuple:
    """(T, v1) by series arithmetic: f and g along the graph as reduced
    series, split into Hermitian parts, z1 = z + f, u1 = u + Re g and
    v1 = phi + Im g, with T a point of series."""
    n = M.n
    z = Series3.var("z", n)
    w = Series3.var("u", n) + M.phi * I
    re_part, im_part = split_real_imag(substitute(m.g, z, w))
    z1 = z + substitute(m.f, z, w)
    return _Point((z1, hermitian_conjugate(z1), Series3.var("u", n) + re_part)), M.phi + im_part


def _image_point_cases() -> dict:
    make = Maker(seed=25)
    n = 10
    f, g = make.formal_map(n, 5).f, make.formal_map(n, 5).g
    g = HoloSeries2(n, {**g.terms, (1, 1): GaussianRational(1, 2), (0, 2): GaussianRational(-1)})
    return {
        # f01 != 0: the linear part L of the image point is not 1
        "w-linear f": (make.class_surface(n, 8, prenormalized=False),
                       FormalMap(HoloSeries2(n, {**f.terms, (0, 1): GaussianRational(2, -1)}), g)),
        "g only": (make.class_surface(n, 8), FormalMap(HoloSeries2(n), g)),
        "pure z": (make.class_surface(n, 8, prenormalized=False),
                   FormalMap(HoloSeries2(n, {key: v for key, v in f.terms.items() if key[1] == 0}
                                         | {(2, 0): GaussianRational(Fraction(1, 3))}),
                             HoloSeries2(n))),
        "H_t": (gen_mm(1, 11), gen_Ht(1, Fraction(-2), 11)),
    }


class TestImagePointAgainstSeries:
    """``_image_point`` builds T and v1 as integer forms from unreduced sums;
    the series arithmetic it replaced is the reference."""

    CASES = _image_point_cases()

    @pytest.mark.parametrize("name", list(CASES))
    def test_transform_and_map_defect(self, name):
        M, m = self.CASES[name]
        T_ref, v1_ref = image_point_reference(M, m)
        T, v1 = _image_point(M, m)
        assert v1 == v1_ref._integer_form()
        assert T.tables == T_ref.tables
        assert T.real and T_ref.real
        image = transform(M, m)
        assert image == GraphSurface(T_ref.solve(v1_ref))
        for target in (image, M):
            assert map_defect(M, m, target) == v1_ref - T_ref.compose(target.phi)
        assert map_defect(M, m, image).is_zero()
        assert name == "H_t" or not map_defect(M, m, M).is_zero()


class TestTransformAgainstReversion:
    """The degree-by-degree solve against the reversion it replaced."""

    def test_random_maps(self, make):
        for i in range(12):
            n = 7 + i % 4
            M = make.class_surface(n, nterms=6, prenormalized=i % 3 != 0)
            m = make.formal_map(n, 4)
            if i % 2:   # f01 != 0 makes the linear part L of the image point nontrivial
                m = FormalMap(HoloSeries2(n, {**m.f.terms, (0, 1): make.gaussian(3) or I}), m.g)
                assert not m.f.coeff(0, 1).is_zero()
            assert transform(M, m) == transform_reference(M, m), i

    def test_stage_maps_of_normalize(self, monkeypatch):
        # every map normalize applies to the surface of test_messy_surface_full_run
        calls = []

        def recording(M, m):
            out = transform(M, m)
            calls.append((M, m, out))
            return out

        monkeypatch.setattr(nfc.normalizer, "transform", recording)
        normalize(_messy_surface(13), 7)
        assert len(calls) >= 6
        assert any(not m.f.coeff(0, 1).is_zero() for _, m, _ in calls)
        for M, m, out in calls:
            assert out == transform_reference(M, m)

    def test_rejects_z_linear_g_term(self):
        M = gen_cd(1, -3, 9)
        m = FormalMap(HoloSeries2(9), HoloSeries2(9, {(1, 0): GaussianRational(2, 1)}))
        with pytest.raises(ValueError, match=r"g has no z-linear term; got g10 = \(2 \+ 1\*i\)"):
            transform(M, m)


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
