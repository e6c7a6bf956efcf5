"""Acceptance suite: the ten contract criteria, one test each.

Every criterion prints one PASS/FAIL line.  All arithmetic is exact, so all
comparisons are equalities of rationals; no tolerances appear anywhere.

Criterion 1 asserts det B on the |z|^2-leading surfaces (zero 7-jet) as
(4/3)(k-1)(2k^2-4k+3)^2(k^2-2k+3), which is 36 at k = 2.  The form displayed
for the paper's example, (2/3)k(2k+3)(k-1)(2k^2-3k+2)^2, is 448/3 at k = 2 and
is rejected: det(matrix_B), the determinant of the probed stage block
divided by (k-1)/4, and criterion 3's closed form at C = D = 0 all give the
first polynomial, and the two share only the factor k-1 and the leading
coefficient 16/3.  The test re-derives its expected value from the probed
block and from criterion 3's closed form.
"""

import random
from fractions import Fraction

import pytest

from nfc.scalar import (
    GaussianRational,
    I,
    KPoly,
    ONE,
    ZERO,
    integer_roots_ge2,
    make_monic,
)
from nfc.series import (
    FormalMap,
    HoloSeries2,
    Series3,
    compose_maps,
    hermitian_conjugate,
    invert_map,
    invert_real_triple,
    is_hermitian,
    substitute,
)
from nfc.surface import (
    GraphSurface,
    Jet7,
    check_normal_form,
    infinitesimal_defect,
    jet7,
    map_defect,
    transform,
)
from nfc.resonance import KMatrix, char_poly, det, matrix_A, matrix_B
from nfc.normalizer import normalize, prenormalize_level1, stage_system
from nfc.families import gen_Ht, gen_X, gen_cd, gen_mm, gen_mmt, gen_quadric

from conftest import Maker, _with_jet
from test_resonance import ge_poly, ge_poly_c0, mm_poly, proportional

K = KPoly.k()
KM1 = K - 1


def report(n: int, ok: bool, desc: str):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def zero_jet_det_b_closed_form() -> KPoly:
    """(4/3) (k-1) (2k^2-4k+3)^2 (k^2-2k+3): det B when the 7-jet is zero.

    This replaces the displayed form (2/3) k (2k+3) (k-1) (2k^2-3k+2)^2, which
    is rejected: at k = 2 it gives 448/3, while det(matrix_B), the probed
    stage block and criterion 3's closed form at C = D = 0 all give 36.
    """
    q = 2 * K * K - 4 * K + KPoly.constant(3)
    return KPoly.constant(Fraction(4, 3)) * KM1 * q * q * (K * K - 2 * K + KPoly.constant(3))


def test_criterion_1_det_b_closed_form():
    maker = Maker(seed=101)
    surfaces = [gen_quadric(11)]
    for _ in range(5):
        extra = maker.hermitian_series3(11, nterms=4, min_degree=2)
        extra = Series3(11, {(a, b, c): v for (a, b, c), v in extra.terms.items()
                            if c >= 2 and a >= 1 and b >= 1})
        surfaces.append(GraphSurface(Series3(11, {(1, 1, 1): 1}) + extra))
    target = zero_jet_det_b_closed_form()
    # the closed form, checked without the transcription in resonance: the
    # stage block depends only on the u-linear part, which is |z|^2 on every
    # surface here, and det A = 1/4 (k-1) det B at the nine values k = 2..10
    # leaves no other closed form of degree <= 7 for det B
    quadric = gen_quadric(16)
    ok = proportional(target, ge_poly(0, 0))
    for k in range(2, 11):
        probed = det(KMatrix(stage_system(quadric, k).tagged_block()))
        if probed != KPoly.constant(Fraction(k - 1, 4) * target(k)):
            ok = False
    computed = None
    for M in surfaces:
        computed = det(matrix_B(jet7(M)))
        if computed != target:
            ok = False
            break
    report(1, ok, "det B on |z|^2-leading surfaces equals the derived closed form, "
                  "checked against the probed stage block and the C = D = 0 family"
           + ("" if ok else f" [computed det B = {computed}]"))


def test_criterion_2_det_identity():
    maker = Maker(seed=202)
    quarter = KPoly.constant(Fraction(1, 4))
    ok = True
    for _ in range(20):
        j = maker.jet()
        if det(matrix_A(j)) != quarter * KM1 * det(matrix_B(j)):
            ok = False
            break
    report(2, ok, "det A = 1/4 (k-1) det B for 20 seeded random jets")


def test_criterion_3_cd_family():
    ok = True
    for (C, D) in ((1, 0), (2, 5), (0, 12), (0, -24)):
        rep = char_poly(jet7(gen_cd(C, D, 11)))
        target = ge_poly(C, D)
        if not proportional(rep.char_poly, target):
            ok = False
        if rep.resonances != integer_roots_ge2(target):
            ok = False
    for D in (-13, -24, -100):
        # the two non-(k-1) factors of the C = 0 closed form must have no
        # integer roots k >= 2, and neither does the full polynomial
        f1 = KPoly.constant(Fraction(D)) - 24 * K * K + 48 * K - KPoly.constant(36)
        f2 = KPoly.constant(Fraction(D)) - 6 * (K * K - 2 * K + KPoly.constant(3))
        if integer_roots_ge2(f1 * f1 * f2):
            ok = False
        if char_poly(jet7(gen_cd(0, D, 11))).resonances:
            ok = False
    report(3, ok, "C/D characteristic polynomials match the closed forms; "
                  "no resonances for C = 0, D < -12")


def test_criterion_4_mm_family():
    ok = True
    for m in (1, 2, 3):
        M = gen_mm(m, 11)
        if M.phi.coeff(2, 2, 1) != ZERO:
            ok = False
        if M.phi.coeff(3, 3, 1) != GaussianRational(Fraction(2 * m * m + 1, 3)):
            ok = False
        rep = char_poly(jet7(M))
        if rep.resonances != [m + 1, 2 * m + 1]:
            ok = False
        if not proportional(rep.char_poly, mm_poly(m)):
            ok = False
    report(4, ok, "M_m coefficients, resonances {m+1, 2m+1}, closed-form match "
                  "for m in {1, 2, 3}")


def test_criterion_5_ht_membership():
    ok = True
    for m in (1, 2):
        n = 2 * m + 9
        M = gen_mm(m, n)
        for t in (Fraction(1), Fraction(-2)):
            if not map_defect(M, gen_Ht(m, t, n), M).is_zero():
                ok = False
        h1, h2 = gen_Ht(m, 1, n), gen_Ht(m, 2, n)
        trunc = lambda h: {key: v for key, v in h.terms.items() if sum(key) <= 2 * m}
        if trunc(h1.f) != trunc(h2.f) or trunc(h1.g) != trunc(h2.g):
            ok = False
    report(5, ok, "H_t maps M_m into itself at N = 2m+9; 2m-jets of H_1, H_2 agree")


def test_criterion_6_mmt_family():
    ok = True
    for (m, T) in ((1, Fraction(1)), (2, Fraction(1)), (3, Fraction(2))):
        M = gen_mmt(m, T, 11)
        if M.phi.coeff(2, 2, 1) != GaussianRational(-m * T):
            ok = False
        if M.phi.coeff(3, 3, 1) != GaussianRational(Fraction(2 + m * m * (9 * T * T + 1), 6)):
            ok = False
        if char_poly(jet7(M)).resonances != [m + 1]:
            ok = False
        if not infinitesimal_defect(M, *gen_X(m, T, 11)).is_zero():
            ok = False
    report(6, ok, "M_{m,T} coefficients, resonance {m+1}, tangent field defect 0 at N = 11")


def test_criterion_7_normalization_soundness():
    M = gen_cd(0, -24, 13)
    res = normalize(M, 7)
    ok = all(s.status == "solved" for s in res.stages)
    rep = check_normal_form(res.normal_form)
    ok = ok and all(c > 7 for (_, _, c) in rep.violations())
    res2 = normalize(res.normal_form, 7)
    ok = ok and res2.map.is_identity() and res2.normal_form == res.normal_form
    ok = ok and map_defect(M, res.map, res.normal_form).is_zero()
    report(7, ok, "C = 0, D = -24 normalizes through K = 7, idempotently, "
                  "with vanishing defect at order 13")


def test_criterion_8_resonance_iff_singular():
    m1 = gen_mm(1, 12)
    res_m1 = normalize(m1, 6)
    pred_m1 = set(char_poly(jet7(m1)).resonances) & set(range(2, 7))
    ok = res_m1.resonances_observed == [2, 3] == sorted(pred_m1)
    cd = gen_cd(0, -24, 13)
    res_cd = normalize(cd, 7)
    pred_cd = set(char_poly(jet7(cd)).resonances) & set(range(2, 8))
    ok = ok and res_cd.resonances_observed == [] == sorted(pred_cd)
    report(8, ok, "singular stage blocks are exactly the predicted resonances "
                  "for M_1 (K=6) and C=0, D=-24 (K=7)")


def test_criterion_9_probing_vs_transcription():
    # the class draws have zero 7-jets; the jet surfaces and the families
    # reach the jet-dependent entries of matrix_A
    maker = Maker(seed=909)
    surfaces = [maker.class_surface(11, nterms=6) for _ in range(5)]
    with_jet = [_with_jet(maker.class_surface(n, nterms=6), maker.jet())
                for n in (11, 11, 13, 13)]
    with_jet += [gen_mm(1, 12), gen_mm(2, 12), gen_mmt(2, 1, 12), gen_cd(3, -7, 12)]
    ok = all(jet7(M) != Jet7.zero() for M in with_jet)
    for M in surfaces + with_jet:
        A = matrix_A(jet7(M))
        for k in range(2, M.n - 5):
            blk = stage_system(M, k).tagged_block()
            Ak = A.eval_at(k)
            for i in range(9):
                for j in range(9):
                    if Ak[i][j].im != 0 or Fraction(Ak[i][j].re) != blk[i][j]:
                        ok = False
    report(9, ok, "stage-system 9x9 block equals the transcribed matrix at every "
                  "k <= N - 6 on 5 zero-jet class surfaces, 4 surfaces with a random "
                  "nonzero 7-jet, M_1, M_2, M_{2,1} and C = 3, D = -7")


def test_criterion_10_series_kernel_properties():
    maker = Maker(seed=1010)
    ok = True
    n = 6
    zv, uv = Series3.var("z", n), Series3.var("u", n)
    for _ in range(100):   # reversion round trips
        z1 = zv + maker.series3(n, 3, min_degree=2)
        u1 = uv + maker.hermitian_series3(n, 3, min_degree=2)
        Z, U = invert_real_triple(z1, u1)
        zc = hermitian_conjugate(z1)
        if substitute(Z, z1, zc, u1) != zv or substitute(U, z1, zc, u1) != uv:
            ok = False
    ident = FormalMap.identity(n)
    for _ in range(100):   # map composition / inversion round trips
        m = maker.formal_map(n, 3)
        inv = invert_map(m)
        if compose_maps(m, inv) != ident or invert_map(inv) != m:
            ok = False
    for _ in range(100):   # Hermitian closure under multiplication
        a = maker.hermitian_series3(8, 5)
        b = maker.hermitian_series3(8, 5)
        if not is_hermitian(a * b):
            ok = False
    M = Maker(seed=11).class_surface(7, nterms=4)
    for _ in range(100):   # transform functoriality
        m1 = maker.formal_map(7, 2)
        m2 = maker.formal_map(7, 2)
        if transform(M, compose_maps(m2, m1)) != transform(transform(M, m1), m2):
            ok = False
    report(10, ok, "reversion, map and transform round trips: 100 exact cases each")
