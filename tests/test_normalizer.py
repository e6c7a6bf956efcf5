"""Prenormalization, stage systems, solving, the full normalization loop."""

import hashlib
from fractions import Fraction
from math import lcm

import pytest

from nfc.scalar import GaussianRational, I, ONE, ZERO
from nfc.series import FormalMap, HoloSeries2, Series3
from nfc.surface import (GraphSurface, Jet7, check_normal_form, infinitesimal_defect, jet7,
                         map_defect, scale_surface, transform)
from nfc.resonance import KMatrix, char_poly, det, matrix_A
import nfc.normalizer
import nfc.series
from nfc.normalizer import (
    GroupElement,
    StageSolution,
    StageSystem,
    TAGGED_CONDITIONS,
    TAGGED_UNKNOWNS,
    _condition_list,
    _eliminate,
    _unknown_list,
    apply_group_action,
    normalize,
    prenormalize_level1,
    solve_stage,
    stage_map,
    stage_system,
)
from nfc.families import gen_cd, gen_mm, gen_mmt, gen_quadric

from conftest import Maker, _with_jet


def surf(n, terms):
    return GraphSurface(Series3(n, terms))


def entries(sys: StageSystem) -> list:
    """The rational view of a stage system's rows: ``numerators[i][j] / den``."""
    return [[Fraction(x, sys.den) for x in row] for row in sys.numerators]


def genuine_probe_column(M: GraphSurface, k: int, kind: str, l: int, part: str) -> list:
    """Reference: a stage-system column recomputed by transforming with the unit map."""
    n = M.n
    c = ONE if part == "re" else I
    if kind == "f":
        m = FormalMap(HoloSeries2(n, {(l, k - 1): c}), HoloSeries2(n))
    else:
        m = FormalMap(HoloSeries2(n), HoloSeries2(n, {(l, k): c}))
    M2 = transform(M, m)
    lf, lg = n - 1 - k, n - k
    out = []
    for a, b, cpart in _condition_list(lf, lg):
        v = M2.phi.coeff(a, b, k) - M.phi.coeff(a, b, k)
        out.append(v.re if cpart == "re" else v.im)
    return out


class TestPrenormalize:
    def test_quadric_fixed(self):
        q = gen_quadric(8)
        out, m = prenormalize_level1(q)
        assert out == q and m.is_identity()

    def test_single_step(self):
        M = surf(8, {(1, 1, 1): 1, (2, 1, 1): 1, (1, 2, 1): 1})
        out, m = prenormalize_level1(M)
        assert out.phi.coeff(2, 1, 1) == ZERO
        assert out.phi.coeff(1, 1, 1) == ONE
        assert m.f.coeff(2, 0) == ONE          # f20 = phi21
        assert m.g.is_zero()
        assert map_defect(M, m, out).is_zero()

    def test_already_prenormalized_identity(self):
        M = gen_cd(1, 1, 9)
        out, m = prenormalize_level1(M)
        assert out == M and m.is_identity()

    def test_kills_all_levels(self, make):
        n = 9
        M = make.class_surface(n, nterms=6, prenormalized=False)
        out, m = prenormalize_level1(M)
        for (a, b, c) in out.phi.terms:
            assert not (c == 1 and 1 in (a, b) and (a, b) != (1, 1))
        assert map_defect(M, m, out).is_zero()


class TestStageSystem:
    def test_range_checks(self):
        q = gen_quadric(10)
        with pytest.raises(ValueError, match="out of range"):
            stage_system(q, 1)
        with pytest.raises(ValueError, match="out of range"):
            stage_system(q, 5)

    def test_square_and_counts(self):
        q = gen_quadric(12)
        for k in (2, 4, 6):
            sys = stage_system(q, k)
            lf, lg = 12 - 1 - k, 12 - k
            assert len(sys.unknowns) == 2 * (lf + 1) + 2 * (lg + 1)
            assert len(sys.conditions) == len(sys.unknowns)
            assert len(sys.numerators) == len(sys.conditions)
            # tagged_block reads the distinguished block off the trailing rows
            assert sys.conditions[-9:] == list(TAGGED_CONDITIONS)
            assert sys.unknowns[-9:] == list(TAGGED_UNKNOWNS)

    def test_tagged_block_equals_matrix_A(self, make):
        # the class draws have zero 7-jets; the jet surfaces and the families
        # reach the jet-dependent entries of matrix_A, at every k <= N - 6
        surfaces = [make.class_surface(11, nterms=6) for _ in range(5)]
        with_jet = [_with_jet(make.class_surface(n, nterms=6), make.jet())
                    for n in (11, 11, 13, 13)]
        with_jet += [gen_mm(1, 12), gen_mm(2, 12), gen_mmt(2, 1, 12), gen_cd(3, -7, 12)]
        assert all(jet7(M) != Jet7.zero() for M in with_jet)
        for trial, M in enumerate(surfaces + with_jet):
            A = matrix_A(jet7(M))
            for k in range(2, M.n - 5):
                blk = stage_system(M, k).tagged_block()
                Ak = A.eval_at(k)
                for i in range(9):
                    for j in range(9):
                        assert Ak[i][j].im == 0
                        assert Fraction(Ak[i][j].re) == blk[i][j], (trial, k, i, j)

    def test_kernel_matches_genuine_transform_probe(self, make):
        M = make.class_surface(10, nterms=5)
        for k in (2, 4):
            sys = stage_system(M, k)
            for label in (("f", 0, "re"), ("f", 1, "im"), ("g", 0, "re"),
                          ("g", 1, "im"), ("g", 2, "re"), ("f", 3, "re")):
                j = sys.unknowns.index(label)
                kernel_col = [row[j] for row in entries(sys)]
                assert kernel_col == genuine_probe_column(M, k, *label)

    def test_columns_are_the_tangency_operator(self):
        # every column is the level-k slice of 2 Re(X rho) for its unit field
        # X = c z^l w^(k-1) d/dz or c z^l w^k d/dw, in condition order
        M = Maker(seed=3).class_surface(11, nterms=12)
        n, checked = M.n, 0
        for k in range(2, 6):
            sys = stage_system(M, k)
            for j, (kind, l, part) in enumerate(sys.unknowns):
                c = ONE if part == "re" else I
                unit = HoloSeries2(n, {(l, k - 1 if kind == "f" else k): c})
                X = (unit, HoloSeries2(n)) if kind == "f" else (HoloSeries2(n), unit)
                defect = infinitesimal_defect(M, *X)
                expected = [getattr(defect.coeff(a, b, k), cpart) for a, b, cpart in sys.conditions]
                assert [row[j] for row in entries(sys)] == expected, (k, kind, l, part)
                checked += 1
        assert checked == 128

    def test_example_probe_value(self):
        # one probe column entry pinned by the transformation rule:
        # d(phi_11k)/d(Re g0k) = k - 1
        q = gen_quadric(11)
        for k in (2, 3, 4):
            sys = stage_system(q, k)
            row = sys.conditions.index((1, 1, "re"))
            col = sys.unknowns.index(("g", 0, "re"))
            assert entries(sys)[row][col] == k - 1


def stage_system_reference(M, k):
    """The stage system assembled one unknown at a time, 2 to 4 products per column.

    The first variation of the graph equation at level k, written out per
    unknown with the (1 - i psi) powers multiplied out; kept as the oracle
    of ``stage_system``.  Returns (k, unknowns, conditions, rational rows, rhs),
    to compare with ``rational(stage_system(M, k))``.
    """
    n = M.n
    n2 = n - k + 1
    psi = Series3(n2, {(a, b, 0): v for (a, b, c), v in M.phi.terms.items() if c == 1})
    psi_z, psi_zb = psi.diff("z"), psi.diff("zb")
    one = Series3(n2, {(0, 0, 0): ONE})
    plus, minus = [one], [one]     # (1 + i psi)^j, (1 - i psi)^j
    for _ in range(k):
        plus.append(plus[-1] * (one + psi * I))
        minus.append(minus[-1] * (one - psi * I))
    zpow, zbpow = [one], [one]
    for _ in range(n2):
        zpow.append(zpow[-1] * Series3.var("z", n2))
        zbpow.append(zbpow[-1] * Series3.var("zb", n2))
    half = GaussianRational(Fraction(1, 2))

    def delta(kind, l, c):
        cc = c.conjugate()
        if kind == "f":
            left = psi_z * (zpow[l] * plus[k - 1]) * (-c)
            right = psi_zb * (zbpow[l] * minus[k - 1]) * (-cc)
            return left + right
        A = zpow[l] * plus[k] * c
        Ab = zbpow[l] * minus[k] * cc
        return (A - Ab) * (half / I) - psi * ((A + Ab) * half)

    lf, lg = n - 1 - k, n - k
    conditions = _condition_list(lf, lg)
    unknowns = _unknown_list(lf, lg)
    columns = []
    for kind, l, part in unknowns:
        d = delta(kind, l, ONE if part == "re" else I)
        columns.append([d.coeff(a, b, 0).re if cpart == "re" else d.coeff(a, b, 0).im
                        for a, b, cpart in conditions])
    rows = [[col[i] for col in columns] for i in range(len(conditions))]
    rhs = []
    for a, b, cpart in conditions:
        v = M.phi.coeff(a, b, k)
        rhs.append(-(v.re if cpart == "re" else v.im))
    return k, unknowns, conditions, rows, rhs


def rational(sys: StageSystem) -> tuple:
    """(k, unknowns, conditions, rational rows, rhs) of a stage system."""
    return sys.k, sys.unknowns, sys.conditions, entries(sys), sys.rhs


def _cleared(row) -> list:
    """A rational row times the lcm of its denominators."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def solve_stage_reference(sys):
    """``solve_stage`` under gauge_zero, with the back-substitution in Fraction.

    Each rational row is cleared by the lcm of its own denominators, not
    scaled as ``solve_stage`` scales it, so the solve must not depend on
    the scaling.
    """
    ncols = len(sys.unknowns)
    matrix = entries(sys)
    pivots, dependent = _eliminate([_cleared(row + [b]) for row, b in zip(matrix, sys.rhs)],
                                   ncols)
    dropped = [sys.conditions[i] for i, r in dependent if r[ncols]]
    pivot_cols = {col for col, _ in pivots}
    free = [u for j, u in enumerate(sys.unknowns) if j not in pivot_cols]
    values = [Fraction(0)] * ncols
    for col, r in reversed(pivots):
        values[col] = Fraction(r[ncols] - sum(x * v for x, v in zip(r, values) if v), r[col])
    residuals = []
    for cond, row, b in zip(sys.conditions, matrix, sys.rhs):
        left = b - sum(x * v for x, v in zip(row, values))
        if left:
            residuals.append((cond, left))
    return StageSolution(
        k=sys.k, status="resonant" if free or dropped else "solved",
        values=dict(zip(sys.unknowns, values)), free=free, dropped=dropped,
        residuals=residuals,
    )


def _messy_stage_surfaces():
    """The current surface at each stage of normalize on the messy surface, N = 11."""
    seen = []
    real = nfc.normalizer.stage_system

    def record(M, k):
        seen.append(M)
        return real(M, k)

    nfc.normalizer.stage_system = record
    try:
        normalize(_messy_surface(11), 5)
    finally:
        nfc.normalizer.stage_system = real
    return seen


class TestStageAssembly:
    """``stage_system`` and ``solve_stage`` against the per-unknown references."""

    SURFACES = {
        "quadric(12)": lambda: [gen_quadric(12)],
        "mm(1, 12)": lambda: [gen_mm(1, 12)],
        "mm(2, 14)": lambda: [gen_mm(2, 14)],
        "mmt(2, 1, 12)": lambda: [gen_mmt(2, 1, 12)],
        "cd(0, -24, 12)": lambda: [gen_cd(0, -24, 12)],
        "cd(3, -7, 12)": lambda: [gen_cd(3, -7, 12)],
        "maker(11)": lambda: [Maker(seed=s).class_surface(11, nterms=8) for s in (3, 17, 2024)],
        "messy stages": _messy_stage_surfaces,
    }

    @pytest.mark.parametrize("name", list(SURFACES))
    def test_matches_reference(self, name):
        for M in self.SURFACES[name]():
            for k in range(2, M.n - 5):
                sys = stage_system(M, k)
                assert rational(sys) == stage_system_reference(M, k), (name, k)
                assert solve_stage(sys) == solve_stage_reference(sys), (name, k)

    def test_products_per_stage_do_not_grow_with_order(self, monkeypatch):
        # columns are shifts of a few base series: one stage costs the same
        # number of series products at any truncation order.  The powers of
        # w along the graph come from _Point.power, which runs _accumulate
        # without _mul_kernel, so both are counted
        calls, accumulations = [], []
        kernel, accumulate = nfc.series._mul_kernel, nfc.series._accumulate

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        def counted_accumulate(*args):
            accumulations.append(1)
            return accumulate(*args)

        monkeypatch.setattr(nfc.series, "_mul_kernel", counted)
        monkeypatch.setattr(nfc.series, "_accumulate", counted_accumulate)
        for k in (2, 4, 6):
            counts, accumulated = [], []
            for n in (12, 18):
                calls.clear()
                accumulations.clear()
                stage_system(gen_cd(0, -24, n), k)
                counts.append(len(calls))
                accumulated.append(len(accumulations))
            assert counts[0] == counts[1] and counts[0] <= k + 2, (k, counts)
            assert accumulated[0] == accumulated[1], (k, accumulated)


class TestSolveStage:
    def test_nonsingular_unique(self, make):
        M = make.class_surface(11, nterms=4)
        sys = stage_system(M, 2)
        if det(KMatrix(sys.tagged_block())).is_zero():
            pytest.skip("random surface happened to be resonant at 2")
        sol = solve_stage(sys, "strict")
        assert sol.status == "solved" and not sol.free and not sol.residuals
        out = transform(M, stage_map(sol, M.n))
        for a, b, part in sys.conditions:
            assert out.phi.coeff(a, b, 2).is_zero()

    def test_m1_singular_at_resonances(self):
        m1 = gen_mm(1, 11)
        assert det(KMatrix(stage_system(m1, 2).tagged_block())).is_zero()
        assert det(KMatrix(stage_system(m1, 3).tagged_block())).is_zero()
        assert not det(KMatrix(stage_system(m1, 4).tagged_block())).is_zero()
        with pytest.raises(ValueError, match="resonant"):
            solve_stage(stage_system(m1, 2), "strict")

    def test_gauge_zero_pins_free_vars(self):
        m1 = gen_mm(1, 11)
        sol = solve_stage(stage_system(m1, 3), "gauge_zero")
        assert sol.status == "resonant"
        assert sol.free
        for label in sol.free:
            assert sol.values[label] == 0

    def test_singular_iff_det_zero(self, make):
        # the solve's elimination against the independent minor expansion of det
        cases = [(make.class_surface(11, nterms=6), k) for _ in range(3) for k in range(2, 6)]
        cases += [(gen_mm(1, 11), 2), (gen_mm(1, 11), 3), (gen_mm(2, 11), 3),
                  (gen_mm(2, 11), 5), (gen_mmt(2, 1, 11), 3)]
        seen = set()
        for M, k in cases:
            sys = stage_system(M, k)
            singular = det(KMatrix(sys.tagged_block())).is_zero()
            assert (solve_stage(sys).status == "resonant") == singular, k
            seen.add(singular)
        assert seen == {True, False}

    @staticmethod
    def _resonant_surface():
        """M_1 at N = 11 plus terms that leave leftovers at stages 2 and 3."""
        extra = {(2, 2, 2): 1, (3, 2, 2): GaussianRational(1, 2),
                 (2, 3, 2): GaussianRational(1, -2), (3, 3, 3): Fraction(1, 3),
                 (4, 2, 3): I, (2, 4, 3): -I, (5, 2, 2): 2, (2, 5, 2): 2}
        return GraphSurface(gen_mm(1, 11).phi + Series3(11, extra))

    def test_resonant_solve_pinned(self):
        # under gauge_zero the pivot order decides which unknowns are free
        # and which conditions are dropped; this run pins both
        stages = normalize(self._resonant_surface(), 5).stages
        assert [(s.k, s.status) for s in stages] == [
            (2, "resonant"), (3, "resonant"), (4, "solved"), (5, "solved")]
        assert stages[0].gauge == [("f", 2, "re"), ("f", 2, "im")]
        assert stages[0].residuals == [((3, 2, 2), GaussianRational(1, 2))]
        assert stages[1].gauge == [("f", 1, "re")]
        assert stages[1].residuals == [((3, 3, 3), GaussianRational(Fraction(-7, 6)))]
        assert not stages[2].gauge and not stages[3].gauge

    def test_stage_checks_the_solve_leftovers(self, monkeypatch):
        # after the transform every condition slot holds minus the solve's
        # leftover, so a solve that misreports a leftover fails its stage
        real = nfc.normalizer.solve_stage

        def doubled(sys, policy="gauge_zero"):
            sol = real(sys, policy)
            sol.residuals = [(cond, 2 * x) for cond, x in sol.residuals]
            return sol

        monkeypatch.setattr(nfc.normalizer, "solve_stage", doubled)
        with pytest.raises(AssertionError, match=r"stage k=2: coefficient \(3, 2, 2\)"):
            normalize(self._resonant_surface(), 5)

    def test_residuals_match_rational_recheck(self, make):
        # the integer re-check gives the leftovers of the plain Fraction
        # one, in condition order, on solved and resonant stages alike
        extra = {(3, 2, 2): GaussianRational(1, 2), (2, 3, 2): GaussianRational(1, -2),
                 (3, 3, 3): Fraction(1, 3), (4, 2, 3): I, (2, 4, 3): -I}
        M = GraphSurface(gen_mm(1, 11).phi + Series3(11, extra))
        cases = [(M, 2), (M, 3), (gen_mm(2, 11), 3), (make.class_surface(11, nterms=6), 2)]
        seen = 0
        for M, k in cases:
            sys = stage_system(M, k)
            sol = solve_stage(sys)
            expected = []
            for cond, row, b in zip(sys.conditions, entries(sys), sys.rhs):
                left = b - sum(x * sol.values[u] for x, u in zip(row, sys.unknowns))
                if left != 0:
                    expected.append((cond, left))
            assert sol.residuals == expected
            seen += len(expected)
        assert seen >= 2


class TestNormalize:
    def test_quadric_fixed_point(self):
        res = normalize(gen_quadric(12), 6)
        assert res.map.is_identity()
        assert res.normal_form == gen_quadric(12)
        assert all(s.status == "solved" for s in res.stages)

    def test_cd_full_run(self):
        M = gen_cd(0, -24, 14)
        res = normalize(M, 8)
        assert [s.status for s in res.stages] == ["solved"] * 7
        rep = check_normal_form(res.normal_form)
        assert all(c > 8 for (_, _, c) in rep.violations())
        assert map_defect(M, res.map, res.normal_form).is_zero()

    def test_m1_resonant_run(self):
        m1 = gen_mm(1, 11)
        res = normalize(m1, 5)
        statuses = {s.k: s.status for s in res.stages}
        assert statuses == {2: "resonant", 3: "resonant", 4: "solved", 5: "solved"}
        assert res.resonances_observed == [2, 3]
        assert res.resonances_predicted == [2, 3]
        assert map_defect(m1, res.map, res.normal_form).is_zero()

    def test_singularity_iff_resonance(self, make):
        for _ in range(4):
            M = make.class_surface(11, nterms=5)
            predicted = set(char_poly(jet7(prenormalize_level1(M)[0])).resonances)
            res = normalize(M, 5)
            assert set(res.resonances_observed) == predicted & set(range(2, 6))

    def test_jet7_conserved(self):
        M = gen_cd(3, -7, 13)
        pre, _ = prenormalize_level1(M)
        res = normalize(M, 7)
        assert jet7(res.normal_form) == jet7(pre)

    def test_idempotent_on_nonresonant(self):
        M = gen_cd(0, -24, 13)
        r1 = normalize(M, 7)
        r2 = normalize(r1.normal_form, 7)
        assert r2.map.is_identity()
        assert r2.normal_form == r1.normal_form

    def test_messy_surface_full_run(self):
        # a surface whose stage maps genuinely dirty the levels above the
        # current stage (quadratic map effects land at level 2k-1), so the
        # loop must tolerate normal-coordinate residue above k
        M = surf(13, {
            (1, 1, 1): 1,
            (2, 1, 1): Fraction(1, 2), (1, 2, 1): Fraction(1, 2),
            (2, 2, 2): 3,
            (3, 2, 2): Fraction(-1, 4), (2, 3, 2): Fraction(-1, 4),
            (2, 2, 1): Fraction(1, 4),
            (3, 3, 1): Fraction(-2, 3),
            (1, 1, 4): 5,
        })
        pre, _ = prenormalize_level1(M)
        res = normalize(M, 7)
        assert all(s.status == "solved" for s in res.stages)
        rep = check_normal_form(res.normal_form)
        assert all(c > 7 for (_, _, c) in rep.violations())
        assert map_defect(M, res.map, res.normal_form).is_zero()
        assert jet7(res.normal_form) == jet7(pre)
        r2 = normalize(res.normal_form, 7)
        assert r2.map.is_identity() and r2.normal_form == res.normal_form

    def test_K_bound(self):
        with pytest.raises(ValueError, match="too large"):
            normalize(gen_quadric(10), 5)

    def test_K_below_1_rejected(self):
        for K in (0, -3):
            with pytest.raises(ValueError, match=f"K={K} must be at least 1"):
                normalize(gen_quadric(10), K)

    def test_class_required(self):
        bad = surf(10, {(1, 1, 1): 4})
        with pytest.raises(ValueError, match=r"phi11 = 1; use validate_class\(\)\.rescaled"):
            normalize(bad, 3)
        base = {(1, 1, 1): 1}
        with pytest.raises(ValueError, match="infinite-type"):
            normalize(surf(10, {**base, (1, 1, 0): 1}), 3)
        with pytest.raises(ValueError, match="normal coordinates"):
            normalize(surf(10, {**base, (2, 0, 1): 1, (0, 2, 1): 1}), 3)
        with pytest.raises(ValueError, match="normal coordinates"):
            prenormalize_level1(surf(10, {**base, (3, 0, 1): 1, (0, 3, 1): 1}))

    def test_accepts_residue_above_K(self):
        # normal-coordinate residue above level K is left in place, and the
        # output is accepted again unchanged
        extra = Series3(13, {(2, 0, 9): Fraction(1, 3), (0, 2, 9): Fraction(1, 3)})
        M = GraphSurface(gen_cd(0, -24, 13).phi + extra)
        res = normalize(M, 7)
        assert res.normal_form.phi.coeff(2, 0, 9) == GaussianRational(Fraction(1, 3))
        r2 = normalize(res.normal_form, 7)
        assert r2.map.is_identity() and r2.normal_form == res.normal_form

    def test_clears_residue_at_or_below_K(self):
        extra = Series3(12, {(3, 0, 4): Fraction(1, 3), (0, 3, 4): Fraction(1, 3)})
        M = GraphSurface(gen_cd(0, -24, 12).phi + extra)
        res = normalize(M, 6)
        rep = check_normal_form(res.normal_form)
        assert all(c > 6 for (_, _, c) in rep.violations())
        assert map_defect(M, res.map, res.normal_form).is_zero()


class TestGroupAction:
    def test_identity_element(self):
        M = gen_cd(1, 2, 9)
        g = GroupElement(ONE, Fraction(1))
        assert apply_group_action(M, g) == M

    def test_quadric_invariant(self):
        q = gen_quadric(9)
        g = GroupElement(GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2))
        assert apply_group_action(q, g) == q

    def test_action_is_group_homomorphism(self, make):
        M = make.class_surface(9, nterms=4)
        g1 = GroupElement(GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2))
        g2 = GroupElement(GaussianRational(Fraction(5, 13), Fraction(-12, 13)), Fraction(-3))
        combined = GroupElement(g1.alpha * g2.alpha, g1.s * g2.s)
        assert apply_group_action(apply_group_action(M, g2), g1) == apply_group_action(M, combined)

    def test_preserves_normal_form(self):
        res = normalize(gen_cd(0, -24, 13), 7)
        g = GroupElement(GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2))
        out = apply_group_action(res.normal_form, g)
        rep = check_normal_form(out)
        assert all(c > 7 for (_, _, c) in rep.violations())

    def test_coefficient_action_formula(self, make):
        M = make.class_surface(9, nterms=4)
        alpha = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        s = Fraction(-2)
        out = apply_group_action(M, GroupElement(alpha, s))
        for (a, b, c), v in M.phi.terms.items():
            expected = v * (alpha ** (b - a)) * GaussianRational(s ** (1 - c))
            assert out.phi.coeff(a, b, c) == expected

    def test_invalid_elements_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            GroupElement(GaussianRational(2), Fraction(1))
        with pytest.raises(ValueError, match="nonzero"):
            GroupElement(ONE, Fraction(0))


def _result_digests(res) -> dict:
    """sha256 of the exact output of ``normalize``, one digest per part."""
    def series_text(s):
        return repr([(key, v.nre, v.nim, v.den) for key, v in s.sorted_terms()])
    stages = [(st.k, st.status, st.gauge,
               [(key, v.nre, v.nim, v.den) for key, v in st.residuals]) for st in res.stages]
    texts = {
        "normal_form": series_text(res.normal_form.phi),
        "map.f": series_text(res.map.f),
        "map.g": series_text(res.map.g),
        "stages": repr(stages),
    }
    return {part: hashlib.sha256(t.encode()).hexdigest() for part, t in texts.items()}


def _messy_surface(n):
    return surf(n, {
        (1, 1, 1): 1,
        (2, 1, 1): Fraction(1, 2), (1, 2, 1): Fraction(1, 2),
        (2, 2, 2): 3,
        (3, 2, 2): Fraction(-1, 4), (2, 3, 2): Fraction(-1, 4),
        (2, 2, 1): Fraction(1, 4),
        (3, 3, 1): Fraction(-2, 3),
        (1, 1, 4): 5,
    })


class TestBitIdentity:
    """The exact output of ``normalize`` is pinned by digest.

    Any change of arithmetic path (kernels, caching, evaluation order) must
    leave every coefficient, every stage status and every gauge choice as it
    is; these digests were recorded before the integer composition engine.
    """

    PINNED = {
        "messy": (lambda: _messy_surface(11), 5, {
            "normal_form": "c99439703ebae30cfc81e3eaad4e68f4e60929ac69f586cc03ead3547a70b7bb",
            "map.f": "153a344263cc469cbe7e59c2c8f335cb31cc00b71ce0cd9aa21d184a9d578ee0",
            "map.g": "4d32bc7f90de0e968a1cba4d7bd08be9fc88e75757c9d1df0732b71674e8c4e9",
            "stages": "747c9765b78348b981798ec1b0d24b95c3b724b796fa7e82220721afdd30b1c7",
        }),
        "dense_seed1": (lambda: Maker(seed=1).class_surface(10, nterms=20, prenormalized=False), 4, {
            "normal_form": "2a7519c1058250a8c7bcdd494ace8ec022ade85ae69d10f3fb21e7b019973de1",
            "map.f": "308f407388e49015c454ec092d6bcff8ac6077904f3372d60bea8c341dd7e594",
            "map.g": "3addb1d5488160cfea7896447df675b612dbe8f99c00012922334e958f919b05",
            "stages": "c63b6db7a709d86fb72dcd5adcd0fcab90619f3c50f5ee643330045aea918028",
        }),
        "dense_seed4": (lambda: Maker(seed=4).class_surface(10, nterms=20, prenormalized=False), 4, {
            "normal_form": "c4ca33390adf7dc353c3fdae5cde6025b708398bb6e42ec63043ff8896416fc1",
            "map.f": "ec6eb314202e1161dd6b889502966cec84f016a80fe0ce9d8f432c77abcd46d5",
            "map.g": "6be9043549330f8955cfa348f697775d6ad92fbf240ef663d9f6867c76d33f0c",
            "stages": "c63b6db7a709d86fb72dcd5adcd0fcab90619f3c50f5ee643330045aea918028",
        }),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_normalize_output_digest(self, name):
        build, K, expected = self.PINNED[name]
        assert _result_digests(normalize(build(), K)) == expected


def _low_levels(M: GraphSurface, K: int) -> dict:
    """The terms of u-level at most K."""
    return {key: v for key, v in M.phi.terms.items() if key[2] <= K}


class TestMainTheorem:
    """The normal form is unique up to the action of S^1 x R* (the main theorem).

    A seeded loop draws class surfaces that are not in normal coordinates
    beyond level 1 and have no resonance through K.  Maps with no 1-jet
    terms leave the normal form unchanged at every u-level <= K, and the
    linear map (z, w) -> (alpha z, s w) changes it exactly by the group
    action of (alpha, s).
    """

    N, K = 11, 5
    ALPHA, S = GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(-2)

    @classmethod
    def _surfaces(cls, make: Maker, count: int = 3) -> list:
        """(M, normalize(M, K)) for the first count non-resonant draws."""
        out = []
        while len(out) < count:
            M = make.class_surface(cls.N, nterms=8, prenormalized=False)
            res = normalize(M, cls.K)
            if not any(k <= cls.K for k in res.resonances_predicted):
                out.append((M, res))
        return out

    @staticmethod
    def _map_without_1_jet(make: Maker, n: int) -> FormalMap:
        """f without (0,0), (1,0), (0,1); g of w-order >= 2."""
        f = make.holo2(n, 4, exclude=((0, 0), (1, 0), (0, 1)))
        g = make.holo2(n, 6)
        return FormalMap(f, HoloSeries2(n, {key: v for key, v in g.terms.items() if key[1] >= 2}))

    def test_maps_without_1_jet_keep_the_normal_form(self):
        make = Maker(seed=7)
        cases = [(M, res, self.N, self.K) for M, res in self._surfaces(make)]
        for M, res, _, K in cases:
            assert _low_levels(M, K) != _low_levels(res.normal_form, K)
        # gen_cd(0, -24) is in normal form already and has no resonance
        cd = gen_cd(0, -24, 12)
        cases.append((cd, normalize(cd, 6), 12, 6))
        checked = 0
        for M, res, n, K in cases:
            expected = _low_levels(res.normal_form, K)
            for _ in range(3):
                image = transform(M, self._map_without_1_jet(make, n))
                assert _low_levels(image, K) != _low_levels(M, K)
                assert _low_levels(normalize(image, K).normal_form, K) == expected
                checked += 1
        assert checked == 12

    def test_scaling_acts_by_the_group(self):
        g = GroupElement(self.ALPHA, self.S)
        for M, res in self._surfaces(Maker(seed=7)):
            scaled = normalize(scale_surface(M, g.alpha, g.s), self.K).normal_form
            acted = apply_group_action(res.normal_form, g)
            assert _low_levels(scaled, self.K) == _low_levels(acted, self.K)
            assert _low_levels(scaled, self.K) != _low_levels(res.normal_form, self.K)
