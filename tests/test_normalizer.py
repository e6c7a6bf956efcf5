"""Prenormalization, stage systems, solving, the full normalization loop."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from nfc.scalar import GaussianRational, I, KPoly, ONE, ZERO
from nfc.series import FormalMap, HoloSeries2, Series3, compose_maps, uni_function
from nfc.surface import (GraphSurface, _along_graph, _rho_gradient, check_normal_form,
                         infinitesimal_defect, jet7, map_defect, scale_surface, transform)
from nfc.resonance import char_poly, det
import nfc.normalizer
import nfc.series
import nfc.surface
from nfc.normalizer import (
    StageSolution,
    StageSystem,
    TAGGED_CONDITIONS,
    TAGGED_UNKNOWNS,
    _labels,
    normalize,
    prenormalize_level1,
    solve_stage,
    stage_map,
    stage_system,
)
from nfc.families import gen_cd, gen_mm, gen_mmt, gen_quadric

from conftest import Maker, tagged_block_mismatches


def surf(n, terms):
    return GraphSurface(Series3(n, terms))


def numerators(sys: StageSystem) -> list:
    """The dense integer view of a stage system's rows, over ``den``."""
    return [[row.get(j, 0) for j in range(len(sys.unknowns))] for row in sys.rows]


def entries(sys: StageSystem) -> list:
    """The rational view of a stage system's rows: ``rows[i].get(j, 0) / den``."""
    return [[Fraction(x, sys.den) for x in row] for row in numerators(sys)]


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
    for a, b, cpart in _labels(lf, lg)[0]:
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

    def test_one_transform_by_the_whole_map(self, make, monkeypatch):
        # under a pure-z map z -> h(z) only h conj(h) reaches z^l zb at level
        # 1, so the map's f_{l0} is the input's phi_{l1}, and the surface is
        # transformed once, by the whole map
        n = 12
        level1 = {(2, 1, 1): GaussianRational(Fraction(1, 2), 1), (3, 1, 1): GaussianRational(-1),
                  (5, 1, 1): GaussianRational(0, 2), (9, 1, 1): ONE}
        level1.update({(b, a, c): v.conjugate() for (a, b, c), v in level1.items()})
        M = GraphSurface(make.class_surface(n, nterms=8).phi + Series3(n, level1))
        real, calls = nfc.normalizer.transform, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(nfc.normalizer, "transform", counted)
        out, m = prenormalize_level1(M)
        assert len(calls) == 1
        assert m.g.is_zero()
        for l in range(2, n - 1):
            assert m.f.coeff(l, 0) == M.phi.coeff(l, 1, 1), l
        assert map_defect(M, m, out).is_zero()

    def test_the_map_is_the_closed_form_to_order_n_minus_2(self):
        # f = sum_l phi_{l11} z^l through degree N - 2; the compositions
        # leave terms of degree N - 1 and N on some surfaces, and those do
        # not reach the image to order N
        tails = []
        for n in (8, 10, 12, 14):
            for seed in range(1, 13):
                M = Maker(seed=seed).class_surface(n, nterms=20, prenormalized=False)
                out, m = prenormalize_level1(M)
                assert m.g.is_zero() and all(j == 0 for _, j in m.f.terms), (seed, n)
                closed = {(l, 0): v for l in range(2, n - 1)
                          if not (v := M.phi.coeff(l, 1, 1)).is_zero()}
                assert {key: v for key, v in m.f.terms.items() if sum(key) <= n - 2} == closed
                if len(m.f.terms) > len(closed):
                    tails.append((seed, n))
                assert transform(M, FormalMap(HoloSeries2(n, closed), HoloSeries2(n))) == out
        assert tails == [(2, 8), (4, 8), (7, 8), (9, 8), (11, 8), (4, 10), (11, 10), (2, 12)]


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
            assert len(sys.rows) == len(sys.conditions)
            # each row maps columns of the system to nonzero integers
            for row in sys.rows:
                assert all(type(j) is int and 0 <= j < len(sys.unknowns) for j in row)
                assert all(type(x) is int and x != 0 for x in row.values())
            # tagged_block reads the distinguished block off the trailing rows
            assert sys.conditions[-9:] == list(TAGGED_CONDITIONS)
            assert sys.unknowns[-9:] == list(TAGGED_UNKNOWNS)

    def test_tagged_block_equals_matrix_A(self, make):
        assert tagged_block_mismatches(make) == []

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
    conditions, unknowns = _labels(lf, lg)
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


def _eliminate(rows, ncols: int):
    """Bareiss reduction of integer rows, taken in order.

    Each row is reduced against the pivot rows found so far; every entry
    stays an integer minor (Sylvester's identity), so each division is
    exact.  Returns ``(pivots, dependent)``: the ``(col, row)`` of each row
    with a nonzero entry below ``ncols``, col the first one, and the
    ``(index, row)`` of each row that vanishes there.
    """
    pivots, dependent = [], []
    for i, r in enumerate(rows):
        prev = 1
        for col, p in pivots:
            a, c = p[col], r[col]
            r = [(a * x - c * y) // prev for x, y in zip(r, p)]
            prev = a
        col = next((j for j in range(ncols) if r[j]), None)
        if col is None:
            dependent.append((i, r))
        else:
            pivots.append((col, r))
    return pivots, dependent


def solve_stage_reference(sys):
    """``solve_stage`` under gauge_zero, by dense fraction-free elimination.

    The rows are reduced by Bareiss's algorithm (Math. Comp. 22, 1968) on
    dense integer rows, each rational row cleared by the lcm of its own
    denominators, and the values come from back-substitution in Fraction.
    Its pivot rows equal those of ``solve_stage`` up to scale, so both give
    the same pivots, values, free unknowns, dropped conditions and leftovers.
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

    @pytest.mark.parametrize("name", list(SURFACES))
    def test_det_factors_through_the_tagged_block(self, name):
        # the proof in normalize's docstring, checked on every system: row
        # (0, 0) holds only g0 im, which is the only non-distinguished unknown
        # on a distinguished row, and the other non-distinguished rows are
        # block lower-triangular on the non-distinguished columns, with
        # invertible 2x2 diagonal blocks (g_a on (a, 0), f_l on (l, 1)).  So
        # det(system) = det(9x9 block) * nonzero, and the solve is resonant
        # exactly when the block's det vanishes
        t = len(TAGGED_UNKNOWNS)
        for M in self.SURFACES[name]():
            for k in range(2, M.n - 5):
                sys = stage_system(M, k)
                rows, nd = numerators(sys), len(sys.unknowns) - t
                g0 = sys.unknowns.index(("g", 0, "im"))
                assert sys.conditions[0] == (0, 0, "re")
                assert [j for j, x in enumerate(rows[0]) if x] == [g0], (name, k)
                for row in rows[nd:]:
                    assert {j for j, x in enumerate(row[:nd]) if x} <= {g0}, (name, k)
                # block of a non-distinguished row or column: ("g", a) or ("f", l)
                row_block = [("g" if b == 0 else "f", a) for a, b, _ in sys.conditions[1:nd]]
                col_block = [(kind, l) for kind, l, _ in sys.unknowns[1:nd]]
                assert row_block == col_block and all(row_block.count(x) == 2 for x in row_block)
                order = {x: i for i, x in enumerate(dict.fromkeys(col_block))}
                for i, row in enumerate(rows[1:nd], start=1):
                    for j, x in enumerate(row[1:nd], start=1):
                        assert not x or order[col_block[j - 1]] <= order[row_block[i - 1]], \
                            (name, k, sys.conditions[i], sys.unknowns[j])
                for i in range(1, nd, 2):
                    (a, b), (c, d) = rows[i][i:i + 2], rows[i + 1][i:i + 2]
                    assert a * d - b * c != 0, (name, k, sys.conditions[i])
                singular = det(sys.tagged_block()) == 0
                assert (solve_stage(sys).status == "resonant") == singular, (name, k)

    def test_products_per_stage_do_not_grow_with_order(self, monkeypatch):
        # columns are shifts of two base series, so one stage costs the same
        # number of kernel calls at any truncation order: k - 1 products for
        # the powers of 1 + iP and one per base, all through series._product,
        # and no series product besides
        accumulations = []
        accumulate = nfc.series._accumulate

        def counted_accumulate(*args):
            accumulations.append(1)
            return accumulate(*args)

        monkeypatch.setattr(nfc.series, "_accumulate", counted_accumulate)
        for k in (2, 4, 6):
            counts = []
            for n in (12, 18):
                accumulations.clear()
                stage_system(gen_cd(0, -24, n), k)
                counts.append(len(accumulations))
            assert counts == [k + 1] * 2, (k, counts)


def stage_bases_reference(M: GraphSurface, k: int) -> tuple:
    """The stage bases by series arithmetic along the graph: the u^k slices of
    w^(k-1) rho_z and w^k rho_w, w = u + i psi, through the helpers of
    ``infinitesimal_defect``, with psi the u-linear part of phi to
    (z, zb)-degree N - k + 1.  Each is {(p, q): coefficient}."""
    n = M.n
    psi = Series3(n, {key: v for key, v in M.phi.terms.items()
                      if key[2] == 1 and key[0] + key[1] <= n - k + 1})
    units = HoloSeries2(n, {(0, k - 1): ONE}), HoloSeries2(n, {(0, k): ONE})
    slices = (h * rho for h, rho in zip(_along_graph(psi, *units), _rho_gradient(psi)))
    return tuple({(a, b): v for (a, b, c), v in s.terms.items() if c == k} for s in slices)


def _dense_u_linear(n: int) -> GraphSurface:
    """phi = u P with every P_ab, a, b >= 1, a + b <= N - 1, drawn at random."""
    rng, terms = random.Random(n), {}
    for a in range(1, n - 1):
        for b in range(1, min(a, n - 1 - a) + 1):
            re, im = (Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2))
            v = GaussianRational(re, 0 if a == b else im)
            terms[(a, b, 1)], terms[(b, a, 1)] = v, v.conjugate()
    return surf(n, terms)


class TestStageBases:
    """The closed-form bases B_f = -(1 + iP)^(k-1) P_z, B_g = -(1 + iP)^k (P + i)/2."""

    SURFACES = {
        "maker": lambda n: Maker(seed=n).class_surface(n, nterms=10, prenormalized=False),
        "dense": _dense_u_linear,
        "messy": lambda n: _messy_surface(n),
        "cd(3, -7)": lambda n: gen_cd(3, -7, n),
        "mm(1)": lambda n: gen_mm(1, n),
        "mmt(2, 1)": lambda n: gen_mmt(2, 1, n),
    }

    @pytest.mark.parametrize("name", list(SURFACES))
    def test_equal_the_series_reference(self, name):
        for n in range(8, 21):
            M = self.SURFACES[name](n)
            for k in range(2, n - 5):
                forms = nfc.normalizer._stage_bases(M, k)
                got = tuple({divmod(key, n - k + 1): GaussianRational._raw(x, y, D)
                             for _, key, x, y in rows} for D, rows in forms)
                assert got == stage_bases_reference(M, k), (name, n, k)
                # D is the lcm of the reduced denominators, which stage_system's den needs
                for (D, _), base in zip(forms, got):
                    assert D == lcm(*(v.den for v in base.values())), (name, n, k)

    def test_accumulations_per_stage(self, monkeypatch):
        # k - 1 products for the powers 2, ..., k of 1 + iP, then one per base,
        # at any order
        calls = []
        accumulate = nfc.series._accumulate

        def counted(*args):
            calls.append(1)
            return accumulate(*args)

        monkeypatch.setattr(nfc.series, "_accumulate", counted)
        for n in (12, 18):
            for k in (2, 4, 6):
                calls.clear()
                nfc.normalizer._stage_bases(_dense_u_linear(n), k)
                assert len(calls) == k + 1, (n, k, len(calls))


class TestSolveStage:
    def test_nonsingular_unique(self, make):
        M = make.class_surface(11, nterms=4)
        sys = stage_system(M, 2)
        if det(sys.tagged_block()) == 0:
            pytest.skip("random surface happened to be resonant at 2")
        sol = solve_stage(sys)
        assert sol.status == "solved" and not sol.free and not sol.residuals
        out = transform(M, stage_map(sol, M.n))
        for a, b, part in sys.conditions:
            assert out.phi.coeff(a, b, 2).is_zero()

    def test_m1_singular_at_resonances(self):
        m1 = gen_mm(1, 11)
        assert det(stage_system(m1, 2).tagged_block()) == 0
        assert det(stage_system(m1, 3).tagged_block()) == 0
        assert det(stage_system(m1, 4).tagged_block()) != 0
        assert solve_stage(stage_system(m1, 2)).status == "resonant"
        assert solve_stage(stage_system(m1, 4)).status == "solved"
        with pytest.raises(ValueError, match=r"^stage k=2 is resonant: singular normalization system$"):
            normalize(m1, 2, "strict")

    def test_gauge_zero_pins_free_vars(self):
        m1 = gen_mm(1, 11)
        sol = solve_stage(stage_system(m1, 3))
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
            singular = det(sys.tagged_block()) == 0
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

        def doubled(sys):
            sol = real(sys)
            return sol._replace(residuals=[(cond, 2 * x) for cond, x in sol.residuals])

        monkeypatch.setattr(nfc.normalizer, "solve_stage", doubled)
        with pytest.raises(ValueError, match=r"stage k=2: coefficient \(3, 2, 2\)"):
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

    @staticmethod
    def _random_system(rng) -> StageSystem:
        """A small integer system of a shape ``stage_system`` never builds.

        Rows are dense or half empty, start at a random column and may be
        zero; some columns are zero in every row, and some rows combine two
        earlier ones, with the combined target or one off by 1.
        """
        ncols = rng.randint(1, 6)
        zero = set(rng.sample(range(ncols), rng.randint(0, ncols // 2)))
        density = rng.choice((1, 0.5))
        rows, rhs = [], []
        for _ in range(rng.randint(1, ncols + 2)):
            if len(rows) >= 2 and rng.random() < 0.3:
                (r1, b1), (r2, b2) = rng.sample(list(zip(rows, rhs)), 2)
                a, c = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append([a * x + c * y for x, y in zip(r1, r2)])
                rhs.append(a * b1 + c * b2 + rng.choice((0, 0, 1)))
            else:
                lead = rng.randrange(ncols)
                rows.append([rng.randint(-3, 3) if j >= lead and j not in zero
                             and rng.random() < density else 0 for j in range(ncols)])
                rhs.append(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return StageSystem(k=2, unknowns=[("f", j, "re") for j in range(ncols)],
                           conditions=[(i, 0, "re") for i in range(len(rows))],
                           rows=[{j: x for j, x in enumerate(row) if x} for row in rows],
                           den=rng.choice((1, 2, 3, 6)), rhs=rhs)

    def test_random_systems_match_reference(self):
        # the sparse solve assumes nothing of the stage layout; its status is
        # resonant exactly when the reference finds the system singular
        rng = random.Random(1968)
        seen = set()
        for trial in range(300):
            sys = self._random_system(rng)
            ref = solve_stage_reference(sys)
            sol = solve_stage(sys)
            assert sol == ref, trial
            assert (sol.status == "resonant") == bool(ref.free or ref.dropped), trial
            cols = [col for col, _ in _eliminate(numerators(sys), len(sys.unknowns))[0]]
            # two coprime value denominators > 1 make the back-substitution
            # rescale its integer values and their common denominator
            dens = {v.denominator for v in ref.values.values()} - {1}
            coprime = any(gcd(a, b) == 1 for a in dens for b in dens)
            seen.add(ref.status)
            seen.update(name for name, hit in (("free", ref.free), ("dropped", ref.dropped),
                                               ("pivots out of row order", cols != sorted(cols)),
                                               ("coprime denominators", coprime))
                        if hit)
        assert seen == {"solved", "resonant", "free", "dropped", "pivots out of row order",
                        "coprime denominators"}


class TestNormalize:
    def test_seeded_class_surfaces_pass_every_internal_check(self):
        # the prenormalization and per-stage checks raise ValueError, never
        # AssertionError, and no class surface, prenormalized or not, reaches them
        raw = 0
        for seed in range(1, 9):
            for n in (8, 10, 12):
                M = Maker(seed).class_surface(n, nterms=8, prenormalized=False)
                raw += not nfc.surface.is_prenormalized_level1(M)
                res = normalize(M, n - 6)
                assert map_defect(M, res.map, res.normal_form).is_zero(), (seed, n)
        assert raw > 0

    def test_identity_stage_maps_skip_the_transform(self, monkeypatch):
        # without level-2 terms the stage-2 map is the identity, and
        # transform returns the surface without building its image point
        M = Maker(seed=3).class_surface(11, nterms=8)
        M = surf(11, {key: v for key, v in M.phi.terms.items() if key[2] != 2})
        maps, images = [], []
        real_transform, real_image = nfc.normalizer.transform, nfc.surface._image_point

        def counted_transform(M, m):
            maps.append(m.is_identity())
            return real_transform(M, m)

        def counted_image(M, m):
            images.append(m.is_identity())
            return real_image(M, m)

        monkeypatch.setattr(nfc.normalizer, "transform", counted_transform)
        monkeypatch.setattr(nfc.surface, "_image_point", counted_image)
        normalize(M, 5)
        assert maps[1] and False in maps, maps     # maps[1] is stage 2's
        assert images == [False] * maps.count(False)

    def test_map_is_the_fold_of_the_stage_maps(self, monkeypatch):
        # normalize composes its non-identity stage maps once, outermost
        # first; the reference folds every stage map into the total in turn
        maps = []
        real = nfc.normalizer.stage_map

        def recorded(sol, n):
            maps.append(real(sol, n))
            return maps[-1]

        monkeypatch.setattr(nfc.normalizer, "stage_map", recorded)
        seen = []
        for M in (_messy_surface(11), Maker(seed=5).class_surface(11, nterms=8, prenormalized=False)):
            maps.clear()
            res = normalize(M, 5)
            total = prenormalize_level1(M)[1]
            assert not total.is_identity()
            for m_k in maps:
                total = compose_maps(m_k, total)
            assert res.map == total
            seen.append([m_k.is_identity() for m_k in maps])
        # the second surface has identity stage maps between non-identity ones
        assert seen == [[False] * 4, [False, True, True, False]]

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

    def test_policy_checked_without_stages(self):
        # at K = 1 no stage runs, and the policy is checked all the same
        with pytest.raises(ValueError, match="unknown policy 'bogus'"):
            normalize(gen_quadric(10), 1, policy="bogus")

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
        assert scale_surface(M, ONE, Fraction(1)) == M

    def test_quadric_invariant(self):
        q = gen_quadric(9)
        assert scale_surface(q, GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2)) == q

    def test_action_is_group_homomorphism(self, make):
        M = make.class_surface(9, nterms=4)
        a1, s1 = GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2)
        a2, s2 = GaussianRational(Fraction(5, 13), Fraction(-12, 13)), Fraction(-3)
        assert scale_surface(scale_surface(M, a2, s2), a1, s1) == scale_surface(M, a1 * a2, s1 * s2)

    def test_preserves_normal_form(self):
        res = normalize(gen_cd(0, -24, 13), 7)
        out = scale_surface(res.normal_form, GaussianRational(Fraction(3, 5), Fraction(4, 5)), Fraction(2))
        rep = check_normal_form(out)
        assert all(c > 7 for (_, _, c) in rep.violations())

    def test_coefficient_action_formula(self, make):
        M = make.class_surface(9, nterms=4)
        alpha = GaussianRational(Fraction(3, 5), Fraction(4, 5))
        s = Fraction(-2)
        out = scale_surface(M, alpha, s)
        for (a, b, c), v in M.phi.terms.items():
            expected = v * (alpha ** (b - a)) * GaussianRational(s ** (1 - c))
            assert out.phi.coeff(a, b, c) == expected

    def test_invalid_elements_rejected(self):
        M = gen_cd(1, 2, 9)
        with pytest.raises(ValueError, match="z-scaling must be a nonzero"):
            scale_surface(M, ZERO, Fraction(1))
        with pytest.raises(ValueError, match="w-scaling must be a nonzero"):
            scale_surface(M, ONE, Fraction(0))


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


class TestOrderConsistency:
    """The normal form is unique, so the one at order N is the truncation of
    the one at order N + 1.

    Through degree N the two runs meet the same conditions, so the stage
    statuses and gauge labels agree, and so does the map's g.  The map's f
    agrees through degree N - 2 only: no condition at order N fixes its
    coefficients of degree N - 1 and N.
    """

    @staticmethod
    def _low(s, n: int) -> dict:
        return {key: v for key, v in s.terms.items() if sum(key) <= n}

    @pytest.mark.parametrize("name", ["messy"] + [f"seed{seed}" for seed in range(4)])
    def test_order_n_is_the_truncation_of_order_n_plus_1(self, name):
        N, K = 11, 5
        if name == "messy":
            M = _messy_surface(N + 1)
        else:
            M = Maker(seed=int(name[4:])).class_surface(N + 1, nterms=12, prenormalized=False)
        lo = normalize(GraphSurface(Series3(N, M.phi.terms)), K)
        hi = normalize(M, K)
        assert lo.normal_form.phi.terms == self._low(hi.normal_form.phi, N)
        assert [(s.k, s.status, s.gauge) for s in lo.stages] == \
            [(s.k, s.status, s.gauge) for s in hi.stages]
        assert self._low(lo.map.g, N) == self._low(hi.map.g, N)
        assert self._low(lo.map.f, N - 2) == self._low(hi.map.f, N - 2)


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
        for M, res in self._surfaces(Maker(seed=7)):
            scaled = normalize(scale_surface(M, self.ALPHA, self.S), self.K).normal_form
            acted = scale_surface(res.normal_form, self.ALPHA, self.S)
            assert _low_levels(scaled, self.K) == _low_levels(acted, self.K)
            assert _low_levels(scaled, self.K) != _low_levels(res.normal_form, self.K)


class TestPickleAndCopy:
    """Exact objects survive pickle, copy and deepcopy, and stay immutable.

    Their classes refuse ``__setattr__``, so each rebuilds itself through a
    constructor instead of the default slot restore.
    """

    @staticmethod
    def _objects() -> dict:
        n = 10
        res = normalize(_messy_surface(n), 4)
        return {
            "gaussian above 2^64": GaussianRational(Fraction(2**70 + 1, 3**45), -(2**66)),
            "kpoly": KPoly([Fraction(1, 3), I, 0, GaussianRational(2, -5)]),
            "series3": _messy_surface(n).phi,
            "series1": uni_function("tan", 9),
            "graph surface": _messy_surface(n),
            "formal map": res.map,
            "normalization result": res,
        }

    def test_round_trips_are_equal(self):
        objects = self._objects()
        assert not objects["formal map"].is_identity() and objects["normalization result"].stages
        for name, obj in objects.items():
            for copied in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
                assert type(copied) is type(obj), name
                assert copied == obj, name

    def test_copies_stay_immutable(self):
        objects = self._objects()
        for name in ("gaussian above 2^64", "kpoly", "series3", "series1", "graph surface",
                     "formal map"):
            copied = pickle.loads(pickle.dumps(objects[name]))
            with pytest.raises(AttributeError, match="immutable"):
                copied.n = 0
