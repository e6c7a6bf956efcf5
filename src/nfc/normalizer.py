"""Stage-by-stage normalization of class surfaces.

The pipeline first kills the u-linear coefficients phi_{l1}, l >= 2, with a
pure-z map (one coefficient per step, induction in l).  Each later stage k
assembles the exact affine system relating the stage-k map coefficients
f_{l,k-1}, g_{l,k} to the u-level-k coefficients of the transformed surface,
solves it exactly by fraction-free elimination over the integers, applies
the genuine transform, and verifies that each targeted coefficient equals
minus the leftover of the solve: zero unless its condition was dropped.
The system is singular exactly when its distinguished 9x9 block is, so the
solve also tells whether stage k is resonant.

The affine system is exact because stage-k unknowns interact only above
level k: every f-coefficient carries u-weight k-1 and lands in a slot worth
at least one more power of u, every g-coefficient carries u-weight k, so any
product of two unknowns lives at u-level > k.  The level-k block of the
transform is therefore linear: it is the level-k slice of the linearized
tangency equation 2 Re(X rho) = 0 for X = f d/dz + g d/dw.  A unit field's
column is a z^l- or z-bar^l-shift of the u^k slices of w^(k-1) rho_z and
w^k rho_w, which the helpers of ``surface.infinitesimal_defect`` give once
per stage, so it is read off, not multiplied out.  The tests check columns
against ``infinitesimal_defect`` and against transforms with unit maps, and
the distinguished 9x9 block against the transcription in ``resonance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .scalar import GaussianRational, ONE, ZERO
from .series import FormalMap, HoloSeries2, Series3, compose_maps
from .resonance import char_poly
from .surface import (GraphSurface, _along_graph, _rho_gradient, check_u_linear_class, jet7,
                      scale_surface, transform)

TAGGED_UNKNOWNS = (
    ("g", 1, "re"), ("g", 1, "im"),
    ("f", 0, "re"), ("f", 0, "im"),
    ("g", 0, "re"),
    ("f", 1, "re"), ("f", 1, "im"),
    ("f", 2, "re"), ("f", 2, "im"),
)

TAGGED_CONDITIONS = (
    (1, 0, "re"), (1, 0, "im"),
    (1, 1, "re"),
    (2, 1, "re"), (2, 1, "im"),
    (2, 2, "re"),
    (3, 2, "re"), (3, 2, "im"),
    (3, 3, "re"),
)


@dataclass
class StageSystem:
    """Exact affine stage-k system: matrix * unknowns = rhs targets zeros.

    Unknowns are the real components of f_{l,k-1} (0 <= l <= Lf = N-1-k) and
    g_{l,k} (0 <= l <= Lg = N-k); conditions are the coefficients
    phi_{a0k} (0 <= a <= Lg), phi_{l1k} (3 <= l <= Lf) and the distinguished
    six of the complete normalization.  Counts match, so the matrix is
    square.  Its entry (i, j) is ``numerators[i][j] / den``: integers over
    one denominator for the whole system.  Rows and columns are ordered with
    the non-distinguished ones first so that elimination satisfies the
    always-solvable conditions before the resonance-prone ones; the
    distinguished nine conditions and unknowns are the trailing ones.
    """

    k: int
    unknowns: list
    conditions: list
    numerators: list
    den: int
    rhs: list

    def tagged_block(self):
        """The trailing 9x9 block, on the distinguished conditions/unknowns, in Fractions."""
        t = len(TAGGED_UNKNOWNS)
        return [[Fraction(x, self.den) for x in row[-t:]] for row in self.numerators[-t:]]


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


def _condition_list(lf: int, lg: int) -> list:
    conds = [(0, 0, "re")]
    for a in range(2, lg + 1):
        conds.append((a, 0, "re"))
        conds.append((a, 0, "im"))
    for l in range(3, lf + 1):
        conds.append((l, 1, "re"))
        conds.append((l, 1, "im"))
    conds.extend(TAGGED_CONDITIONS)
    return conds


def _unknown_list(lf: int, lg: int) -> list:
    unknowns = [("g", 0, "im")]
    for l in range(2, lg + 1):
        unknowns.append(("g", l, "re"))
        unknowns.append(("g", l, "im"))
    for l in range(3, lf + 1):
        unknowns.append(("f", l, "re"))
        unknowns.append(("f", l, "im"))
    unknowns.extend(TAGGED_UNKNOWNS)
    return unknowns


def _stage_bases(M: GraphSurface, k: int) -> tuple:
    """(B_f, B_g), the u^k slices of w^(k-1) rho_z and w^k rho_w, as series in (z, zb).

    Both come from the helpers of ``infinitesimal_defect``, along w = u + i psi.
    Only the u-linear part psi of phi reaches u^k (phi has no u-free term), and
    only its terms of degree <= N - k + 1 in (z, zb), as the slices stop at N - k.
    """
    n = M.n
    psi = Series3(n, {key: v for key, v in M.phi.terms.items()
                      if key[2] == 1 and key[0] + key[1] <= n - k + 1})
    units = HoloSeries2(n, {(0, k - 1): ONE}), HoloSeries2(n, {(0, k): ONE})
    slices = (h * rho for h, rho in zip(_along_graph(psi, *units), _rho_gradient(psi)))
    return tuple(Series3(n - k, {(a, b, 0): v for (a, b, c), v in s.terms.items() if c == k})
                 for s in slices)


def stage_system(M_current: GraphSurface, k: int) -> StageSystem:
    """Assemble the exact affine stage-k system for the current surface.

    The level-k change made by f = c z^l w^(k-1) or g = c z^l w^k is the u^k
    slice of X rho + conj(X rho), X = f d/dz or g d/dw, read through the
    helpers of ``infinitesimal_defect``: the z^l-shift of c B_f or c B_g
    (``_stage_bases``) and its conjugate, a z-bar^l-shift.  So every column is
    read off two base series per stage, visiting only the base terms that
    land on a condition slot.  Every factor of a base has degree >= 0, so
    truncating it at degree N - k and then shifting keeps exactly the terms
    that truncating inside each product would.
    """
    n = M_current.n
    if not 2 <= k <= n - 6:
        raise ValueError(f"stage index k={k} out of range [2, {n - 6}]")
    # only the u-linear structure matters for the level-k system; residue at
    # u-levels above k is what later stages exist to remove
    check_u_linear_class(M_current, "stage system")
    lf, lg = n - 1 - k, n - k
    conditions = _condition_list(lf, lg)
    unknowns = _unknown_list(lf, lg)
    rows_at, cols_at = {}, {}
    for i, (a, b, part) in enumerate(conditions):
        rows_at.setdefault((a, b), [None, None])[part == "im"] = i
    for j, (kind, l, part) in enumerate(unknowns):
        cols_at.setdefault((kind, l), [None, None])[part == "im"] = j
    # integer entries over one denominator, the lcm of both bases'
    bases = _stage_bases(M_current, k)
    den = lcm(*(v.den for base in bases for v in base.terms.values()))
    ints = [[0] * len(unknowns) for _ in conditions]
    # a term lands on a slot (a, b) only if q <= b, or p <= b for its mirror
    reach = max(b for _, b, _ in conditions)
    for kind, top, base in zip("fg", (lf, lg), bases):
        for (p, q, _), v in base.terms.items():
            if min(p, q) > reach:
                continue
            x, y = v.nre * (den // v.den), v.nim * (den // v.den)
            for l in range(top + 1):
                re_col, im_col = cols_at[kind, l]
                # c = 1 and c = i at (p + l, q); their conjugates at (q, p + l)
                for slot, s in ((rows_at.get((p + l, q)), 1), (rows_at.get((q, p + l)), -1)):
                    if slot is None:
                        continue
                    re_row, im_row = slot
                    if re_row is not None:
                        ints[re_row][re_col] += x
                        ints[re_row][im_col] -= y
                    if im_row is not None:
                        ints[im_row][re_col] += s * y
                        ints[im_row][im_col] += s * x
    rhs = []
    for a, b, cpart in conditions:
        v = M_current.phi.coeff(a, b, k)
        rhs.append(-(v.re if cpart == "re" else v.im))
    return StageSystem(k=k, unknowns=unknowns, conditions=conditions,
                       numerators=ints, den=den, rhs=rhs)


@dataclass
class StageSolution:
    """Exact solve outcome for one stage."""

    k: int
    status: str                  # "solved" | "resonant"
    values: dict                 # unknown label -> Fraction
    free: list = field(default_factory=list)       # gauge-fixed labels (set to 0)
    dropped: list = field(default_factory=list)    # unreachable conditions
    residuals: list = field(default_factory=list)  # (condition, leftover target value)


def solve_stage(sys: StageSystem, policy: str = "gauge_zero") -> StageSolution:
    """Exact solve by fraction-free elimination over the integers.

    Row i, ``numerators[i] / den`` against the target num_i / d_i, is
    multiplied by den * d_i into the integer row [x * d_i ..., num_i * den].
    The rows are reduced in condition order by ``_eliminate``, and the
    values come from back-substitution on the integer pivot rows over one
    common denominator D, so row i leaves t / (den * d_i * D), t its integer
    leftover.  Nonsingular systems give the unique solution.
    Singular ones: under "strict" raise, naming the stage as resonant; under
    "gauge_zero" the free variables (the non-pivot columns) are set to zero,
    inconsistent target equations are dropped and their leftover values
    recorded.
    """
    if policy not in ("strict", "gauge_zero"):
        raise ValueError(f"unknown policy {policy!r}")
    ncols = len(sys.unknowns)
    rows = [[x * b.denominator for x in row] + [b.numerator * sys.den]
            for row, b in zip(sys.numerators, sys.rhs)]
    pivots, dependent = _eliminate(rows, ncols)
    dropped = [sys.conditions[i] for i, r in dependent if r[ncols]]
    pivot_cols = {col for col, _ in pivots}
    free = [u for j, u in enumerate(sys.unknowns) if j not in pivot_cols]
    singular = bool(free) or bool(dropped)
    if singular and policy == "strict":
        raise ValueError(f"stage k={sys.k} is resonant: singular normalization system")
    # free variables pinned to zero; a pivot row vanishes at the pivot
    # columns found before it, so back-substitution runs from the last one,
    # on integers: scaled holds (j, x) with value j = x / D, and D grows by lcm
    D, scaled = 1, []
    for col, r in reversed(pivots):
        t = r[ncols] * D - sum(r[j] * x for j, x in scaled)
        if not t:
            continue
        d = D * r[col]
        g = gcd(t, d) if d > 0 else -gcd(t, d)     # keeps d // g positive
        t, d = t // g, d // g
        grow = d // gcd(D, d)
        if grow > 1:
            D *= grow
            scaled = [(j, x * grow) for j, x in scaled]
        scaled.append((col, t * (D // d)))
    values = [Fraction(0)] * ncols
    for j, x in scaled:
        values[j] = Fraction(x, D)
    # re-check every equation on the integer rows, against the solution
    # over D, and collect leftover targets
    residuals = []
    for cond, r, b in zip(sys.conditions, rows, sys.rhs):
        t = r[ncols] * D - sum(r[j] * x for j, x in scaled)
        if t:
            residuals.append((cond, Fraction(t, sys.den * b.denominator * D)))
    return StageSolution(
        k=sys.k,
        status="resonant" if singular else "solved",
        values={sys.unknowns[j]: values[j] for j in range(ncols)},
        free=free,
        dropped=dropped,
        residuals=residuals,
    )


def stage_map(sol: StageSolution, n: int) -> FormalMap:
    """Assemble the FormalMap carrying the solved stage coefficients."""
    k = sol.k
    f_terms, g_terms = [], []
    for (kind, l, part), val in sol.values.items():
        coeff = GaussianRational(val) if part == "re" else GaussianRational(0, val)
        if kind == "f":
            f_terms.append(((l, k - 1), coeff))
        else:
            g_terms.append(((l, k), coeff))
    return FormalMap(HoloSeries2(n, f_terms), HoloSeries2(n, g_terms))


def prenormalize_level1(M: GraphSurface) -> tuple[GraphSurface, FormalMap]:
    """Choose f_{l0} inductively in l to reach phi_{l1} = 0 for l >= 2.

    Accepts any surface with no c = 0 term, no phi_{a01} or phi_{0b1} term
    and phi11 = 1; the u-levels c >= 2 may carry anything.  The map has g = 0
    and f depending on z only, so it acts on each u-level separately and
    leaves the levels above 1 unnormalized.  The surface is transformed one
    coefficient at a time so the lower-order corrections are always already
    incorporated when coefficient l is read.
    """
    check_u_linear_class(M, "prenormalization", prenormalized=False)
    n = M.n
    current = M
    total = FormalMap.identity(n)
    for l in range(2, n - 1):
        c = current.phi.coeff(l, 1, 1)
        if c.is_zero():
            continue
        m = FormalMap(HoloSeries2(n, {(l, 0): c}), HoloSeries2(n))
        current = transform(current, m)
        if not current.phi.coeff(l, 1, 1).is_zero():
            raise AssertionError(f"prenormalization failed to clear phi_{{{l}1}}")
        total = compose_maps(m, total)
    return current, total


@dataclass(frozen=True)
class GroupElement:
    """(alpha, s) in S^1 x R*: rotation of z with |alpha| = 1, real scaling of w."""

    alpha: GaussianRational
    s: Fraction

    def __post_init__(self):
        if self.alpha * self.alpha.conjugate() != ONE:
            raise ValueError("rotation must satisfy |alpha|^2 = 1 exactly")
        if self.s == 0:
            raise ValueError("scaling must be a nonzero real rational")


def apply_group_action(M_normal: GraphSurface, g: GroupElement) -> GraphSurface:
    """Transform by (z, w) -> (alpha z, s w); preserves the normal form."""
    if M_normal.phi.coeff(1, 1, 1) != ONE:
        raise ValueError("group action applies to surfaces with phi11 = 1")
    return scale_surface(M_normal, g.alpha, g.s)


@dataclass
class StageRecord:
    k: int
    status: str
    residuals: list      # ((a, b, c), GaussianRational) coefficients left nonzero
    gauge: list          # free unknown labels pinned to zero


@dataclass
class NormalizationResult:
    normal_form: GraphSurface
    map: FormalMap
    stages: list
    resonances_predicted: list
    resonances_observed: list
    char_poly_report: object = None


def normalize(M: GraphSurface, K: int, policy: str = "gauge_zero") -> NormalizationResult:
    """Prenormalize, then run stages k = 2..K; exact throughout.

    Accepts any surface with no c = 0 term, no phi_{a01} or phi_{0b1} term
    and phi11 = 1.  The u-levels c >= 2 may carry anything, normal-coordinate
    residue included: stage k clears every targeted coefficient at level k
    itself.  So the output of ``normalize`` is a valid input again.

    The output satisfies every targeted condition at levels <= K except the
    distinguished ones dropped at resonant stages under gauge_zero.  Residue
    at levels above K is left in place.  The cumulative map composes all
    stage maps.  The level-k block of the transform is affine in the stage
    unknowns, so after stage k every condition slot phi_{abk} equals
    -(left_re + i left_im), the leftovers ``solve_stage`` reports for it:
    zero unless its condition was dropped.  A stage that breaks this
    identity raises ``AssertionError``.

    ``resonances_observed`` lists the stages whose whole system is singular.
    That is the same as a singular distinguished 9x9 block.  On
    prenormalized level 1, g0 im is the only unknown on row (0, 0) and the
    only non-distinguished unknown on a distinguished row, and the other
    non-distinguished unknowns form a triangular system with invertible 2x2
    diagonal blocks (g_a on (a, 0), f_l on (l, 1)).  So det(system) is
    det(9x9 block) times a nonzero factor.
    """
    n = M.n
    if K < 1:
        raise ValueError(f"K={K} must be at least 1")
    if K > n - 6:
        raise ValueError(f"K={K} too large for truncation order N={n} (need K <= N-6)")
    check_u_linear_class(M, "normalize", prenormalized=False)
    current, total = prenormalize_level1(M)
    cp_report = char_poly(jet7(current))
    predicted = list(cp_report.resonances)
    observed = []
    stages = []
    for k in range(2, K + 1):
        sys = stage_system(current, k)
        sol = solve_stage(sys, policy)
        if sol.status == "resonant":
            observed.append(k)
        m_k = stage_map(sol, n)
        current = transform(current, m_k)
        # the level-k block is affine in the unknowns, so every condition
        # slot now holds minus the solve's leftover: zero unless dropped
        expected = {}
        for (a, b, part), x in sol.residuals:
            x = GaussianRational(x) if part == "re" else GaussianRational(0, x)
            expected[a, b] = expected.get((a, b), ZERO) - x
        for a, b, _ in sys.conditions:
            v = current.phi.coeff(a, b, k)
            if v != expected.get((a, b), ZERO):
                raise AssertionError(
                    f"stage k={k}: coefficient {(a, b, k)} = {v} is not the solve's leftover")
        residuals = [((a, b, k), v) for (a, b), v in expected.items()]
        stages.append(StageRecord(k=k, status=sol.status, residuals=residuals, gauge=sol.free))
        total = compose_maps(m_k, total)
    return NormalizationResult(
        normal_form=current,
        map=total,
        stages=stages,
        resonances_predicted=predicted,
        resonances_observed=observed,
        char_poly_report=cp_report,
    )
