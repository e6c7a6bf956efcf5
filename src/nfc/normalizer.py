"""Stage-by-stage normalization of class surfaces.

The pipeline first kills the u-linear coefficients phi_{l1}, l >= 2, with a
pure-z map (one coefficient per step, induction in l).  Each later stage k
assembles the exact affine system relating the stage-k map coefficients
f_{l,k-1}, g_{l,k} to the u-level-k coefficients of the transformed surface
as sparse integer rows, solves it exactly in integers, applies the genuine
transform (which returns an identity stage map's surface unchanged), and
verifies that each targeted coefficient equals minus the leftover of the
solve: zero unless its condition was dropped.
The system is singular exactly when its distinguished 9x9 block is, so the
solve also tells whether stage k is resonant.

The affine system is exact because stage-k unknowns interact only above
level k: every f-coefficient carries u-weight k-1 and lands in a slot worth
at least one more power of u, every g-coefficient carries u-weight k, so any
product of two unknowns lives at u-level > k.  The level-k block of the
transform is therefore linear: it is the level-k slice of the linearized
tangency equation 2 Re(X rho) = 0 for X = f d/dz + g d/dw.  A unit field's
column is a z^l- or z-bar^l-shift of the u^k slices of w^(k-1) rho_z and
w^k rho_w, so it is read off, not multiplied out.  Only the u-linear factor
P of phi = u P + O(u^2) reaches those slices, and they have the closed forms
-(1 + iP)^(k-1) P_z and -(1 + iP)^k (P + i)/2, built once per stage from one
power table of 1 + iP.  The tests check these bases against the series
arithmetic of ``surface.infinitesimal_defect``, the columns against
``infinitesimal_defect`` and against transforms with unit maps, and the
distinguished 9x9 block against the transcription in ``resonance``.

The stage maps are composed once, after the last stage: outermost first,
so that each step evaluates the accumulated map at a sparse stage map, and
then with the prenormalization map.  Identity stage maps are skipped.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from math import gcd, lcm

from .scalar import GaussianRational, ZERO
from .series import FormalMap, HoloSeries2, _Point, _product, compose_maps
from .resonance import char_poly
from .surface import (FLAT_ROWS, GraphSurface, check_u_linear_class, is_prenormalized_level1,
                      jet7, transform)

TAGGED_UNKNOWNS = (
    ("g", 1, "re"), ("g", 1, "im"),
    ("f", 0, "re"), ("f", 0, "im"),
    ("g", 0, "re"),
    ("f", 1, "re"), ("f", 1, "im"),
    ("f", 2, "re"), ("f", 2, "im"),
)

# the three low slots and the flat rows; a diagonal coefficient is real
TAGGED_CONDITIONS = tuple((a, b, part) for a, b in ((1, 0), (1, 1), (2, 1)) + FLAT_ROWS
                          for part in (("re",) if a == b else ("re", "im")))


class StageSystem(namedtuple("StageSystem", "k unknowns conditions rows den rhs")):
    """Exact affine stage-k system: matrix * unknowns = rhs targets zeros.

    Unknowns are the real components of f_{l,k-1} (0 <= l <= Lf = N-1-k) and
    g_{l,k} (0 <= l <= Lg = N-k); conditions are the real components of the
    level-k coefficients phi_{abk}, a >= b, that ``surface.condition_row``
    constrains (a diagonal one is real).  Counts match, so the matrix is
    square.  Its entry (i, j) is ``rows[i][j] / den``, and ``rows[i]`` maps
    only the nonzero integers.  The non-distinguished condition i pairs with
    unknown i: (0, 0) re with g0 im, (a, 0) with g_a, (l, 1) with f_l; the
    distinguished nine conditions and unknowns are the trailing ones.
    ``solve_stage`` takes the rows in this order and pivots on the first
    column left, so it meets the always-solvable conditions before the
    resonance-prone ones, and on a resonant stage the order decides which
    unknowns are free and which conditions are dropped.
    """

    __slots__ = ()

    def tagged_block(self):
        """The trailing 9x9 block, on the distinguished conditions/unknowns, in Fractions."""
        n, t = len(self.unknowns), len(TAGGED_UNKNOWNS)
        return [[Fraction(row.get(j, 0), self.den) for j in range(n - t, n)]
                for row in self.rows[-t:]]


def _labels(lf: int, lg: int) -> tuple:
    """(conditions, unknowns) of a stage, in the order ``StageSystem`` describes.

    The condition slots are the level-k ones of ``surface.condition_row``.
    """
    conditions, unknowns = [(0, 0, "re")], [("g", 0, "im")]
    for kind, b, ls in (("g", 0, range(2, lg + 1)), ("f", 1, range(3, lf + 1))):
        for l in ls:
            for part in ("re", "im"):
                conditions.append((l, b, part))
                unknowns.append((kind, l, part))
    return conditions + list(TAGGED_CONDITIONS), unknowns + list(TAGGED_UNKNOWNS)


def _stage_bases(M: GraphSurface, k: int) -> tuple:
    """(B_f, B_g), the u^k slices of w^(k-1) rho_z and w^k rho_w, as integer forms.

    Write phi = u P + O(u^2).  Along the graph w = u (1 + iP) + O(u^2),
    rho_z = -u P_z + O(u^2) and rho_w = (1 - iP)/(2i) + O(u), so the slices
    are u^k times B_f = -(1 + iP)^(k-1) P_z and B_g = (1 + iP)^k (1 - iP)/(2i)
    = -(1 + iP)^k (P + i)/2, powers of 1 + iP from one table times small
    forms.  To degree N - k, they need the terms of P of degree <= N - k + 1
    (only P_z reaches the top one).  Each is an integer form (D, rows), with
    z^p zb^q keyed p (N - k + 1) + q and D the lcm of its reduced denominators.
    """
    top = M.n - k
    B = top + 1
    terms = [(a, b, v) for (a, b, c), v in M.phi.terms.items() if c == 1 and a + b <= B]
    D = lcm(*(v.den for _, _, v in terms))
    # 1 + iP and -P_z over D, -(P + i)/2 over 2D
    one_ip, neg_pz, neg_p_i = [(0, 0, D, 0)], [], [(0, 0, 0, -D)]
    for a, b, v in terms:
        q = D // v.den
        x, y = v.nre * q, v.nim * q
        if a + b <= top:
            one_ip.append((a + b, a * B + b, -y, x))
            neg_p_i.append((a + b, a * B + b, -x, -y))
        if a:
            neg_pz.append((a + b - 1, (a - 1) * B + b, -a * x, -a * y))
    powers = _Point(((D, sorted(one_ip)),), top, HoloSeries2)
    return (_product(powers.power(0, k - 1), (D, sorted(neg_pz)), top),
            _product(powers.power(0, k), (2 * D, sorted(neg_p_i)), top))


def stage_system(M_current: GraphSurface, k: int) -> StageSystem:
    """Assemble the exact affine stage-k system for the current surface.

    The level-k change made by f = c z^l w^(k-1) or g = c z^l w^k is the u^k
    slice of X rho + conj(X rho), X = f d/dz or g d/dw: the z^l-shift of
    c B_f or c B_g (``_stage_bases``) and its conjugate, a z-bar^l-shift.
    So every column is read off the integer rows of two bases per stage,
    visiting only the base terms that land on a condition slot.  No factor
    of a base has negative degree, so truncating it at degree N - k and then
    shifting keeps exactly the terms that truncating each product would.
    """
    n = M_current.n
    if not 2 <= k <= n - 6:
        raise ValueError(f"stage index k={k} out of range [2, {n - 6}]")
    # only the u-linear structure matters for the level-k system; residue at
    # u-levels above k is what later stages exist to remove
    check_u_linear_class(M_current, "stage system")
    lf, lg = n - 1 - k, n - k
    conditions, unknowns = _labels(lf, lg)
    rows_at, cols_at = {}, {}
    for i, (a, b, part) in enumerate(conditions):
        rows_at.setdefault((a, b), [None, None])[part == "im"] = i
    for j, (kind, l, part) in enumerate(unknowns):
        cols_at.setdefault((kind, l), [None, None])[part == "im"] = j
    # integer entries over one denominator, the lcm of both bases'
    bases = _stage_bases(M_current, k)
    den = lcm(*(D for D, _ in bases))
    rows = [defaultdict(int) for _ in conditions]
    # a term lands on a slot (a, b) only if q <= b, or p <= b for its mirror
    reach = max(b for _, b, _ in conditions)
    for kind, top, (D, base) in zip("fg", (lf, lg), bases):
        m = den // D
        for _, key, x, y in base:
            p, q = divmod(key, n - k + 1)
            if min(p, q) > reach:
                continue
            x, y = x * m, y * m
            for l in range(top + 1):
                re_col, im_col = cols_at[kind, l]
                # c = 1 and c = i at (p + l, q); their conjugates at (q, p + l)
                for slot, s in ((rows_at.get((p + l, q)), 1), (rows_at.get((q, p + l)), -1)):
                    if slot is None:
                        continue
                    re_row, im_row = slot
                    if re_row is not None:
                        rows[re_row][re_col] += x
                        rows[re_row][im_col] -= y
                    if im_row is not None:
                        rows[im_row][re_col] += s * y
                        rows[im_row][im_col] += s * x
    rhs = []
    for a, b, cpart in conditions:
        v = M_current.phi.coeff(a, b, k)
        rhs.append(-(v.re if cpart == "re" else v.im))
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    return StageSystem(k=k, unknowns=unknowns, conditions=conditions,
                       rows=rows, den=den, rhs=rhs)


#: Exact solve outcome for one stage: status "solved" or "resonant", values
#: maps each unknown label to a Fraction, free lists the gauge-fixed labels
#: (set to 0), dropped the unreachable conditions, and residuals the
#: (condition, leftover target value) pairs.
StageSolution = namedtuple("StageSolution", "k status values free dropped residuals")


def _check_policy(policy: str):
    if policy not in ("strict", "gauge_zero"):
        raise ValueError(f"unknown policy {policy!r}")


def solve_stage(sys: StageSystem) -> StageSolution:
    """Exact solve by fraction-free elimination on sparse primitive integer rows.

    Condition i reads sum_j (x_j / den) v_j = b with b = p / q in lowest
    terms, so its row is {j: x_j q} with target p den.  The rows are taken
    in condition order.  A row holding the column c of a pivot row P found
    before it, with P[c] = a and its own entry e, becomes a r - e P (a and e
    divided by their gcd first), and its target likewise; a row is reduced
    only against the pivots whose column it holds, in the order they were
    found.  Its first column left then becomes a pivot, and the row and
    target are divided by the gcd of all their entries, signed so that the
    pivot entry is positive (Bareiss, Math. Comp. 22, 1968, removes content
    the same way).  Every reduced row is a rational multiple of the row
    that elimination over Q gives, so pivots, free unknowns and dropped
    conditions are the same.  Back-substitution in reverse pivot order
    keeps the values as integers V over their lcm denominator L: the pivot
    row on column c gives v_c = s / (L a), a = P[c], so V and L are scaled
    by a / gcd(a, s) and V_c = s / gcd(a, s).  The leftovers are recomputed
    from the original rows; only they and the values become ``Fraction``s.
    Nonsingular systems give the unique solution.  On singular ones, status
    "resonant", the free variables (the non-pivot columns) are set to zero,
    inconsistent target equations are dropped and their leftover values
    recorded; ``normalize`` decides whether that is an error.
    """
    den = sys.den
    # pivot column -> (primitive row, target), in the order found; a pivot
    # row vanishes at the pivot columns found before it
    pivots, dropped = {}, []
    for cond, row, b in zip(sys.conditions, sys.rows, sys.rhs):
        q = b.denominator
        r = {j: x * q for j, x in row.items()}
        t = b.numerator * den
        for col, (p, pt) in pivots.items():
            e = r.get(col)
            if e:
                a = p[col]
                g = gcd(a, e)
                a, e = a // g, e // g
                if a != 1:
                    for j in r:
                        r[j] *= a
                    t *= a
                for j, x in p.items():
                    y = r.get(j, 0) - e * x
                    if y:
                        r[j] = y
                    else:
                        del r[j]
                t -= e * pt
        if r:
            col = min(r)
            g = gcd(t, *r.values())
            if r[col] < 0:
                g = -g
            if g != 1:
                r = {j: x // g for j, x in r.items()}
                t //= g
            pivots[col] = (r, t)
        elif t:
            dropped.append(cond)
    free = [u for j, u in enumerate(sys.unknowns) if j not in pivots]
    singular = bool(free) or bool(dropped)
    # values = V / L; free variables stay zero, and so does a pivot's own
    # column until its row is solved, so the sum may run over the whole row
    V, L = [0] * len(sys.unknowns), 1
    for col, (p, t) in reversed(pivots.items()):
        a, s = p[col], t * L - sum(x * V[j] for j, x in p.items())
        g = gcd(a, s)
        if a != g:
            m = a // g
            V = [v * m for v in V]
            L *= m
        V[col] = s // g
    # leftover of condition i: b - sum_j x_j V_j / (den L)
    residuals = []
    for cond, row, b in zip(sys.conditions, sys.rows, sys.rhs):
        q = b.denominator
        left = b.numerator * den * L - q * sum(x * V[j] for j, x in row.items())
        if left:
            residuals.append((cond, Fraction(left, q * den * L)))
    return StageSolution(
        k=sys.k,
        status="resonant" if singular else "solved",
        values={u: Fraction(v, L) for u, v in zip(sys.unknowns, V)},
        free=free,
        dropped=dropped,
        residuals=residuals,
    )


def stage_map(sol: StageSolution, n: int) -> FormalMap:
    """Assemble the FormalMap carrying the solved stage coefficients."""
    k = sol.k
    f_terms, g_terms = [], []
    for (kind, l, part), val in sol.values.items():
        if not val:
            continue
        coeff = GaussianRational(val) if part == "re" else GaussianRational(0, val)
        if kind == "f":
            f_terms.append(((l, k - 1), coeff))
        else:
            g_terms.append(((l, k), coeff))
    return FormalMap(HoloSeries2(n, f_terms), HoloSeries2(n, g_terms))


def prenormalize_level1(M: GraphSurface) -> tuple[GraphSurface, FormalMap]:
    """Choose f_{l0} inductively in l to reach phi_{l1} = 0 for l >= 2.

    Accepts any surface that ``check_u_linear_class`` accepts with
    ``prenormalized=False``; the u-levels c >= 2 may carry anything.  The
    map has g = 0 and f depending on z only, so it acts on each u-level
    separately and leaves the levels above 1 unnormalized.  Under such a
    map z -> h(z), level 1 transforms by phi'(h, conj h, u) = phi.  If the
    image has phi'_{a1} = 0 for 2 <= a < l, only h conj(h) and
    phi'_{l1} h^l conj(h) reach z^l zb, so phi'_{l1} = phi_{l1} - h_l.  Each
    step z -> z + c_l z^l therefore takes c_l = phi_{l1} - h_l from the
    input and the map composed so far, and the surface is transformed once,
    by the whole map.  Step l leaves f_l = phi_{l1} and later steps add only
    degrees above l, so f = sum_{l=2}^{N-2} phi_{l11} z^l through degree
    N - 2.  The compositions may leave terms of degree N - 1 and N as well;
    they do not change the image to order N.
    """
    check_u_linear_class(M, "prenormalization", prenormalized=False)
    n = M.n
    total = FormalMap.identity(n)
    for l in range(2, n - 1):
        c = M.phi.coeff(l, 1, 1) - total.f.coeff(l, 0)
        if not c.is_zero():
            total = compose_maps(FormalMap(HoloSeries2(n, {(l, 0): c}), HoloSeries2(n)), total)
    current = transform(M, total)
    if not is_prenormalized_level1(current):
        raise ValueError("prenormalization failed to clear level 1")
    return current, total


#: One stage of normalize: residuals are the ((a, b, c), GaussianRational)
#: coefficients left nonzero, gauge the free unknown labels pinned to zero.
StageRecord = namedtuple("StageRecord", "k status residuals gauge")

NormalizationResult = namedtuple(
    "NormalizationResult",
    "normal_form map stages resonances_predicted resonances_observed char_poly_report",
    defaults=(None,))


def normalize(M: GraphSurface, K: int, policy: str = "gauge_zero") -> NormalizationResult:
    """Prenormalize, then run stages k = 2..K; exact throughout.

    Accepts any surface that ``check_u_linear_class`` accepts with
    ``prenormalized=False``.  The u-levels c >= 2 may carry anything,
    normal-coordinate residue included: stage k clears every targeted
    coefficient at level k itself.  So the output of ``normalize`` is a
    valid input again.

    The targeted conditions are those that ``surface.condition_row``
    declares.  The output satisfies each of them at levels <= K except the
    distinguished ones dropped at resonant stages under "gauge_zero";
    "strict" raises at the first resonant stage instead.  Residue
    at levels above K is left in place.  The cumulative map composes the
    prenormalization and all stage maps, once, after the last stage.  The
    level-k block of the transform is affine in the stage unknowns, so
    after stage k every condition slot phi_{abk} equals -(left_re + i
    left_im), the leftovers ``solve_stage`` reports for it: zero unless its
    condition was dropped.  A stage that breaks this identity raises
    ``ValueError``.

    ``resonances_observed`` lists the stages whose whole system is singular.
    That is the same as a singular distinguished 9x9 block.  On
    prenormalized level 1, g0 im is the only unknown on row (0, 0) and the
    only non-distinguished unknown on a distinguished row, and the other
    non-distinguished unknowns form a triangular system with invertible 2x2
    diagonal blocks (g_a on (a, 0), f_l on (l, 1)).  So det(system) is
    det(9x9 block) times a nonzero factor.
    """
    _check_policy(policy)
    n = M.n
    if K < 1:
        raise ValueError(f"K={K} must be at least 1")
    if K > n - 6:
        raise ValueError(f"K={K} too large for truncation order N={n} (need K <= N-6)")
    check_u_linear_class(M, "normalize", prenormalized=False)
    current, pre = prenormalize_level1(M)
    cp_report = char_poly(jet7(current))
    predicted = list(cp_report.resonances)
    observed = []
    stages = []
    maps = []           # the non-identity stage maps, innermost first
    for k in range(2, K + 1):
        sys = stage_system(current, k)
        sol = solve_stage(sys)
        if sol.status == "resonant":
            if policy == "strict":
                raise ValueError(f"stage k={k} is resonant: singular normalization system")
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
                raise ValueError(
                    f"stage k={k}: coefficient {(a, b, k)} = {v} is not the solve's leftover")
        residuals = [((a, b, k), v) for (a, b), v in expected.items()]
        stages.append(StageRecord(k=k, status=sol.status, residuals=residuals, gauge=sol.free))
        if not m_k.is_identity():
            maps.append(m_k)
    # m_K o ... o m_2, outermost first, so that each step evaluates the
    # accumulated map at a sparse stage map; then after the prenormalization
    total = pre
    if maps:
        outer = maps[-1]
        for m_k in reversed(maps[:-1]):
            outer = compose_maps(outer, m_k)
        total = outer if pre.is_identity() else compose_maps(outer, pre)
    return NormalizationResult(
        normal_form=current,
        map=total,
        stages=stages,
        resonances_predicted=predicted,
        resonances_observed=observed,
        char_poly_report=cp_report,
    )
