"""Stage-system matrices, characteristic polynomial and resonances.

``matrix_A`` is the 9x9 coefficient matrix of the distinguished stage-k
conditions against the distinguished map unknowns; ``matrix_B`` is the 4x4
reduction whose determinant carries all jet dependence: det A = 1/4 (k-1)
det B.  Both are plain tuples of rows of KPoly entries.  The monic multiple
of det B is the characteristic polynomial, and its integer roots k >= 2 are
the resonances.  ``det`` takes a square list of rows over any exact ring, so
the same routine reads these matrices, a numeric stage block of Fraction
entries, or one evaluated at a stage index.

The entries follow the source derivation but repair a handful of typos in
its displayed arrays; the transcription used here is the one that satisfies
the determinant identity, matches the worked closed-form characteristic
polynomials of the example families, and agrees entry-by-entry with probing
the actual transform (see the stage-system cross-validation tests).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .scalar import GaussianRational, KPoly, ONE, _as_kpoly, integer_roots_ge2, make_monic
from .surface import Jet7


def _jet_entries(j: Jet7) -> tuple:
    """p = Re phi22, q = Re phi33, then Re and Im of phi32, phi42 and phi43."""
    return tuple(GaussianRational(x) for x in (j.phi22.re, j.phi33.re, j.phi32.re, j.phi32.im,
                                               j.phi42.re, j.phi42.im, j.phi43.re, j.phi43.im))


def _kpoly_rows(rows) -> tuple:
    return tuple(tuple(_as_kpoly(e) for e in row) for row in rows)


def matrix_A(j: Jet7) -> tuple:
    """The 9x9 stage matrix, as 9 rows of KPoly entries.

    Rows: Re d10, Im d10, d11, Re d21, Im d21, d22, Re d32, Im d32, d33.
    Columns: Re g1, Im g1, Re f0, Im f0, Re g0, Re f1, Im f1, Re f2, Im f2.
    """
    k = KPoly.k()
    half = Fraction(1, 2)
    p, q, Rr, Ir, Rs, Is, Rt, It = _jet_entries(j)
    km1 = k - 1
    # recurring polynomial pieces
    kk3_4 = k * (k - 3) * Fraction(1, 4)           # k(k-3)/4
    c2 = km1 * (k - 2) * half                      # (k-1)(k-2)/2
    g0_33 = km1 * q + k * km1 * (KPoly.constant(5) - k) * Fraction(1, 6)
    return _kpoly_rows([
        [0, half, -1, 0, 0, 0, 0, 0, 0],
        [-half, 0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, km1, -2, 0, 0, 0],
        [km1 * half, 0, -2 * p, km1, 0, 0, 0, -1, 0],
        [0, km1 * half, km1, 2 * p, 0, 0, 0, 0, -1],
        [0, 0, -6 * Rr, 6 * Ir, km1 * p, -4 * p, 2 * km1, 0, 0],
        [km1 * (p * half), -kk3_4, c2 - (3 * q + 4 * Rs), 3 * km1 * p + 4 * Is,
         km1 * Rr, -5 * Rr, Ir, -2 * p, km1],
        [kk3_4, km1 * (p * half), 3 * km1 * p - 4 * Is, -c2 + (3 * q - 4 * Rs),
         km1 * Ir, -5 * Ir, -Rr, -km1, -2 * p],
        [km1 * Rr, km1 * Ir, 8 * km1 * Ir - 8 * Rt, 8 * km1 * Rr + 8 * It,
         g0_33, km1 * (k - 2) - 6 * q, 6 * km1 * p, -4 * Rr, -4 * Ir],
    ])


def matrix_B(j: Jet7) -> tuple:
    """The 4x4 reduction of matrix_A, as 4 rows of KPoly entries: det A = 1/4 (k-1) det B."""
    k = KPoly.k()
    p, q, Rr, Ir, Rs, Is, Rt, It = _jet_entries(j)
    km1 = k - 1
    core = 2 * k * k - 4 * k + KPoly.constant(3) + 4 * p * p - 3 * q
    return _kpoly_rows([
        [-6 * Rr, 6 * Ir, -2 * p, 2 * km1],
        [core - 4 * Rs, 2 * km1 * p + 4 * Is, -3 * Rr, Ir],
        [2 * km1 * p - 4 * Is, -(core + 4 * Rs), -3 * Ir, -Rr],
        [2 * km1 * Ir + 8 * (p * Rr - Rt), 2 * km1 * Rr + 8 * (It - p * Ir),
         (k * k - 2 * k + KPoly.constant(3)) * Fraction(2, 3) - 4 * q, 6 * km1 * p],
    ])


def det(rows):
    """Exact determinant of a square list of rows over any exact ring.

    The entries may be KPoly, GaussianRational, Fraction or int: the
    expansion uses only +, -, * and truth (nonzero).  Minors are memoized by
    their column set, and the last row's minors are its entries.  The empty
    matrix gives 1.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det needs a square matrix")
    if n == 0:
        return 1
    zero = rows[0][0] - rows[0][0]
    cache: dict = {}

    def minor(row: int, colmask: int):
        if row == n - 1:
            return rows[row][colmask.bit_length() - 1]
        got = cache.get(colmask)
        if got is not None:
            return got
        acc = zero
        pos = 0
        for jcol in range(n):
            bit = 1 << jcol
            if not (colmask & bit):
                continue
            e = rows[row][jcol]
            if e:
                term = e * minor(row + 1, colmask & ~bit)
                acc = acc + term if pos % 2 == 0 else acc - term
            pos += 1
        cache[colmask] = acc
        return acc

    return minor(0, (1 << n) - 1)


#: Monic characteristic polynomial with its scaling, integer roots and jet.
ResonanceReport = namedtuple("ResonanceReport", "char_poly monic_constant resonances jet")


def char_poly(j: Jet7) -> ResonanceReport:
    """P = c det B with c chosen to make P monic; resonances = integer roots >= 2."""
    dB = det(matrix_B(j))
    if not dB:
        raise ValueError("degenerate jet: characteristic polynomial vanishes identically")
    monic, lc = make_monic(dB)
    if monic.degree != 7:
        raise ValueError(f"characteristic polynomial has degree {monic.degree}, expected 7")
    return ResonanceReport(
        char_poly=monic,
        monic_constant=ONE / lc,
        resonances=integer_roots_ge2(monic),
        jet=j,
    )
