"""Stage-system matrices, characteristic polynomial and resonances.

``matrix_A`` is the 9x9 coefficient matrix of the distinguished stage-k
conditions against the distinguished map unknowns; ``matrix_B`` is the 4x4
reduction whose determinant carries all jet dependence: det A = 1/4 (k-1)
det B.  The monic multiple of det B is the characteristic polynomial, and
its integer roots k >= 2 are the resonances.

The entries follow the source derivation but repair a handful of typos in
its displayed arrays; the transcription used here is the one that satisfies
the determinant identity, matches the worked closed-form characteristic
polynomials of the example families, and agrees entry-by-entry with probing
the actual transform (see the stage-system cross-validation tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalar import GaussianRational, KPoly, ONE, _as_kpoly, integer_roots_ge2, make_monic
from .surface import Jet7


class KMatrix:
    """Square matrix of KPoly entries."""

    __slots__ = ("dimension", "entries")

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("KMatrix must be square")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "entries", tuple(tuple(_as_kpoly(e) for e in r) for r in rows))

    def __setattr__(self, *args):
        raise AttributeError("KMatrix is immutable")

    def entry(self, i: int, j: int) -> KPoly:
        return self.entries[i][j]

    def eval_at(self, k: int):
        """Numeric matrix (GaussianRational) at a concrete stage index."""
        kk = GaussianRational(k)
        return [[e(kk) for e in row] for row in self.entries]


def matrix_A(j: Jet7) -> KMatrix:
    """The 9x9 stage matrix over KPoly.

    Rows: Re d10, Im d10, d11, Re d21, Im d21, d22, Re d32, Im d32, d33.
    Columns: Re g1, Im g1, Re f0, Im f0, Re g0, Re f1, Im f1, Re f2, Im f2.
    """
    k = KPoly.k()
    half = Fraction(1, 2)
    p = GaussianRational(j.phi22.re)
    q = GaussianRational(j.phi33.re)
    Rr, Ir = GaussianRational(j.phi32.re), GaussianRational(j.phi32.im)
    Rs, Is = GaussianRational(j.phi42.re), GaussianRational(j.phi42.im)
    Rt, It = GaussianRational(j.phi43.re), GaussianRational(j.phi43.im)
    km1 = k - 1
    # recurring polynomial pieces
    kk3_4 = k * (k - 3) * Fraction(1, 4)           # k(k-3)/4
    c2 = km1 * (k - 2) * half                      # (k-1)(k-2)/2
    g0_33 = km1 * q + k * km1 * (KPoly.constant(5) - k) * Fraction(1, 6)
    return KMatrix([
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


def matrix_B(j: Jet7) -> KMatrix:
    """The 4x4 reduction of matrix_A: det A = 1/4 (k-1) det B."""
    k = KPoly.k()
    p = GaussianRational(j.phi22.re)
    q = GaussianRational(j.phi33.re)
    Rr, Ir = GaussianRational(j.phi32.re), GaussianRational(j.phi32.im)
    Rs, Is = GaussianRational(j.phi42.re), GaussianRational(j.phi42.im)
    Rt, It = GaussianRational(j.phi43.re), GaussianRational(j.phi43.im)
    km1 = k - 1
    core = 2 * k * k - 4 * k + KPoly.constant(3) + 4 * p * p - 3 * q
    return KMatrix([
        [-6 * Rr, 6 * Ir, -2 * p, 2 * km1],
        [core - 4 * Rs, 2 * km1 * p + 4 * Is, -3 * Rr, Ir],
        [2 * km1 * p - 4 * Is, -(core + 4 * Rs), -3 * Ir, -Rr],
        [2 * km1 * Ir + 8 * (p * Rr - Rt), 2 * km1 * Rr + 8 * (It - p * Ir),
         (k * k - 2 * k + KPoly.constant(3)) * Fraction(2, 3) - 4 * q, 6 * km1 * p],
    ])


def det(Mx: KMatrix) -> KPoly:
    """Exact determinant over the polynomial ring (memoized minor expansion)."""
    n = Mx.dimension
    if n == 0:
        return KPoly.constant(1)
    cache: dict = {}
    full = (1 << n) - 1

    def minor(row: int, colmask: int) -> KPoly:
        if row == n:
            return KPoly.constant(1)
        got = cache.get(colmask)
        if got is not None:
            return got
        acc = KPoly()
        pos = 0
        for jcol in range(n):
            bit = 1 << jcol
            if not (colmask & bit):
                continue
            e = Mx.entries[row][jcol]
            if not e.is_zero():
                sub = minor(row + 1, colmask & ~bit)
                term = e * sub
                acc = acc + term if pos % 2 == 0 else acc - term
            pos += 1
        cache[colmask] = acc
        return acc

    return minor(0, full)


@dataclass
class ResonanceReport:
    """Monic characteristic polynomial with its scaling and integer roots."""

    char_poly: KPoly
    monic_constant: GaussianRational
    resonances: list
    jet: Jet7


def char_poly(j: Jet7) -> ResonanceReport:
    """P = c det B with c chosen to make P monic; resonances = integer roots >= 2."""
    dB = det(matrix_B(j))
    if dB.is_zero():
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
